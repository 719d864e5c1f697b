"""ResultsStore: schema versioning, appends, pagination, trends.

The store is the repo's perf memory, so these tests pin the durability
contracts: loud failure on a schema-version mismatch, transactional appends
that stay consistent under task-manager-style thread concurrency, and the
Trove-style pagination semantics shared with the job store.
"""

import sqlite3
import threading

import pytest

from repro.results import (
    Provenance,
    ResultsStore,
    SCHEMA_VERSION,
    build_provenance,
    history_payload,
    open_store,
)


def record(value, label="run", **params):
    return {"params": params, "label": label, "metrics": {"steps_per_sec": value}}


class TestSchemaVersion:
    def test_round_trips_on_disk(self, tmp_path):
        path = str(tmp_path / "results.sqlite3")
        with ResultsStore(path) as store:
            store.append("quickstart", "scenario", [record(10.0)])
        with ResultsStore(path) as store:
            assert store.scenarios() == ["quickstart"]

    def test_mismatched_version_fails_loudly(self, tmp_path):
        path = str(tmp_path / "results.sqlite3")
        ResultsStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE schema_version SET version = ?", (SCHEMA_VERSION + 1,))
        conn.commit()
        conn.close()
        with pytest.raises(RuntimeError, match="schema version"):
            ResultsStore(path)

    def test_uses_wal_journal_mode(self, tmp_path):
        store = ResultsStore(str(tmp_path / "results.sqlite3"))
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        store.close()
        assert mode == "wal"


class TestAppend:
    def test_append_stores_provenance_and_records(self):
        store = ResultsStore()
        prov = build_provenance({"iterations": 8})
        run = store.append(
            "quickstart", "scenario", [record(10.0), record(11.0)],
            meta={"iterations": 8}, tags=["nightly"], provenance=prov,
        )
        assert run.run_id == prov.run_id
        assert run.config_hash == prov.config_hash
        assert run.num_records == 2
        assert run.tags == ["nightly"]
        records, total = store.get_records(run.run_id)
        assert total == 2
        assert records[0]["metrics"]["steps_per_sec"] == 10.0

    def test_append_builds_provenance_from_meta_when_absent(self):
        store = ResultsStore(clock=lambda: 123.0)
        a = store.append("s", "scenario", [record(1.0)], meta={"iterations": 8})
        b = store.append("s", "scenario", [record(2.0)], meta={"iterations": 8})
        c = store.append("s", "scenario", [record(3.0)], meta={"iterations": 9})
        assert a.config_hash == b.config_hash != c.config_hash
        assert a.run_id != b.run_id
        assert a.started_at == 123.0

    def test_concurrent_appends_from_worker_threads(self, tmp_path):
        """Task-manager-style concurrency: every append lands exactly once."""
        store = ResultsStore(str(tmp_path / "results.sqlite3"))
        per_thread, threads = 10, 8
        errors = []

        def worker(tid):
            try:
                for i in range(per_thread):
                    store.append(
                        "concurrent", "scenario",
                        [record(float(i), thread=tid)],
                        meta={"thread": tid, "i": i},
                    )
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

        pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert errors == []
        runs, next_marker = store.runs(scenario="concurrent", limit=per_thread * threads)
        assert next_marker is None
        assert len(runs) == per_thread * threads
        assert len({run.run_id for run in runs}) == per_thread * threads
        # seq ordering is a gapless chronological total order
        assert [run.seq for run in runs] == sorted(run.seq for run in runs)


class TestQueries:
    def make_store(self):
        store = ResultsStore(clock=iter(range(100)).__next__)
        for i in range(5):
            store.append(
                "sweep", "sweep",
                [record(10.0 + i, delta=0.0), record(20.0 + i, delta=1.0)],
                meta={"i": i}, tags=["nightly"] if i % 2 == 0 else ["adhoc"],
            )
        store.append("other", "scenario", [record(1.0)])
        return store

    def test_marker_pagination_walks_every_run_once(self):
        store = self.make_store()
        seen, marker = [], None
        while True:
            page, marker = store.runs(scenario="sweep", limit=2, marker=marker)
            seen.extend(run.run_id for run in page)
            if marker is None:
                break
        assert len(seen) == len(set(seen)) == 5

    def test_tag_filter_composes_with_pagination(self):
        store = self.make_store()
        runs, next_marker = store.runs(scenario="sweep", tag="nightly", limit=10)
        assert next_marker is None
        assert len(runs) == 3
        assert all("nightly" in run.tags for run in runs)

    def test_scenarios_and_metric_names(self):
        store = self.make_store()
        assert store.scenarios() == ["other", "sweep"]
        assert store.metric_names("sweep") == ["steps_per_sec"]

    def test_trend_means_over_records_and_where_restricts(self):
        store = self.make_store()
        points = store.trend("sweep", "steps_per_sec")
        assert [p["value"] for p in points] == [15.0, 16.0, 17.0, 18.0, 19.0]
        at_zero = store.trend("sweep", "steps_per_sec", where={"delta": 0.0})
        assert [p["value"] for p in at_zero] == [10.0, 11.0, 12.0, 13.0, 14.0]
        last_two = store.trend("sweep", "steps_per_sec", last=2)
        assert [p["value"] for p in last_two] == [18.0, 19.0]

    def test_get_records_offset_limit(self):
        store = self.make_store()
        run = store.runs(scenario="sweep", limit=1)[0][0]
        page, total = store.get_records(run.run_id, offset=1, limit=5)
        assert total == 2 and len(page) == 1
        assert page[0]["params"]["delta"] == 1.0

    def test_get_run_unknown_id_raises(self):
        with pytest.raises(KeyError):
            ResultsStore().get_run("nope")


class TestOpenStore:
    def test_path_is_owned_instance_is_not(self, tmp_path):
        handle, owns = open_store(str(tmp_path / "r.sqlite3"))
        assert owns
        handle.close()
        store = ResultsStore()
        same, owns = open_store(store)
        assert same is store and not owns
        store.close()


def provenance(run_id, git_sha="a" * 40, started_at=0.0):
    return Provenance(
        run_id=run_id, config_hash="c" * 16, git_sha=git_sha, started_at=started_at
    )


class TestTags:
    def test_several_tags_round_trip_in_order(self):
        store = ResultsStore()
        run = store.append("s", "scenario", [record(1.0)], tags=["pr", "nightly", "x86"])
        assert store.get_run(run.run_id).tags == ["pr", "nightly", "x86"]
        assert run.to_dict()["tags"] == ["pr", "nightly", "x86"]

    def test_tag_filter_matches_whole_tags_only(self):
        store = ResultsStore()
        store.append("s", "scenario", [record(1.0)], tags=["nightly"])
        store.append("s", "scenario", [record(2.0)], tags=["night"])
        nightly, _ = store.runs(tag="nightly")
        night, _ = store.runs(tag="night")
        assert [run.tags for run in nightly] == [["nightly"]]
        assert [run.tags for run in night] == [["night"]]

    def test_untagged_runs_match_no_tag(self):
        store = ResultsStore()
        store.append("s", "scenario", [record(1.0)])
        assert store.runs(tag="nightly") == ([], None)
        assert len(store.runs()[0]) == 1


class TestRunListing:
    def make_store(self):
        store = ResultsStore()
        for i in range(6):
            store.append(
                "sweep" if i < 4 else "other",
                "sweep" if i < 4 else "scenario",
                [record(float(i))],
                tags=["nightly" if i % 2 == 0 else "pr"],
                provenance=provenance(
                    f"run-{i}", git_sha=("a" if i < 3 else "b") * 40, started_at=10.0 * i
                ),
            )
        return store

    def test_tag_filter_walks_pages_with_a_marker(self):
        store = self.make_store()
        seen, marker, pages = [], None, 0
        while True:
            page, marker = store.runs(tag="nightly", limit=1, marker=marker)
            seen.extend(run.run_id for run in page)
            pages += 1
            if marker is None:
                break
        assert seen == ["run-0", "run-2", "run-4"]
        assert pages == 3

    def test_exact_final_page_has_no_next_marker(self):
        store = self.make_store()
        assert store.runs(limit=6)[1] is None
        page, marker = store.runs(limit=5)
        assert marker == page[-1].run_id == "run-4"
        assert store.runs(limit=5, marker=marker) == ([store.get_run("run-5")], None)

    def test_kind_and_git_sha_filters_compose(self):
        store = self.make_store()
        runs, _ = store.runs(kind="sweep", git_sha="b" * 40)
        assert [run.run_id for run in runs] == ["run-3"]
        runs, _ = store.runs(kind="scenario")
        assert [run.run_id for run in runs] == ["run-4", "run-5"]

    def test_since_and_until_bound_started_at_inclusively(self):
        store = self.make_store()
        runs, _ = store.runs(since=10.0, until=30.0)
        assert [run.run_id for run in runs] == ["run-1", "run-2", "run-3"]

    def test_limit_below_one_is_clamped_to_one(self):
        store = self.make_store()
        page, marker = store.runs(limit=0)
        assert [run.run_id for run in page] == ["run-0"]
        assert marker == "run-0"

    def test_unknown_marker_raises(self):
        with pytest.raises(KeyError, match="no such run"):
            self.make_store().runs(marker="run-99")


class TestTrendQueries:
    def make_store(self):
        store = ResultsStore(clock=iter(range(100)).__next__)
        for i in range(4):
            records = [record(10.0 + i, delta=0.0), record(20.0 + i, delta=1.0)]
            if i == 2:
                records.append(
                    {"params": {"delta": 0.5}, "label": "extra", "metrics": {"lssr": 0.5}}
                )
            store.append("sweep", "sweep", records, meta={"i": i})
        return store

    def test_points_carry_the_run_identity(self):
        store = self.make_store()
        points = store.trend("sweep", "steps_per_sec")
        runs, _ = store.runs(scenario="sweep")
        assert [p["run_id"] for p in points] == [run.run_id for run in runs]
        for point, run in zip(points, runs):
            assert point["git_sha"] == run.git_sha
            assert point["config_hash"] == run.config_hash
            assert point["started_at"] == run.started_at

    def test_runs_without_the_metric_are_skipped(self):
        store = self.make_store()
        points = store.trend("sweep", "lssr")
        assert [p["value"] for p in points] == [0.5]
        assert points[0]["run_id"] == store.runs(scenario="sweep")[0][2].run_id

    def test_where_matching_nothing_is_empty(self):
        store = self.make_store()
        assert store.trend("sweep", "steps_per_sec", where={"delta": 0.25}) == []
        assert store.trend("sweep", "steps_per_sec", where={"lr": 0.1}) == []

    def test_where_composes_with_last(self):
        store = self.make_store()
        points = store.trend("sweep", "steps_per_sec", where={"delta": 1.0}, last=2)
        assert [p["value"] for p in points] == [22.0, 23.0]

    def test_last_beyond_history_keeps_everything_and_zero_keeps_one(self):
        store = self.make_store()
        assert len(store.trend("sweep", "steps_per_sec", last=50)) == 4
        assert [p["value"] for p in store.trend("sweep", "steps_per_sec", last=0)] == [18.0]

    def test_unknown_scenario_has_no_points_and_no_metrics(self):
        store = self.make_store()
        assert store.trend("nope", "steps_per_sec") == []
        assert store.metric_names("nope") == []

    def test_metric_names_are_the_union_over_records(self):
        assert self.make_store().metric_names("sweep") == ["lssr", "steps_per_sec"]


class TestHistoryPayload:
    def test_defaults_to_every_metric_and_drops_empty_series(self):
        store = TestTrendQueries().make_store()
        payload = history_payload(store, "sweep", where={"delta": 0.0})
        assert payload["scenario"] == "sweep"
        assert payload["metrics"] == ["lssr", "steps_per_sec"]
        assert list(payload["series"]) == ["steps_per_sec"]
        assert [p["value"] for p in payload["series"]["steps_per_sec"]] == [
            10.0, 11.0, 12.0, 13.0
        ]

    def test_metrics_and_last_select_the_series(self):
        store = TestTrendQueries().make_store()
        payload = history_payload(store, "sweep", metrics=["steps_per_sec"], last=1)
        assert payload["metrics"] == ["steps_per_sec"]
        assert [p["value"] for p in payload["series"]["steps_per_sec"]] == [18.0]

    def test_path_store_is_opened_and_read_back(self, tmp_path):
        path = str(tmp_path / "results.sqlite3")
        with ResultsStore(path) as store:
            store.append("quickstart", "scenario", [record(3.0)], tags=["nightly"])
        payload = history_payload(path, "quickstart")
        assert [p["value"] for p in payload["series"]["steps_per_sec"]] == [3.0]
