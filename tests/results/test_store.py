"""The run side of the store: schema versioning, appends, pagination, trends.

Recorded runs are the repo's memory of what its runs computed, so these
tests pin the durability contracts: loud failure on a schema-version
mismatch (v1 files of either former kind included), transactional appends
that stay consistent under task-manager-style thread concurrency, the
Trove-style pagination shared with the job listing, and one read per
history request.
"""

import sqlite3
import threading

import pytest

from repro.results import Provenance, build_provenance, history_payload
from repro.service.exceptions import NotFound
from repro.service.store import SCHEMA_VERSION, Store, open_store


def record(value, label="run", **params):
    return {"params": params, "label": label, "metrics": {"steps_per_sec": value}}


#: Tables of a version-1 file of each former kind (a job file, a results file).
V1_TABLES = {
    "jobs": ["jobs (seq INTEGER PRIMARY KEY, id TEXT, meta TEXT, num_records INTEGER)"],
    "results": ["runs (seq INTEGER PRIMARY KEY, run_id TEXT)",
                "records (run_id TEXT, idx INTEGER, label TEXT, params TEXT, metrics TEXT)"],
}


def schema_sql(path):
    conn = sqlite3.connect(path)
    try:
        return sorted(row[0] for row in conn.execute("SELECT sql FROM sqlite_master"))
    finally:
        conn.close()


class TestSchemaVersion:
    def test_round_trips_on_disk(self, tmp_path):
        path = str(tmp_path / "results.sqlite3")
        with Store(path) as store:
            store.append("quickstart", "scenario", [record(10.0)])
        with Store(path) as store:
            assert store.scenarios() == ["quickstart"]

    def test_mismatched_version_fails_loudly(self, tmp_path):
        path = str(tmp_path / "results.sqlite3")
        Store(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE schema_version SET version = ?", (SCHEMA_VERSION + 1,))
        conn.commit()
        conn.close()
        with pytest.raises(RuntimeError, match="schema version"):
            Store(path)

    @pytest.mark.parametrize("kind", sorted(V1_TABLES))
    def test_a_version_1_file_is_refused_untouched(self, tmp_path, kind):
        path = str(tmp_path / f"{kind}.sqlite3")
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE schema_version (version INTEGER NOT NULL);"
            "INSERT INTO schema_version VALUES (1);"
            + "".join(f"CREATE TABLE {table};" for table in V1_TABLES[kind])
        )
        conn.close()
        before = schema_sql(path)
        with pytest.raises(RuntimeError) as excinfo:
            Store(path)
        assert str(excinfo.value) == (
            f"store {path!r} has schema version 1, this build supports {SCHEMA_VERSION}"
        )
        assert schema_sql(path) == before

    def test_uses_wal_journal_mode(self, tmp_path):
        store = Store(str(tmp_path / "results.sqlite3"))
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        store.close()
        assert mode == "wal"


class TestAppend:
    def test_append_stores_provenance_and_records(self):
        store = Store()
        prov = build_provenance({"iterations": 8})
        run = store.append(
            "quickstart", "scenario", [record(10.0), record(11.0)],
            meta={"iterations": 8}, tags=["nightly"], provenance=prov,
        )
        assert run.run_id == prov.run_id
        assert run.config_hash == prov.config_hash
        assert run.num_records == 2
        assert run.tags == ["nightly"]
        assert run.job_id is None
        records, total = store.get_records(run.run_id)
        assert total == 2
        assert records[0]["metrics"]["steps_per_sec"] == 10.0

    def test_append_builds_provenance_from_meta_when_absent(self):
        store = Store(clock=lambda: 123.0)
        a = store.append("s", "scenario", [record(1.0)], meta={"iterations": 8})
        b = store.append("s", "scenario", [record(2.0)], meta={"iterations": 8})
        c = store.append("s", "scenario", [record(3.0)], meta={"iterations": 9})
        assert a.config_hash == b.config_hash != c.config_hash
        assert a.run_id != b.run_id
        assert a.started_at == 123.0

    def test_records_keep_every_key(self):
        traced = {**record(1.0), "phases": {"engine.forward": {"seconds": 0.5}}}
        store = Store()
        run = store.append("s", "scenario", [traced, record(2.0)])
        assert store.get_records(run.run_id) == ([traced, record(2.0)], 2)

    def test_a_job_has_at_most_one_run(self):
        store = Store()
        store.append("s", "scenario", [record(1.0)], job_id="job-1")
        with pytest.raises(sqlite3.IntegrityError):
            store.append("s", "scenario", [record(2.0)], job_id="job-1")
        (run,), _ = store.runs()
        assert store.job_run("job-1") == run and store.job_run("job-2") is None
        assert store.get_records(run.run_id)[1] == 1

    def test_concurrent_appends_from_worker_threads(self, tmp_path):
        """Task-manager-style concurrency: every append lands exactly once."""
        store = Store(str(tmp_path / "results.sqlite3"))
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
        store = Store(clock=iter(range(100)).__next__)
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

    def test_scenarios_and_metric_names(self):
        store = self.make_store()
        assert store.scenarios() == ["other", "sweep"]
        assert history_payload(store, "sweep")["metrics"] == ["steps_per_sec"]

    def test_trend_means_over_records_and_where_restricts(self):
        store = self.make_store()
        assert values(store, "steps_per_sec") == [15.0, 16.0, 17.0, 18.0, 19.0]
        at_zero = values(store, "steps_per_sec", where={"delta": 0.0})
        assert at_zero == [10.0, 11.0, 12.0, 13.0, 14.0]
        assert values(store, "steps_per_sec", last=2) == [18.0, 19.0]

    def test_get_records_offset_limit(self):
        store = self.make_store()
        run = store.runs(scenario="sweep", limit=1)[0][0]
        page, total = store.get_records(run.run_id, offset=1, limit=5)
        assert total == 2 and len(page) == 1
        assert page[0]["params"]["delta"] == 1.0

    def test_get_run_unknown_id_raises(self):
        with pytest.raises(NotFound):
            Store().get_run("nope")


class TestOpenStore:
    def test_path_is_owned_instance_is_not(self, tmp_path):
        handle, owns = open_store(str(tmp_path / "r.sqlite3"))
        assert owns
        handle.close()
        store = Store()
        same, owns = open_store(store)
        assert same is store and not owns
        store.close()


def provenance(run_id, git_sha="a" * 40, started_at=0.0):
    return Provenance(
        run_id=run_id, config_hash="c" * 16, git_sha=git_sha, started_at=started_at
    )


class TestTags:
    def test_several_tags_round_trip_in_order(self):
        store = Store()
        run = store.append("s", "scenario", [record(1.0)], tags=["pr", "nightly", "x86"])
        assert store.get_run(run.run_id).tags == ["pr", "nightly", "x86"]
        assert run.to_dict()["tags"] == ["pr", "nightly", "x86"]


class TestRunListing:
    def make_store(self):
        store = Store()
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

    def test_exact_final_page_has_no_next_marker(self):
        store = self.make_store()
        assert store.runs(limit=6)[1] is None
        page, marker = store.runs(limit=5)
        assert marker == page[-1].run_id == "run-4"
        assert store.runs(limit=5, marker=marker) == ([store.get_run("run-5")], None)

    def test_limit_below_one_is_clamped_to_one(self):
        store = self.make_store()
        page, marker = store.runs(limit=0)
        assert [run.run_id for run in page] == ["run-0"]
        assert marker == "run-0"

    def test_unknown_marker_raises(self):
        with pytest.raises(NotFound, match="unknown marker 'run-99'"):
            self.make_store().runs(marker="run-99")

    def test_a_marker_from_another_scenario_is_unknown(self):
        with pytest.raises(NotFound, match="unknown marker 'run-4'"):
            self.make_store().runs(scenario="sweep", marker="run-4")


def trend(store, metric, scenario="sweep", **kwargs):
    """One metric's series of :func:`history_payload` (``[]`` when absent)."""
    payload = history_payload(store, scenario, metrics=[metric], **kwargs)
    return payload["series"].get(metric, [])


def values(store, metric, **kwargs):
    return [point["value"] for point in trend(store, metric, **kwargs)]


class TestTrendQueries:
    def make_store(self):
        store = Store(clock=iter(range(100)).__next__)
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
        points = trend(store, "steps_per_sec")
        runs, _ = store.runs(scenario="sweep")
        assert [p["run_id"] for p in points] == [run.run_id for run in runs]
        for point, run in zip(points, runs):
            assert point["git_sha"] == run.git_sha
            assert point["config_hash"] == run.config_hash
            assert point["started_at"] == run.started_at

    def test_runs_without_the_metric_are_skipped(self):
        store = self.make_store()
        points = trend(store, "lssr")
        assert [p["value"] for p in points] == [0.5]
        assert points[0]["run_id"] == store.runs(scenario="sweep")[0][2].run_id

    def test_where_matching_nothing_is_empty(self):
        store = self.make_store()
        assert trend(store, "steps_per_sec", where={"delta": 0.25}) == []
        assert trend(store, "steps_per_sec", where={"lr": 0.1}) == []

    def test_where_composes_with_last(self):
        store = self.make_store()
        assert values(store, "steps_per_sec", where={"delta": 1.0}, last=2) == [22.0, 23.0]

    def test_last_beyond_history_keeps_everything_and_zero_keeps_one(self):
        store = self.make_store()
        assert len(trend(store, "steps_per_sec", last=50)) == 4
        assert values(store, "steps_per_sec", last=0) == [18.0]

    def test_unknown_scenario_has_no_points_and_no_metrics(self):
        store = self.make_store()
        assert trend(store, "steps_per_sec", scenario="nope") == []
        assert history_payload(store, "nope") == {"scenario": "nope", "metrics": [], "series": {}}

    def test_metric_names_are_the_union_over_records(self):
        assert history_payload(self.make_store(), "sweep")["metrics"] == [
            "lssr", "steps_per_sec"
        ]


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
        with Store(path) as store:
            store.append("quickstart", "scenario", [record(3.0)], tags=["nightly"])
        payload = history_payload(path, "quickstart")
        assert [p["value"] for p in payload["series"]["steps_per_sec"]] == [3.0]

    def test_one_statement_whatever_the_runs_and_metrics(self):
        def statements(num_runs, num_metrics):
            store = Store()
            for i in range(num_runs):
                metrics = {f"m{k}": float(i + k) for k in range(num_metrics)}
                store.append("s", "sweep", [
                    {"params": {"delta": d}, "label": "r", "metrics": metrics}
                    for d in (0.0, 1.0)
                ])
            executed = []
            store._conn.set_trace_callback(executed.append)
            payload = history_payload(store, "s")
            store._conn.set_trace_callback(None)
            assert len(payload["series"]) == num_metrics
            assert all(len(points) == num_runs for points in payload["series"].values())
            return executed

        assert len(statements(1, 1)) == 1
        assert statements(5, 3) == statements(1, 1)
