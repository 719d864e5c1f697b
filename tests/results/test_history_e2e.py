"""End-to-end run-history parity: direct, CLI, and service surfaces.

The PR's acceptance criterion: ``repro scenario history`` and the service's
``GET /v1/history/<scenario>`` must return the SAME trend series for a
scenario run once directly and once through the service — both render
:func:`repro.results.history_payload` over the same store.
"""

import json

import pytest

from repro.api import RunRequest, run as api_run
from repro.harness.cli import main as cli_main
from repro.results import history_payload
from repro.service import ExperimentService, QuotaManager, ServiceClient, ServiceClientError


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@pytest.fixture()
def results_db(tmp_path):
    return str(tmp_path / "results.sqlite3")


@pytest.fixture()
def service(results_db):
    svc = ExperimentService(
        port=0, workers=2, results_db=results_db,
        quotas=QuotaManager(max_active_jobs=None, rate=None),
    )
    svc.start()
    try:
        yield svc
    finally:
        svc.stop()


class TestDirectAndServiceLandInOneStore:
    def test_same_series_from_cli_and_http(self, service, results_db, tmp_path):
        # run once directly (same record_to sink the task manager uses) ...
        api_run(
            RunRequest(kind="scenario", scenario="quickstart", iterations=20),
            record_to=service.runs,
        )
        # ... and once through the service
        client = ServiceClient(service.url, tenant="history")
        job = client.submit("scenario", {"name": "quickstart", "iterations": 20})
        assert client.wait(job["id"], timeout=180)["state"] == "DONE"

        http = client.history("quickstart")
        assert len(http["series"]["lssr"]) == 2
        # deterministic training: both runs produced identical metric values
        values = {point["value"] for point in http["series"]["lssr"]}
        assert len(values) == 1

        json_path = tmp_path / "history.json"
        assert cli_main([
            "scenario", "history", "quickstart",
            "--store", results_db, "--json", str(json_path),
        ]) == 0
        cli_payload = json.loads(json_path.read_text())
        assert canonical(cli_payload) == canonical(http)

        direct = history_payload(service.runs, "quickstart")
        assert canonical(direct) == canonical(http)

    def test_history_runs_pagination_and_scenario_index(self, service):
        client = ServiceClient(service.url)
        for _ in range(3):
            job = client.submit("scenario", {"name": "quickstart", "iterations": 20})
            assert client.wait(job["id"], timeout=180)["state"] == "DONE"
        assert client.history_scenarios()["scenarios"] == ["quickstart"]
        page = client.history_runs("quickstart", limit=2)
        assert len(page["runs"]) == 2 and "next_marker" in page
        rest = client.history_runs("quickstart", marker=page["next_marker"])
        assert len(rest["runs"]) == 1 and "next_marker" not in rest
        ids = [run["run_id"] for run in page["runs"] + rest["runs"]]
        assert len(set(ids)) == 3

    def test_metrics_and_last_query_params(self, service):
        client = ServiceClient(service.url)
        for _ in range(2):
            job = client.submit("scenario", {"name": "quickstart", "iterations": 20})
            assert client.wait(job["id"], timeout=180)["state"] == "DONE"
        body = client.history("quickstart", metrics="lssr", last=1)
        assert body["metrics"] == ["lssr"]
        assert len(body["series"]["lssr"]) == 1


class TestHistoryErrors:
    def test_unknown_scenario_is_404(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceClientError) as err:
            client.history("never-ran")
        assert err.value.status == 404

    def test_bad_last_is_400(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceClientError) as err:
            client.history("quickstart", last="zero")
        assert err.value.status == 400

    def test_runs_live_with_the_jobs_without_a_results_db(self, tmp_path):
        db = str(tmp_path / "jobs.sqlite3")
        with ExperimentService(port=0, workers=1, db_path=db) as svc:
            assert svc.runs is svc.store
            client = ServiceClient(svc.url)
            assert client.history_scenarios() == {"scenarios": []}
            job = client.submit("scenario", {"name": "quickstart", "iterations": 20})
            assert client.wait(job["id"], timeout=180)["state"] == "DONE"
            assert client.history_scenarios()["scenarios"] == ["quickstart"]
            http = client.history("quickstart")
            (run,) = client.history_runs("quickstart")["runs"]
        assert [point["run_id"] for point in http["series"]["lssr"]] == [run["run_id"]]
        assert canonical(history_payload(db, "quickstart")) == canonical(http)

    def test_cli_history_missing_store_exits_2(self, tmp_path, capsys):
        rc = cli_main(["scenario", "history",
                       "--store", str(tmp_path / "absent.sqlite3")])
        assert rc == 2
        assert "no results store" in capsys.readouterr().err

    def test_cli_scenario_history_missing_store_exits_2_and_creates_nothing(
        self, tmp_path, capsys
    ):
        store = tmp_path / "absent.sqlite3"
        rc = cli_main(["scenario", "history", "fig6", "--store", str(store)])
        assert rc == 2
        assert "no results store" in capsys.readouterr().err
        assert not store.exists()
        assert list(tmp_path.iterdir()) == []
