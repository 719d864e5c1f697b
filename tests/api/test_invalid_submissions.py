"""An invalid submission fails where it is submitted, on every surface.

:class:`~repro.harness.experiment.RunConfig` rejects each body below when
the request is built, so it never becomes a FAILED job, a traceback from
``repro run`` or (for ``eval_every=0``) a run at another cadence:
``RunRequest`` raises, the service answers 400 naming the field without
creating a job, and ``repro run`` exits 2 with one ``error:`` line.
"""

import json

import pytest

from repro.api import ApiError, RunRequest
from repro.harness.cli import EXIT_SCENARIO_ERROR, main
from repro.scenarios import ScenarioError
from repro.service import ExperimentService, QuotaManager, ServiceClient, ServiceClientError

#: ``(kind, body, text the error must name)``.
INVALID = {
    "ssp-with-failure-rate": (
        "experiment",
        {"workload": "deep_mlp", "algorithm": "ssp", "failure_rate": 0.1},
        "failure_rate",
    ),
    "unknown-param": (
        "experiment",
        {"workload": "deep_mlp", "algorithm": "bsp", "params": {"bogus": 1}},
        "bogus",
    ),
    "float16-compute-dtype": (
        "experiment",
        {"workload": "deep_mlp", "algorithm": "bsp", "dtype": "float16"},
        "dtype",
    ),
    "negative-delta": (
        "experiment",
        {"workload": "deep_mlp", "algorithm": "selsync", "params": {"delta": -1}},
        "delta",
    ),
    "fedavg-participation-above-one": (
        "experiment",
        {"workload": "deep_mlp", "algorithm": "fedavg", "params": {"participation": 2.0}},
        "participation",
    ),
    "fedavg-zero-sync-factor": (
        "experiment",
        {"workload": "deep_mlp", "algorithm": "fedavg", "params": {"sync_factor": 0.0}},
        "sync_factor",
    ),
    "ssp-negative-staleness": (
        "experiment",
        {"workload": "deep_mlp", "algorithm": "ssp", "params": {"staleness": -1}},
        "staleness",
    ),
    "local-sgd-zero-sync-period": (
        "experiment",
        {"workload": "deep_mlp", "algorithm": "local_sgd", "params": {"sync_period": 0}},
        "sync_period",
    ),
    "compressed-bsp-topk-ratio-above-one": (
        "experiment",
        {"workload": "deep_mlp", "algorithm": "compressed_bsp",
         "params": {"compressor": {"kind": "topk", "ratio": 2.0}}},
        "ratio",
    ),
    "compressed-bsp-topk-bool-ratio": (
        "experiment",
        {"workload": "deep_mlp", "algorithm": "compressed_bsp",
         "params": {"compressor": {"kind": "topk", "ratio": True}}},
        "ratio",
    ),
    "compressed-bsp-powersgd-fractional-rank": (
        "experiment",
        {"workload": "deep_mlp", "algorithm": "compressed_bsp",
         "params": {"compressor": {"kind": "powersgd", "rank": 2.5}}},
        "rank",
    ),
    "compressed-bsp-powersgd-bool-rank": (
        "experiment",
        {"workload": "deep_mlp", "algorithm": "compressed_bsp",
         "params": {"compressor": {"kind": "powersgd", "rank": True}}},
        "rank",
    ),
    "compressed-bsp-unknown-compressor-kind": (
        "experiment",
        {"workload": "deep_mlp", "algorithm": "compressed_bsp",
         "params": {"compressor": {"kind": "zip"}}},
        "compressor kind",
    ),
    "zero-eval-every": (
        "experiment",
        {"workload": "deep_mlp", "algorithm": "bsp", "eval_every": 0},
        "eval_every",
    ),
    "grid-over-unknown-param": (
        "sweep",
        {"workload": "deep_mlp", "algorithm": "selsync", "grid": {"bogus": [1, 2]}},
        "bogus",
    ),
    "grid-over-negative-delta": (
        "sweep",
        {"workload": "deep_mlp", "algorithm": "selsync", "grid": {"delta": [0.1, -1]}},
        "delta",
    ),
}

EXPERIMENTS = sorted(name for name, (kind, _, _) in INVALID.items() if kind == "experiment")


@pytest.fixture(scope="module")
def client():
    service = ExperimentService(workers=1, quotas=QuotaManager(max_active_jobs=None, rate=None))
    service.start()
    try:
        yield ServiceClient(service.url, tenant="invalid")
    finally:
        service.stop()


@pytest.mark.parametrize("case", sorted(INVALID))
def test_run_request_rejects_it(case):
    kind, body, field = INVALID[case]
    with pytest.raises((ApiError, ScenarioError), match=field):
        RunRequest(kind, **body)


@pytest.mark.parametrize("case", sorted(INVALID))
def test_service_answers_400_and_queues_nothing(case, client):
    kind, body, field = INVALID[case]
    with pytest.raises(ServiceClientError) as exc:
        client.submit(kind, body)
    assert exc.value.status == 400
    assert field in str(exc.value)
    assert client.jobs()["jobs"] == []


def _argv(body):
    argv = ["run"]
    for key, value in body.items():
        if key == "params":
            argv += [arg for k, v in value.items() for arg in ("--param", f"{k}={json.dumps(v)}")]
        else:
            argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


@pytest.mark.parametrize("case", EXPERIMENTS)
def test_repro_run_exits_2_with_one_error_line(case, capsys):
    _, body, field = INVALID[case]
    assert main(_argv(body)) == EXIT_SCENARIO_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["run", "--workload", "deep_mlp", "--param", "delta"],
    ["scenario", "history", "quickstart", "--where", "=0.1"],
])
def test_malformed_key_value_flag_exits_2(argv, capsys, tmp_path):
    store = tmp_path / "results.sqlite3"
    main(["scenario", "fig1a-throughput", "--record", str(store)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--store", str(store)] if argv[0] == "scenario" else []))
    assert exc.value.code == EXIT_SCENARIO_ERROR
    assert capsys.readouterr().err.startswith("error: ")
