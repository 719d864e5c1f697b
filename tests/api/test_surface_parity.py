"""Every run setting is reachable through every surface, generated from the fields.

The tests are parametrised over ``dataclasses.fields(RunConfig)`` and over
each trainer's constructor keywords, so a field or keyword added later
without a value here (and so without a checked surface) fails them.
"""

import dataclasses

import pytest

from repro.api import request_from_action, run
from repro.compression import TopKCompressor
from repro.core.config import SelSyncConfig
from repro.data.injection import DataInjection
from repro.harness import experiment
from repro.harness.cli import main
from repro.harness.experiment import TRAINERS, RunConfig, algorithm_params, run_experiment
from repro.service.schemas import SCHEMAS, validate_payload

#: The fields every case shares: a two-worker, two-step deep-MLP SelSync run.
BASE = {"workload": "deep_mlp", "num_workers": 2, "iterations": 2}

#: One non-default value per RunConfig field.
FIELD_VALUES = {
    "workload": "alexnet",
    "algorithm": "local_sgd",
    "params": {"delta": 0.5},
    "num_workers": 3,
    "iterations": 3,
    "seed": 1,
    "eval_every": 1,
    "batch_size": 8,
    "use_default_partitioning": True,
    "dtype": "float32",
    "transport_dtype": "float16",
    "fault_seed": 3,
    "failure_rate": 0.5,
    "straggler_fraction": 0.5,
    "mttr": 2,
    "fault_checkpoint_every": 1,
}

FIELDS = [f.name for f in dataclasses.fields(RunConfig)]


def _expected(name):
    config = RunConfig(**{**BASE, name: FIELD_VALUES[name]})
    assert getattr(config, name) == FIELD_VALUES[name]
    assert getattr(config, name) != getattr(RunConfig("deep_mlp"), name)
    return config


@pytest.fixture()
def reached(monkeypatch):
    """The configs that reach ``run_experiment``, from any surface."""
    configs = []
    real = experiment.run_experiment

    def spy(config, **kwargs):
        configs.append(config)
        return real(config, **kwargs)

    monkeypatch.setattr(experiment, "run_experiment", spy)
    return configs


@pytest.mark.parametrize("name", FIELDS)
def test_run_experiment(name):
    config = _expected(name)
    assert run_experiment(config).iterations == config.iterations


@pytest.mark.parametrize("name", FIELDS)
def test_api_run(name, reached):
    run(kind="experiment", **{**BASE, name: FIELD_VALUES[name]})
    assert reached == [_expected(name)]


@pytest.mark.parametrize("name", FIELDS)
def test_service_schema(name):
    props = SCHEMAS["experiment"]["properties"]
    assert set(props) == set(FIELDS)
    payload = {**BASE, name: FIELD_VALUES[name]}
    validate_payload("experiment", payload)
    assert request_from_action("experiment", payload).target == _expected(name)


def _flags(name, value):
    if name == "params":
        return [arg for key, v in value.items() for arg in ("--param", f"{key}={v}")]
    flag = "--" + name.replace("_", "-")
    return [flag] if value is True else [flag, str(value)]


@pytest.mark.parametrize("name", FIELDS)
def test_repro_run_flag(name, reached, capsys):
    argv = ["run"]
    for key, value in {**BASE, name: FIELD_VALUES[name]}.items():
        argv += _flags(key, value)
    assert main(argv) == 0
    assert reached == [_expected(name)]


#: One value per trainer constructor keyword (and SelSyncConfig field).
PARAM_VALUES = {
    "config": SelSyncConfig(delta=0.5),
    "injection": DataInjection(alpha=0.5, beta=0.5, num_workers=2),
    "delta": 0.5,
    "aggregation": "grad",
    "ewma_alpha": 0.5,
    "statistic": "norm",
    "sync_on_first_step": False,
    "injection_alpha": 0.5,
    "injection_beta": 0.5,
    "participation": 0.5,
    "sync_factor": 0.5,
    "seed": 3,
    "staleness": 5,
    "sync_period": 2,
    "compressor": TopKCompressor(ratio=0.1),
    "error_feedback": False,
}

#: Params a keyword cannot be set without.
COMPANIONS = {
    "injection_alpha": {"injection_beta": 0.5},
    "injection_beta": {"injection_alpha": 0.5},
    "error_feedback": {"compressor": TopKCompressor(ratio=0.1)},
}

TRAINER_KEYWORDS = [(a, name) for a in TRAINERS for name in algorithm_params(a)]


class _Built(Exception):
    """Raised by the spied constructor once it has seen its keywords."""


@pytest.mark.parametrize("algorithm, name", TRAINER_KEYWORDS)
def test_every_trainer_keyword_is_reachable_through_params(algorithm, name, monkeypatch):
    value = PARAM_VALUES[name]
    config = RunConfig(**BASE, algorithm=algorithm,
                       params={**COMPANIONS.get(name, {}), name: value})
    seen = {}

    def constructor(self, cluster, **kwargs):
        seen.update(kwargs)
        raise _Built

    monkeypatch.setattr(TRAINERS[algorithm], "__init__", constructor)
    with pytest.raises(_Built):
        run_experiment(config)
    config_fields = {f.name for f in dataclasses.fields(SelSyncConfig)}
    if name in config_fields:
        assert getattr(seen["config"], name) == value
    else:
        assert seen[name] is value
