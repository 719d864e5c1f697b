"""Run identity: config hashing, git sha resolution, api.run stamping."""

import pytest

from repro.api import RunRequest, run as api_run
from repro.results import build_provenance, config_hash
from repro.results import provenance as provenance_module
from repro.results.provenance import Provenance, current_git_sha, new_run_id
from repro.service.store import Store


@pytest.fixture()
def fresh_sha_cache(monkeypatch):
    """Reset the module-level git-sha cache around a test."""
    monkeypatch.setattr(provenance_module, "_git_sha_cache", None)
    yield
    monkeypatch.setattr(provenance_module, "_git_sha_cache", None)


class TestConfigHash:
    def test_key_order_does_not_matter(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_different_configs_hash_differently(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_non_json_values_fall_back_to_str(self):
        assert config_hash({"dtype": float}) == config_hash({"dtype": float})

    def test_hash_is_short_hex(self):
        digest = config_hash({"a": 1})
        assert len(digest) == 16
        int(digest, 16)


class TestGitSha:
    def test_env_override_wins(self, fresh_sha_cache, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "abc123")
        assert current_git_sha() == "abc123"

    def test_cached_after_first_lookup(self, fresh_sha_cache, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "first")
        assert current_git_sha() == "first"
        monkeypatch.setenv("REPRO_GIT_SHA", "second")
        assert current_git_sha() == "first"


class TestProvenance:
    def test_round_trips_through_dict(self):
        prov = build_provenance({"a": 1}, clock=lambda: 5.0)
        assert Provenance.from_dict(prov.to_dict()) == prov
        assert prov.started_at == 5.0

    def test_run_ids_are_unique(self):
        assert new_run_id() != new_run_id()


class TestApiStamping:
    def test_api_run_stamps_provenance_once(self):
        out = api_run(kind="throughput", workloads=["resnet101"], worker_counts=[1, 2])
        assert out.run_id and out.config_hash and out.git_sha
        assert out.meta["provenance"]["run_id"] == out.run_id
        payload = out.to_dict()
        assert payload["provenance"]["config_hash"] == out.config_hash

    def test_same_request_same_config_hash_distinct_run_ids(self):
        request = {"kind": "throughput", "workloads": ["resnet101"], "worker_counts": [1]}
        a = api_run(RunRequest.from_dict(dict(request)))
        b = api_run(RunRequest.from_dict(dict(request)))
        assert a.config_hash == b.config_hash
        assert a.run_id != b.run_id

    def test_record_to_appends_to_the_store(self):
        store = Store()
        out = api_run(
            RunRequest(kind="throughput", workloads=["resnet101"], worker_counts=[1, 2]),
            record_to=store,
        )
        run = store.get_run(out.run_id)
        assert run.config_hash == out.config_hash
        assert run.num_records == len(out.records)
        records, total = store.get_records(out.run_id)
        assert total == len(out.records)
        assert records == out.records
