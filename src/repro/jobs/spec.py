"""What a job runs: the serializable job specification.

A :class:`JobSpec` pins everything needed to execute a job on *any*
worker at *any* time: the figure to reproduce and the full
:class:`~repro.engine.EngineConfig` the sweep runs under.  The engine
section is the same frozen config object the blocking CLI builds,
so a job's result is byte-identical to the blocking path by
construction -- there is no second code path to drift.

Specs are content-addressable: :meth:`JobSpec.fingerprint` hashes the
canonical JSON form, which is how the service recognizes an already
COMPLETED job for the same work (``reuse_completed=True``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

from repro.engine.config import EngineConfig

__all__ = ["JOB_KINDS", "JobSpec"]

#: Job kinds the worker knows how to execute.  ``"figure"`` runs one
#: entry of :data:`repro.experiments.figures.ALL_FIGURES` through
#: :func:`repro.experiments.runner.execute_figure`.
JOB_KINDS = ("figure",)


@dataclass(frozen=True)
class JobSpec:
    """One executable unit of work, fully serializable.

    Attributes
    ----------
    figure:
        Figure id (``"fig9"``, ...); validated against the registry at
        execution time, not here -- a repository must be able to load
        records submitted by a newer code version.
    engine:
        The :class:`EngineConfig` the worker solves under.  For durable
        repositories the service points ``cache_dir`` into the queue
        directory, which is what makes a requeued job resume instead of
        restart: the dead worker's completed solves are already on disk.
    kind:
        One of :data:`JOB_KINDS`.
    """

    figure: str
    engine: EngineConfig = field(default_factory=EngineConfig)
    kind: str = "figure"

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"kind must be one of {JOB_KINDS}, got {self.kind!r}")
        if not self.figure:
            raise ValueError("figure must be non-empty")
        if not isinstance(self.engine, EngineConfig):
            raise TypeError(
                f"engine must be an EngineConfig, got {type(self.engine).__name__}"
            )

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "figure": self.figure,
            "engine": self.engine.as_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> JobSpec:
        """Rebuild a spec serialized by :meth:`as_dict`.

        Unknown keys raise, like :meth:`EngineConfig.from_dict`: a record
        carrying a removed setting must not run under silently different
        settings.
        """
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown JobSpec field(s): {', '.join(unknown)}")
        data = dict(payload)
        data["engine"] = EngineConfig.from_dict(data.get("engine", {}))
        return cls(**data)

    def fingerprint(self) -> str:
        """Content hash of the canonical JSON form (spec identity)."""
        canonical = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]
