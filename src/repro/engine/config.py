"""One frozen configuration object for the sweep engine.

Every caller that wants to *store* or *transport* an engine
configuration (the CLI, the background-job specs of :mod:`repro.jobs`, a
benchmark matrix) uses :class:`EngineConfig`: a frozen, validated,
JSON-round-trippable dataclass accepted by ``SweepEngine(config=...)``,
:func:`~repro.experiments.sweeps.sweep` and ``sweep_many``, and reused
verbatim as the ``engine`` section of a :class:`~repro.jobs.JobSpec`.

Legacy keyword arguments keep working everywhere and override the
matching config field; the two spellings are tested equivalent.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.engine.resilience import validate_on_error
from repro.qbd.rmatrix import validate_algorithm

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.cache import SolveCache
    from repro.engine.engine import SweepEngine

__all__ = ["EngineConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """Everything that shapes how a :class:`SweepEngine` executes.

    The fields mirror the engine's keyword arguments one-to-one, except
    that the cache is described by where it lives (``cache_dir`` for an
    on-disk layer, ``cache_memory`` for a purely in-memory one) rather
    than by a live :class:`~repro.engine.cache.SolveCache` object, so a
    config can be serialized into a job spec or a manifest and rebuilt
    elsewhere.  Validation happens at construction; an ``EngineConfig``
    that exists is a valid engine configuration.
    """

    cache_dir: str | None = None
    cache_memory: bool = False
    batched: bool = False
    algorithm: str = "logarithmic-reduction"
    tol: float = 1e-12
    on_error: str = "raise"
    escalate: bool = False

    def __post_init__(self) -> None:
        validate_algorithm(self.algorithm)
        if self.batched and self.algorithm != "logarithmic-reduction":
            raise ValueError(
                "batched solving supports only the logarithmic-reduction "
                f"algorithm, got {self.algorithm!r}"
            )
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        validate_on_error(self.on_error)

    # ------------------------------------------------------------------
    # Derived objects
    # ------------------------------------------------------------------
    def build_cache(self) -> "SolveCache | None":
        """The :class:`SolveCache` this config describes (or ``None``)."""
        from repro.engine.cache import SolveCache

        if self.cache_dir is not None:
            return SolveCache(self.cache_dir)
        if self.cache_memory:
            return SolveCache(None)
        return None

    def build_engine(self, **hooks: Any) -> "SweepEngine":
        """A fresh :class:`SweepEngine` running under this config.

        ``hooks`` pass through the engine's non-serializable runtime
        arguments (``progress``, ``cancel``).
        """
        from repro.engine.engine import SweepEngine

        return SweepEngine(config=self, **hooks)

    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with ``changes`` applied (re-validated on construction)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialization (job specs, manifests)
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-serializable representation (field name -> plain value)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineConfig":
        """Rebuild a config serialized by :meth:`as_dict`.

        Unknown keys raise: a config written by a newer schema must not
        silently lose settings on an older reader.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown EngineConfig field(s): {', '.join(unknown)}"
            )
        return cls(**payload)

    @property
    def is_default(self) -> bool:
        """True when every field still has its default value."""
        return self == EngineConfig()
