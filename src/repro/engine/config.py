"""One frozen configuration object for the sweep engine.

:class:`EngineConfig` is the only way to configure a
:class:`~repro.engine.engine.SweepEngine`.  It is frozen, validated and
JSON-round-trippable, so the CLI, the background-job specs of
:mod:`repro.jobs` (it is reused verbatim as the ``engine`` section of a
:class:`~repro.jobs.JobSpec`) and a benchmark matrix all describe an
engine the same way.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.engine.resilience import validate_on_error

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.cache import SolveCache
    from repro.engine.engine import SweepEngine

__all__ = ["EngineConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """Everything that shapes how a :class:`SweepEngine` executes.

    Every engine caches its solves in memory; ``cache_dir`` adds an
    on-disk layer that persists across runs and processes.  The cache is
    described by where it lives rather than by a live
    :class:`~repro.engine.cache.SolveCache` object, so a config can be
    serialized into a job spec or a manifest and rebuilt elsewhere.
    Validation happens at construction; an ``EngineConfig`` that exists
    is a valid engine configuration.

    ``batched`` has no effect: every engine solves through the stacked
    kernel.  The field remains so that configs and job specs that set it
    still load.
    """

    cache_dir: str | None = None
    batched: bool = False
    on_error: str = "raise"
    escalate: bool = False

    def __post_init__(self) -> None:
        validate_on_error(self.on_error)

    # ------------------------------------------------------------------
    # Derived objects
    # ------------------------------------------------------------------
    def build_cache(self) -> "SolveCache":
        """The :class:`SolveCache` this config describes."""
        from repro.engine.cache import SolveCache

        return SolveCache(self.cache_dir)

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

        Unknown keys raise, naming each one: a config written by another
        schema must not silently lose settings on this reader.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown EngineConfig field(s): {', '.join(unknown)}"
            )
        return cls(**payload)
