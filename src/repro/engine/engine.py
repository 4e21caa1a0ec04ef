"""The sweep engine: cached, stacked solves.

A parameter sweep solves many nearby :class:`~repro.core.model.FgBgModel`
instances.  :class:`SweepEngine` exploits that structure two ways:

* **caching** -- solutions are stored under a content hash of the model
  (see :meth:`FgBgModel.fingerprint`), so repeated points (across figures,
  or across runs with an on-disk cache) are never solved twice;
* **stacking** -- the cache-miss models of a whole sweep are grouped by
  QBD block structure and each group is solved in one stacked kernel call
  (:mod:`repro.qbd.batched`), replacing N Python-level solver loops with
  batched ``np.linalg`` primitives.  This is the engine's only solve path;
  a single model is a group of one.

Cached results are bit-identical to the solve that populated the entry;
stacked results agree with ``model.solve()`` to solver tolerance.

Resilience (see :mod:`repro.engine.resilience`): ``on_error`` isolates
per-point solve failures instead of sinking the sweep, ``escalate``
enables the truncated dense-chain rung of the solver escalation ladder,
and corrupt cache entries are quarantined and re-solved -- so a sweep
either finishes with every healthy point intact or raises, never
silently drops work.  Multi-process execution lives one layer up: run
several :mod:`repro.jobs` workers on one queue.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterable, Sequence

from repro.contracts.errors import ContractViolation
from repro.core.batched import solve_models_batched
from repro.core.model import FgBgModel
from repro.core.result import FgBgSolution
from repro.engine.cache import solve_key
from repro.engine.config import EngineConfig
from repro.engine.resilience import (
    FailedSolve,
    ResilienceWarning,
    SweepCancelled,
    failure_from_exception,
)
from repro.engine.stats import EngineStats, SolveRecord
from repro.qbd.rmatrix import raise_first_failure

__all__ = ["SweepEngine"]


class SweepEngine:  # noqa: RL007 -- validation delegated to EngineConfig.__post_init__
    """Executes model solves for parameter sweeps.

    Parameters
    ----------
    config:
        The :class:`~repro.engine.config.EngineConfig` to run under
        (default: ``EngineConfig()``), exposed as :attr:`config`.  Its
        fields:

        * ``cache_dir`` -- every engine caches solves in memory
          (:attr:`cache`); a directory adds an on-disk layer shared
          across runs and processes.
        * ``batched`` -- has no effect (see
          :class:`~repro.engine.config.EngineConfig`): every engine
          solves through the stacked kernel.
        * ``on_error`` -- ``"raise"`` (default) raises the failure of the
          lowest-index failed point, once the stacked solve has finished
          and before anything of it is cached or recorded.  ``"skip"``
          and ``"collect"`` isolate failures
          per point: the failed point's solution slot is ``None`` (NaN in
          any derived series) and every healthy point still solves.
          ``"skip"`` emits a
          :class:`~repro.engine.resilience.ResilienceWarning` per failure
          and records :class:`ContractViolation` failures in :attr:`stats`
          ``.failures`` (a contract violation is never silently
          swallowed); ``"collect"`` records *every* failure as a
          structured :class:`~repro.engine.resilience.FailedSolve` and
          warns about none of them.
        * ``escalate`` -- enable the truncated dense-chain rung of the
          solver escalation ladder (see
          :func:`repro.qbd.stationary.solve_qbd`); escalated solves are
          flagged ``degraded`` in their
          :class:`~repro.qbd.rmatrix.SolveStats`.
    progress:
        Optional callback ``progress(points)`` invoked once per
        :meth:`solve_batch` call with the number of points it served
        (fresh solves, cache hits and isolated failures).  The
        background-job layer uses this to report job progress.
    cancel:
        Optional callback ``cancel() -> bool`` polled before each
        :meth:`solve_batch` call; returning True raises
        :class:`~repro.engine.resilience.SweepCancelled`.  Cooperative:
        a stacked solve already in flight finishes first.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        progress: Callable[[int], None] | None = None,
        cancel: Callable[[], bool] | None = None,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self.cache = self.config.build_cache()
        self.progress = progress
        self.cancel = cancel
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # Failure bookkeeping
    # ------------------------------------------------------------------
    def _record_failure(self, failure: FailedSolve) -> None:
        """Apply the ``on_error`` policy to one isolated failure.

        Callers only reach this in ``"skip"``/``"collect"`` mode.
        """
        if self.config.on_error == "collect" or failure.contract_violation:
            self.stats.add_failure(failure)
        if self.config.on_error == "skip":
            warnings.warn(str(failure), ResilienceWarning, stacklevel=3)

    # ------------------------------------------------------------------
    # Single solves
    # ------------------------------------------------------------------
    def _cache_lookup(self, key: str, fingerprint: str) -> FgBgSolution | None:
        """Cache get with quarantine: a corrupt entry is moved aside,
        recorded as a ``"cache-load"`` failure (in *every* ``on_error``
        mode -- the point is re-solved, so nothing is lost), and treated
        as a miss."""
        try:
            return self.cache.get(key)
        except ContractViolation as exc:
            quarantined = self.cache.quarantine(key)
            attempts = (
                () if quarantined is None else (f"quarantined:{quarantined.name}",)
            )
            failure = failure_from_exception(
                fingerprint, exc, stage="cache-load", attempts=attempts
            )
            self.stats.add_failure(failure)
            if self.config.on_error == "skip":
                warnings.warn(
                    f"corrupt cache entry quarantined; re-solving: {failure}",
                    ResilienceWarning,
                    stacklevel=3,
                )
            return None

    def solve(self, model: FgBgModel) -> FgBgSolution | None:
        """Solve one model, consulting the cache first: ``solve_batch([model])[0]``.

        With ``on_error="skip"``/``"collect"`` a failed solve returns
        ``None`` instead of raising (see the class docstring); failed
        points get no :class:`~repro.engine.stats.SolveRecord` -- their
        :class:`~repro.engine.resilience.FailedSolve` is the record.
        """
        return self.solve_batch([model])[0]

    # ------------------------------------------------------------------
    # Batches
    # ------------------------------------------------------------------
    def solve_batch(
        self, models: Iterable[FgBgModel]
    ) -> list[FgBgSolution | None]:
        """Solve many models through the stacked kernel, cache first.

        Cache hits (and duplicate models) are served individually; the
        remaining misses are deduplicated, grouped by QBD block structure
        and solved by :func:`~repro.core.batched.solve_models_batched` --
        one stacked kernel call per group, recorded in
        :attr:`stats` ``.batch_groups``.  Solutions come back in input
        order and fresh ones populate the cache, so a later run over the
        same models is all hits.  The kernel reports every failed item
        and never raises one; this is where ``on_error`` applies: in
        ``"raise"`` mode the lowest-index failure is raised, with nothing
        of the batch cached or recorded, and with
        ``"skip"``/``"collect"`` a failed item is a ``None`` slot -- the
        rest of its shape group solves normally.
        """
        if self.cancel is not None and self.cancel():
            raise SweepCancelled("sweep cancelled by the engine's cancel hook")
        models = list(models)
        if not models:
            return []
        fingerprints = [m.fingerprint() for m in models]
        keys = [solve_key(f) for f in fingerprints]
        served: dict[str, FgBgSolution | None] = {}
        pending: dict[str, FgBgModel] = {}
        for model, fingerprint, key in zip(models, fingerprints, keys):
            if key in served or key in pending:
                continue
            cached = self._cache_lookup(key, fingerprint)
            if cached is not None:
                served[key] = cached
                continue
            pending[key] = model
        if pending:
            pending_keys = list(pending)
            pending_models = list(pending.values())
            solutions, reports = solve_models_batched(
                pending_models, escalate=self.config.escalate
            )
            if self.config.on_error == "raise":
                raise_first_failure(reports)
            for report in reports:
                self.stats.add_batch_group(report)
                for item in report.failures:
                    self._record_failure(
                        FailedSolve(
                            fingerprint=pending_models[item.index].fingerprint(),
                            stage="batched",
                            error_type=item.error_type,
                            message=item.message,
                            contract_violation=item.contract_violation,
                            attempts=item.attempts,
                        )
                    )
            for key, solution in zip(pending_keys, solutions):
                if solution is not None:
                    self.cache.put(key, solution)
                served[key] = solution
        fresh_remaining = set(pending)
        results: list[FgBgSolution | None] = []
        for fingerprint, key in zip(fingerprints, keys):
            solution = served[key]
            cache_hit = key not in fresh_remaining
            fresh_remaining.discard(key)
            if solution is not None:
                self.stats.add(
                    SolveRecord(
                        fingerprint,
                        cache_hit=cache_hit,
                        stats=solution.solve_stats,
                    )
                )
            results.append(solution)
        if self.progress is not None:
            self.progress(len(results))
        return results

    # ------------------------------------------------------------------
    # Chains
    # ------------------------------------------------------------------
    def run_chains(
        self, chains: Sequence[Sequence[FgBgModel]]
    ) -> list[list[FgBgSolution | None]]:
        """Solve several chains as one :meth:`solve_batch` call.

        The chains are flattened, solved, and split back in chain order,
        so every chain is pooled into one batch (cross-chain duplicates
        are solved once).
        """
        chains = [list(chain) for chain in chains]
        solutions = self.solve_batch(model for chain in chains for model in chain)
        results: list[list[FgBgSolution | None]] = []
        cursor = 0
        for chain in chains:
            results.append(solutions[cursor : cursor + len(chain)])
            cursor += len(chain)
        return results

    def __repr__(self) -> str:
        return f"SweepEngine({self.config!r}, cache={self.cache!r})"
