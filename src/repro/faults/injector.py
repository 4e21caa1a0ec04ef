"""Deterministic, seedable fault injection for resilience testing.

The production solve/sweep pipeline carries named *injection points* --
one-line hooks of the form ``if faults.fire("logred_overflow"): ...`` at
exactly the places where real deployments wobble: solver overflow, a
singular boundary system, a crashed worker process, a corrupted cache
pickle, a stalled iteration.  With no plan active a hook is a dictionary
miss; with one active, whether a given check fires is a *pure function of
the plan and the per-process check counter* (a seeded ``random.Random``
supplies sub-unit rates), so every run with the same spec injects the
same faults in the same order -- no wall clock, no global entropy.

Plans come from two sources:

* the ``REPRO_FAULTS`` environment variable (inherited by worker
  processes, which is how worker-kill faults reach them), parsed once and
  re-parsed only when the value changes;
* the :func:`inject` context manager, which installs a plan for the
  dynamic extent of a ``with`` block (tests use this; it shadows the
  environment plan and restores the previous plan on exit).

Spec grammar (comma-separated clauses)::

    REPRO_FAULTS="logred_overflow,kill_run:after=10:limit=1,solver_stall:rate=0.5:seed=7"

Each clause is a point name followed by optional ``key=value`` parameters
separated by colons: ``rate`` (fire probability per eligible check,
default 1), ``seed`` (RNG seed for sub-unit rates, default 0), ``after``
(skip the first N checks, default 0) and ``limit`` (maximum fires per
process, default unlimited).
"""

from __future__ import annotations

import os
import random
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "ENV_FAULTS",
    "KNOWN_FAULT_POINTS",
    "FaultPlan",
    "FaultRule",
    "InjectedKill",
    "active_plan",
    "fire",
    "fire_value",
    "inject",
    "parse_spec",
    "reset",
]


class InjectedKill(BaseException):
    """A simulated process death at a fault point (``torn_write`` & co).

    Deliberately a ``BaseException``: a simulated SIGKILL must tear
    through ``except Exception`` handlers exactly like a real one tears
    through the whole process, so no recovery path can mistake a chaos
    kill for an ordinary solve failure and record it as one.  Only the
    chaos harness (which installed the plan) catches it.
    """

#: Environment variable holding the fault spec (empty/unset = no faults).
ENV_FAULTS = "REPRO_FAULTS"

#: Every injection point wired into the pipeline.  Specs naming anything
#: else are rejected -- a typo must not silently disable a chaos test.
KNOWN_FAULT_POINTS = frozenset(
    {
        # repro.qbd.rmatrix._logarithmic_reduction: fail the item like
        # the overflow nearly decomposable chains hit for real, sending
        # it to the escalation ladder.
        "logred_overflow",
        # repro.qbd.boundary.solve_boundary: raise a singular-system
        # LinAlgError before the solve.
        "singular_boundary",
        # repro.jobs.worker.JobWorker.execute: SIGKILL the worker.
        "worker_kill",
        # repro.engine.cache.SolveCache.put: truncate the pickle just
        # written, simulating torn writes / bit rot.
        "cache_corrupt",
        # repro.qbd.rmatrix functional/natural loops: sleep on each
        # check so iteration/time budgets trip.
        "solver_stall",
        # repro.engine.cache.SolveCache.put: SIGKILL the *current*
        # process after the entry lands -- crash-safety / --resume tests.
        "kill_run",
        # repro.jobs.store.SqliteJobStore durable writes: simulated death
        # inside the transaction, before commit -- the record must keep
        # its old value, never a torn one.  Raises InjectedKill.
        "torn_write",
        # Same write paths: ENOSPC on the durable write (raises OSError
        # with errno ENOSPC before any byte lands).
        "disk_full",
        # repro.jobs.store.now_ms: per-process heartbeat clock offset of
        # ``param`` milliseconds (a worker whose clock runs ahead/behind
        # writes skewed heartbeats; the sweeper must not steal its job
        # on that evidence alone).
        "clock_skew",
    }
)


@dataclass(frozen=True)
class FaultRule:
    """When one injection point fires.

    Attributes
    ----------
    point:
        Name of the injection point (must be in
        :data:`KNOWN_FAULT_POINTS`).
    rate:
        Probability of firing per eligible check, drawn from a seeded
        per-rule RNG (so the decision sequence is process-deterministic).
    seed:
        Seed of that RNG.
    after:
        Number of initial checks to let pass before the rule becomes
        eligible (``after=10`` arms the fault on the 11th check).
    limit:
        Maximum number of fires per process (``None`` = unlimited).
    param:
        Free payload for points that need a magnitude, not just a
        yes/no -- ``clock_skew:param=-45000`` offsets the process clock
        by -45 s.  Read via :func:`fire_value`.
    """

    point: str
    rate: float = 1.0
    seed: int = 0
    after: int = 0
    limit: int | None = None
    param: float | None = None

    def __post_init__(self) -> None:
        if self.point not in KNOWN_FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; choose from "
                f"{sorted(KNOWN_FAULT_POINTS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {self.rate}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"limit must be >= 1, got {self.limit}")


class FaultPlan:
    """A set of :class:`FaultRule` with per-point deterministic state."""

    def __init__(self, rules: Iterable[FaultRule]) -> None:
        self._rules: dict[str, FaultRule] = {}
        for rule in rules:
            if rule.point in self._rules:
                raise ValueError(f"duplicate fault point {rule.point!r}")
            self._rules[rule.point] = rule
        self._checks: dict[str, int] = dict.fromkeys(self._rules, 0)
        self._fires: dict[str, int] = dict.fromkeys(self._rules, 0)
        # One RNG per rule, seeded from (point, seed) only: the decision
        # sequence is a pure function of the plan, never of the clock.
        self._rngs = {
            point: random.Random(f"{point}/{rule.seed}")
            for point, rule in self._rules.items()
        }

    @property
    def points(self) -> frozenset[str]:
        """The injection points this plan can fire."""
        return frozenset(self._rules)

    def checks(self, point: str) -> int:
        """How many times ``point`` has been checked under this plan."""
        return self._checks.get(point, 0)

    def fires(self, point: str) -> int:
        """How many times ``point`` has fired under this plan."""
        return self._fires.get(point, 0)

    def param(self, point: str) -> float | None:
        """The ``param`` payload of ``point``'s rule (``None`` if absent)."""
        rule = self._rules.get(point)
        return None if rule is None else rule.param

    def should_fire(self, point: str) -> bool:
        """Advance the deterministic state of ``point`` and decide."""
        rule = self._rules.get(point)
        if rule is None:
            return False
        self._checks[point] += 1
        if self._checks[point] <= rule.after:
            return False
        if rule.limit is not None and self._fires[point] >= rule.limit:
            return False
        if rule.rate < 1.0 and self._rngs[point].random() >= rule.rate:
            return False
        self._fires[point] += 1
        return True

    def __repr__(self) -> str:
        return f"FaultPlan({sorted(self._rules)})"


def parse_spec(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`.

    Raises
    ------
    ValueError
        For unknown points, unknown parameters or malformed clauses.
    """
    rules = []
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        name, *params = clause.split(":")
        kwargs: dict[str, float | int] = {}
        for param in params:
            key, sep, value = param.partition("=")
            if not sep or not value:
                raise ValueError(
                    f"malformed fault parameter {param!r} in clause "
                    f"{clause!r}; expected key=value"
                )
            if key in ("rate", "param"):
                kwargs[key] = float(value)
            elif key in ("seed", "after", "limit"):
                kwargs[key] = int(value)
            else:
                raise ValueError(
                    f"unknown fault parameter {key!r} in clause {clause!r}; "
                    "choose from rate, seed, after, limit, param"
                )
        rules.append(FaultRule(point=name.strip(), **kwargs))  # type: ignore[arg-type]
    return FaultPlan(rules)


#: Plan installed by :func:`inject` (shadows the environment plan).
_context_plan: FaultPlan | None = None
#: Cache of the environment-derived plan, keyed by the raw spec string.
_env_spec: str | None = None
_env_plan: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The plan consulted by :func:`fire`, or ``None`` when faults are off.

    A plan installed by :func:`inject` wins over ``REPRO_FAULTS``; the
    environment spec is re-parsed only when its value changes, so the
    no-fault fast path of :func:`fire` is one environment lookup.
    """
    if _context_plan is not None:
        return _context_plan
    spec = os.environ.get(ENV_FAULTS, "")
    if not spec:
        return None
    global _env_spec, _env_plan
    if spec != _env_spec:
        _env_plan = parse_spec(spec)
        _env_spec = spec
    return _env_plan


def fire(point: str) -> bool:
    """Should the injection point ``point`` fire now?

    The one call production code makes.  With no plan active this is a
    single environment lookup returning False; with a plan active the
    decision advances that plan's deterministic per-point state.
    """
    plan = active_plan()
    return plan is not None and plan.should_fire(point)


def fire_value(point: str) -> float | None:
    """Like :func:`fire`, but returns the rule's ``param`` payload.

    ``None`` when the point does not fire (no plan, rate miss, limit
    reached) *or* when the firing rule carries no ``param`` -- callers
    treat both as "no perturbation".  Advances the same deterministic
    per-point state as :func:`fire`.
    """
    plan = active_plan()
    if plan is None or not plan.should_fire(point):
        return None
    return plan.param(point)


@contextmanager
def inject(spec: str | FaultPlan) -> Iterator[FaultPlan]:
    """Install a fault plan for the extent of a ``with`` block.

    ``spec`` is either a spec string (same grammar as ``REPRO_FAULTS``)
    or a prebuilt :class:`FaultPlan`.  The previous plan (context or
    environment) is shadowed and restored on exit; yields the installed
    plan so tests can assert on its check/fire counters.
    """
    plan = parse_spec(spec) if isinstance(spec, str) else spec
    global _context_plan
    previous = _context_plan
    _context_plan = plan
    try:
        yield plan
    finally:
        _context_plan = previous


def reset() -> None:
    """Drop all cached plans (tests that monkeypatch the environment)."""
    global _context_plan, _env_spec, _env_plan
    _context_plan = None
    _env_spec = None
    _env_plan = None
