"""The job aggregate and its lifecycle state machine.

A :class:`Job` is a durable record of one figure/sweep run: its spec,
where it is in the PENDING -> RUNNING -> terminal lifecycle, which worker
holds it, how far along it is, and -- once terminal -- its rendered
result or failure.  Like every model object in this repository the
aggregate is a frozen dataclass: state changes produce evolved copies via
the ``_to(...)`` transition helper, which is the *only* place a state
field changes, so the legality check in :data:`TRANSITIONS` cannot be
bypassed.

Two non-obvious edges:

* ``RUNNING -> PENDING``: a *requeue*.  A worker that dies (SIGKILL,
  OOM) leaves its job RUNNING forever; the sweeper
  (:mod:`repro.jobs.sweeper`) detects the dead owner and requeues the
  job for the next worker, bumping :attr:`Job.retries` and appending an
  :class:`Attempt` forensics record.  Requeues are bounded by
  :attr:`Job.max_retries`.
* ``RUNNING -> QUARANTINED`` and ``QUARANTINED -> PENDING``: the
  poison-job circuit breaker.  A job whose workers *die* (not fail, not
  cancel) on consecutive attempts is pulled off the queue with its
  forensics attached instead of burning the retry budget and FAILing
  ambiguously; an operator inspects the attempts and deliberately
  releases it back to PENDING (``admin quarantine-release``) -- the one
  exit a terminal state has, and it only moves through the ``_to()``
  gate like everything else.

Ownership is fenced by :attr:`Job.epoch`: every claim stamps a
monotonically increasing epoch (the repository bumps it atomically with
the claim), so a zombie worker -- one whose job was requeued under it
and claimed by someone else -- holds a provably stale lease and has its
late writes rejected with ``StaleJobError`` instead of clobbering the
new owner.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field, replace

from repro.jobs.spec import JobSpec

__all__ = [
    "CANCELLED",
    "COMPLETED",
    "FAILED",
    "PENDING",
    "QUARANTINED",
    "RUNNING",
    "STATES",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "Attempt",
    "InvalidTransition",
    "Job",
]

PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"
QUARANTINED = "quarantined"

#: Every lifecycle state, in rough lifecycle order.
STATES = (PENDING, RUNNING, COMPLETED, FAILED, CANCELLED, QUARANTINED)

#: States a job never leaves on its own.  QUARANTINED is terminal for
#: workers and waiters, but an operator can deliberately release it.
TERMINAL_STATES = frozenset({COMPLETED, FAILED, CANCELLED, QUARANTINED})

#: The legal state machine.  ``RUNNING -> PENDING`` is the requeue edge
#: (dead worker detected by the sweeper); ``RUNNING -> QUARANTINED`` is
#: the poison-job circuit breaker and ``QUARANTINED -> PENDING`` its
#: operator-driven release; the other terminal states have no exits.
TRANSITIONS: dict[str, frozenset[str]] = {
    PENDING: frozenset({RUNNING, CANCELLED}),
    RUNNING: frozenset({PENDING, COMPLETED, FAILED, CANCELLED, QUARANTINED}),
    COMPLETED: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
    QUARANTINED: frozenset({PENDING}),
}

#: Attempt outcomes a job's forensics log can record.
ATTEMPT_OUTCOMES = ("worker-died", "failed", "released")


class InvalidTransition(RuntimeError):
    """An illegal lifecycle transition was attempted (e.g. COMPLETED -> RUNNING)."""


@dataclass(frozen=True)
class Attempt:
    """Forensics for one finished execution attempt.

    Appended when an attempt ends without completing the job: the
    sweeper records ``"worker-died"`` when it requeues (or quarantines)
    an orphaned job, the worker records ``"failed"`` when it requeues
    after an exception, and an operator release appends ``"released"``
    (which also resets the consecutive-death streak the circuit breaker
    counts).
    """

    epoch: int
    worker_id: str | None
    started_ms: float | None
    ended_ms: float
    outcome: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.outcome not in ATTEMPT_OUTCOMES:
            raise ValueError(
                f"outcome must be one of {ATTEMPT_OUTCOMES}, got {self.outcome!r}"
            )

    def as_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "worker_id": self.worker_id,
            "started_ms": self.started_ms,
            "ended_ms": self.ended_ms,
            "outcome": self.outcome,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> Attempt:
        return cls(**payload)


@dataclass(frozen=True)
class Job:
    """One durable background job.

    Attributes
    ----------
    job_id:
        Stable identifier, assigned at submission.
    spec:
        What to run (:class:`~repro.jobs.spec.JobSpec`).
    state:
        Current lifecycle state, one of :data:`STATES`.
    created_ms / updated_ms / started_ms / finished_ms:
        Wall-clock timestamps (milliseconds since the epoch); ``started``
        is the first claim, ``finished`` the terminal transition.
    worker_id:
        ``"<pid>@<host>"`` of the claiming worker while RUNNING.
    epoch:
        Fencing token: monotonically increasing lease generation,
        stamped by the repository on every claim.  A worker whose copy
        carries an older epoch than the stored record provably lost
        ownership; its writes are rejected with ``StaleJobError``.
    heartbeat_ms:
        Last sign of life from the claiming worker; the sweeper requeues
        RUNNING jobs whose heartbeat goes stale.
    points_done / points_total:
        Sweep progress as reported by the engine's progress hook
        (``points_total`` is 0 until the worker announces it).
    retries:
        Requeues consumed (dead-worker requeues and failure retries
        share the one budget); bounded by ``max_retries``.
    attempts:
        Forensics log of finished attempts (:class:`Attempt`); the
        circuit breaker counts the trailing run of ``"worker-died"``
        entries.
    cancel_requested:
        Cooperative-cancellation flag: set by :meth:`cancel_requested_now`
        while RUNNING, observed by the worker's cancel hook, which stops
        the sweep and records the CANCELLED terminal state.
    result_text / error:
        Terminal payload: the rendered figure for COMPLETED, the failure
        diagnostic for FAILED/QUARANTINED.
    version:
        Optimistic-concurrency counter; every repository update bumps it
        and rejects writers holding a stale copy.
    """

    job_id: str
    spec: JobSpec
    state: str = PENDING
    created_ms: float = 0.0
    updated_ms: float = 0.0
    started_ms: float | None = None
    finished_ms: float | None = None
    worker_id: str | None = None
    epoch: int = 0
    heartbeat_ms: float | None = None
    points_done: int = 0
    points_total: int = 0
    retries: int = 0
    max_retries: int = 3
    attempts: tuple[Attempt, ...] = field(default=())
    cancel_requested: bool = False
    result_text: str | None = None
    error: str | None = None
    version: int = 0

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if self.state not in STATES:
            raise ValueError(f"state must be one of {STATES}, got {self.state!r}")
        if self.points_done < 0 or self.points_total < 0:
            raise ValueError("progress counters must be >= 0")
        if self.retries < 0 or self.max_retries < 0:
            raise ValueError("retries/max_retries must be >= 0")
        if self.epoch < 0:
            raise ValueError("epoch must be >= 0")

    # ------------------------------------------------------------------
    # Transitions (the only way state changes)
    # ------------------------------------------------------------------
    def _to(self, state: str, now_ms: float, **changes) -> Job:
        """Evolved copy in ``state``; raises on an illegal transition."""
        if state not in TRANSITIONS[self.state]:
            raise InvalidTransition(
                f"job {self.job_id}: illegal transition "
                f"{self.state} -> {state}"
            )
        return replace(self, state=state, updated_ms=now_ms, **changes)

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def consecutive_worker_deaths(self) -> int:
        """Trailing run of ``"worker-died"`` attempts (circuit-breaker input)."""
        deaths = 0
        for attempt in reversed(self.attempts):
            if attempt.outcome != "worker-died":
                break
            deaths += 1
        return deaths

    def claimed(self, worker_id: str, now_ms: float, epoch: int | None = None) -> Job:
        """PENDING -> RUNNING: a worker takes ownership.

        ``epoch`` is the fencing token of the new lease; the repository
        stamps ``stored.epoch + 1`` atomically with the claim.  ``None``
        keeps the current epoch (unit tests driving the aggregate
        directly).
        """
        return self._to(
            RUNNING,
            now_ms,
            worker_id=worker_id,
            epoch=self.epoch if epoch is None else epoch,
            heartbeat_ms=now_ms,
            started_ms=self.started_ms if self.started_ms is not None else now_ms,
        )

    def progressed(self, points: int, now_ms: float) -> Job:
        """More sweep points done; doubles as a heartbeat."""
        if self.state != RUNNING:
            raise InvalidTransition(
                f"job {self.job_id}: progress reported in state {self.state}"
            )
        return replace(
            self,
            points_done=self.points_done + points,
            heartbeat_ms=now_ms,
            updated_ms=now_ms,
        )

    def heartbeat(self, now_ms: float) -> Job:
        """Sign of life without progress (long single solves)."""
        if self.state != RUNNING:
            raise InvalidTransition(
                f"job {self.job_id}: heartbeat in state {self.state}"
            )
        return replace(self, heartbeat_ms=now_ms, updated_ms=now_ms)

    def completed(self, result_text: str, now_ms: float) -> Job:
        """RUNNING -> COMPLETED with the rendered result."""
        return self._to(
            COMPLETED, now_ms, result_text=result_text, finished_ms=now_ms
        )

    def failed(self, error: str, now_ms: float) -> Job:
        """RUNNING -> FAILED with the diagnostic."""
        return self._to(FAILED, now_ms, error=error, finished_ms=now_ms)

    def cancelled(self, now_ms: float) -> Job:
        """PENDING/RUNNING -> CANCELLED (cooperative or pre-start)."""
        return self._to(CANCELLED, now_ms, finished_ms=now_ms)

    def _attempt(self, outcome: str, now_ms: float, detail: str) -> Attempt:
        """Forensics record for the attempt that just ended."""
        return Attempt(
            epoch=self.epoch,
            worker_id=self.worker_id,
            started_ms=self.started_ms,
            ended_ms=now_ms,
            outcome=outcome,
            detail=detail,
        )

    def requeued(
        self, now_ms: float, outcome: str = "worker-died", detail: str = ""
    ) -> Job:
        """RUNNING -> PENDING: the attempt ended without a result.

        Consumes one retry, appends an :class:`Attempt` forensics record
        (``outcome`` is ``"worker-died"`` for sweeper requeues,
        ``"failed"`` for worker-side exception requeues), and resets
        progress (the next worker replays the sweep -- completed solves
        are served from the shared disk cache, so no work is lost, only
        re-counted).

        Raises
        ------
        InvalidTransition
            When the retry budget is exhausted; the caller should record
            FAILED instead (see the sweeper).
        """
        if self.retries >= self.max_retries:
            raise InvalidTransition(
                f"job {self.job_id}: requeue budget exhausted "
                f"({self.retries}/{self.max_retries})"
            )
        return self._to(
            PENDING,
            now_ms,
            worker_id=None,
            heartbeat_ms=None,
            points_done=0,
            retries=self.retries + 1,
            attempts=self.attempts + (self._attempt(outcome, now_ms, detail),),
        )

    def quarantined(self, now_ms: float, detail: str = "") -> Job:
        """RUNNING -> QUARANTINED: the poison-job circuit breaker trips.

        The final ``"worker-died"`` attempt is appended so the forensics
        log covers every death, including the one that tripped the
        breaker.
        """
        attempts = self.attempts + (
            self._attempt("worker-died", now_ms, detail),
        )
        deaths = 0
        for attempt in reversed(attempts):
            if attempt.outcome != "worker-died":
                break
            deaths += 1
        error = f"quarantined after {deaths} consecutive worker deaths"
        if detail:
            error = f"{error}: {detail}"
        return self._to(
            QUARANTINED,
            now_ms,
            worker_id=None,
            heartbeat_ms=None,
            finished_ms=now_ms,
            attempts=attempts,
            error=error,
        )

    def released(self, now_ms: float) -> Job:
        """QUARANTINED -> PENDING: an operator deliberately re-admits the job.

        The retry budget is refreshed and a ``"released"`` attempt marker
        breaks the consecutive-death streak, so the circuit breaker
        counts only deaths *after* the release.  The forensics history
        is preserved.
        """
        return self._to(
            PENDING,
            now_ms,
            worker_id=None,
            heartbeat_ms=None,
            points_done=0,
            retries=0,
            finished_ms=None,
            error=None,
            attempts=self.attempts
            + (self._attempt("released", now_ms, "operator release"),),
        )

    def cancel_requested_now(self, now_ms: float) -> Job:
        """Set the cooperative-cancellation flag (state unchanged)."""
        if self.is_terminal:
            raise InvalidTransition(
                f"job {self.job_id}: cancel requested in terminal state "
                f"{self.state}"
            )
        return replace(self, cancel_requested=True, updated_ms=now_ms)

    # ------------------------------------------------------------------
    # Construction / serialization
    # ------------------------------------------------------------------
    @classmethod
    def new(
        cls, spec: JobSpec, now_ms: float, max_retries: int = 3
    ) -> Job:
        """A fresh PENDING job with a generated id."""
        return cls(
            job_id=uuid.uuid4().hex[:12],
            spec=spec,
            created_ms=now_ms,
            updated_ms=now_ms,
            max_retries=max_retries,
        )

    def as_dict(self) -> dict:
        """JSON-serializable representation (round-trips via from_dict)."""
        return {
            "job_id": self.job_id,
            "spec": self.spec.as_dict(),
            "state": self.state,
            "created_ms": self.created_ms,
            "updated_ms": self.updated_ms,
            "started_ms": self.started_ms,
            "finished_ms": self.finished_ms,
            "worker_id": self.worker_id,
            "epoch": self.epoch,
            "heartbeat_ms": self.heartbeat_ms,
            "points_done": self.points_done,
            "points_total": self.points_total,
            "retries": self.retries,
            "max_retries": self.max_retries,
            "attempts": [a.as_dict() for a in self.attempts],
            "cancel_requested": self.cancel_requested,
            "result_text": self.result_text,
            "error": self.error,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> Job:
        data = dict(payload)
        data["spec"] = JobSpec.from_dict(data["spec"])
        # Records written before the fencing/forensics fields existed
        # load with their defaults (epoch 0, no attempts).
        data["attempts"] = tuple(
            Attempt.from_dict(a) for a in data.get("attempts", ())
        )
        return cls(**data)
