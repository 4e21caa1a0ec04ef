"""Deterministic chaos soak for the durable job queue.

One :class:`SoakHarness` iteration simulates a small fleet -- submitters,
workers, the stale-job sweeper, and the occasional zombie -- against a
*real* on-disk repository, entirely in one process on a *logical* clock,
with every nondeterministic choice drawn from one seeded RNG.  Kill
points (a worker "SIGKILLed" mid-solve via
:class:`~repro.faults.InjectedKill`), torn durable writes, disk-full
errors and requeue/claim interleavings are all replayable from the seed.

After every action the harness audits the queue against the safety
invariants the job layer promises:

* **conservation** -- no submitted job ever disappears;
* **monotonicity** -- a job's version only grows, its fencing epoch
  never regresses, and every observed state change is an edge of
  :data:`~repro.jobs.lifecycle.TRANSITIONS`;
* **single ownership** -- accepted writes for one (job, epoch) lease
  come from exactly one worker (a zombie's late write must be rejected
  with ``StaleJobError``, never absorbed);
* **terminal once** -- a terminal record never changes again (the one
  sanctioned exception: an operator releasing a QUARANTINED job);
* **exactly one result** -- every COMPLETED job carries exactly the
  deterministic result its spec implies.

Violations are collected (not raised) so a soak reports everything it
found; the driver (``tests/jobs/test_soak.py``, ``benchmarks``) asserts
the list is empty.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.resilience import SweepCancelled
from repro.faults import InjectedKill, inject
from repro.jobs.lifecycle import (
    PENDING,
    QUARANTINED,
    RUNNING,
    TERMINAL_STATES,
    TRANSITIONS,
    Job,
)
from repro.jobs.repository import (
    JobRepository,
    StaleJobError,
    UnknownJobError,
)
from repro.jobs.spec import JobSpec
from repro.jobs.sweeper import LeaseClampWarning, StaleJobSweeper
from repro.jobs.worker import JobWorker

__all__ = ["SoakHarness", "SoakReport", "soak"]


def _reachable() -> dict[str, frozenset[str]]:
    """Transitive closure of TRANSITIONS: states reachable in >= 1 step.

    One harness action can cover several legal transitions (a worker
    claims *and* completes a job in a single ``run_once``), so the audit
    checks reachability, not single-step legality.
    """
    closure: dict[str, set[str]] = {s: set(t) for s, t in TRANSITIONS.items()}
    changed = True
    while changed:
        changed = False
        for state, targets in closure.items():
            grown = targets | {
                hop for target in targets for hop in closure[target]
            }
            if grown != targets:
                closure[state] = grown
                changed = True
    return {s: frozenset(t) for s, t in closure.items()}


_REACHABLE = _reachable()


@dataclass(frozen=True)
class SoakReport:
    """What a soak run observed.  ``violations`` empty == queue held up."""

    iterations: int
    seed: int
    jobs_submitted: int
    completed: int
    failed: int
    cancelled: int
    quarantined: int
    kills_injected: int
    torn_writes: int
    disk_fulls: int
    sweeps: int
    requeues: int
    zombie_writes_attempted: int
    zombie_writes_rejected: int
    releases: int
    violations: tuple[str, ...]

    def summary(self) -> str:
        status = "OK" if not self.violations else f"{len(self.violations)} VIOLATIONS"
        return (
            f"soak seed={self.seed} "
            f"iterations={self.iterations}: {status} -- "
            f"jobs={self.jobs_submitted} completed={self.completed} "
            f"failed={self.failed} quarantined={self.quarantined} "
            f"kills={self.kills_injected} torn={self.torn_writes} "
            f"zombie_rejected={self.zombie_writes_rejected}/"
            f"{self.zombie_writes_attempted}"
        )


@dataclass
class _Tally:
    """Mutable counters one iteration accumulates into the report."""

    jobs_submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    quarantined: int = 0
    kills_injected: int = 0
    torn_writes: int = 0
    disk_fulls: int = 0
    sweeps: int = 0
    requeues: int = 0
    zombie_writes_attempted: int = 0
    zombie_writes_rejected: int = 0
    releases: int = 0
    violations: list[str] = field(default_factory=list)


def _expected_result(job: Job) -> str:
    """The deterministic result every successful execution must produce."""
    return f"soak-result:{job.spec.figure}:{job.job_id}"


class SoakHarness:
    """One seeded chaos iteration against a fresh repository.

    Single-process and single-threaded by design: interleavings come
    from the RNG's choice of *which actor acts next*, not from thread
    scheduling, which is what makes a failing seed replayable.
    """

    def __init__(
        self,
        repository: JobRepository,
        seed: int,
        tally: _Tally,
        jobs: int = 3,
        workers: int = 3,
        points_per_job: int = 3,
        kill_rate: float = 0.25,
        lease_ms: float = 5_000.0,
        quarantine_after: int = 3,
        max_steps: int = 400,
    ) -> None:
        self.repo = repository
        self.rng = random.Random(seed)
        self.tally = tally
        self.jobs = jobs
        self.points_per_job = points_per_job
        self.kill_rate = kill_rate
        self.lease_ms = lease_ms
        self.max_steps = max_steps
        self.clock_ms = 1_000_000.0
        self.sweeper = StaleJobSweeper(
            repository,
            lease_ms=lease_ms,
            quarantine_after=quarantine_after,
            clock=lambda: self.clock_ms,
        )
        # Workers carry a host that is never this machine's, so staleness
        # is decided purely by heartbeat age on the logical clock.
        self.workers = [
            JobWorker(
                repository,
                worker_id=f"w{i}@soak-host",
                runner=self._make_runner(f"w{i}@soak-host"),
                clock=lambda: self.clock_ms,
            )
            for i in range(workers)
        ]
        # Audit state.
        self._last_seen: dict[str, Job] = {}
        self._terminal_seen: dict[str, Job] = {}
        self._lease_writers: dict[tuple[str, int], set[str]] = {}
        self._zombies: list[Job] = []
        self._submitted_ids: set[str] = set()

    # ------------------------------------------------------------------
    # Actors
    # ------------------------------------------------------------------
    def _make_runner(self, worker_id: str):
        def runner(job: Job, engine) -> str:
            for _ in range(self.points_per_job):
                if engine.cancel is not None and engine.cancel():
                    raise SweepCancelled(f"job {job.job_id} cancelled")
                if self.rng.random() < self.kill_rate:
                    # The worker dies holding its lease: remember the
                    # stale copy so a later step can play the zombie.
                    self._zombies.append(job)
                    self.tally.kills_injected += 1
                    raise InjectedKill(f"soak kill of {worker_id}")
                self.clock_ms += self.rng.uniform(50.0, 500.0)
                if engine.progress is not None:
                    engine.progress(1)
                # The progress write was *accepted*: this worker held the
                # (job, epoch) lease at that instant.
                self._lease_writers.setdefault(
                    (job.job_id, job.epoch), set()
                ).add(worker_id)
            return _expected_result(job)

        return runner

    def _act_worker(self) -> None:
        worker = self.rng.choice(self.workers)
        try:
            worker.run_once()
        except InjectedKill:
            pass  # simulated SIGKILL: the record stays RUNNING, orphaned
        except OSError:
            self.tally.disk_fulls += 1

    def _act_sweep(self) -> None:
        # Let leases expire sometimes, so the sweeper has orphans to find.
        if self.rng.random() < 0.6:
            self.clock_ms += self.lease_ms * self.rng.uniform(1.0, 2.5)
        try:
            swept = self.sweeper.sweep()
        except InjectedKill:
            return  # the sweeper died mid-write; its CAS either landed or not
        except OSError:
            self.tally.disk_fulls += 1
            return
        self.tally.sweeps += 1
        self.tally.requeues += sum(1 for j in swept if j.state == PENDING)

    def _act_zombie(self) -> None:
        """A presumed-dead worker wakes up and writes with its stale lease."""
        if not self._zombies:
            return
        zombie = self._zombies.pop(self.rng.randrange(len(self._zombies)))
        try:
            stored = self.repo.get(zombie.job_id)
        except UnknownJobError:
            return
        if stored.epoch == zombie.epoch and stored.worker_id == zombie.worker_id:
            return  # not reassigned yet: the lease is still its own
        self.tally.zombie_writes_attempted += 1
        late_write = self.rng.choice(
            (
                lambda: zombie.heartbeat(self.clock_ms),
                lambda: zombie.progressed(1, self.clock_ms),
                lambda: zombie.completed("zombie result", self.clock_ms),
                lambda: zombie.failed("zombie failure", self.clock_ms),
            )
        )
        try:
            evolved = late_write()
        except Exception:
            return  # the stale copy's state forbids this write shape
        try:
            self.repo.update(evolved)
        except StaleJobError:
            self.tally.zombie_writes_rejected += 1
        except InjectedKill:
            self._zombies.append(zombie)  # died before the CAS decided
            self.tally.zombie_writes_attempted -= 1
        except OSError:
            self.tally.zombie_writes_attempted -= 1
        else:
            self.tally.violations.append(
                f"zombie write accepted: {zombie.worker_id} wrote "
                f"job {zombie.job_id} with stale epoch {zombie.epoch} "
                f"(stored epoch {stored.epoch})"
            )

    def _act_release(self) -> None:
        quarantined = self.repo.list_jobs(state=QUARANTINED)
        if not quarantined:
            return
        job = self.rng.choice(quarantined)
        try:
            # Through the lifecycle gate, like AdminService.quarantine_release,
            # but on the iteration's logical clock.
            released = self.repo.update(job.released(self.clock_ms))
        except (StaleJobError, InjectedKill, OSError):
            return
        self.tally.releases += 1
        # Sanctioned terminal exit: reset the terminal-once tracker.
        self._terminal_seen.pop(job.job_id, None)
        self._last_seen[job.job_id] = released

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def _audit(self) -> None:
        try:
            jobs = {j.job_id: j for j in self.repo.list_jobs()}
        except InjectedKill:  # pragma: no cover - scan paths carry no faults
            return
        missing = self._submitted_ids - set(jobs)
        for job_id in sorted(missing):
            self.tally.violations.append(f"job lost: {job_id} vanished")
        for job_id, job in jobs.items():
            before = self._last_seen.get(job_id)
            if before is not None:
                if job.version < before.version:
                    self.tally.violations.append(
                        f"version regressed on {job_id}: "
                        f"{before.version} -> {job.version}"
                    )
                if job.epoch < before.epoch:
                    self.tally.violations.append(
                        f"epoch regressed on {job_id}: "
                        f"{before.epoch} -> {job.epoch}"
                    )
                if (
                    job.state != before.state
                    and job.state not in _REACHABLE[before.state]
                ):
                    self.tally.violations.append(
                        f"illegal transition on {job_id}: "
                        f"{before.state} -> {job.state}"
                    )
            self._last_seen[job_id] = job
            if job.state in TERMINAL_STATES:
                first = self._terminal_seen.get(job_id)
                if first is None:
                    self._terminal_seen[job_id] = job
                elif (job.state, job.result_text, job.error) != (
                    first.state,
                    first.result_text,
                    first.error,
                ):
                    self.tally.violations.append(
                        f"terminal record changed on {job_id}: "
                        f"{first.state!r} -> {job.state!r}"
                    )
        for (job_id, epoch), writers in self._lease_writers.items():
            if len(writers) > 1:
                self.tally.violations.append(
                    f"dual-owner execution on {job_id} epoch {epoch}: "
                    f"{sorted(writers)}"
                )

    def _final_audit(self) -> None:
        for job in self.repo.list_jobs():
            if job.state not in TERMINAL_STATES:
                self.tally.violations.append(
                    f"did not converge: {job.job_id} ended {job.state}"
                )
                continue
            if job.state == "completed":
                self.tally.completed += 1
                if job.result_text != _expected_result(job):
                    self.tally.violations.append(
                        f"wrong result on {job.job_id}: {job.result_text!r}"
                    )
            elif job.state == "failed":
                self.tally.failed += 1
            elif job.state == "cancelled":
                self.tally.cancelled += 1
            else:
                self.tally.quarantined += 1
                if not job.attempts:
                    self.tally.violations.append(
                        f"quarantined without forensics: {job.job_id}"
                    )

    # ------------------------------------------------------------------
    # The iteration
    # ------------------------------------------------------------------
    def run(self) -> None:
        for i in range(self.jobs):
            spec = JobSpec(figure=f"fig{2 + (i % 3)}")
            job = Job.new(spec, now_ms=self.clock_ms, max_retries=6)
            # Submission itself can hit an injected torn write or full
            # disk; the client's retry is part of the scenario.
            for _ in range(20):
                try:
                    self.repo.submit(job)
                except (InjectedKill, OSError):
                    continue
                except ValueError:
                    pass  # a torn submit that actually landed: fine
                break
            else:
                raise AssertionError("could not submit through the faults")
            self._submitted_ids.add(job.job_id)
            self.tally.jobs_submitted += 1
            self.clock_ms += 1.0

        actions = (
            (self._act_worker, 0.55),
            (self._act_sweep, 0.25),
            (self._act_zombie, 0.15),
            (self._act_release, 0.05),
        )
        weights = [w for _, w in actions]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LeaseClampWarning)
            for step in range(self.max_steps):
                if all(
                    j.state in TERMINAL_STATES for j in self.repo.list_jobs()
                ) and not self.repo.list_jobs(state=PENDING):
                    break
                if step > self.max_steps // 2:
                    # Stop releasing near the end so the queue can drain.
                    weights = [0.6, 0.3, 0.1, 0.0]
                (action,) = self.rng.choices(
                    [a for a, _ in actions], weights=weights
                )
                action()
                self._audit()
        self._final_audit()


def soak(
    root,
    iterations: int,
    seed: int = 0,
    torn_write_rate: float = 0.04,
    disk_full_rate: float = 0.02,
    **harness_kwargs,
) -> SoakReport:
    """Run ``iterations`` seeded chaos iterations against the job store.

    Each iteration gets a fresh queue under ``root`` and its own derived
    seed, with store-level ``torn_write``/``disk_full``/``clock_skew``
    faults armed; the per-iteration
    :class:`SoakHarness` injects worker kills and zombie writes on top.
    """
    tally = _Tally()
    for iteration in range(iterations):
        iter_seed = seed * 1_000_003 + iteration
        queue_root = Path(root) / f"iter-{iteration:04d}"
        repository = JobRepository(queue_root)
        # clock_skew shifts every wall-clock ``store.now_ms`` read (the
        # operator-facing paths); the harness actors themselves run on
        # the iteration's logical clock, so determinism is unaffected.
        spec = (
            f"torn_write:rate={torn_write_rate}:seed={iter_seed},"
            f"disk_full:rate={disk_full_rate}:seed={iter_seed},"
            f"clock_skew:rate=0.2:seed={iter_seed}:param=1500"
        )
        harness = SoakHarness(
            repository, seed=iter_seed, tally=tally, **harness_kwargs
        )
        try:
            with inject(spec) as plan:
                harness.run()
            tally.torn_writes += plan.fires("torn_write")
        finally:
            repository.close()
    return SoakReport(
        iterations=iterations,
        seed=seed,
        jobs_submitted=tally.jobs_submitted,
        completed=tally.completed,
        failed=tally.failed,
        cancelled=tally.cancelled,
        quarantined=tally.quarantined,
        kills_injected=tally.kills_injected,
        torn_writes=tally.torn_writes,
        disk_fulls=tally.disk_fulls,
        sweeps=tally.sweeps,
        requeues=tally.requeues,
        zombie_writes_attempted=tally.zombie_writes_attempted,
        zombie_writes_rejected=tally.zombie_writes_rejected,
        releases=tally.releases,
        violations=tuple(tally.violations),
    )
