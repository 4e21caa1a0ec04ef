"""Content-addressed cache of model solves.

Solutions are keyed by a SHA-256 of the model fingerprint (see
:meth:`repro.core.model.FgBgModel.fingerprint`) combined with the solver
parameters, so two structurally identical models -- however they were
constructed -- share one cache entry.  The cache is two-level: a plain
in-memory dictionary, plus an optional on-disk directory of pickled
solutions (one file per key) that persists across processes and runs and
is shared by the workers of a job queue.

The on-disk layer uses :mod:`pickle`; only point it at directories you
trust, exactly as you would with numpy's ``allow_pickle``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
from pathlib import Path

from repro.contracts.errors import ContractViolation
from repro.contracts.solution import check_solution
from repro.core.model import FgBgModel
from repro.core.result import FgBgSolution
from repro.faults import fire as _fault_fire

__all__ = ["CACHE_FORMAT", "SolveCache", "solve_key"]

#: Version of the pickled solution layout, hashed into every key.  Bump it
#: whenever :class:`~repro.core.result.FgBgSolution` or anything it pickles
#: (e.g. :class:`~repro.qbd.rmatrix.SolveStats`) changes shape: entries of
#: older layouts then become unreachable misses that are re-solved, so no
#: unpickling shim is ever needed.
CACHE_FORMAT = 4

#: Suffix quarantined files get: corrupt entries become
#: ``<key>.pkl.corrupt``, orphaned temp files ``<name>.orphan``.  Neither
#: matches the ``<key>.pkl`` lookup pattern, so quarantined data can never
#: be served -- but it stays on disk for post-mortems.
CORRUPT_SUFFIX = ".corrupt"
ORPHAN_SUFFIX = ".orphan"


def _pid_alive(pid: int) -> bool:
    """Is a process with this pid currently running?"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other user's process
        return True
    except OSError:  # pragma: no cover - platform oddity: assume alive
        return True
    return True


#: Solver name and tolerance, hashed into every key as constant bytes so
#: that keys still match on-disk caches written while solves took them as
#: parameters.
_SOLVER_KEY_BYTES = b"logarithmic-reduction" + float(1e-12).hex().encode()


def solve_key(fingerprint: str) -> str:
    """Cache key of one solve: format and model fingerprint."""
    if not fingerprint:
        raise ValueError("solve_key needs a non-empty model fingerprint")
    h = hashlib.sha256()
    h.update(f"format-{CACHE_FORMAT}:".encode())
    h.update(fingerprint.encode())
    h.update(_SOLVER_KEY_BYTES)
    return h.hexdigest()


class SolveCache:
    """Two-level (memory + optional disk) cache of :class:`FgBgSolution`.

    Parameters
    ----------
    directory:
        Optional directory for the persistent layer.  Created if missing.
        ``None`` (default) keeps the cache purely in-memory.
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self._memory: dict[str, FgBgSolution] = {}
        self._directory = Path(directory) if directory is not None else None
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Corrupt entries moved aside by :meth:`quarantine` (this process).
        self.quarantined = 0
        #: Orphaned ``*.tmp.<pid>`` files swept aside when the cache opened.
        self.stale_tmp_swept = self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> int:
        """Quarantine temp files abandoned by dead writers.

        :meth:`put` writes ``<key>.pkl.tmp.<pid>`` and atomically renames
        it into place; a writer killed mid-write leaves the temp file
        behind.  On open, any temp file whose writer pid is no longer
        alive (or whose name does not parse) is renamed to
        ``*.orphan`` -- it can never be served, but a torn write stays
        inspectable.  Temp files of live sibling writers are left alone.
        """
        if self._directory is None:
            return 0
        swept = 0
        for tmp in self._directory.glob("*.pkl.tmp.*"):
            if tmp.name.endswith(ORPHAN_SUFFIX):
                continue
            suffix = tmp.name.rsplit(".", 1)[-1]
            if suffix.isdigit() and _pid_alive(int(suffix)):
                continue
            os.replace(tmp, tmp.with_name(tmp.name + ORPHAN_SUFFIX))
            swept += 1
        return swept

    @property
    def directory(self) -> Path | None:
        """Directory of the persistent layer (``None`` when memory-only)."""
        return self._directory

    @staticmethod
    def key(model: FgBgModel) -> str:
        """Cache key of ``model`` as the engine solves it."""
        return solve_key(model.fingerprint())

    def _path(self, key: str) -> Path:
        return self._directory / f"{key}.pkl"

    def get(self, key: str) -> FgBgSolution | None:
        """Look up a solution; counts a hit or a miss.

        Disk entries are re-validated on load (see
        :func:`repro.contracts.check_solution`): a truncated, bit-rotted
        or wrong-version pickle raises a
        :class:`~repro.contracts.ContractViolation` naming the entry
        instead of poisoning every downstream metric.  Set
        ``REPRO_CONTRACTS=off`` to skip the validation.
        """
        solution = self._memory.get(key)
        if solution is None and self._directory is not None:
            path = self._path(key)
            if path.exists():
                try:
                    with path.open("rb") as fh:
                        solution = pickle.load(fh)
                except ContractViolation:
                    raise
                except Exception as exc:
                    raise ContractViolation(
                        "check_solution",
                        f"cache entry {key[:16]}",
                        f"unreadable pickle at {path}: {exc}",
                    ) from exc
                check_solution(solution, name=f"cache entry {key[:16]}")
                self._memory[key] = solution
        if solution is None:
            self.misses += 1
            return None
        self.hits += 1
        return solution

    def quarantine(self, key: str) -> Path | None:
        """Move a corrupt entry aside so it is never served again.

        The on-disk file is renamed to ``<key>.pkl.corrupt`` (clobbering
        any earlier quarantine of the same key) and the in-memory copy is
        dropped.  Returns the quarantine path, or ``None`` when there was
        no on-disk entry to move.
        """
        self._memory.pop(key, None)
        self.quarantined += 1
        if self._directory is None:
            return None
        path = self._path(key)
        if not path.exists():
            return None
        target = path.with_name(path.name + CORRUPT_SUFFIX)
        os.replace(path, target)
        return target

    def put(self, key: str, solution: FgBgSolution) -> None:
        """Store a solution under ``key`` (atomically on disk)."""
        self._memory[key] = solution
        if self._directory is not None:
            path = self._path(key)
            tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
            with tmp.open("wb") as fh:
                pickle.dump(solution, fh, protocol=pickle.HIGHEST_PROTOCOL)
            if _fault_fire("cache_corrupt"):
                # Torn write / bit rot: keep only half the pickle, and
                # drop the memory copy so this very process re-reads the
                # truncated bytes (a real torn write implies the writer
                # died, so no process holds the good copy in memory).
                size = tmp.stat().st_size
                with tmp.open("ab") as fh:
                    fh.truncate(max(1, size // 2))
                self._memory.pop(key, None)
            os.replace(tmp, path)
            if _fault_fire("kill_run"):
                # Crash-safety probe: die *after* the entry landed, the
                # way a power cut ends a run -- resume tests replay from
                # exactly this state.
                os.kill(os.getpid(), signal.SIGKILL)

    def clear(self) -> None:
        """Drop the in-memory layer (on-disk entries are kept)."""
        self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return self._directory is not None and self._path(key).exists()

    def __repr__(self) -> str:
        where = f"dir={str(self._directory)!r}" if self._directory else "memory"
        return (
            f"SolveCache({where}, entries={len(self._memory)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
