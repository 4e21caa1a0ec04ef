"""M/G/1-type Markov chains and Ramaswami's formula.

Generalizes the QBD machinery to chains that are skip-free to the left but
may jump *up* several levels at once (batch arrivals, the BMAP/G/1 queue of
the paper's reference [11]).  The generator is block upper-Hessenberg::

        | B0  B1  B2  B3 ... |
        | C   A1  A2  A3 ... |
    Q = |     A0  A1  A2 ... |
        |         A0  A1 ... |

where ``A0`` steps one level down, ``A1`` is local, ``Ak`` (k >= 2) jumps
``k - 1`` levels up; the boundary may have its own width, with ``Bk``
leading from it to level ``k`` and ``C`` returning from level 1.

The stationary vector follows the classical two-step recipe:

1. ``G`` -- the minimal non-negative solution of
   ``A0 + A1 G + A2 G^2 + ... = 0`` (first-passage phases one level down),
   by the monotone natural iteration;
2. Ramaswami's recursion with the censored sums
   ``Abar_k = sum_{j>=k} A_j G^{j-k}`` and
   ``Bbar_k = sum_{j>=k} B_j G^{j-k}``::

       pi_0 Qstar = 0,   Qstar = B0 + Bbar_1 H,   H = (-Abar_1)^{-1} C
       pi_n = -(pi_0 Bbar_n + sum_{k=1}^{n-1} pi_k Abar_{n-k+1}) Abar_1^{-1}

   normalized by accumulating levels until the geometric tail is
   negligible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.markov.stationary import stationary_distribution
from repro.qbd.rmatrix import QBDConvergenceError

__all__ = ["MG1Process", "MG1StationaryDistribution", "solve_mg1", "g_matrix_mg1"]

_ATOL = 1e-8


@dataclass(frozen=True)
class MG1Process:
    """An M/G/1-type CTMC given by its finite block sequences.

    Attributes
    ----------
    boundary_blocks:
        ``[B0, B1, ..., BK]``: ``B0`` is the square boundary block
        (including its diagonal); ``Bk`` leads from the boundary to level
        ``k``.
    down_block:
        ``C``: transitions from level 1 into the boundary.
    repeating_blocks:
        ``[A0, A1, ..., AK]``: ``A0`` down, ``A1`` local (including the
        diagonal), ``Ak`` up ``k - 1`` levels.
    """

    boundary_blocks: tuple[np.ndarray, ...]
    down_block: np.ndarray
    repeating_blocks: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        bs = tuple(np.array(b, dtype=float) for b in self.boundary_blocks)
        a_blocks = tuple(np.array(a, dtype=float) for a in self.repeating_blocks)
        c = np.array(self.down_block, dtype=float)
        if len(bs) < 2:
            raise ValueError("need at least [B0, B1] boundary blocks")
        if len(a_blocks) < 2:
            raise ValueError("need at least [A0, A1] repeating blocks")
        n_b = bs[0].shape[0]
        if bs[0].shape != (n_b, n_b):
            raise ValueError(f"B0 must be square, got {bs[0].shape}")
        m = a_blocks[0].shape[0]
        for k, a in enumerate(a_blocks):
            if a.shape != (m, m):
                raise ValueError(f"A{k} must have shape {(m, m)}, got {a.shape}")
        for k, b in enumerate(bs[1:], start=1):
            if b.shape != (n_b, m):
                raise ValueError(f"B{k} must have shape {(n_b, m)}, got {b.shape}")
        if c.shape != (m, n_b):
            raise ValueError(f"C must have shape {(m, n_b)}, got {c.shape}")
        for name, block in [("C", c)] + [
            (f"A{k}", a) for k, a in enumerate(a_blocks) if k != 1
        ] + [(f"B{k}", b) for k, b in enumerate(bs) if k != 0]:
            if np.any(block < 0):
                raise ValueError(f"{name} must be entrywise non-negative")
        for name, block in (("B0", bs[0]), ("A1", a_blocks[1])):
            off = block - np.diag(np.diag(block))
            if np.any(off < 0):
                raise ValueError(f"off-diagonal entries of {name} must be non-negative")
        scale = max(
            float(np.max(np.abs(np.diag(bs[0])))),
            float(np.max(np.abs(np.diag(a_blocks[1])))),
            1.0,
        )
        b_sums = sum(b.sum(axis=1) for b in bs)
        if np.any(np.abs(b_sums) > _ATOL * scale):
            raise ValueError("boundary rows (sum of all Bk) must sum to zero")
        level1 = c.sum(axis=1) + sum(a.sum(axis=1) for a in a_blocks[1:])
        if np.any(np.abs(level1) > _ATOL * scale):
            raise ValueError("level-1 rows (C + A1 + A2 + ...) must sum to zero")
        rep = sum(a.sum(axis=1) for a in a_blocks)
        if np.any(np.abs(rep) > _ATOL * scale):
            raise ValueError("repeating rows (sum of all Ak) must sum to zero")
        c.setflags(write=False)
        for block in (*bs, *a_blocks):
            block.setflags(write=False)
        object.__setattr__(self, "boundary_blocks", bs)
        object.__setattr__(self, "down_block", c)
        object.__setattr__(self, "repeating_blocks", a_blocks)

    @property
    def boundary_size(self) -> int:
        """Number of boundary states."""
        return self.boundary_blocks[0].shape[0]

    @property
    def phase_count(self) -> int:
        """Number of states per repeating level."""
        return self.repeating_blocks[0].shape[0]

    @cached_property
    def drift(self) -> float:
        """Mean level drift ``theta (sum_k (k-1) A_k) e``; negative = stable."""
        return _drift(self.repeating_blocks)

    def truncated_generator(self, levels: int) -> np.ndarray:
        """Dense generator truncated after ``levels`` repeating levels,
        with lost up-jumps reflected into the diagonal (oracle for tests)."""
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        n_b, m = self.boundary_size, self.phase_count
        n = n_b + levels * m
        q = np.zeros((n, n))
        q[:n_b, :n_b] = self.boundary_blocks[0]
        lost = np.zeros(n_b)
        for k, b in enumerate(self.boundary_blocks[1:], start=1):
            if k <= levels:
                lo = n_b + (k - 1) * m
                q[:n_b, lo : lo + m] = b
            else:
                lost += b.sum(axis=1)
        q[:n_b, :n_b] += np.diag(lost)
        q[n_b : n_b + m, :n_b] = self.down_block
        for level in range(1, levels + 1):
            lo = n_b + (level - 1) * m
            lost_level = np.zeros(m)
            for k, a in enumerate(self.repeating_blocks):
                target = level + k - 1
                if k == 0 and level == 1:
                    continue  # C already placed
                if 1 <= target <= levels:
                    tlo = n_b + (target - 1) * m
                    q[lo : lo + m, tlo : tlo + m] += a
                elif k >= 2:
                    lost_level += a.sum(axis=1)
            q[lo : lo + m, lo : lo + m] += np.diag(lost_level)
        return q


def _drift(repeating_blocks) -> float:
    """Mean level drift of the repeating blocks ``A0, A1, A2, ...``."""
    theta = stationary_distribution(sum(repeating_blocks), method="dense")
    e = np.ones(repeating_blocks[0].shape[0])
    value = -float(theta @ repeating_blocks[0] @ e)
    for k, a in enumerate(repeating_blocks[2:], start=2):
        value += (k - 1) * float(theta @ a @ e)
    return value


def g_matrix_mg1(
    repeating_blocks: tuple[np.ndarray, ...],
    tol: float = 1e-12,
    max_iter: int = 200_000,
) -> np.ndarray:
    """Minimal solution of ``A0 + A1 G + A2 G^2 + ... = 0``.

    Natural iteration ``G <- (-A1)^{-1} (A0 + sum_{k>=2} A_k G^k)``.  For a
    positive recurrent chain ``G`` is the unique stochastic solution, so the
    iteration starts from the identity: every iterate stays stochastic and
    the convergence is far faster than the monotone climb from zero, which
    under slow phase switching stops on a small step while ``G e`` still
    falls short of ``e`` by orders of magnitude more than ``tol``.  Other
    chains start from zero, whose limit is the minimal solution.
    """
    a_blocks = [np.asarray(a, dtype=float) for a in repeating_blocks]
    m = a_blocks[0].shape[0]
    inv_neg_a1 = np.linalg.inv(-a_blocks[1])
    g = np.eye(m) if _drift(a_blocks) < 0 else np.zeros((m, m))
    for _ in range(max_iter):
        acc = a_blocks[0].copy()
        power = g @ g
        for a in a_blocks[2:]:
            acc = acc + a @ power
            power = power @ g
        g_next = inv_neg_a1 @ acc
        delta = float(np.max(np.abs(g_next - g)))
        g = g_next
        if delta < tol:
            return g
    raise QBDConvergenceError(
        f"M/G/1 G iteration did not converge in {max_iter} iterations "
        f"(last delta {delta:.3g}); is the chain stable?"
    )


class MG1StationaryDistribution:
    """Stationary distribution of an M/G/1-type chain (levels on demand)."""

    def __init__(
        self, process: MG1Process, g: np.ndarray, pi0: np.ndarray, levels: list[np.ndarray]
    ) -> None:
        self._process = process
        self._g = g
        self._pi0 = pi0
        self._levels = levels

    @property
    def g(self) -> np.ndarray:
        """The first-passage matrix G."""
        return self._g

    @property
    def boundary(self) -> np.ndarray:
        """Stationary probabilities of the boundary states."""
        return self._pi0

    @property
    def computed_levels(self) -> int:
        """Number of repeating levels computed before the tail was cut."""
        return len(self._levels)

    def level(self, k: int) -> np.ndarray:
        """Stationary probabilities of repeating level ``k >= 1``.

        Levels beyond the computed range are (numerically) zero.
        """
        if k < 1:
            raise ValueError(f"repeating levels are numbered from 1, got {k}")
        if k <= len(self._levels):
            return self._levels[k - 1]
        return np.zeros(self._process.phase_count)

    @cached_property
    def total_mass(self) -> float:
        """Should be 1 up to the truncation tolerance."""
        return float(self._pi0.sum() + sum(v.sum() for v in self._levels))

    def mean_level(self) -> float:
        """Expected level ``E[N]`` of the stationary chain."""
        return float(sum(k * v.sum() for k, v in enumerate(self._levels, start=1)))


def solve_mg1(
    process: MG1Process,
    tol: float = 1e-12,
    tail_tol: float = 1e-14,
    max_levels: int = 200_000,
) -> MG1StationaryDistribution:
    """Solve an M/G/1-type chain via G and Ramaswami's recursion.

    Parameters
    ----------
    process:
        The validated block structure.
    tol:
        Convergence tolerance of the G iteration.
    tail_tol:
        Levels are generated until a level's mass falls below
        ``tail_tol`` times the mass accumulated so far.
    max_levels:
        Safety cap on the recursion length.
    """
    if process.drift >= 0:
        raise ValueError(
            f"chain is not positive recurrent (drift {process.drift:.6g} >= 0)"
        )
    a_blocks = process.repeating_blocks
    b_blocks = process.boundary_blocks
    c = process.down_block
    g = g_matrix_mg1(a_blocks, tol=tol)

    # Censored sums Abar_k = sum_{j>=k} A_j G^{j-k} for k = 1..K and the
    # analogous Bbar_k; beyond the highest explicit block they are zero.
    k_a = len(a_blocks)
    abar: list[np.ndarray] = [None] * k_a  # index k for Abar_k, k >= 1
    acc = a_blocks[k_a - 1].copy()
    abar[k_a - 1] = acc.copy()
    for k in range(k_a - 2, 0, -1):
        acc = a_blocks[k] + acc @ g
        abar[k] = acc.copy()
    k_b = len(b_blocks)
    bbar: list[np.ndarray] = [None] * k_b
    acc_b = b_blocks[k_b - 1].copy()
    bbar[k_b - 1] = acc_b.copy()
    for k in range(k_b - 2, 0, -1):
        acc_b = b_blocks[k] + acc_b @ g
        bbar[k] = acc_b.copy()

    inv_neg_abar1 = np.linalg.inv(-abar[1])
    h = inv_neg_abar1 @ c  # first passage from level 1 into the boundary

    # Censored boundary generator and pi_0 (unnormalized).
    q_star = b_blocks[0] + bbar[1] @ h
    pi0 = stationary_distribution(q_star, method="dense")

    def abar_at(k: int) -> np.ndarray | None:
        return abar[k] if 1 <= k < k_a else None

    def bbar_at(k: int) -> np.ndarray | None:
        return bbar[k] if 1 <= k < k_b else None

    levels: list[np.ndarray] = []
    accumulated = float(pi0.sum())
    for n in range(1, max_levels + 1):
        acc_vec = np.zeros(process.phase_count)
        b_term = bbar_at(n)
        if b_term is not None:
            acc_vec += pi0 @ b_term
        for k in range(1, n):
            a_term = abar_at(n - k + 1)
            if a_term is not None:
                acc_vec += levels[k - 1] @ a_term
        # pi_n = -(pi_0 Bbar_n + sum pi_k Abar_{n-k+1}) (Abar_1)^{-1}
        #      =  (pi_0 Bbar_n + sum pi_k Abar_{n-k+1}) (-Abar_1)^{-1}.
        pi_n = acc_vec @ inv_neg_abar1
        mass = float(pi_n.sum())
        if mass < 0:
            raise ValueError(f"Ramaswami recursion produced negative mass at level {n}")
        levels.append(pi_n)
        accumulated += mass
        if n >= k_a and n >= k_b and mass < tail_tol * accumulated:
            break
    else:
        raise QBDConvergenceError(
            f"Ramaswami recursion did not drain within {max_levels} levels"
        )

    # Normalize everything jointly.
    pi0 = pi0 / accumulated
    levels = [v / accumulated for v in levels]
    return MG1StationaryDistribution(process, g, pi0, levels)
