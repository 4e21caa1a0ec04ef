"""Stationary queue-length distributions of the FG/BG model.

The paper reports only means; the matrix-geometric solution actually yields
the complete stationary distribution, from which tail probabilities and
percentiles follow.  A state holds ``y`` foreground jobs; in the repeating
portion ``y = level - x``, so ``P(N_FG = k)`` collects, for each background
count ``x``, the mass of physical level ``k + x`` in group ``x``.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.result import FgBgSolution
from repro.core.states import StateSpace
from repro.qbd.stationary import QBDStationaryDistribution

__all__ = [
    "fg_queue_length_pmf",
    "bg_queue_length_pmf",
    "fg_queue_length_quantile",
]


def _space_of(qbd_solution: QBDStationaryDistribution) -> StateSpace:
    """Reconstruct the state space from the QBD dimensions.

    The boundary has ``(X+1)^2 * A`` states and a repeating level
    ``(2X+1) * A``; the pair determines ``(X, A)`` uniquely.
    """
    n_b = qbd_solution.boundary.size
    m = qbd_solution.r.shape[0]
    for x in range(0, 4096):
        if (x + 1) ** 2 * m == (2 * x + 1) * n_b:
            phases = m // (2 * x + 1)
            if phases >= 1 and (2 * x + 1) * phases == m:
                return StateSpace(x, phases)
    raise ValueError(
        f"cannot infer (bg_buffer, phases) from boundary={n_b}, level={m}; "
        "was this solution produced by FgBgModel?"
    )


def _boundary_mass_by_fg(
    qbd_solution: QBDStationaryDistribution, space: StateSpace
) -> dict[int, float]:
    a = space.phases
    pi_b = qbd_solution.boundary
    out: dict[int, float] = {}
    for i, g in enumerate(space.boundary_groups):
        out[g.fg] = out.get(g.fg, 0.0) + float(pi_b[i * a : (i + 1) * a].sum())
    return out


def _fg_mass_iter(
    qbd_solution: QBDStationaryDistribution, space: StateSpace
) -> Iterator[float]:
    """Yield ``P(N_FG = k)`` for k = 0, 1, 2, ...

    Repeating levels are generated incrementally (``pi_{k+1} = pi_k R``) and
    per-group masses are re-binned by foreground count.
    """
    a = space.phases
    x_max = space.bg_buffer
    boundary_by_y = _boundary_mass_by_fg(qbd_solution, space)
    r = qbd_solution.r

    # group_mass[j][group] = mass of repeating level j in that group; built
    # lazily as higher levels are needed.
    levels: list[np.ndarray] = [qbd_solution.level(1)]

    def group_mass(level_index: int, group_index: int) -> float:
        while len(levels) < level_index:
            levels.append(levels[-1] @ r)
        vec = levels[level_index - 1]
        return float(vec[group_index * a : (group_index + 1) * a].sum())

    k = 0
    while True:
        mass = boundary_by_y.get(k, 0.0)
        for g in space.repeating_groups:
            k_rep = k + g.bg - x_max
            if k_rep < 1:
                continue
            i = space.repeating_group_index(g.kind, g.bg)
            mass += group_mass(k_rep, i)
        yield mass
        k += 1


def fg_queue_length_pmf(solution: FgBgSolution, n: int) -> np.ndarray:
    """``P(N_FG = 0..n)`` -- the foreground queue-length distribution.

    Parameters
    ----------
    solution:
        A solved :class:`~repro.core.result.FgBgSolution`.
    n:
        Largest queue length to evaluate.  The returned vector sums to at
        most 1; the missing mass is ``P(N_FG > n)``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    qbd_solution = solution.qbd_solution
    space = _space_of(qbd_solution)
    it = _fg_mass_iter(qbd_solution, space)
    return np.array([next(it) for _ in range(n + 1)])


def bg_queue_length_pmf(solution: FgBgSolution) -> np.ndarray:
    """``P(N_BG = 0..X)`` -- the background queue-length distribution.

    Exact: the background count is bounded by the buffer, and the
    repeating-portion mass per group is available in closed form.
    """
    qbd_solution = solution.qbd_solution
    space = _space_of(qbd_solution)
    a = space.phases
    out = np.zeros(space.bg_buffer + 1)
    pi_b = qbd_solution.boundary
    for i, g in enumerate(space.boundary_groups):
        out[g.bg] += float(pi_b[i * a : (i + 1) * a].sum())
    rep_mass = qbd_solution.repeating_mass
    for g in space.repeating_groups:
        i = space.repeating_group_index(g.kind, g.bg)
        out[g.bg] += float(rep_mass[i * a : (i + 1) * a].sum())
    return out


def fg_queue_length_quantile(
    solution: FgBgSolution, q: float, n_max: int = 100_000
) -> int:
    """Smallest ``k`` with ``P(N_FG <= k) >= q``.

    Parameters
    ----------
    q:
        Quantile level in (0, 1).
    n_max:
        Safety cap on the search (heavy-tailed regimes near saturation).
    """
    if not 0 < q < 1:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    qbd_solution = solution.qbd_solution
    space = _space_of(qbd_solution)
    cumulative = 0.0
    it = _fg_mass_iter(qbd_solution, space)
    for k in range(n_max + 1):
        cumulative += next(it)
        if cumulative >= q:
            return k
    raise RuntimeError(
        f"quantile {q} not reached by N_FG = {n_max} "
        f"(cumulative {cumulative:.6f}); the system is close to saturation"
    )
