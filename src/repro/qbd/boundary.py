"""Boundary linear system of a QBD, solved level by level.

Given R, the unknowns are the boundary vector ``pi_0`` and the first
repeating-level vector ``pi_1``; they satisfy

* ``pi_0 B00 + pi_1 B10 = 0``
* ``pi_0 B01 + pi_1 (A1 + R A2) = 0``
* ``pi_0 e + pi_1 (I - R)^{-1} e = 1``

(the higher levels follow geometrically and their balance equations hold by
construction of R).

The boundary's physical levels (``QBDProcess.boundary_levels``) make this
system block tridiagonal, with the first repeating level on top.  It is
solved by linear level reduction (Latouche & Ramaswami, ch. 10): with
``L_j``, ``U_j`` and ``D_j`` the local, up and down blocks of level ``j``,

* ``S_0 = L_0``, ``W_j = D_j S_{j-1}^{-1}``, ``S_j = L_j - W_j U_{j-1}``;
* ``S_j`` is the level-``j`` block of the chain censored on levels
  ``>= j``, so its off-diagonal is non-negative and each row of
  ``[S_j U_j]`` sums to zero: its diagonal is recomputed from those row
  sums (the GTH correction), which avoids cancellation;
* the top level, ``L = A1 + R A2`` and ``D = B10``, gives
  ``pi_1 S_top = 0``; ``S_top`` is the generator of the chain censored on
  level ``X+1`` (its rows sum to zero because ``R A2 e = A0 e``), so
  ``pi_1`` is its stationary vector, found by GTH state reduction and
  scaled to unit total mass;
* back-substitution ``pi_{j-1} = -pi_j W_j``.

A single declared level reduces this to the Schur complement of ``B00``.
If a level block is singular, the dense system is solved by least squares.
"""

from __future__ import annotations

import numpy as np

from repro.faults import fire as _fault_fire
from repro.qbd.structure import QBDProcess

__all__ = ["solve_boundary"]


def solve_boundary(
    qbd: QBDProcess, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve for ``(pi_0, pi_1)`` given the rate matrix ``R``.

    Returns
    -------
    tuple
        ``pi_0`` of length ``qbd.boundary_size`` and ``pi_1`` of length
        ``qbd.phase_count``, jointly normalized with the geometric tail.
    """
    if _fault_fire("singular_boundary"):
        # An exactly singular boundary system would surface here as a
        # LinAlgError before the lstsq fallback could run; injecting the
        # same exception exercises the escalation path deterministically.
        raise np.linalg.LinAlgError(
            "boundary system is singular (injected fault singular_boundary)"
        )
    n_b, m = qbd.boundary_size, qbd.phase_count
    r = np.asarray(r, dtype=float)
    if r.shape != (m, m):
        raise ValueError(f"R must have shape {(m, m)}, got {r.shape}")

    # The top level is solved as a generator, which it is only when
    # R A2 e = A0 e (true of the minimal R of a positive recurrent QBD):
    # reject an R that does not fit the blocks instead of answering for
    # another chain.  Since A1 e = -(A0 + A2) e, the defect equals
    # -(I - R)^{-1} (A0 + R A1 + R^2 A2) e: an R that solves its equation
    # to a residual eps misses by up to eps ||(I - R)^{-1}||, and near
    # saturation that norm (the largest tail weight) reaches 1e5.  The
    # bound is therefore on the residual, not on the defect itself.
    tail_weights = np.linalg.solve(np.eye(m) - r, np.ones(m))
    defect = float(np.abs(r @ qbd.a2.sum(axis=1) - qbd.a0.sum(axis=1)).max())
    rate_scale = max(1.0, float(np.abs(np.diag(qbd.a1)).max()))
    if not defect <= 1e-8 * rate_scale * max(1.0, float(np.abs(tail_weights).max())):
        raise ValueError(
            f"R does not fit the QBD blocks: R A2 e - A0 e reaches {defect:.3g}"
        )
    top = qbd.a1 + r @ qbd.a2
    try:
        x = _level_reduction(qbd, top, tail_weights)
    except np.linalg.LinAlgError:
        x = _dense_lstsq(qbd, top, tail_weights)

    if np.any(x < -1e-8 * max(1.0, float(np.abs(x).max()))):
        raise ValueError(
            f"boundary solve produced a significantly negative probability "
            f"({x.min():.3g}); the QBD blocks are likely inconsistent"
        )
    x = np.clip(x, 0.0, None)
    total = x[:n_b].sum() + x[n_b:] @ tail_weights
    x /= total
    return x[:n_b], x[n_b:]


def _level_reduction(
    qbd: QBDProcess, top: np.ndarray, tail_weights: np.ndarray
) -> np.ndarray:
    """``x = [pi_0, pi_1]`` with ``x M = 0`` and unit total mass."""
    b00 = qbd.b00
    edges = np.cumsum((0, *qbd.boundary_levels))
    k = len(edges) - 1  # boundary levels 0..k-1; level k is pi_1's
    level = [slice(edges[j], edges[j + 1]) for j in range(k)]

    def up(j: int) -> np.ndarray:
        return b00[level[j], level[j + 1]] if j + 1 < k else qbd.b01[level[j]]

    s = b00[level[0], level[0]]
    # h_j: total mass of levels 0..j per unit of pi_j.
    h = np.ones(edges[1])
    ws: list[np.ndarray] = []
    for j in range(1, k + 1):
        down = b00[level[j], level[j - 1]] if j < k else qbd.b10[:, level[k - 1]]
        w = np.linalg.solve(s.T, down.T).T
        local = b00[level[j], level[j]] if j < k else top
        s = local - w @ up(j - 1)
        if j < k:
            np.fill_diagonal(s, 0.0)
            np.fill_diagonal(s, -(s.sum(axis=1) + up(j).sum(axis=1)))
            h = 1.0 - w @ h
        else:
            h = tail_weights - w @ h
        ws.append(w)

    top_pi = _gth_stationary(s)
    pis = [top_pi / (top_pi @ h)]
    for w in reversed(ws):
        pis.append(-pis[-1] @ w)
    return np.concatenate(pis[::-1])


def _gth_stationary(generator: np.ndarray) -> np.ndarray:
    """``pi`` with ``pi G = 0`` and ``pi[0] = 1`` by GTH state reduction.

    Only the off-diagonal rates of ``G`` enter, and only through sums and
    products of non-negative numbers, so small probabilities keep their
    relative accuracy (an LU solve loses them to cancellation in its
    pivots).  A state that cannot reach the lower-numbered ones makes the
    chain reducible and raises ``LinAlgError``.
    """
    a = np.array(generator, dtype=float)
    n = len(a)
    outflow = np.empty(n)
    for k in range(n - 1, 0, -1):
        row = a[k, :k]
        outflow[k] = total = row.sum()
        if not total > 0.0:
            raise np.linalg.LinAlgError(
                f"top level is reducible: state {k} has no path to states 0..{k - 1}"
            )
        a[:k, :k] += np.multiply.outer(a[:k, k], row / total)
    # pi_k outflow_k = sum_{i<k} pi_i a_ik: forward substitution from
    # pi_0 = 1, again over non-negative products only.
    pi = np.empty(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = (pi[:k] @ a[:k, k]) / outflow[k]
    return pi


def _dense_lstsq(
    qbd: QBDProcess, top: np.ndarray, tail_weights: np.ndarray
) -> np.ndarray:
    """Least-squares solve of the whole boundary system (singular levels)."""
    n_b, m = qbd.boundary_size, qbd.phase_count
    # Balance equations, written column-wise: unknown row vector
    # x = [pi_0, pi_1] satisfies x M = 0 with
    #     M = [[B00, B01], [B10, A1 + R A2]].
    big = np.zeros((n_b + m, n_b + m))
    big[:n_b, :n_b] = qbd.b00
    big[:n_b, n_b:] = qbd.b01
    big[n_b:, :n_b] = qbd.b10
    big[n_b:, n_b:] = top
    a = big.T.copy()
    # Replace the balance equation with the largest diagonal magnitude --
    # dropping one equation keeps the system determined and well scaled.
    drop = int(np.argmax(np.abs(np.diag(big))))
    a[drop, :] = np.concatenate([np.ones(n_b), tail_weights])
    rhs = np.zeros(n_b + m)
    rhs[drop] = 1.0
    x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return x
