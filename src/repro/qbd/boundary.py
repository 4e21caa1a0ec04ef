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

:func:`solve_boundaries` runs this reduction over a
:class:`~repro.qbd.structure.QBDStack`, every step stacked on its leading
item axis; :func:`solve_boundary` is its one-item call.  The stack holds
only ``B00``'s band, never whole ``B00`` blocks (at ``X = 25`` one is
14.6 MB).  A single declared level reduces this to the Schur complement of
``B00``.  If a level block of an item is singular, that item's dense
system is solved by least squares.
"""

from __future__ import annotations

import numpy as np

from repro._types import FloatArray
from repro.faults import fire as _fault_fire
from repro.qbd.structure import QBDProcess, QBDStack

__all__ = ["solve_boundaries", "solve_boundary"]


def solve_boundary(
    qbd: QBDProcess, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve for ``(pi_0, pi_1)`` given the rate matrix ``R``.

    Returns
    -------
    tuple
        ``pi_0`` of length ``qbd.boundary_size`` and ``pi_1`` of length
        ``qbd.phase_count``, jointly normalized with the geometric tail.

    Raises
    ------
    ValueError
        If ``R`` has the wrong shape or does not fit the blocks, or the
        solve yields a significantly negative probability.
    numpy.linalg.LinAlgError
        If ``I - R`` is singular.
    """
    m = qbd.phase_count
    r = np.asarray(r, dtype=float)
    if r.shape != (m, m):
        raise ValueError(f"R must have shape {(m, m)}, got {r.shape}")
    pi0, pi1, failures = solve_boundaries(QBDStack.of([qbd]), r[None])
    if failures:
        raise failures[0]
    return pi0[0], pi1[0]


def solve_boundaries(
    stack: QBDStack, r: np.ndarray
) -> tuple[FloatArray, FloatArray, dict[int, Exception]]:
    """Stacked boundary solve of the ``N`` QBDs of ``stack``.

    ``r`` stacks their rate matrices, ``(N, m, m)``.

    Returns
    -------
    tuple
        ``(pi_0, pi_1, failures)``: ``(N, n_b)`` and ``(N, m)`` arrays,
        jointly normalized per item, and the exception each failed item
        raised, by index in ascending order (the error :func:`solve_boundary`
        raises for it alone).  A failed item's rows are NaN; it never
        fails another item.
    """
    n, n_b, m = stack.size, stack.boundary_size, stack.phase_count
    r = np.asarray(r, dtype=float)
    if r.shape != (n, m, m):
        raise ValueError(f"R must have shape {(n, m, m)}, got {r.shape}")
    failures: dict[int, Exception] = {}
    for i in range(n):
        if _fault_fire("singular_boundary"):
            # An exactly singular boundary system would surface here as a
            # LinAlgError before the lstsq fallback could run; injecting
            # the same exception exercises the escalation path
            # deterministically.
            failures[i] = np.linalg.LinAlgError(
                "boundary system is singular (injected fault singular_boundary)"
            )

    a1, a2 = stack.a1, stack.a2
    eye = np.eye(m)
    # RHS kept explicitly 3-D: stacked-solve vector dispatch differs
    # between numpy 1.x and 2.x for a 2-D RHS.
    try:
        tail_weights = np.linalg.solve(eye - r, np.ones((n, m, 1)))[..., 0]
    except np.linalg.LinAlgError:
        tail_weights = np.full((n, m), np.nan)
        for i in range(n):
            try:
                tail_weights[i] = np.linalg.solve(eye - r[i], np.ones(m))
            except np.linalg.LinAlgError as exc:
                failures.setdefault(i, exc)
    # The top level is solved as a generator, which it is only when
    # R A2 e = A0 e (true of the minimal R of a positive recurrent QBD):
    # reject an R that does not fit the blocks instead of answering for
    # another chain.  Since A1 e = -(A0 + A2) e, the defect equals
    # -(I - R)^{-1} (A0 + R A1 + R^2 A2) e: an R that solves its equation
    # to a residual eps misses by up to eps ||(I - R)^{-1}||, and near
    # saturation that norm (the largest tail weight) reaches 1e5.  The
    # bound is therefore on the residual, not on the defect itself.
    up_rates = (r @ a2.sum(axis=2)[..., None])[..., 0]
    defect = np.abs(up_rates - stack.a0.sum(axis=2)).max(axis=1)
    rate_scale = np.maximum(1.0, np.abs(np.diagonal(a1, axis1=1, axis2=2)).max(axis=1))
    limit = 1e-8 * rate_scale * np.maximum(1.0, np.abs(tail_weights).max(axis=1))
    for i in np.flatnonzero(~(defect <= limit)):
        failures.setdefault(int(i), ValueError(
            f"R does not fit the QBD blocks: R A2 e - A0 e reaches {defect[i]:.3g}"
        ))

    x = np.full((n, n_b + m), np.nan)
    ok = [i for i in range(n) if i not in failures]
    if ok:
        top = a1[ok] + r[ok] @ a2[ok]
        try:
            x[ok] = _level_reduction(
                stack if len(ok) == n else stack.take(ok), top, tail_weights[ok]
            )
        except np.linalg.LinAlgError:
            # Some item has a singular level block or a reducible top
            # level: reduce each item alone, so that only those items take
            # the dense fallback.
            for k, i in enumerate(ok):
                try:
                    x[i] = _solve_alone(stack, i, top[k], tail_weights[i])
                except np.linalg.LinAlgError as exc:
                    failures[i] = exc

    least = x.min(axis=1)
    for i in np.flatnonzero(least < -1e-8 * np.maximum(1.0, np.abs(x).max(axis=1))):
        failures.setdefault(int(i), ValueError(
            f"boundary solve produced a significantly negative probability "
            f"({least[i]:.3g}); the QBD blocks are likely inconsistent"
        ))
    x = np.clip(x, 0.0, None)
    tail_mass = (x[:, None, n_b:] @ tail_weights[..., None])[:, 0, 0]
    x /= (x[:, :n_b].sum(axis=1) + tail_mass)[:, None]
    if failures:
        x[list(failures)] = np.nan
    return x[:, :n_b], x[:, n_b:], dict(sorted(failures.items()))


def _solve_alone(
    stack: QBDStack, i: int, top: np.ndarray, tail_weights: np.ndarray
) -> np.ndarray:
    """Item ``i``'s ``x``: level reduction, or least squares if a level is
    singular."""
    try:
        return _level_reduction(stack.take([i]), top[None], tail_weights[None])[0]
    except np.linalg.LinAlgError:
        return _dense_lstsq(stack.process(i), top, tail_weights)


def _level_reduction(
    stack: QBDStack, top: np.ndarray, tail_weights: np.ndarray
) -> np.ndarray:
    """``x = [pi_0, pi_1]`` per item, with ``x M = 0`` and unit total mass.

    Raises ``LinAlgError`` if any item has a singular level block or a
    reducible top level.
    """
    layout = stack.layout
    edges, k = layout.edges, len(layout.edges) - 1  # level k is pi_1's

    def level(j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(D_j, L_j, U_j)`` of boundary level ``j``, stacked over items."""
        band = stack.level_band(j)
        mid, right = edges[j] - layout.lows[j], edges[j + 1] - layout.lows[j]
        up = band[..., right:] if j + 1 < k else stack.b01
        return band[..., :mid], band[..., mid:right], up

    _, s, up = level(0)
    # h_j: total mass of levels 0..j per unit of pi_j, as a column.
    h = np.ones((stack.size, edges[1], 1))
    ws: list[np.ndarray] = []
    for j in range(1, k + 1):
        if j < k:
            down, local, next_up = level(j)
        else:
            down = stack.b10
            local = top
        w = np.linalg.solve(
            s.transpose(0, 2, 1), down.transpose(0, 2, 1)
        ).transpose(0, 2, 1)
        s = local - w @ up
        if j < k:
            diag = np.arange(s.shape[1])
            s[:, diag, diag] = 0.0
            s[:, diag, diag] = -(s.sum(axis=2) + next_up.sum(axis=2))
            h = 1.0 - w @ h
            up = next_up
        else:
            h = tail_weights[..., None] - w @ h
        ws.append(w)

    top_pi = _gth_stationary(s)
    pis = [top_pi / (top_pi[:, None, :] @ h)[:, 0]]
    for w in reversed(ws):
        pis.append(-(pis[-1][:, None, :] @ w)[:, 0])
    return np.concatenate(pis[::-1], axis=1)


def _gth_stationary(generator: np.ndarray) -> np.ndarray:
    """Per item, ``pi`` with ``pi G = 0`` and ``pi[0] = 1``, by GTH state reduction.

    ``generator`` stacks the items' generators, ``(N, n, n)``.  Only their
    off-diagonal rates enter, and only through sums and products of
    non-negative numbers, so small probabilities keep their relative
    accuracy (an LU solve loses them to cancellation in its pivots).  A
    state that cannot reach the lower-numbered ones makes the chain
    reducible and raises ``LinAlgError``.
    """
    a = np.array(generator, dtype=float)
    n = a.shape[1]
    outflow = np.empty(a.shape[:2])
    for k in range(n - 1, 0, -1):
        row = a[:, k, :k]
        outflow[:, k] = total = row.sum(axis=1)
        if not (total > 0.0).all():
            raise np.linalg.LinAlgError(
                f"top level is reducible: state {k} has no path to states 0..{k - 1}"
            )
        a[:, :k, :k] += a[:, :k, k, None] * (row / total[:, None])[:, None, :]
    # pi_k outflow_k = sum_{i<k} pi_i a_ik: forward substitution from
    # pi_0 = 1, again over non-negative products only.
    pi = np.empty(a.shape[:2])
    pi[:, 0] = 1.0
    for k in range(1, n):
        pi[:, k] = (pi[:, None, :k] @ a[:, :k, k, None])[:, 0, 0] / outflow[:, k]
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
