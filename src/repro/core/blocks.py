"""QBD generator blocks of the foreground/background model.

Implements the chain of the paper's Figure 3, lifted to MAP arrivals as in
Figure 4 / Eq. (6): the scalar arrival rate ``lambda`` becomes the matrix
``F = D1``, local phase moves come from ``L`` (the off-diagonal of ``D0``,
whose diagonal is carried inside each group's local block), service is
``B = mu * I`` and the idle-wait timer ``W = alpha * I``.

Transitions (``X`` = background buffer, ``x+ = min(x+1, X)``):

=================  ===========================================================
state              transitions
=================  ===========================================================
``I(0)``           ``D1 -> F(0, 1)``
``I(x), x >= 1``   ``D1 -> F(x, 1)``; ``alpha -> B(x, 0)``
``F(x, y)``        ``D1 -> F(x, y+1)``;
                   ``mu(1-p) -> F(x, y-1)`` or ``I(x)`` when ``y = 1``;
                   ``mu p -> F(x+, y-1)`` or ``I(x+)`` when ``y = 1``
``B(x, y)``        ``D1 -> B(x, y+1)``;
                   ``mu -> F(x-1, y)`` when ``y >= 1``; when ``y = 0``:
                   ``back_to_back``: ``B(x-1, 0)`` (or ``I(0)`` if ``x = 1``);
                   ``rewait``: ``I(x-1)``
=================  ===========================================================
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro._types import ArrayLike
from repro.core.states import StateKind, StateSpace
from repro.processes.map_process import MarkovianArrivalProcess
from repro.qbd.structure import QBDStack, _band_layout

__all__ = ["BgServiceMode", "build_qbd"]


class BgServiceMode(enum.Enum):
    """How background jobs are scheduled within an idle period.

    ``BACK_TO_BACK``
        Once the idle wait has expired, queued background jobs are served
        consecutively until a foreground job arrives or the queue drains
        (the common disk-firmware behaviour; the default).
    ``REWAIT``
        Every background job requires a fresh idle-wait grant; after each
        background completion with no foreground work present the system
        returns to the idle-wait state.
    """

    BACK_TO_BACK = "back_to_back"
    REWAIT = "rewait"


def build_qbd(
    arrivals: Sequence[MarkovianArrivalProcess],
    service_rates: ArrayLike,
    bg_probabilities: ArrayLike,
    bg_buffer: int,
    idle_wait_rates: ArrayLike,
    bg_mode: BgServiceMode = BgServiceMode.BACK_TO_BACK,
) -> tuple[QBDStack, StateSpace]:
    """Assemble the QBD blocks of ``N`` FG/BG chains of one structure.

    Item ``i`` has arrival MAP ``arrivals[i]`` and rates
    ``service_rates[i]``, ``bg_probabilities[i]`` and
    ``idle_wait_rates[i]``; every item shares the buffer size, the MAP
    order and the BG mode.  Returns the validated
    :class:`~repro.qbd.structure.QBDStack` together with the
    :class:`~repro.core.states.StateSpace` that indexes it (shared by
    every model with the same buffer size, MAP order and BG mode).
    ``stack.process(i)`` is item ``i``'s
    :class:`~repro.qbd.structure.QBDProcess`.
    """
    mu = np.asarray(service_rates, dtype=float)
    p = np.asarray(bg_probabilities, dtype=float)
    alpha = np.asarray(idle_wait_rates, dtype=float)
    for name, values, bad in (
        ("service_rate must be positive", mu, mu <= 0),
        ("bg_probability must lie in [0, 1]", p, ~((p >= 0) & (p <= 1))),
        ("idle_wait_rate must be positive", alpha, alpha <= 0),
    ):
        if bad.any():
            raise ValueError(f"{name}, got {values[np.argmax(bad)]}")
    if not isinstance(bg_mode, BgServiceMode):
        raise TypeError(f"bg_mode must be a BgServiceMode, got {bg_mode!r}")
    n = len(arrivals)
    if not n == mu.size == p.size == alpha.size:
        raise ValueError("build_qbd needs one rate and probability per arrival MAP")
    order = arrivals[0].order
    if any(arrival.order != order for arrival in arrivals):
        raise ValueError("build_qbd needs arrival MAPs of one order")

    pattern = _block_pattern(bg_buffer, order, bg_mode)
    space = pattern.space
    d0 = np.stack([arrival.d0 for arrival in arrivals])
    d1 = np.stack([arrival.d1 for arrival in arrivals])
    eye = np.eye(order)
    # Each value is written as if added onto a zero block (``0.0 + x`` also
    # turns -0.0 into 0.0), the way a group-by-group assembly accumulates
    # it, so the scattered blocks are bit-identical to that assembly.
    values = {
        "d0": 0.0 + d0,
        "d0-alpha": (0.0 + d0) - alpha[:, None, None] * eye,
        "d0-mu": (0.0 + d0) - mu[:, None, None] * eye,
        "d1": 0.0 + d1,
        "mu": 0.0 + mu,
        "mu(1-p)": 0.0 + mu * (1 - p),
        "mu*p": 0.0 + mu * p,
        "alpha": 0.0 + alpha,
    }
    m_g = space.repeating_group_count
    m = m_g * order
    # np.kron treats the identity as (1, m_g, m_g): one kron per item.
    a0 = np.kron(np.eye(m_g), d1)
    stack = QBDStack(
        a0=a0,
        a1=_scatter((n, m, m), pattern.a1, values),
        a2=_scatter((n, m, m), pattern.a2, values),
        band=_scatter((n, pattern.band_size), pattern.band, values),
        b01=_scatter((n, pattern.last_level, m), pattern.b01, values),
        b10=_scatter((n, m, pattern.last_level), pattern.b10, values),
        boundary_levels=pattern.boundary_levels,
    )
    return stack, space


#: Per block, ``(term, flat indices)`` pairs: a full ``A x A`` term scatters
#: over ``(k, A, A)`` indices, a rate times the identity over ``(k, A)``
#: diagonal indices.  No two terms of one block share an index.
_Scatter = tuple[tuple[str, np.ndarray], ...]


def _scatter(
    shape: tuple[int, ...], entries: _Scatter, values: dict[str, np.ndarray]
) -> np.ndarray:
    """One block stack: each term's per-item values at its indices."""
    out = np.zeros((shape[0], int(np.prod(shape[1:]))))
    for term, index in entries:
        value = values[term]
        # A matrix term repeats per group, a rate per group and phase.
        out[:, index] = value[:, None] if value.ndim == 3 else value[:, None, None]
    return out.reshape(shape)


@dataclass(frozen=True)
class _BlockPattern:
    """Where each term of the FG/BG blocks lands, for one chain structure."""

    space: StateSpace
    boundary_levels: tuple[int, ...]
    #: Sizes of the ``B00`` band and of the last boundary level.
    band_size: int
    last_level: int
    band: _Scatter
    b01: _Scatter
    b10: _Scatter
    a1: _Scatter
    a2: _Scatter


@functools.lru_cache(maxsize=64)
def _block_pattern(
    bg_buffer: int, phases: int, bg_mode: BgServiceMode
) -> _BlockPattern:
    """Walk the state groups once and record every block entry's term.

    The transition table in the module docstring, group by group; each
    ``put`` names the target block, the term and the source/target groups.
    """
    space = StateSpace(bg_buffer, phases)
    x_max = space.bg_buffer
    puts: dict[str, dict[str, list[tuple[int, int]]]] = {
        name: {} for name in ("b00", "b01", "b10", "a1", "a2")
    }

    def put(block: str, term: str, row: int, col: int) -> None:
        puts[block].setdefault(term, []).append((row, col))

    def b(kind: StateKind, bg: int, fg: int) -> int:
        return space.boundary_group_index(kind, bg, fg)

    def r(kind: StateKind, bg: int) -> int:
        return space.repeating_group_index(kind, bg)

    # Boundary (levels 0..X) and its up-transitions into level X+1.
    for i, g in enumerate(space.boundary_groups):
        top = g.level == x_max
        if g.kind is StateKind.IDLE:
            put("b00", "d0-alpha" if g.bg >= 1 else "d0", i, i)
            if g.bg >= 1:
                put("b00", "alpha", i, b(StateKind.BG, g.bg, 0))
            if top:  # only I(X) reaches the repeating portion on an arrival
                put("b01", "d1", i, r(StateKind.FG, g.bg))
            else:
                put("b00", "d1", i, b(StateKind.FG, g.bg, 1))
        elif g.kind is StateKind.FG:
            put("b00", "d0-mu", i, i)
            if top:
                put("b01", "d1", i, r(StateKind.FG, g.bg))
            else:
                put("b00", "d1", i, b(StateKind.FG, g.bg, g.fg + 1))
            # Completion without (mu(1-p)) or with (mu*p) a spawned
            # background job; boundary FG states have bg <= X-1, so the
            # spawn is never dropped here.
            if g.fg >= 2:
                put("b00", "mu(1-p)", i, b(StateKind.FG, g.bg, g.fg - 1))
                put("b00", "mu*p", i, b(StateKind.FG, g.bg + 1, g.fg - 1))
            else:
                put("b00", "mu(1-p)", i, b(StateKind.IDLE, g.bg, 0))
                put("b00", "mu*p", i, b(StateKind.IDLE, g.bg + 1, 0))
        else:  # BG in service
            put("b00", "d0-mu", i, i)
            if top:
                put("b01", "d1", i, r(StateKind.BG, g.bg))
            else:
                put("b00", "d1", i, b(StateKind.BG, g.bg, g.fg + 1))
            if g.fg >= 1:
                put("b00", "mu", i, b(StateKind.FG, g.bg - 1, g.fg))
            elif bg_mode is BgServiceMode.BACK_TO_BACK and g.bg >= 2:
                put("b00", "mu", i, b(StateKind.BG, g.bg - 1, 0))
            else:
                put("b00", "mu", i, b(StateKind.IDLE, g.bg - 1, 0))

    # Repeating blocks (levels j >= X+1; the FG count of group (kind, x) is
    # j - x >= 1), and the special down-block from level X+1 into level X,
    # where FG completions with y = 1 land on idle-wait states.
    for i, g in enumerate(space.repeating_groups):
        put("a1", "d0-mu", i, i)
        y = x_max + 1 - g.bg  # FG count at level X+1
        if g.kind is StateKind.FG and g.bg < x_max:
            put("a1", "mu*p", i, r(StateKind.FG, g.bg + 1))
            put("a2", "mu(1-p)", i, i)
            # The mu*p spawn stays within level X+1 (y - 1 >= 1).
            put("b10", "mu(1-p)", i, b(StateKind.FG, g.bg, y - 1))
        elif g.kind is StateKind.FG:
            # Full buffer: a spawned background job is dropped, so every
            # completion steps the level down; from F(X, 1) the system
            # empties of FG work and starts an idle wait.
            put("a2", "mu", i, i)
            put("b10", "mu", i, b(StateKind.IDLE, x_max, 0))
        else:
            put("a2", "mu", i, r(StateKind.FG, g.bg - 1))
            put("b10", "mu", i, b(StateKind.FG, g.bg - 1, y))

    n_b = space.boundary_state_count
    m = space.repeating_state_count
    levels = tuple((2 * j + 1) * phases for j in range(x_max + 1))
    last = n_b - levels[-1]
    layout = _band_layout(levels)
    # Flat index into the dense block -> into the stacked layout: B00's
    # band (checked once here, per pattern), and the last boundary level's
    # rows of B01 and columns of B10, outside which both must be zero.
    to_stack = {
        "b00": layout.band_index,
        "b01": lambda index: _last_level_index(index, m, last, rows=True),
        "b10": lambda index: _last_level_index(index, n_b, last, rows=False),
        "a1": lambda index: index,
        "a2": lambda index: index,
    }
    widths = {"b00": n_b, "b01": m, "b10": n_b, "a1": m, "a2": m}
    full = np.arange(phases)
    scatters: dict[str, _Scatter] = {}
    for block, terms in puts.items():
        entries: list[tuple[str, np.ndarray]] = []
        for term, pairs in terms.items():
            rows, cols = (np.array(side) * phases for side in zip(*pairs))
            if term.startswith("d"):  # a full A x A block per group pair
                index = (rows[:, None, None] + full[:, None]) * widths[block] + (
                    cols[:, None, None] + full[None, :]
                )
            else:  # a rate times the identity
                index = (rows[:, None] + full) * widths[block] + cols[:, None] + full
            index = to_stack[block](index)
            index.setflags(write=False)
            entries.append((term, index))
        scatters[block] = tuple(entries)
    return _BlockPattern(
        space=space,
        boundary_levels=levels,
        band_size=layout.size,
        last_level=levels[-1],
        band=scatters["b00"],
        b01=scatters["b01"],
        b10=scatters["b10"],
        a1=scatters["a1"],
        a2=scatters["a2"],
    )


def _last_level_index(
    index: np.ndarray, width: int, last: int, rows: bool
) -> np.ndarray:
    """Flat ``B01`` (``rows``) or ``B10`` index -> index into the block's
    last-boundary-level part, with the support check of ``QBDProcess``."""
    row, col = np.divmod(index, width)
    if rows:
        if (row < last).any():
            raise ValueError("b01 must be zero outside the last boundary level's rows")
        return (row - last) * width + col
    if (col < last).any():
        raise ValueError("b10 must be zero outside the last boundary level's columns")
    return row * (width - last) + col - last
