"""Block structure of a QBD process with a general finite boundary.

:class:`QBDProcess` is one QBD with dense blocks; :class:`QBDStack` is
``N`` QBDs of one block structure on a leading item axis, holding only
what the stacked kernel reads.  Both constructors test block signs and
row sums with one stacked check, :class:`QBDProcess` on its one-item
band, so an item gets the same verdict and message on either path.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["QBDProcess", "QBDStack"]

_ATOL = 1e-8


def _freeze(*arrays: np.ndarray) -> None:
    """Make every block read-only before it is stored on the dataclass.

    Must stay unconditional and directly called: reprolint's freeze
    oracle (RL002/RL006) recognizes one level of same-module helpers,
    no deeper and never behind a data-dependent branch.
    """
    for array in arrays:
        array.setflags(write=False)


class _BandLayout:
    """Where the block-tridiagonal band of ``B00`` sits, per boundary levels.

    Boundary level ``j``'s rows over the columns of levels ``j-1..j+1``
    are one ``rows x width`` block, stored flat at ``offsets[j]``; the
    blocks follow each other level by level.  ``dense_index`` holds the
    flat ``B00`` index of every band entry, in band order; ``diagonal``
    and ``row_starts`` the band positions of the ``B00`` diagonal and of
    each row's first entry.
    """

    def __init__(self, levels: tuple[int, ...]) -> None:
        k = len(levels)
        self.edges = edges = tuple(int(e) for e in np.cumsum((0, *levels)))
        self.lows = lows = tuple(edges[max(j - 1, 0)] for j in range(k))
        self.widths = widths = tuple(edges[min(j + 2, k)] - lows[j] for j in range(k))
        sizes = [levels[j] * widths[j] for j in range(k)]
        self.offsets = tuple(int(o) for o in np.cumsum((0, *sizes[:-1])))
        self.size = int(sum(sizes))
        dense, diagonal, row_starts = [], [], []
        for j in range(k):
            rows = np.arange(edges[j], edges[j + 1])
            cols = np.arange(lows[j], lows[j] + widths[j])
            dense.append((rows[:, None] * edges[-1] + cols).ravel())
            local = np.arange(levels[j])
            row_starts.append(self.offsets[j] + local * widths[j])
            diagonal.append(row_starts[-1] + edges[j] - lows[j] + local)
        self.dense_index, self.diagonal, self.row_starts = (
            np.concatenate(parts) for parts in (dense, diagonal, row_starts)
        )
        _freeze(self.dense_index, self.diagonal, self.row_starts)

    def band_index(self, dense: np.ndarray) -> np.ndarray:
        """Band positions of flat ``B00`` indices; ``ValueError`` if one
        lies outside the band (the check :class:`QBDProcess` makes)."""
        n_b = self.edges[-1]
        rows, cols = np.divmod(dense, n_b)
        level = np.searchsorted(self.edges, rows, side="right") - 1
        lows, widths = np.array(self.lows), np.array(self.widths)
        col = cols - lows[level]
        outside = (col < 0) | (col >= widths[level])
        if outside.any():
            j = int(level[np.argmax(outside)])
            raise ValueError(
                f"b00 has an entry outside the block-tridiagonal band in "
                f"boundary level {j}"
            )
        starts = np.array(self.offsets)[level]
        return starts + (rows - np.array(self.edges)[level]) * widths[level] + col


#: One layout per level sizes.
_band_layout = functools.lru_cache(maxsize=64)(_BandLayout)


def _boundary_levels(
    declared: tuple[int, ...], b00: np.ndarray, b01: np.ndarray, b10: np.ndarray
) -> tuple[int, ...]:
    """Validate the declared boundary level sizes against the blocks."""
    n_b = b00.shape[0]
    levels = tuple(int(size) for size in declared) or (n_b,)
    if min(levels) <= 0 or sum(levels) != n_b:
        raise ValueError(
            f"boundary_levels {levels} must be positive sizes summing to "
            f"the boundary size {n_b}"
        )
    last = n_b - levels[-1]
    if np.any(b01[:last]):
        raise ValueError("b01 must be zero outside the last boundary level's rows")
    if np.any(b10[:, :last]):
        raise ValueError("b10 must be zero outside the last boundary level's columns")
    layout = _band_layout(levels)
    outside = b00.reshape(-1) != 0
    outside[layout.dense_index] = False
    if outside.any():
        layout.band_index(np.flatnonzero(outside))  # raises for the first row
    return levels


def _check_signs_and_row_sums(
    layout: _BandLayout,
    band: np.ndarray,
    b01: np.ndarray,
    b10: np.ndarray,
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
) -> None:
    """Sign and row-sum checks of blocks laid out as :class:`QBDStack`
    holds them, for :class:`QBDStack` and (one item) :class:`QBDProcess`.

    One code path adds every row sum up in one order, so an item gets one
    verdict either way.  The first failing item raises a ``ValueError``
    for the first check it fails; a row-sum error names the row with the
    largest ``|sum|``.
    """
    diag = np.arange(a1.shape[1])
    off_b00 = band < 0
    off_b00[:, layout.diagonal] = False
    off_a1 = a1 < 0
    off_a1[:, diag, diag] = False
    diagonals = np.concatenate([band[:, layout.diagonal], a1[:, diag, diag]], axis=1)
    limit = _ATOL * np.maximum(np.abs(diagonals).max(axis=1), 1.0)[:, None]
    boundary = np.add.reduceat(band, layout.row_starts, axis=1)
    boundary[:, layout.edges[-2] :] += b01.sum(axis=2)
    level = a1.sum(axis=2) + a0.sum(axis=2)
    sums = {
        "boundary row": boundary,
        "first repeating-level row": b10.sum(axis=2) + level,
        "repeating-level row": a2.sum(axis=2) + level,
    }
    # Per check, in check order: its message (a row sum's label) and the
    # entries that fail it.
    failing = {
        f"{name} must be entrywise non-negative": block < 0
        for name, block in (("b01", b01), ("b10", b10), ("a0", a0), ("a2", a2))
    }
    failing["off-diagonal entries of b00 must be non-negative"] = off_b00
    failing["off-diagonal entries of a1 must be non-negative"] = off_a1
    failing.update((label, np.abs(values) > limit) for label, values in sums.items())
    n = len(a1)
    bad = np.stack([entries.reshape(n, -1).any(axis=1) for entries in failing.values()])
    if not bad.any():
        return
    item = int(np.argmax(bad.any(axis=0)))
    message = list(failing)[int(np.argmax(bad[:, item]))]
    if message in sums:
        row_sums = sums[message][item]
        row = int(np.argmax(np.abs(row_sums)))
        message = f"{message} {row} sums to {row_sums[row]}, expected 0"
    raise ValueError(message)


@dataclass(frozen=True)
class QBDProcess:
    """A QBD defined by its repeating blocks and boundary blocks.

    The boundary portion may aggregate several "physical" levels into one
    block of ``boundary_size`` states (as the foreground/background model
    does with its tree-like levels ``0..X``), whose sizes
    ``boundary_levels`` records; the repeating portion has ``phase_count``
    states per level.

    Attributes
    ----------
    b00:
        Transitions within the boundary (``n_b x n_b``), including its
        diagonal.
    b01:
        Transitions from the boundary up into the first repeating level
        (``n_b x m``).
    b10:
        Transitions from the first repeating level down into the boundary
        (``m x n_b``).  May differ from ``a2`` (in the paper's model the
        first down-step lands on idle-wait states that exist only in the
        boundary).
    a0:
        Level-up transitions within the repeating portion (``m x m``).
    a1:
        Within-level transitions of the repeating portion, including the
        diagonal (``m x m``).
    a2:
        Level-down transitions within the repeating portion (``m x m``).
    boundary_levels:
        Sizes of the boundary's physical levels, in state order.  ``b00``
        is block tridiagonal over them, only the last level moves up
        (``b01``) and only it is reached from above (``b10``), so the
        boundary solve can eliminate one level at a time.  The default
        ``()`` declares a single level, ``(boundary_size,)``.
    """

    b00: np.ndarray
    b01: np.ndarray
    b10: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    boundary_levels: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        b00 = np.array(self.b00, dtype=float)
        b01 = np.array(self.b01, dtype=float)
        b10 = np.array(self.b10, dtype=float)
        a0 = np.array(self.a0, dtype=float)
        a1 = np.array(self.a1, dtype=float)
        a2 = np.array(self.a2, dtype=float)
        for name, block in (("b00", b00), ("a1", a1)):
            if block.ndim != 2 or block.shape[0] != block.shape[1]:
                raise ValueError(f"{name} must be square, got shape {block.shape}")
        n_b = b00.shape[0]
        m = a1.shape[0]
        expected = {"b01": (n_b, m), "b10": (m, n_b), "a0": (m, m), "a2": (m, m)}
        for name, shape in expected.items():
            block = {"b01": b01, "b10": b10, "a0": a0, "a2": a2}[name]
            if block.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {block.shape}")
        levels = _boundary_levels(self.boundary_levels, b00, b01, b10)
        layout = _band_layout(levels)
        band, last = b00.reshape(1, -1)[:, layout.dense_index], layout.edges[-2]
        b01_last, b10_last = b01[None, last:], b10[None, :, last:]
        _check_signs_and_row_sums(
            layout, band, b01_last, b10_last, a0[None], a1[None], a2[None]
        )
        _freeze(b00, b01, b10, a0, a1, a2)
        object.__setattr__(self, "b00", b00)
        object.__setattr__(self, "b01", b01)
        object.__setattr__(self, "b10", b10)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "boundary_levels", levels)

    @classmethod
    def homogeneous(cls, a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> "QBDProcess":
        """QBD whose level 0 behaves like any other level except that
        down-transitions are folded into the diagonal-free local block.

        Suitable for simple queues (e.g. M/M/1 as a 1-phase QBD): the
        boundary is a single copy of the phase space with ``b00 = a1 + a2``
        folded so that rows still sum to zero with ``b01 = a0``.
        """
        a1 = np.asarray(a1, dtype=float)
        a2 = np.asarray(a2, dtype=float)
        b00 = a1 + np.diag(np.asarray(a2, dtype=float).sum(axis=1))
        return cls(b00=b00, b01=np.asarray(a0, float), b10=a2, a0=a0, a1=a1, a2=a2)

    @cached_property
    def boundary_size(self) -> int:
        """Number of boundary states."""
        return self.b00.shape[0]

    @cached_property
    def phase_count(self) -> int:
        """Number of states per repeating level."""
        return self.a1.shape[0]

    def truncated_generator(self, levels: int) -> np.ndarray:
        """Dense generator truncated after ``levels`` repeating levels.

        The last level's up-transitions are reflected into its diagonal so
        the truncated matrix is a proper generator.  Used as an independent
        oracle: for a stable QBD the truncated solve converges to the
        matrix-geometric solution as ``levels`` grows.
        """
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        n_b, m = self.boundary_size, self.phase_count
        n = n_b + levels * m
        q = np.zeros((n, n))
        q[:n_b, :n_b] = self.b00
        q[:n_b, n_b : n_b + m] = self.b01
        q[n_b : n_b + m, :n_b] = self.b10
        for k in range(levels):
            lo = n_b + k * m
            q[lo : lo + m, lo : lo + m] = self.a1
            if k + 1 < levels:
                q[lo : lo + m, lo + m : lo + 2 * m] = self.a0
                q[lo + m : lo + 2 * m, lo : lo + m] = self.a2
        # Reflect the lost up-transitions of the last level into its diagonal.
        lo = n_b + (levels - 1) * m
        q[lo : lo + m, lo : lo + m] += np.diag(self.a0.sum(axis=1))
        return q

    def __repr__(self) -> str:
        return (
            f"QBDProcess(boundary_size={self.boundary_size}, "
            f"phase_count={self.phase_count})"
        )


@dataclass(frozen=True)
class QBDStack:
    """``N`` QBDs of one block structure, stacked on a leading item axis.

    The input of the stacked kernel (:mod:`repro.qbd.batched`).  It holds
    ``a0``/``a1``/``a2`` as ``(N, m, m)`` stacks and, of the boundary, only
    what the level-by-level boundary solve reads; a whole ``B00`` (14.6 MB
    at the FG/BG model's ``X = 25``) is never stacked.

    Attributes
    ----------
    a0, a1, a2:
        The repeating blocks, ``(N, m, m)``.
    band:
        The block-tridiagonal band of each item's ``B00``, ``(N, L)``:
        boundary level ``j``'s rows over the columns of levels
        ``j-1..j+1``, level after level.  :class:`QBDProcess` declares
        every other ``B00`` entry zero.
    b01, b10:
        The last boundary level's up block ``(N, s, m)`` and the down
        block into it ``(N, m, s)``, ``s = boundary_levels[-1]``; the
        other rows of ``B01`` and columns of ``B10`` are zero.
    boundary_levels:
        Sizes of the boundary's physical levels (see :class:`QBDProcess`).

    The constructor checks shapes, then signs and row sums with the
    function :class:`QBDProcess` runs too, so the first bad item raises
    the error its own :class:`QBDProcess` raises; the band and last-level
    support hold by layout.  It takes over the float64 arrays it is given
    and makes them read-only, copying none: its constructors
    (:func:`repro.core.blocks.build_qbd`, :meth:`take`, :meth:`of`) pass
    fresh arrays.
    """

    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    band: np.ndarray
    b01: np.ndarray
    b10: np.ndarray
    boundary_levels: tuple[int, ...]

    def __post_init__(self) -> None:
        levels = tuple(int(size) for size in self.boundary_levels)
        if not levels or min(levels) <= 0:
            raise ValueError(f"boundary_levels {levels} must be positive sizes")
        layout = _band_layout(levels)
        a0 = np.asarray(self.a0, dtype=float)
        a1 = np.asarray(self.a1, dtype=float)
        a2 = np.asarray(self.a2, dtype=float)
        band = np.asarray(self.band, dtype=float)
        b01 = np.asarray(self.b01, dtype=float)
        b10 = np.asarray(self.b10, dtype=float)
        if a1.ndim != 3 or a1.shape[1] != a1.shape[2]:
            raise ValueError(f"a1 must be square, got shape {a1.shape[1:]}")
        n, m, s = a1.shape[0], a1.shape[1], levels[-1]
        if n == 0:
            raise ValueError("a QBD stack needs at least one QBD")
        expected = {
            "a0": (a0, (n, m, m)),
            "a2": (a2, (n, m, m)),
            "band": (band, (n, layout.size)),
            "b01": (b01, (n, s, m)),
            "b10": (b10, (n, m, s)),
        }
        for name, (block, shape) in expected.items():
            if block.shape != shape:
                raise ValueError(
                    f"{name} must have shape {shape[1:]}, got {block.shape[1:]}"
                )
        _check_signs_and_row_sums(layout, band, b01, b10, a0, a1, a2)
        _freeze(a0, a1, a2, band, b01, b10)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "b01", b01)
        object.__setattr__(self, "b10", b10)
        object.__setattr__(self, "boundary_levels", levels)

    @property
    def size(self) -> int:
        """Number of stacked items ``N``."""
        return self.a1.shape[0]

    @property
    def boundary_size(self) -> int:
        """Number of boundary states per item."""
        return sum(self.boundary_levels)

    @property
    def phase_count(self) -> int:
        """Number of states per repeating level."""
        return self.a1.shape[1]

    @property
    def layout(self) -> _BandLayout:
        """Where each boundary level's rows sit in :attr:`band`."""
        return _band_layout(self.boundary_levels)

    def level_band(self, j: int) -> np.ndarray:
        """Boundary level ``j``'s band rows, ``(N, rows, width)`` (a view)."""
        layout = self.layout
        start, width = layout.offsets[j], layout.widths[j]
        rows = self.boundary_levels[j]
        return self.band[:, start : start + rows * width].reshape(-1, rows, width)

    def process(self, i: int) -> QBDProcess:
        """Item ``i`` as a validated :class:`QBDProcess` with dense blocks."""
        layout = self.layout
        n_b, m = self.boundary_size, self.phase_count
        last = layout.edges[-2]
        b00 = np.zeros(n_b * n_b)
        b00[layout.dense_index] = self.band[i]
        b01 = np.zeros((n_b, m))
        b01[last:] = self.b01[i]
        b10 = np.zeros((m, n_b))
        b10[:, last:] = self.b10[i]
        return QBDProcess(
            b00=b00.reshape(n_b, n_b),
            b01=b01,
            b10=b10,
            a0=self.a0[i],
            a1=self.a1[i],
            a2=self.a2[i],
            boundary_levels=self.boundary_levels,
        )

    def take(self, items: Sequence[int]) -> QBDStack:
        """The stack of ``items``, in that order."""
        index = list(items)
        return QBDStack(
            a0=self.a0[index],
            a1=self.a1[index],
            a2=self.a2[index],
            band=self.band[index],
            b01=self.b01[index],
            b10=self.b10[index],
            boundary_levels=self.boundary_levels,
        )

    @classmethod
    def of(cls, qbds: Iterable[QBDProcess]) -> QBDStack:
        """Stack validated :class:`QBDProcess` instances of one structure.

        Raises
        ------
        ValueError
            If ``qbds`` is empty or mixes block structures.
        TypeError
            If an item is not a :class:`QBDProcess`.
        """
        qbds = list(qbds)
        if not qbds:
            raise ValueError("a QBD stack needs at least one QBD")
        for q in qbds:
            if not isinstance(q, QBDProcess):
                raise TypeError(
                    f"expected QBDProcess instances, got {type(q).__name__}"
                )
        shapes = {(q.boundary_size, q.phase_count, q.boundary_levels) for q in qbds}
        if len(shapes) > 1:
            raise ValueError(
                f"mixed block shapes {sorted(shapes)}; group same-shape QBDs "
                "before stacking them"
            )
        levels = qbds[0].boundary_levels
        layout = _band_layout(levels)
        last = layout.edges[-2]
        return cls(
            a0=np.stack([q.a0 for q in qbds]),
            a1=np.stack([q.a1 for q in qbds]),
            a2=np.stack([q.a2 for q in qbds]),
            band=np.stack([q.b00.reshape(-1)[layout.dense_index] for q in qbds]),
            b01=np.stack([q.b01[last:] for q in qbds]),
            b10=np.stack([q.b10[:, last:] for q in qbds]),
            boundary_levels=levels,
        )

    def __repr__(self) -> str:
        return (
            f"QBDStack(size={self.size}, boundary_levels={self.boundary_levels}, "
            f"phase_count={self.phase_count})"
        )
