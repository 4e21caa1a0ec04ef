"""Block structure of a QBD process with a general finite boundary."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["QBDProcess"]

_ATOL = 1e-8


def _freeze(*arrays: np.ndarray) -> None:
    """Make every block read-only before it is stored on the dataclass.

    Must stay unconditional and directly called: reprolint's freeze
    oracle (RL002/RL006) recognizes one level of same-module helpers,
    no deeper and never behind a data-dependent branch.
    """
    for array in arrays:
        array.setflags(write=False)


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
    edges = np.cumsum((0, *levels))
    last = int(edges[-2])
    if np.any(b01[:last]):
        raise ValueError("b01 must be zero outside the last boundary level's rows")
    if np.any(b10[:, :last]):
        raise ValueError("b10 must be zero outside the last boundary level's columns")
    if len(levels) > 1:
        outside = b00 != 0
        for j in range(len(levels)):
            lo, hi = edges[max(j - 1, 0)], edges[min(j + 2, len(levels))]
            outside[edges[j] : edges[j + 1], lo:hi] = False
        if outside.any():
            row = int(np.argmax(outside.any(axis=1)))
            j = int(np.searchsorted(edges, row, side="right")) - 1
            raise ValueError(
                f"b00 has an entry outside the block-tridiagonal band in "
                f"boundary level {j}"
            )
    return levels


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
        for name, block in (
            ("b01", b01),
            ("b10", b10),
            ("a0", a0),
            ("a2", a2),
        ):
            if np.any(block < 0):
                raise ValueError(f"{name} must be entrywise non-negative")
        for name, block in (("b00", b00), ("a1", a1)):
            negative = block < 0
            np.fill_diagonal(negative, False)
            if np.any(negative):
                raise ValueError(f"off-diagonal entries of {name} must be non-negative")
        scale = max(float(np.max(np.abs(np.diag(b00)))), float(np.max(np.abs(np.diag(a1)))), 1.0)
        a1_sums = a1.sum(axis=1)
        a0_sums = a0.sum(axis=1)
        for label, sums in (
            ("boundary row", b00.sum(axis=1) + b01.sum(axis=1)),
            ("first repeating-level row", b10.sum(axis=1) + a1_sums + a0_sums),
            ("repeating-level row", a2.sum(axis=1) + a1_sums + a0_sums),
        ):
            if np.any(np.abs(sums) > _ATOL * scale):
                i = int(np.argmax(np.abs(sums)))
                raise ValueError(f"{label} {i} sums to {sums[i]}, expected 0")
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
