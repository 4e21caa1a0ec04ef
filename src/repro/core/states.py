"""State-space enumeration of the foreground/background Markov chain.

This reproduces the chain of the paper's Figure 3.  States are triples:

* ``IDLE``  -- ``I(x)``: no foreground job; ``x`` background jobs buffered;
  for ``x >= 1`` an idle-wait timer runs.
* ``FG``    -- ``F(x, y)``: a foreground job in service, ``y >= 1``
  foreground jobs in system, ``x`` background jobs buffered.
* ``BG``    -- ``B(x, y)``: a background job in service (``x >= 1``
  background jobs in system including it), ``y >= 0`` foreground jobs
  waiting (service is non-preemptive).

Levels are ``j = x + y`` (paper Eq. 5).  Levels ``0..X`` (``X`` = background
buffer size) form the boundary; levels ``j > X`` repeat with ``2X + 1``
state groups.  Every group expands into ``A`` sub-states, one per phase of
the arrival MAP (Figure 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["StateKind", "BoundaryGroup", "RepeatingGroup", "StateSpace"]


class StateKind(enum.Enum):
    """Who holds the server (or nobody, for idle-wait states)."""

    IDLE = "idle"
    FG = "fg"
    BG = "bg"


@dataclass(frozen=True)
class BoundaryGroup:
    """One state group (a set of ``A`` phase sub-states) in the boundary.

    ``level == bg + fg`` always holds.
    """

    level: int
    kind: StateKind
    bg: int
    fg: int

    def __post_init__(self) -> None:
        if self.level != self.bg + self.fg:
            raise ValueError(
                f"level {self.level} != bg {self.bg} + fg {self.fg}"
            )


@dataclass(frozen=True)
class RepeatingGroup:
    """One state group of the repeating portion.

    The foreground count is level-dependent: at physical level ``j`` it is
    ``j - bg``.
    """

    kind: StateKind
    bg: int


class StateSpace:
    """Indexes of the FG/BG chain for a given buffer size and MAP order.

    Parameters
    ----------
    bg_buffer:
        Background buffer size ``X >= 0``.
    phases:
        Order ``A`` of the arrival MAP.
    """

    def __init__(self, bg_buffer: int, phases: int) -> None:
        if bg_buffer < 0:
            raise ValueError(f"bg_buffer must be >= 0, got {bg_buffer}")
        if phases < 1:
            raise ValueError(f"phases must be >= 1, got {phases}")
        self._x_max = bg_buffer
        self._phases = phases

    @property
    def bg_buffer(self) -> int:
        """Background buffer size X."""
        return self._x_max

    @property
    def phases(self) -> int:
        """Number of arrival phases A."""
        return self._phases

    # ------------------------------------------------------------------
    # Group enumeration
    # ------------------------------------------------------------------
    @cached_property
    def boundary_groups(self) -> tuple[BoundaryGroup, ...]:
        """All boundary groups, level by level (levels ``0..X``).

        Within level ``j`` the order is ``F(0, j)``, then
        ``F(x, j-x), B(x, j-x)`` for ``x = 1..j-1``, then ``B(j, 0)``,
        then ``I(j)``.
        """
        groups: list[BoundaryGroup] = []
        for j in range(self._x_max + 1):
            if j >= 1:
                groups.append(BoundaryGroup(j, StateKind.FG, 0, j))
            for x in range(1, j):
                groups.append(BoundaryGroup(j, StateKind.FG, x, j - x))
                groups.append(BoundaryGroup(j, StateKind.BG, x, j - x))
            if j >= 1:
                groups.append(BoundaryGroup(j, StateKind.BG, j, 0))
            groups.append(BoundaryGroup(j, StateKind.IDLE, j, 0))
        return tuple(groups)

    @cached_property
    def repeating_groups(self) -> tuple[RepeatingGroup, ...]:
        """Groups of one repeating level: ``F(0), F(1), B(1), ..., F(X), B(X)``."""
        groups: list[RepeatingGroup] = [RepeatingGroup(StateKind.FG, 0)]
        for x in range(1, self._x_max + 1):
            groups.append(RepeatingGroup(StateKind.FG, x))
            groups.append(RepeatingGroup(StateKind.BG, x))
        return tuple(groups)

    @cached_property
    def _boundary_lookup(self) -> dict[tuple[StateKind, int, int], int]:
        return {
            (g.kind, g.bg, g.fg): i for i, g in enumerate(self.boundary_groups)
        }

    @cached_property
    def _repeating_lookup(self) -> dict[tuple[StateKind, int], int]:
        return {(g.kind, g.bg): i for i, g in enumerate(self.repeating_groups)}

    def boundary_group_index(self, kind: StateKind, bg: int, fg: int) -> int:
        """Index of a boundary group in :attr:`boundary_groups`."""
        key = (kind, bg, fg)
        if key not in self._boundary_lookup:
            raise KeyError(f"no boundary group {kind.value}(bg={bg}, fg={fg})")
        return self._boundary_lookup[key]

    def repeating_group_index(self, kind: StateKind, bg: int) -> int:
        """Index of a repeating group in :attr:`repeating_groups`."""
        key = (kind, bg)
        if key not in self._repeating_lookup:
            raise KeyError(f"no repeating group {kind.value}(bg={bg})")
        return self._repeating_lookup[key]

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def boundary_group_count(self) -> int:
        """Number of boundary groups: ``(X + 1)^2``."""
        return len(self.boundary_groups)

    @property
    def repeating_group_count(self) -> int:
        """Number of groups per repeating level: ``2X + 1``."""
        return len(self.repeating_groups)

    @property
    def boundary_state_count(self) -> int:
        """Number of boundary states: ``(X + 1)^2 * A``."""
        return self.boundary_group_count * self._phases

    @property
    def repeating_state_count(self) -> int:
        """States per repeating level: ``(2X + 1) * A``."""
        return self.repeating_group_count * self._phases

    # ------------------------------------------------------------------
    # Per-state metric vectors (expanded over phases)
    # ------------------------------------------------------------------
    def _expand(self, per_group: np.ndarray) -> np.ndarray:
        # Read-only: one space indexes every model of its structure.
        expanded = np.repeat(np.asarray(per_group, dtype=float), self._phases)
        expanded.setflags(write=False)
        return expanded

    @cached_property
    def boundary_fg_counts(self) -> np.ndarray:
        """Foreground job count ``y`` per boundary state."""
        return self._expand([g.fg for g in self.boundary_groups])

    @cached_property
    def boundary_bg_counts(self) -> np.ndarray:
        """Background job count ``x`` per boundary state."""
        return self._expand([g.bg for g in self.boundary_groups])

    def boundary_kind_mask(self, kind: StateKind) -> np.ndarray:
        """Indicator vector of boundary states of the given kind."""
        return self._expand([1.0 if g.kind is kind else 0.0 for g in self.boundary_groups])

    @cached_property
    def boundary_bg_busy_fg_waiting_mask(self) -> np.ndarray:
        """Indicator of boundary states where a BG job holds the server while
        at least one FG job waits (the paper's WaitP numerator)."""
        return self._expand(
            [
                1.0 if (g.kind is StateKind.BG and g.fg >= 1) else 0.0
                for g in self.boundary_groups
            ]
        )

    @cached_property
    def repeating_bg_counts(self) -> np.ndarray:
        """Background job count ``x`` per repeating state."""
        return self._expand([g.bg for g in self.repeating_groups])

    def repeating_kind_mask(self, kind: StateKind) -> np.ndarray:
        """Indicator vector of repeating states of the given kind."""
        return self._expand(
            [1.0 if g.kind is kind else 0.0 for g in self.repeating_groups]
        )

    @cached_property
    def repeating_bg_full_fg_mask(self) -> np.ndarray:
        """Indicator of repeating states where FG is in service with a full
        BG buffer (spawned background jobs are dropped there)."""
        return self._expand(
            [
                1.0 if (g.kind is StateKind.FG and g.bg == self._x_max) else 0.0
                for g in self.repeating_groups
            ]
        )

    def __repr__(self) -> str:
        return (
            f"StateSpace(bg_buffer={self._x_max}, phases={self._phases}, "
            f"boundary={self.boundary_state_count}, "
            f"per_level={self.repeating_state_count})"
        )
