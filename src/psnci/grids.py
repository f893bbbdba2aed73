"""Uniform, cell-centered phase-space evaluation grids.

An axis with n cells over [lo, hi] places evaluation points at the cell
centers (k - (n - 1) / 2) * delta, delta = (hi - lo) / n, so that the plain
midpoint sum (sum of values times cell area) integrates the axis range
exactly for constants. Every axis is symmetric about 0 (lo == -hi), and
so are its nodes, bit for bit, with the centre node of an odd count at
exactly 0: the term tables store one quadrant and fold their sums over
the mirrors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

MIN_POINTS = 16

DEFAULT_SINGLE_MODE_EXTENT = 7.0
DEFAULT_SINGLE_MODE_POINTS = 281
DEFAULT_TWO_MODE_EXTENT = 6.0
DEFAULT_TWO_MODE_POINTS = 121


@dataclass(frozen=True)
class Axis:
    """One uniform coordinate axis: n cell centers over [lo, hi]."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise DomainError(f"axis point count must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.n < MIN_POINTS:
            raise DomainError(f"axis needs at least {MIN_POINTS} points, got {self.n}")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)) or self.hi <= self.lo:
            raise DomainError(f"invalid axis range [{self.lo}, {self.hi}]")
        if self.lo != -self.hi:
            raise DomainError(f"axis range [{self.lo}, {self.hi}] is not symmetric about 0")

    @property
    def delta(self) -> float:
        return (self.hi - self.lo) / self.n

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n) - 0.5 * (self.n - 1)) * self.delta


@dataclass(frozen=True)
class ModeAxes:
    """Position and momentum axes of one mode."""

    q: Axis
    p: Axis

    @property
    def cell_area(self) -> float:
        return self.q.delta * self.p.delta

    @property
    def n_points(self) -> int:
        return self.q.n * self.p.n


@dataclass(frozen=True)
class PhaseGrid:
    """Evaluation grid over one or two phase-space modes."""

    modes: tuple

    def __post_init__(self):
        if not 1 <= len(self.modes) <= 2:
            raise DomainError("PhaseGrid supports one or two modes")

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def mode(self, i: int) -> ModeAxes:
        return self.modes[i]

    def describe(self) -> dict:
        """JSON-friendly summary, embedded in CLI outputs."""
        out = []
        for m in self.modes:
            out.append({
                "q": {"lo": m.q.lo, "hi": m.q.hi, "n": m.q.n},
                "p": {"lo": m.p.lo, "hi": m.p.hi, "n": m.p.n},
            })
        return {"modes": out}
