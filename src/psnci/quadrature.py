"""Integration engines.

Two-dimensional integrals use the plain midpoint sum on the uniform
cell-centered grids; absolute-value integrands have kinks along their
zero sets, where high-order rules lose their advantage, so accuracy is
controlled by resolution (and measured by resolution doubling) instead.

The four-dimensional absolute integral of a sum of separable products

    I = int |sum_t g_t(q1, p1) h_t(q2, p2)| dq1 dp1 dq2 dp2

is evaluated in tiles of (q1, p1) points while streaming the (q2, p2)
sums, so the 4D array is never materialized. A tile holds few enough
rows that its block of |sum_t g_t h_t| values (8 rows x 121^2 points,
under 1 MB on the default two-mode grid) stays in a core's L2 cache.
Each worker streams a fixed subset of the tiles through one reused
block buffer.

The error estimate compares the fine sum with a decimated pass: the
same streamed sum over the points with even q and even p indices in
both modes (1/16 of the points), weighted by 16.

Every tile is computed identically whichever worker runs it, and the
tile sums are combined with math.fsum, which is exactly rounded. So
results are bit-identical for any ``threads`` setting. Their last bits
can change with ``tile_rows`` (the row count of each matrix product and
sum) and with the BLAS or numpy build.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError, ResourceBudgetError
from .grids import ModeAxes, PhaseGrid

DEFAULT_MAX_POINTS = 1_000_000_000
_TILE_ROWS = 8


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with a resolution-doubling error estimate."""

    value: float
    error_estimate: float
    levels_used: int

    def __post_init__(self):
        if self.error_estimate < 0 or self.levels_used < 1:
            raise DomainError("invalid quadrature result fields")


def _mode_of(grid) -> ModeAxes:
    if isinstance(grid, ModeAxes):
        return grid
    if isinstance(grid, PhaseGrid):
        if grid.n_modes != 1:
            raise DomainError("integrate_2d expects a single-mode grid")
        return grid.mode(0)
    raise DomainError(f"expected PhaseGrid or ModeAxes, got {type(grid)!r}")


def integrate_2d(values: np.ndarray, grid) -> float:
    """Midpoint sum: sum(values) * dq * dp, pairwise accumulation in index order."""
    mode = _mode_of(grid)
    values = np.asarray(values)
    if values.shape != (mode.q.n, mode.p.n):
        raise DomainError(
            f"value grid shape {values.shape} does not match axes ({mode.q.n}, {mode.p.n})"
        )
    return float(np.sum(values)) * mode.cell_area


def integral_with_estimate(values: np.ndarray, grid) -> tuple:
    """Integral plus a coarse-subsample Richardson-style error estimate."""
    mode = _mode_of(grid)
    fine = integrate_2d(values, grid)
    coarse = float(np.sum(np.asarray(values)[::2, ::2])) * 4.0 * mode.cell_area
    return fine, abs(fine - coarse)


def refine_until(f, grid0: PhaseGrid, tol: float, max_levels: int = 6) -> QuadratureResult:
    """Double the per-axis resolution until successive integrals agree to tol.

    ``f`` maps a PhaseGrid to a value array on that grid. Raises
    QuadratureError (carrying the last two values) on non-convergence.
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    if not 1 <= max_levels <= 6:
        raise DomainError(f"max_levels must lie in [1, 6], got {max_levels}")
    prev = integrate_2d(f(grid0), grid0)
    last_two = (prev, prev)
    for level in range(2, max_levels + 1):
        g = grid0.refined(2 ** (level - 1))
        cur = integrate_2d(f(g), g)
        diff = abs(cur - prev)
        last_two = (prev, cur)
        if diff < tol:
            return QuadratureResult(cur, diff, level)
        prev = cur
    raise QuadratureError(
        f"no convergence to {tol:g} within {max_levels} levels",
        achieved=abs(last_two[1] - last_two[0]),
        values=last_two,
    )


def abs_integral_separable(factor_mode1: np.ndarray, factor_mode2: np.ndarray,
                           grid: PhaseGrid) -> float:
    """Product of 2D absolute integrals.

    Exact for a 4D term that is a single product of the two real factors,
    since |g h| = |g| |h|.
    """
    if grid.n_modes != 2:
        raise DomainError("abs_integral_separable needs a two-mode grid")
    a = integrate_2d(np.abs(factor_mode1), grid.mode(0))
    b = integrate_2d(np.abs(factor_mode2), grid.mode(1))
    return a * b


def _even_mask(mode: ModeAxes) -> np.ndarray:
    iq = np.arange(mode.q.n) % 2 == 0
    ip = np.arange(mode.p.n) % 2 == 0
    return np.logical_and.outer(iq, ip).ravel()


def _abs_sum(gmat: np.ndarray, hmat: np.ndarray, tile_rows: int, threads: int) -> float:
    """Sum of |gmat @ hmat| streamed in tiles of ``tile_rows`` rows of gmat.

    Worker k takes the tile starts ``starts[k::workers]`` and reuses one
    block buffer for all of them; the tile sums are combined with
    math.fsum, so the result does not depend on ``threads``.
    """
    n1, n2 = gmat.shape[0], hmat.shape[1]
    starts = range(0, n1, tile_rows)
    workers = max(1, min(threads, len(starts)))

    def stream(k):
        buffer = np.empty((min(tile_rows, n1), n2))
        sums = []
        for i in starts[k::workers]:
            rows = gmat[i:i + tile_rows]
            block = buffer[:rows.shape[0]]
            np.matmul(rows, hmat, out=block)
            np.abs(block, out=block)
            sums.append(float(np.sum(block)))
        return sums

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(stream, range(workers)))
    else:
        parts = [stream(0)]
    return math.fsum(s for sums in parts for s in sums)


# ``threads`` and ``tile_rows`` stay keywords of this signature:
# perfbench/child.py probes the kernel with threads=1 and threads=2, and
# perfbench/tracer.py reads the tile_rows default through
# inspect.signature to model the bytes a pass moves.
def abs_4d_with_estimate(products, grid: PhaseGrid, *, threads: int = 1,
                         max_points: int = DEFAULT_MAX_POINTS,
                         tile_rows: int = _TILE_ROWS) -> tuple:
    """Streamed 4D absolute integral with a decimated-grid error estimate.

    ``products`` is a sequence of (g, h) pairs of real 2D arrays on the
    two mode grids; the integrand is |sum_t g_t(z1) h_t(z2)|.
    """
    if grid.n_modes != 2:
        raise DomainError("the streamed path needs a two-mode grid")
    mode1, mode2 = grid.mode(0), grid.mode(1)
    n1, n2 = mode1.n_points, mode2.n_points
    if n1 * n2 > max_points:
        raise ResourceBudgetError(
            f"4D product grid has {n1 * n2} points, beyond the budget of "
            f"{max_points}; use a coarser grid"
        )
    shaped = []
    for g, h in products:
        g = np.asarray(g, dtype=float)
        h = np.asarray(h, dtype=float)
        if g.shape != (mode1.q.n, mode1.p.n) or h.shape != (mode2.q.n, mode2.p.n):
            raise DomainError("factor grid shapes do not match the mode axes")
        if np.max(np.abs(g)) == 0.0 or np.max(np.abs(h)) == 0.0:
            continue
        shaped.append((g.ravel(), h.ravel()))
    area = mode1.cell_area * mode2.cell_area
    if not shaped:
        return 0.0, 0.0
    gmat = np.ascontiguousarray(np.stack([g for g, _ in shaped], axis=1))
    hmat = np.ascontiguousarray(np.stack([h for _, h in shaped], axis=0))
    fine = _abs_sum(gmat, hmat, tile_rows, threads) * area
    coarse = _abs_sum(gmat[_even_mask(mode1)],
                      np.ascontiguousarray(hmat[:, _even_mask(mode2)]),
                      tile_rows, threads) * 16.0 * area
    return fine, abs(fine - coarse)


def abs_integral_4d_streamed(products, grid: PhaseGrid, *, threads: int = 1,
                             max_points: int = DEFAULT_MAX_POINTS) -> float:
    """Streamed 4D absolute integral of a sum of separable real products."""
    value, _ = abs_4d_with_estimate(products, grid, threads=threads,
                                    max_points=max_points)
    return value
