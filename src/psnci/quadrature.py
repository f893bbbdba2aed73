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

Before streaming, the products are compressed to the numerical rank k
of their sum: thin QRs of the stacked g and h factors and an SVD of the
small core give k products with the same sum, so linearly dependent
inputs collapse (the Wigner products of a two-term entangled state have
rank 4). At rank 1 nothing is streamed: the sum is one product g h, and
|g h| = |g| |h| factorizes exactly into two 2D sums.

The error estimate compares the fine sum with a decimated pass: the
same sum over the points with even q and even p indices in both modes
(1/16 of the points), weighted by 16; at rank 1 it is the product of
the two 2D sums over those points.

The compression runs once per call, before the workers start. Every
tile is computed identically whichever worker runs it, and the tile sums
are combined with math.fsum, which is exactly rounded. So results are
bit-identical for any ``threads`` setting. Their last bits can change
with the rank cut (the compressed products are a rounding-level
rewrite of the inputs), with ``tile_rows`` (the row count of each matrix
product and sum) and with the BLAS or numpy build.
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
# Relative singular-value cut of the product stack. Exactly dependent
# products leave singular values at rounding level: on the benchmark's
# states the dropped ones are at most 7e-16 of the largest and the kept
# ones at least 0.05 of it.
_RANK_CUT = 1e-13
# Row block of the tall-skinny QR in the compression. np.linalg.qr makes
# several copies of its input, and a full-height Q is as large as the
# factor stack: on the indicator-2mode benchmark state a full-height QR
# raised the peak RSS of a run by about 15 MB.
_QR_ROWS = 1024


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


def _even_mask(mode: ModeAxes) -> np.ndarray:
    iq = np.arange(mode.q.n) % 2 == 0
    ip = np.arange(mode.p.n) % 2 == 0
    return np.logical_and.outer(iq, ip).ravel()


def _block_qrs(columns, mode: str):
    """QR, in ``np.linalg.qr`` ``mode``, of each block of _QR_ROWS rows of
    the matrix with the given columns."""
    for i in range(0, columns[0].shape[0], _QR_ROWS):
        yield np.linalg.qr(np.stack([c[i:i + _QR_ROWS] for c in columns], axis=1),
                           mode=mode)


def _tall_skinny_r(columns) -> tuple:
    """R of the thin QR of the matrix with the given columns, and the row
    blocks P_i of P, where Q = diag(Q_i) P and Q_i are the block Qs."""
    rs = list(_block_qrs(columns, "r"))
    p, r = np.linalg.qr(np.concatenate(rs))
    return r, np.split(p, np.cumsum([len(r_i) for r_i in rs])[:-1])


def _compress(g_columns, h_columns) -> tuple:
    """Factors (n1 x k, k x n2) of sum_t g_t h_t^T at its numerical rank k.

    Thin QRs G = Q_g R_g and H^T = Q_h R_h leave a small core
    R_g R_h^T = U S V^T; the k singular values above _RANK_CUT times the
    largest are kept, giving Q_g U_k S_k and V_k^T Q_h^T. Q_g and Q_h are
    never held whole: their row blocks are computed again, one at a time,
    from the same blocks that gave R.
    """
    rg, pg = _tall_skinny_r(g_columns)
    rh, ph = _tall_skinny_r(h_columns)
    u, s, vt = np.linalg.svd(rg @ rh.T)
    k = int(np.count_nonzero(s > _RANK_CUT * s[0]))
    left, right = u[:, :k] * s[:k], vt[:k]
    gmat = np.concatenate([q @ (p @ left)
                           for (q, _), p in zip(_block_qrs(g_columns, "reduced"), pg)])
    hmat = np.concatenate([(right @ p.T) @ q.T
                           for (q, _), p in zip(_block_qrs(h_columns, "reduced"), ph)],
                          axis=1)
    return gmat, hmat


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
    if not shaped:
        return 0.0, 0.0
    gmat, hmat = _compress([g for g, _ in shaped], [h for _, h in shaped])
    if gmat.shape[1] == 0:
        return 0.0, 0.0
    area = mode1.cell_area * mode2.cell_area
    even1, even2 = _even_mask(mode1), _even_mask(mode2)
    if gmat.shape[1] == 1:
        # |g h| = |g| |h|: the 4D sum factorizes exactly.
        g, h = np.abs(gmat[:, 0]), np.abs(hmat[0])
        fine = math.fsum(g) * math.fsum(h) * area
        coarse = math.fsum(g[even1]) * math.fsum(h[even2]) * 16.0 * area
        return fine, abs(fine - coarse)
    fine = _abs_sum(gmat, hmat, tile_rows, threads) * area
    coarse = _abs_sum(gmat[even1], np.ascontiguousarray(hmat[:, even2]),
                      tile_rows, threads) * 16.0 * area
    return fine, abs(fine - coarse)

