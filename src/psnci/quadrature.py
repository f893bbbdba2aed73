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
rank 4).

At rank k <= 2 nothing is streamed. Every off-diagonal Wigner or Husimi
pair term of a superposition of product states is 2 Re(gamma A(z1)
B(z2)) = Re(gamma A) 2 Re(B) - Im(gamma A) 2 Im(B), two real products,
and a Rivier self-pair Re(K1 K2) is two as well; a diagonal Wigner or
Husimi term is one. With row u = (a, b) of the mode-1 factors and
column p_j = (x_j, y_j) of the mode-2 factors, a row's sum is
sum_j |u . p_j|. Replacing p_j by -p_j keeps |u . p_j|, so every column
is turned to an angle in [0, pi), and the line u . p = 0 then splits the
columns sorted by angle into a prefix and a suffix on opposite sides. With B the
sum of the prefix and S that of all columns, the row's sum is
|u . (2B - S)|: one sort, one prefix sum and one binary search per row,
O((n1 + n2) log n2) instead of n1 n2 k. Rank 1 is the same sum with a
zero second factor.

The error estimate compares the fine sum with a decimated pass: the
same sum over the points with even q and even p indices in both modes
(1/16 of the points), weighted by 16.

The streamed passes are folded over the reflections of the integrand.
Fock and squeezed Fock states have definite parity, so a sum of
products often satisfies f(-z1, -z2) = +-f(z1, z2) (P). A state with
real amplitudes and Fock or real-r squeezed Fock primitives has a real
wavefunction; complex conjugation maps its Wigner, Husimi and Rivier
factors to their p-mirrors, so f(q1, -p1, q2, -p2) = +-f (T), and with
P also f(-q1, p1, -q2, p2) = +-f (PT). The kernel takes the largest
subgroup of {1, P, T, PT} under which every product is even or odd,
all with one sign: each element reverses some axes of the (q, p) grids
of both modes, and the check compares each uncompressed factor grid
with its reversal, to within the rank cut, so no grid geometry is
assumed. Products below the rank cut relative to the largest do not
vote. A group element permutes the (q1, p1) rows of |f| without
changing their sums, so one row per orbit is streamed, weighted by the
orbit size, in one pass per weight: under the full group the interior
rows of a quadrant count 4, the rows on the half-axes 2 and the origin
1; under an order-2 group, rows off the mirror line or point count 2
and rows on it 1 (under {1, P}: the first half of the rows, doubled,
and the centre row). The decimated pass folds only under the elements
that map its even-index points of both modes onto themselves, those
reversing odd-length axes only. Every pair term of a Fock or squeezed
Fock state has P, and so does a total whose terms share one
photon-number parity; real amplitudes add T. The full group streams
about a quarter of the rows of both passes, P alone half.

The compression and the symmetry check run once per call, before the
workers start. Every tile is computed identically whichever worker runs
it, and the tile sums are combined with math.fsum, which is exactly
rounded. So results are bit-identical for any ``threads`` setting.
The closed form at rank k <= 2 is single-threaded. Their last bits can
change with the rank cut (the compressed products are a rounding-level
rewrite of the inputs), with the closed form (prefix sums in angle
order instead of sums of |f| in index order), with the fold (which sums
one row per orbit, weighted by the orbit size, instead of every row,
so a state whose amplitudes turn real gains T and changes its last
bits), with ``tile_rows`` (the row count of each matrix product and
sum) and with the BLAS or numpy build.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError, ResourceBudgetError
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


def _upper_half_plane(x: np.ndarray, y: np.ndarray) -> tuple:
    """(x, y) or (-x, -y), whichever has its angle in [0, pi), and that
    angle (a zero vector may get -pi or pi, but adds nothing to any sum)."""
    flip = (y < 0) | ((y == 0) & (x < 0))
    x, y = np.where(flip, -x, x), np.where(flip, -y, y)
    return x, y, np.arctan2(y, x)


def _closed_abs_sum(gmat: np.ndarray, hmat: np.ndarray) -> float:
    """Sum of |gmat @ hmat| for gmat with at most two columns, in closed form.

    Row u of gmat and the columns p_j of hmat, each turned into the upper
    half-plane, give sum_j |u . p_j| = |u . (2B - S)|, with S the sum of
    all columns and B that of the columns whose angle is below the angle
    of the line u . p = 0 (u turned by 90 degrees). The row sums are not
    negative, so their pairwise np.sum is accurate to a few roundings;
    math.fsum would cost more than the rest of the function.
    """
    k = gmat.shape[1]
    gmat = np.hstack([gmat, np.zeros((gmat.shape[0], 2 - k))])
    hmat = np.vstack([hmat, np.zeros((2 - k, hmat.shape[1]))])
    x, y, angle = _upper_half_plane(hmat[0], hmat[1])
    order = np.argsort(angle)
    prefix = np.zeros((len(order) + 1, 2))
    np.cumsum(np.stack([x[order], y[order]], axis=1), axis=0, out=prefix[1:])
    # The running sum drifts by up to n2 roundings. A rank-1 set, and any
    # row whose line has every column on one side, uses only the total,
    # so that is a pairwise sum.
    prefix[-1] = np.sum(x), np.sum(y)
    _, _, line = _upper_half_plane(-gmat[:, 1], gmat[:, 0])
    bounds = prefix[np.searchsorted(angle[order], line)]
    return float(np.sum(np.abs(np.einsum("ij,ij->i", gmat, 2.0 * bounds - prefix[-1]))))


def _parity(f: np.ndarray, axes) -> int:
    """+1 or -1 if the factor grid f is even or odd under reversing its
    ``axes``, to within _RANK_CUT of its largest value; 0 otherwise."""
    tol = _RANK_CUT * np.max(np.abs(f))
    flipped = np.flip(f, axes)
    for sign in (1, -1):
        if np.max(np.abs(f - sign * flipped)) <= tol:
            return sign
    return 0


def _symmetry_group(pairs) -> tuple:
    """The largest subgroup of {1, P, T, PT} under which sum_t g_t h_t^T is
    even or odd, as the axes of the (q, p) factor grids that each element
    reverses in both modes at once: () is 1, (0, 1) is P (z -> -z), (1,)
    is T (p -> -p) and (0,) is PT (q -> -q).

    An element is kept when every product has a parity under it (the
    product of its factors') and all have the same one. Products smaller
    than _RANK_CUT times the largest do not vote: rounding noise has no
    parity but cannot move the sum. Any two kept elements imply the third;
    if rounding keeps only two, the first of them is used, P before T.
    """
    scales = [np.max(np.abs(g)) * np.max(np.abs(h)) for g, h in pairs]
    cut = _RANK_CUT * max(scales)
    voters = [(g, h) for (g, h), scale in zip(pairs, scales) if scale > cut]
    kept = []
    for axes in ((0, 1), (1,), (0,)):
        # The vote ends at the first product without a parity or with
        # another sign.
        signs = (_parity(g, axes) * _parity(h, axes) for g, h in voters)
        first = next(signs)
        if first and all(sign == first for sign in signs):
            kept.append(axes)
    return ((),) + tuple(kept if len(kept) == 3 else kept[:1])


def _folded_abs_sum(gmat: np.ndarray, hmat: np.ndarray, grid_index: np.ndarray, group,
                    tile_rows: int, threads: int) -> float:
    """Sum of |gmat[i] @ hmat| over the rows i in ``grid_index``, when
    ``group`` leaves |gmat @ hmat| unchanged.

    ``grid_index`` holds row numbers of gmat laid out as the mode-1 (q, p)
    grid. A group element permutes these rows and, in mode 2, the columns,
    so every row of an orbit has the same sum: one representative per orbit
    (its smallest row number) is streamed, weighted by the orbit size, in
    one _abs_sum call per size, largest first. Under {1, P} these are the
    first half of the rows, doubled, then the centre row, if there is one.
    """
    index = grid_index.ravel()
    images = np.stack([np.flip(grid_index, axes).ravel() for axes in group])
    # The orbit of a row has the group order over the number of elements
    # that fix the row.
    size = len(group) // np.count_nonzero(images == index, axis=0)
    first = images.min(axis=0) == index
    total = 0.0
    for weight in (4, 2, 1):
        rows = index[first & (size == weight)]
        if len(rows):
            total += weight * _abs_sum(gmat[rows], hmat, tile_rows, threads)
    return total


# ``threads`` and ``tile_rows`` stay keywords of this signature:
# perfbench/child.py probes the kernel with threads=1 and threads=2, and
# perfbench/tracer.py reads the tile_rows default through
# inspect.signature to model the bytes a pass moves.
def abs_4d_with_estimate(products, grid: PhaseGrid, *, threads: int = 1,
                         tile_rows: int = _TILE_ROWS) -> tuple:
    """4D absolute integral, in closed form at rank <= 2 and streamed
    otherwise, with a decimated-grid error estimate.

    ``products`` is a sequence of (g, h) pairs of real 2D arrays on the
    two mode grids; the integrand is |sum_t g_t(z1) h_t(z2)|.
    """
    if grid.n_modes != 2:
        raise DomainError("the streamed path needs a two-mode grid")
    mode1, mode2 = grid.mode(0), grid.mode(1)
    n1, n2 = mode1.n_points, mode2.n_points
    if n1 * n2 > DEFAULT_MAX_POINTS:
        raise ResourceBudgetError(
            f"4D product grid has {n1 * n2} points, beyond the budget of "
            f"{DEFAULT_MAX_POINTS}; use a coarser grid"
        )
    shaped = []
    for g, h in products:
        g = np.asarray(g, dtype=float)
        h = np.asarray(h, dtype=float)
        if g.shape != (mode1.q.n, mode1.p.n) or h.shape != (mode2.q.n, mode2.p.n):
            raise DomainError("factor grid shapes do not match the mode axes")
        if np.max(np.abs(g)) == 0.0 or np.max(np.abs(h)) == 0.0:
            continue
        shaped.append((g, h))
    if not shaped:
        return 0.0, 0.0
    gmat, hmat = _compress([g.ravel() for g, _ in shaped], [h.ravel() for _, h in shaped])
    if gmat.shape[1] == 0:
        return 0.0, 0.0
    area = mode1.cell_area * mode2.cell_area
    even1, even2 = _even_mask(mode1), _even_mask(mode2)
    if gmat.shape[1] <= 2:
        fine = _closed_abs_sum(gmat, hmat) * area
        coarse = _closed_abs_sum(gmat[even1], hmat[:, even2]) * 16.0 * area
        return fine, abs(fine - coarse)
    group = _symmetry_group(shaped)
    index = np.arange(n1).reshape(mode1.q.n, mode1.p.n)
    fine = _folded_abs_sum(gmat, hmat, index, group, tile_rows, threads) * area
    # The decimated pass keeps only the elements that map the even-index
    # points of both modes onto themselves: those reversing odd-length axes.
    masks = [even1.reshape(index.shape), even2.reshape(mode2.q.n, mode2.p.n)]
    group = [axes for axes in group
             if all(np.array_equal(np.flip(m, axes), m) for m in masks)]
    coarse = _folded_abs_sum(gmat, np.ascontiguousarray(hmat[:, even2]), index[::2, ::2],
                             group, tile_rows, threads) * 16.0 * area
    return fine, abs(fine - coarse)
