"""The 4D kernel: int |f| of a two-mode table over its grid.

Integrals use the plain midpoint sum on the uniform cell-centered
grids; absolute-value integrands have kinks along their zero sets, where
high-order rules lose their advantage, so accuracy is controlled by
resolution (and measured by resolution doubling) instead. The 2D sums
of a term table's grids are folded over their mirror images in
psnci.phasespace.

The four-dimensional absolute integral of a sum of separable products

    I = int |sum_t g_t(q1, p1) h_t(q2, p2)| dq1 dp1 dq2 dp2

is evaluated in tiles of (q1, p1) points while streaming the (q2, p2)
sums, so the 4D array is never materialized. A tile holds a fixed
number of values, not of rows: its block of |sum_t g_t h_t| values has
``tile_rows`` rows when the pass streams the whole mode-2 grid (8 rows x
121^2 points, under 1 MB on the default two-mode grid, within a core's
L2 cache), and as many rows as fit in that many values when it streams
fewer columns (the decimated pass, folded columns, the columns the
support cut keeps). Narrow blocks of 8 rows paid per-tile overhead: a
decimated pass of 3050 rows x 3721 columns took 14 ms in 8-row tiles
and 7 ms in 31-row ones, while a full-width pass took 2.5 times longer
in 16-row tiles than in 8-row ones (2 threads). Each worker streams a
fixed subset of the tiles through one reused block buffer, on threads
of a pool kept per worker count.

The workers are the kernel's one level of threads. OpenBLAS runs a large
call on its own threads too, which spin after it returns and take a CPU
from the workers, so the calls before a pass stay below that size: the R
of a factor basis comes from blocks of at most _QR_VALUES values, their
stacked Rs reduced the same way (the tall-skinny QR of Demmel et al.,
SIAM J. Sci. Comput. 34 (2012) A206). A tile's product stays on its
worker up to rank 8 on 121^2 columns (8 k n2 <= 2^20).

Before streaming, the sum is compressed to its numerical rank k. Its
g_t and h_t are combinations of a few real grids per mode (for a term
table, the Re and Im parts of its stored grids), so it is B1 C B2^T with
a small core C: a SeparableSum. A FactorBasis holds a mode's non-zero
grids and the R of their thin QR; a table builds it once and shares it
with the tables with_amplitudes makes. Plain (g, h) pairs are their own
bases, with C = I. The SVD of R1 C R2^T gives k products with the same
sum, formed without a Q, so dependent inputs collapse (the Wigner
products of a two-term entangled state have rank 4).

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

The fine pass is streamed on the support of the integrand only. A row
g_i, already scaled by its fold weight (below), adds at most
|g_i| sum_j |h_j| (Cauchy-Schwarz), a column j at most |h_j| sum_i |g_i|.
The decimated pass runs first, whole; the smallest columns, then rows,
are dropped while their summed bound stays within half of _SUPPORT_CUT
(1e-16) of 16 times its sum. The kept sum is a lower bound on the pass:
if the dropped bound exceeds 1e-16 of it, the target was over twice the
pass and the dropped part is streamed too, else the bound is added to
the estimate. Wigner and Husimi tails are below double precision at the
default grid edges; Rivier's are not, and it keeps nearly every point.

Both passes, streamed or in closed form, are folded under the subgroup
of D4 that the SeparableSum states, each element a symmetry f -> +-f
applied to both modes at once: P is z -> -z, T the p-mirror and PT the
q-mirror; R, (q, p) -> (-p, q), and R^3 the 90-degree rotations; RT,
(q, p) -> (p, q), and R^3 T the transposes. A term table states it by
the rules that fold its single-mode sums (psnci.phasespace._symmetry)
and that turn both modes (psnci.phasespace._rotation); plain (g, h)
pairs state none and are summed unfolded, as are a table's products
when a traced benchmark pass lists them as pairs. Every Axis is
symmetric about 0, so the mirrors map nodes onto nodes, and R does on
the square mode grids with equal q and p axes, the only ones on which it
is stated. A group element permutes the (q1, p1) rows of |f| without
changing their sums, so one row per orbit is summed, scaled by the orbit
size, a power of 2, so that |(w u) . p| is w |u . p| exactly: every pass,
streamed (one _abs_sum call) or in closed form, is one matrix of weighted
rows against the pass's columns. Under D4 (stated with R and T)
generic rows count 8, rows on the axes and the diagonals 4 and the
origin 1; under C4 = {1, R, P, R^3} (R without T) every row but the
origin counts 4; under {1, P, T, PT} the interior rows of a quadrant
count 4, the rows on the half-axes 2 and the origin 1; under an order-2
group, rows off the mirror line or point count 2 and rows on it 1 (under
{1, P}: the first half of the rows, doubled, and the centre row). Every
pair term of a Fock or squeezed Fock state has P, and so does a total
whose terms share one photon-number parity; real amplitudes add T; a
Fock state whose terms share one photon number N over both modes, as the
entangled families do, adds R. D4 sums about an eighth of the rows of
both passes, {1, P, T, PT} and C4 a quarter, P alone half.

The columns fold too when the sum states its mode-2 parity: every term
with non-zero gamma has one parity sign in mode 2 (always so for a
single pair term), so |f(z1, -z2)| = |f(z1, z2)|. z2 -> -z2 reverses the
raveled (q2, p2) index, so the first half of the columns is kept,
doubled exactly, with the centre column if the lattice holds the origin.
Every axis has an odd count (psnci.grids), so its even-index nodes are
symmetric about 0 too, and the decimated pass folds under the whole
group and its columns alike; on an axis of n = 3 (mod 4) nodes they miss
the origin, and the decimated lattice has no centre row or column.

A Husimi total is never integrated here for delta: Q >= 0, so
int |Q| = int Q, and psnci.indicators.delta_indicator takes delta as 0
with the decimation estimate of int Q (TermTable.decimated_integral).
Nor is a Bell sweep row's Wigner total: its delta is polar
(psnci.polar.polar_delta).

The compression runs before the workers start, and the support cut and
its check take only fsum-combined pass sums. A tile's row count depends
only on the shapes of its pass, every tile is computed identically
whichever worker runs it, and the tile sums are combined
with math.fsum, which is exactly rounded. So results are bit-identical
for any ``threads`` setting. A tile's sum, np.einsum("ij->"), adds its
at most 8 n2 non-negative terms in a SIMD-unrolled order, not pairwise,
at half the cost of np.sum: its relative error is below (8 n2 - 1) u, u
the unit roundoff (1.3e-11 for 121^2 points per mode; about sqrt(8 n2) u
in practice). The closed form at rank k <= 2 is single-threaded. The
last bits can change with the rank cut (the compressed products are a
rounding-level rewrite of the inputs), with the basis the products reach
the core through, with the closed form (prefix sums in angle order
instead of sums of |f| in index order), with the fold (which sums one
row per orbit, weighted by the orbit size, instead of every row, and
half the columns, doubled, instead of every column, so a state whose
amplitudes turn real gains T and changes its last bits, as does one
that gains R),
with the support cut (the rows and columns it drops), with ``tile_rows``
and the column count of a pass (which set the row count of each matrix
product and sum), with the tile sum's order and with the BLAS or numpy
build.
"""

from __future__ import annotations

import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ResourceBudgetError
from .grids import PhaseGrid

DEFAULT_MAX_POINTS = 1_000_000_000
_TILE_ROWS = 8
# Relative cut of the singular values of a compressed sum, and of the
# imaginary (real) parts of amplitude products that a term table still
# takes as real (imaginary). Exactly dependent products leave singular
# values at rounding level: on the benchmark's states the dropped ones are
# at most 7e-16 of the largest and the kept ones at least 0.05.
_RANK_CUT = 1e-13
# Values in a row block of a factor basis's tall-skinny R (a full-height QR
# with its Q raised the peak RSS of an indicator-2mode run by about 15 MB).
# OpenBLAS 0.3.31 threads LAPACK's QR from about 8192 values: a (511, 18)
# block ran on two threads, a (455, 18) one on one. The Rivier bases of
# seed-0 indicator-2mode, (24079, 18) and (14641, 18), took a median 10.2 ms
# in 1024-row blocks and 6.5 ms in these; the delta pass right after them
# 187 ms and 121 ms, against 148 ms after a 0.3 s pause (2 CPUs).
_QR_VALUES = 4096
# Row block of the products that form the compressed factors: at full
# height they started OpenBLAS's threads, whose buffers cost 3 MB of RSS.
_QR_ROWS = 1024
# The elements of D4, each as (swap, axes): a grid f of (q, p) goes to
# f o g by transposing it if ``swap``, then reversing ``axes``, in both
# modes at once. 1; P (z -> -z), T (p -> -p), PT (q -> -q); the rotations
# R, (q, p) -> (-p, q), and R^3; the transposes RT, (q, p) -> (p, q), and
# R^3 T, (q, p) -> (-p, -q). Swaps need square (q, p) grids with equal
# axes, where R maps nodes onto nodes.
_D4 = ((False, ()), (False, (0, 1)), (False, (1,)), (False, (0,)),
       (True, (1,)), (True, (0,)), (True, ()), (True, (0, 1)))
# Share of a streamed pass that the support cut may leave out: one unit
# roundoff, below what the tile sums can resolve.
_SUPPORT_CUT = 1e-16


def _image(f: np.ndarray, element) -> np.ndarray:
    """f o g on a (q, p) grid for the _D4 element g = (swap, axes)."""
    swap, axes = element
    return np.flip(f.T if swap else f, axes)


def _tall_skinny_r(columns: np.ndarray) -> np.ndarray:
    """R of the thin QR of a tall matrix: the Rs of its blocks of at most
    _QR_VALUES values (and more rows than columns), stacked and reduced alike."""
    rows = max(_QR_VALUES // columns.shape[1], columns.shape[1] + 1)
    while len(columns) > rows:
        columns = np.concatenate([np.linalg.qr(columns[i:i + rows], mode="r")
                                  for i in range(0, len(columns), rows)])
    return np.linalg.qr(columns, mode="r")


class FactorBasis(NamedTuple):
    """The non-zero real grids of one mode: ``keep``, their positions among
    the grids given; ``grids`` (K x nq x np), the grids stacked; ``r``, the
    thin-QR R of their raveled columns."""

    keep: np.ndarray
    grids: np.ndarray
    r: np.ndarray


def factor_basis(grids) -> FactorBasis:
    """FactorBasis of a sequence of real 2D grids on one mode's axes."""
    keep = np.flatnonzero([np.any(g) for g in grids])
    stack = np.stack([grids[i] for i in keep])
    return FactorBasis(keep, stack, _tall_skinny_r(stack.reshape(len(keep), -1).T))


class SeparableSum:
    """sum_ij core_ij g_i(z1) h_j(z2) for the grids g_i and h_j that two
    factor bases were built from. ``symmetry`` flags P, T, PT and R, under
    which the sum is stated even or odd (R implies P = R^2, and R with T
    the transposes); ``group`` holds the _D4 elements stated, 1 first.
    ``mode2_parity`` states that the sum is even or odd under z2 -> -z2
    alone. Iterated, the (g, h) pairs (g_i, sum_j core_ij h_j) of its
    non-zero rows."""

    def __init__(self, basis1: FactorBasis, basis2: FactorBasis, core,
                 symmetry=(False, False, False, False), mode2_parity=False):
        self.bases = basis1, basis2
        self.core = np.asarray(core, dtype=float)[np.ix_(basis1.keep, basis2.keep)]
        p, t, pt, r = symmetry
        held = (True, p, t, pt, r, r, r and t, r and t)
        self.group = tuple(element for element, h in zip(_D4, held) if h)
        self.mode2_parity = mode2_parity

    def __iter__(self):
        (basis1, basis2), core = self.bases, self.core
        for i in np.flatnonzero(np.any(core, axis=1)):
            yield basis1.grids[i], np.tensordot(core[i], basis2.grids, axes=1)


def _compress(basis1: FactorBasis, basis2: FactorBasis, core: np.ndarray) -> tuple:
    """Factors (n1 x k, k x n2) of B1 core B2^T at its numerical rank k, for
    the column matrices B1 and B2 of the bases.

    With B = Q R, R1 core R2^T = U S V^T gives the sum as Q1 U S V^T Q2^T;
    the k singular values above _RANK_CUT times the largest are kept. Q is
    never formed and no R inverted, so dependent columns need no care:
    Q1 U_k S_k = B1 core R2^T V_k and V_k^T Q2^T = S_k^-1 U_k^T R1 core B2^T.
    """
    u, s, vt = np.linalg.svd(basis1.r @ core @ basis2.r.T)
    k = int(np.count_nonzero(s > _RANK_CUT * s[0]))
    gmat = _blocked_product(basis1.grids, core @ (basis2.r.T @ vt[:k].T))
    hmat = _blocked_product(basis2.grids, (u[:, :k].T @ basis1.r @ core).T / s[:k])
    return gmat, np.ascontiguousarray(hmat.T)


def _blocked_product(grids: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The grids raveled as columns, times coef, in blocks of _QR_ROWS rows."""
    columns = grids.reshape(len(grids), -1).T
    out = np.empty((columns.shape[0], coef.shape[1]))
    for i in range(0, len(columns), _QR_ROWS):
        np.matmul(columns[i:i + _QR_ROWS], coef, out=out[i:i + _QR_ROWS])
    return out


_POOLS = {}
_POOLS_LOCK = threading.Lock()


def _pool(workers: int) -> ThreadPoolExecutor:
    """The executor with ``workers`` threads, created on first use and kept
    for the life of the process, so a streamed call starts no threads (a
    pool per call started and joined its threads 12 times per seed-0
    bell-sweep pass)."""
    with _POOLS_LOCK:
        if workers not in _POOLS:
            _POOLS[workers] = ThreadPoolExecutor(max_workers=workers)
        return _POOLS[workers]


def _abs_sum(gmat: np.ndarray, hmat: np.ndarray, tile_points: int, threads: int) -> float:
    """Sum of |gmat @ hmat| streamed in tiles of as many rows of gmat as fit
    ``tile_points`` values of the block; 0.0 if either matrix is empty.

    Worker k takes the tile starts ``starts[k::workers]`` and reuses one
    block buffer for all of them; each tile is summed by np.einsum and the
    tile sums are combined with math.fsum, so the result does not depend
    on ``threads``. The buffers are allocated here, in the calling thread:
    allocated in the workers, they were kept in glibc's per-thread arenas,
    and the peak RSS of an indicator-2mode run rose from 47.2 to 49.2 MB.
    """
    n1, n2 = gmat.shape[0], hmat.shape[1]
    if not n1 * n2:
        return 0.0
    tile_rows = tile_points // n2
    starts = range(0, n1, tile_rows)
    workers = max(1, min(threads, len(starts)))
    buffers = [np.empty((min(tile_rows, n1), n2)) for _ in range(workers)]

    def stream(k):
        buffer = buffers[k]
        sums = []
        for i in starts[k::workers]:
            rows = gmat[i:i + tile_rows]
            block = buffer[:rows.shape[0]]
            np.matmul(rows, hmat, out=block)
            np.abs(block, out=block)
            sums.append(float(np.einsum("ij->", block)))
        return sums

    if workers > 1:
        parts = list(_pool(workers).map(stream, range(workers)))
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


@functools.cache
def _orbits(shape: tuple, step: int, group: tuple) -> tuple:
    """(rows, weights) of the orbits of the rows of gmat on every
    ``step``-th node of both axes of the mode-1 (q, p) grid of ``shape``,
    under ``group``, which leaves |gmat @ hmat| unchanged.

    A group element permutes these rows and, in mode 2, the columns, so
    every row of an orbit has the same sum: one representative per orbit
    (its smallest row number, in increasing order) is summed, weighted by
    the orbit size. Under {1, P} these are the first half of the rows,
    doubled, then the centre row where the lattice holds the origin (the
    even-index nodes of an n = 3 (mod 4) axis miss it). The orbits depend
    on nothing else, so they are kept for the life of the process, as
    read-only arrays.
    """
    grid_index = np.arange(math.prod(shape)).reshape(shape)[::step, ::step]
    index = grid_index.ravel()
    images = np.stack([_image(grid_index, element).ravel() for element in group])
    # The orbit of a row has the group order over the number of elements
    # that fix the row.
    size = len(group) // np.count_nonzero(images == index, axis=0)
    first = images.min(axis=0) == index
    # The weights, at most 8, are kept as uint8: as int64 they doubled the
    # kept arrays and raised the peak RSS of indicator-2mode by 0.4 MB.
    orbits = index[first], size[first].astype(np.uint8)
    for array in orbits:
        array.setflags(write=False)
    return orbits


def _weighted_rows(gmat: np.ndarray, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``rows`` of gmat, each times its orbit weight: a power of 2, so
    |(w u) . p| is w |u . p| exactly. Scaled in place: scaling into a
    second array raised the peak RSS of the indicator-2mode commands by
    0.6 MB (in-process, 3 of 3 runs)."""
    out = gmat[rows]
    out *= weights[:, None]
    return out


def _folded_columns(hmat: np.ndarray) -> np.ndarray:
    """hmat's columns folded under z2 -> -z2, which reverses their order:
    the first half, doubled, then the centre column if there is one (see
    _orbits). Always a new array: a slice of a rank-1 hmat is already
    contiguous, and doubling it in place would change the caller's hmat."""
    half = hmat.shape[1] // 2
    return np.concatenate([2.0 * hmat[:, :half], hmat[:, half:hmat.shape[1] - half]], axis=1)


def _cut_value(bound: np.ndarray, scale: float, budget: float) -> float:
    """Smallest ``bound`` value to keep: the values below it, summed and
    times ``scale``, stay within ``budget`` (ties at the cut are kept)."""
    ordered = np.sort(bound)
    cut = np.searchsorted(scale * np.cumsum(ordered), budget, side="right")
    return ordered[cut] if cut < len(ordered) else np.inf


def _pruned_abs_sum(gmat: np.ndarray, hmat: np.ndarray, orbits, target: float,
                    tile_points: int, threads: int) -> tuple:
    """_abs_sum of the weighted rows of the (rows, weights) ``orbits`` on the
    support of the integrand under the support cut against ``target`` (see
    the module docstring), and the bound on the part left out, 0.0 if the
    check made it stream that part too. Only the kept rows are weighted
    and copied: weighting every row, then copying the kept ones, raised the
    peak RSS of the indicator-2mode commands by 0.5 MB (in-process, 3 of 3
    runs)."""
    rows, weights = orbits
    row_bound = weights * np.sqrt(np.einsum("ij,ij->i", gmat, gmat))[rows]
    col_bound = np.sqrt(np.einsum("ij,ij->j", hmat, hmat))
    g_all, budget = np.sum(row_bound), 0.5 * _SUPPORT_CUT * target
    keep_col = col_bound >= _cut_value(col_bound, g_all, budget)
    h_drop = np.sum(col_bound[~keep_col])
    h_keep = np.sum(col_bound) - h_drop
    keep_row = row_bound >= _cut_value(row_bound, h_keep, budget - g_all * h_drop)
    dropped = float(g_all * h_drop + h_keep * np.sum(row_bound[~keep_row]))
    gkept = _weighted_rows(gmat, rows[keep_row], weights[keep_row])
    hkept = hmat if keep_col.all() else np.ascontiguousarray(hmat[:, keep_col])
    total = _abs_sum(gkept, hkept, tile_points, threads)
    if dropped > _SUPPORT_CUT * total:
        total += (_abs_sum(gkept, np.ascontiguousarray(hmat[:, ~keep_col]), tile_points, threads)
                  + _abs_sum(_weighted_rows(gmat, rows[~keep_row], weights[~keep_row]), hmat,
                             tile_points, threads))
        dropped = 0.0
    return total, dropped


# ``threads`` and ``tile_rows`` stay keywords of this signature:
# perfbench/child.py probes the kernel with threads=1 and threads=2, and
# perfbench/tracer.py reads the tile_rows default through
# inspect.signature to model the bytes a pass moves, as if every pass
# spanned the whole mode-2 grid: ``tile_rows`` is the row count of such a
# tile, and a pass over fewer columns takes as many rows as fit
# tile_rows * n2 values. The tracer counts
# calls of this function as the 4D kernel, and lists their products, so a
# traced table pass gets plain pairs and streams them unfolded.
def abs_4d_with_estimate(products, grid: PhaseGrid, *, threads: int = 1,
                         tile_rows: int = _TILE_ROWS) -> tuple:
    """4D absolute integral of |sum_t g_t(z1) h_t(z2)|, in closed form at
    rank <= 2 and streamed otherwise, with a decimated-grid error estimate.

    ``products`` is a SeparableSum, computed on its bases and folded under
    its group and its mode-2 parity, or a sequence of (g, h) pairs of real
    2D arrays on the two mode grids, taken as their own bases with the
    identity as core and summed unfolded."""
    if grid.n_modes != 2:
        raise DomainError("the streamed path needs a two-mode grid")
    mode1, mode2 = grid.mode(0), grid.mode(1)
    n1, n2 = mode1.n_points, mode2.n_points
    if n1 * n2 > DEFAULT_MAX_POINTS:
        raise ResourceBudgetError(
            f"4D product grid has {n1 * n2} points, beyond the budget of "
            f"{DEFAULT_MAX_POINTS}; use a coarser grid"
        )
    if not isinstance(products, SeparableSum):
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
        gs, hs = zip(*shaped)
        products = SeparableSum(factor_basis(gs), factor_basis(hs), np.eye(len(shaped)))
    (basis1, basis2), core = products.bases, products.core
    if (basis1.grids.shape[1:] != (mode1.q.n, mode1.p.n)
            or basis2.grids.shape[1:] != (mode2.q.n, mode2.p.n)):
        raise DomainError("factor grid shapes do not match the mode axes")
    gmat, hmat = _compress(basis1, basis2, core)
    if gmat.shape[1] == 0:
        return 0.0, 0.0
    area = mode1.cell_area * mode2.cell_area
    shape1, shape2 = (mode1.q.n, mode1.p.n), (mode2.q.n, mode2.p.n)
    coarse_orbits, fine_orbits = (_orbits(shape1, step, products.group) for step in (2, 1))
    hfine, hcoarse = hmat, hmat.reshape(-1, *shape2)[:, ::2, ::2].reshape(len(hmat), -1)
    if products.mode2_parity:
        hfine, hcoarse = _folded_columns(hfine), _folded_columns(hcoarse)
    if gmat.shape[1] <= 2:
        fine = _closed_abs_sum(_weighted_rows(gmat, *fine_orbits), hfine) * area
        coarse = _closed_abs_sum(_weighted_rows(gmat, *coarse_orbits), hcoarse) * 16.0 * area
        return fine, abs(fine - coarse)
    # The decimated pass runs first: 16 times its sum is the target of the cut.
    tile_points = tile_rows * n2
    coarse = 16.0 * _abs_sum(_weighted_rows(gmat, *coarse_orbits), hcoarse, tile_points, threads)
    fine, dropped = _pruned_abs_sum(gmat, hfine, fine_orbits, coarse, tile_points, threads)
    return fine * area, abs(fine * area - coarse * area) + dropped * area
