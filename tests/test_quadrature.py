import cmath
import copy
import inspect
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from psnci.errors import DomainError, QuadratureError, ResourceBudgetError
from psnci.grids import Axis, ModeAxes, PhaseGrid
from psnci.phasespace import build_term_table, cross_wigner_fock_closed
from psnci import phasespace, quadrature
from psnci.quadrature import abs_4d_with_estimate
from psnci.states import State, entangled_state, fock, normalize, squeezed_fock
from psnci.indicators import delta_indicator, sweep_a

import oracles


def _grid_values(grid, f):
    mode = grid.mode(0)
    q = mode.q.centers[:, None]
    p = mode.p.centers[None, :]
    return f(q, p)


def test_integrate_constant_is_exact_area():
    grid = oracles.single_grid(extent=1.0, points=17)
    ones = np.ones((17, 17))
    assert_allclose(oracles.integrate_2d(ones, grid), 4.0, atol=1e-12)


def test_integrate_vacuum_wigner():
    grid = oracles.single_grid()
    vals = _grid_values(grid, lambda q, p: np.exp(-q * q - p * p) / math.pi)
    assert_allclose(oracles.integrate_2d(vals, grid), 1.0, atol=1e-6)


def test_integrate_abs_fock1_wigner():
    grid = oracles.single_grid()
    vals = _grid_values(
        grid, lambda q, p: np.abs(cross_wigner_fock_closed(1, 1, q, p).real))
    assert_allclose(oracles.integrate_2d(vals, grid), oracles.abs_integral_fock1(),
                    atol=1e-3)


def test_integrate_shape_mismatch():
    grid = oracles.single_grid(points=33)
    with pytest.raises(DomainError):
        oracles.integrate_2d(np.ones((3, 3)), grid)


def test_refine_until_gaussian_converges_fast():
    grid0 = oracles.single_grid(extent=7.0, points=65)

    def f(grid):
        return _grid_values(grid, lambda q, p: np.exp(-q * q - p * p) / math.pi)

    res = oracles.refine_until(f, grid0, tol=1e-6)
    assert res.levels_used <= 3
    assert_allclose(res.value, 1.0, atol=1e-6)


def test_refine_until_kinked_integrand():
    grid0 = oracles.single_grid(extent=7.0, points=65)

    def f(grid):
        return _grid_values(
            grid, lambda q, p: np.abs(cross_wigner_fock_closed(2, 2, q, p).real))

    res = oracles.refine_until(f, grid0, tol=1e-4)
    assert res.levels_used <= 6
    assert abs(res.value - (1.0 + oracles.delta_fock2())) < 1e-3


def test_refine_until_nonconvergence():
    grid0 = oracles.single_grid(extent=7.0, points=33)

    def f(grid):
        return _grid_values(
            grid, lambda q, p: np.abs(cross_wigner_fock_closed(1, 1, q, p).real))

    with pytest.raises(QuadratureError) as err:
        oracles.refine_until(f, grid0, tol=1e-15, max_levels=2)
    first, second = err.value.values
    assert err.value.achieved == abs(second - first) >= 1e-15


def test_refine_until_precondition():
    grid0 = oracles.single_grid(points=33)
    with pytest.raises(DomainError):
        oracles.refine_until(lambda g: None, grid0, tol=1e-6, max_levels=7)
    with pytest.raises(DomainError):
        oracles.refine_until(lambda g: None, grid0, tol=-1.0)


def _two_mode_factors(grid):
    mode = grid.mode(0)
    q = mode.q.centers[:, None]
    p = mode.p.centers[None, :]
    vac = np.exp(-q * q - p * p) / math.pi
    f1 = cross_wigner_fock_closed(1, 1, q + 0 * p, p + 0 * q).real
    return vac, f1


def test_separable_trivials():
    grid = oracles.two_mode_grid()
    vac, f1 = _two_mode_factors(grid)
    assert_allclose(abs_4d_with_estimate([(vac, vac)], grid)[0], 1.0, atol=1e-6)
    assert abs_4d_with_estimate([(0.0 * vac, f1)], grid)[0] == 0.0


def test_separable_matches_streamed_on_single_product():
    grid = oracles.two_mode_grid()
    vac, f1 = _two_mode_factors(grid)
    sep = oracles.separable_abs_integral(vac, f1, grid)
    streamed = abs_4d_with_estimate([(vac, f1)], grid)[0]
    assert abs(sep - streamed) < 1e-10
    # the diagonal term of a product state: vacuum factor integral is one,
    # so the product equals the one-mode absolute integral
    assert_allclose(sep, oracles.abs_integral_fock1(), atol=1e-3)


def test_streamed_determinism_across_threads():
    grid = oracles.two_mode_grid(points=41)
    vac, f1 = _two_mode_factors(grid)
    prods = [(0.5 * vac, f1), (0.5 * f1, vac), (0.1 * f1, f1)]
    v1 = abs_4d_with_estimate(prods, grid, threads=1)[0]
    v2 = abs_4d_with_estimate(prods, grid, threads=2)[0]
    v4 = abs_4d_with_estimate(prods, grid, threads=4)[0]
    again = abs_4d_with_estimate(prods, grid, threads=2)[0]
    assert v1 == v2 == v4 == again


def _random_products(grid, count, seed):
    rng = np.random.default_rng(seed)
    m1, m2 = grid.mode(0), grid.mode(1)
    return [(rng.standard_normal((m1.q.n, m1.p.n)), rng.standard_normal((m2.q.n, m2.p.n)))
            for _ in range(count)]


# Five products whose mode-2 factors are scaled copies of random fields:
# h_picks[t] names the field of product t, so the set has rank 2 (two
# fields, repeated and proportional) or rank 1 (one field).
RANK2 = (0, 1, 0, 1, 0)
RANK1 = (0, 0, 0, 0, 0)


def _repeated_h_products(grid, h_picks, seed):
    rng = np.random.default_rng(seed)
    m1, m2 = grid.mode(0), grid.mode(1)
    fields = [rng.standard_normal((m2.q.n, m2.p.n)) for _ in range(max(h_picks) + 1)]
    scales = (1.0, 2.5, -0.5, 1.0, 3.0)
    return [(rng.standard_normal((m1.q.n, m1.p.n)), s * fields[i])
            for s, i in zip(scales, h_picks)]


def _assert_matches_dense(result, prods, grid):
    fine, even = oracles.dense_abs_4d_sums(prods)
    area = grid.mode(0).cell_area * grid.mode(1).cell_area
    value, est = result
    assert_allclose(value, fine * area, rtol=1e-12)
    assert abs(est - abs(fine - 16.0 * even) * area) <= 1e-12 * 16.0 * even * area


# 441 points per mode: tiles of 8 and 256 rows leave a ragged last tile,
# and 512 rows make one tile, fewer than the 3 workers.
@pytest.mark.parametrize("tile_rows, h_picks", [
    *(pytest.param(rows, None, id=str(rows)) for rows in (1, 3, 8, 256, 512)),
    pytest.param(8, RANK2, id="8-rank2"),
    pytest.param(8, RANK1, id="8-rank1"),
])
def test_streamed_matches_dense_oracle(tile_rows, h_picks):
    grid = oracles.two_mode_grid(points=21)
    if h_picks is None:
        vac, f1 = _two_mode_factors(grid)
        prods = [(0.5 * vac, f1), (0.5 * f1, vac)] + _random_products(grid, 3, seed=tile_rows)
    else:
        prods = _repeated_h_products(grid, h_picks, seed=tile_rows)
    _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=3, tile_rows=tile_rows),
                          prods, grid)


# The compression factors its stacks in row blocks and multiplies them in
# row blocks: 100 rows leave a ragged last block of the 441, and 3 rows are
# fewer than the 5 products. A cap of 15 values gives the R blocks of 6
# rows, one more than the 5 products: the 441 rows take 26 levels of
# stacked Rs, the last block of the first only 3 rows. A cap of 500 gives
# 100-row blocks at 5 products. The last set splits its second product's
# scale 1e-14 : 1e14 between the modes; that product adds as much as the
# first.
@pytest.mark.parametrize("qr_rows", [3, 100])
def test_compression_row_blocks_match_dense_oracle(monkeypatch, qr_rows):
    monkeypatch.setattr(quadrature, "_QR_ROWS", qr_rows)
    monkeypatch.setattr(quadrature, "_QR_VALUES", 5 * qr_rows)
    grid = oracles.two_mode_grid(points=21)
    vac, f1 = _two_mode_factors(grid)
    for prods in (_random_products(grid, 5, seed=qr_rows),
                  _repeated_h_products(grid, RANK2, seed=qr_rows),
                  [(vac, vac), (1e-14 * vac, 1e14 * f1)]):
        _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)


# The R of a factor basis on stacks of the Rivier bases' sizes, 18 grids
# of 121 x 199 and 121 x 121 points, with exactly dependent columns: every
# QR block stays within _QR_VALUES (227 rows), and R^T R is B^T B. The
# 24079 rows take two levels of stacked Rs: 107 blocks leave 1926 rows, 9
# blocks 162, and one QR the 18 x 18 R.
@pytest.mark.parametrize("height, calls", [(24079, 107 + 9 + 1), (14641, 65 + 6 + 1)])
def test_tall_skinny_r_blocks_stay_within_the_cap(monkeypatch, height, calls):
    rng = np.random.default_rng(height)
    columns = rng.standard_normal((18, height))
    columns[17] = columns[3] - 2.0 * columns[5]
    columns[16] = columns[0]
    columns = columns.T
    shapes = []
    qr = np.linalg.qr

    def record(block, mode):
        shapes.append(block.shape)
        return qr(block, mode=mode)

    monkeypatch.setattr(quadrature.np.linalg, "qr", record)
    r = quadrature._tall_skinny_r(columns)
    gram = columns.T @ columns
    assert r.shape == (18, 18) and len(shapes) == calls
    assert max(rows * cols for rows, cols in shapes) <= quadrature._QR_VALUES
    assert np.max(np.abs(r.T @ r - gram)) <= 1e-13 * np.max(np.abs(gram))


def _ill_conditioned_products(grid, seed, rank=5):
    """Products whose sum has singular values from 1 down to 1e-12, mixed by
    a matrix of condition number 1e3, with product 0 split into exactly
    dependent copies (0.25 g, h) and (0.75 g, h) and product 1 into two
    copies of (g, 0.5 h)."""
    rng = np.random.default_rng(seed)
    m1, m2 = grid.mode(0), grid.mode(1)
    g0 = np.linalg.qr(rng.standard_normal((m1.n_points, rank)))[0]
    h0 = np.linalg.qr(rng.standard_normal((m2.n_points, rank)))[0]
    u, _, vt = np.linalg.svd(rng.standard_normal((rank, rank)))
    mix = u @ np.diag(np.logspace(0, -3, rank)) @ vt
    gs = (g0 * np.logspace(0, -12, rank)) @ mix
    hs = h0 @ np.linalg.inv(mix).T
    prods = [(g.reshape(m1.q.n, m1.p.n), h.reshape(m2.q.n, m2.p.n)) for g, h in zip(gs.T, hs.T)]
    (g, h), (g1, h1) = prods[:2]
    prods[:2] = [(0.25 * g, h), (g1, 0.5 * h1)]
    return prods + [(0.75 * g, h), (g1, 0.5 * h1)]


# The compression never forms Q: its factors are the basis columns times
# small coefficient matrices, one of them scaled by the inverse kept
# singular values, so the smallest ones must come out as accurately.
@pytest.mark.parametrize("qr_rows", [3, 100])
def test_compression_of_ill_conditioned_sets_matches_dense_oracle(monkeypatch, qr_rows):
    monkeypatch.setattr(quadrature, "_QR_ROWS", qr_rows)
    monkeypatch.setattr(quadrature, "_QR_VALUES", 5 * qr_rows)
    ranks = []
    compress = quadrature._compress

    def record(*args):
        gmat, hmat = compress(*args)
        ranks.append(gmat.shape[1])
        return gmat, hmat

    monkeypatch.setattr(quadrature, "_compress", record)
    grid = oracles.two_mode_grid(points=21)
    for seed in range(4):
        prods = _ill_conditioned_products(grid, seed)
        _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)
    assert ranks == [5] * 4


def _no_stream(*args):
    raise AssertionError("a product set of rank <= 2 was streamed")


def test_rank1_products_are_not_streamed(monkeypatch):
    monkeypatch.setattr(quadrature, "_abs_sum", _no_stream)
    grid = oracles.two_mode_grid(points=21)
    prods = _repeated_h_products(grid, RANK1, seed=3)
    _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=3), prods, grid)


def _indicator_2mode_state():
    """The state of the benchmark's indicator-2mode workload: the first two
    terms overlap in mode 1 (squeezed and plain vacuum), the third is
    orthogonal to both."""
    return normalize(State((
        (0.6 + 0.2j, fock(0), fock(1)),
        (0.5j, squeezed_fock(0, 0.5), fock(1)),
        (0.55 - 0.1j, fock(1), fock(0)),
    )))


# A Wigner or Husimi pair term is 2 Re(gamma A B), two real products, or
# on the diagonal one; a Rivier self-pair Re(K1 K2) is two.
@pytest.mark.parametrize("rep", ["wigner", "husimi", "rivier"])
def test_rank2_products_are_not_streamed(monkeypatch, rep):
    monkeypatch.setattr(quadrature, "_abs_sum", _no_stream)
    grid = oracles.two_mode_grid(points=21)
    table = build_term_table(_indicator_2mode_state(), rep, grid)
    keys = [(k, l) for k, l in table.pair_keys() if rep != "rivier" or k == l]
    sets = [table.real_products([key]) for key in keys]
    sets.append(_repeated_h_products(grid, RANK2, seed=3))
    for prods in sets:
        _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=3), prods, grid)


# Mode-2 columns p = (x, y) and mode-1 rows u = (a, b) of a rank-2 set,
# drawn from small integers so that every |u . p| is exact: the negative
# x-axis, signed zeros, the zero vector, repeated and antipodal angles, and
# rows orthogonal to some of the columns ((1, -1) to (1, 1), (0, 1) to
# (-1, 0), (1, 3) to (3, -1)). Index 0 of both modes is a decimated point
# and holds a generic pair, so neither sum is zero.
COLUMNS = ((-1.0, 0.0), (-2.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (1.0, 1.0), (2.0, 2.0),
           (-1.0, -1.0), (0.0, 1.0), (-0.0, -2.0), (3.0, -1.0), (-3.0, 1.0), (1.0, -0.0))
ROWS = ((0.0, 0.0), (-0.0, -0.0), (1.0, -1.0), (-2.0, 2.0), (0.0, 1.0), (1.0, 3.0),
        (-1.0, 0.0), (2.0, -3.0), (1.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(rank=st.integers(1, 2),
       cols=st.lists(st.sampled_from(COLUMNS), min_size=289, max_size=289),
       rows=st.lists(st.sampled_from(ROWS), min_size=289, max_size=289))
def test_closed_form_matches_dense_oracle_on_awkward_geometry(rank, cols, rows):
    grid = oracles.two_mode_grid(points=17)
    hmat = np.array([(2.0, 1.0)] + cols[1:]).T[:rank]
    gmat = np.array([(1.0, 3.0)] + rows[1:])[:, :rank]
    prods = [(g.reshape(17, 17), h.reshape(17, 17)) for g, h in zip(gmat.T, hmat)]
    fine, even = oracles.dense_abs_4d_sums(prods)
    geven = gmat.reshape(17, 17, rank)[::2, ::2].reshape(-1, rank)
    heven = hmat.reshape(rank, 17, 17)[:, ::2, ::2].reshape(rank, -1)
    assert quadrature._closed_abs_sum(gmat, hmat) == fine
    assert quadrature._closed_abs_sum(geven, heven) == even
    _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)


def _recorded_passes(monkeypatch):
    """List that records (rows of gmat, columns of hmat) of every _abs_sum
    call: one per streamed pass, its rows one per orbit, each scaled by its
    weight."""
    calls = []
    stream = quadrature._abs_sum

    def record(gmat, hmat, *args):
        calls.append((gmat.shape[0], hmat.shape[1]))
        return stream(gmat, hmat, *args)

    monkeypatch.setattr(quadrature, "_abs_sum", record)
    return calls


def _recorded_weights(monkeypatch):
    """List that records {orbit weight: number of rows} of every matrix of
    weighted rows, in the order they are built: the orbits of a pass, or
    those of them that the support cut keeps, then those it dropped if it
    streams them too."""
    counts = []
    weighted = quadrature._weighted_rows

    def record(gmat, rows, weights):
        sizes, n = np.unique(weights, return_counts=True)
        counts.append(dict(zip(sizes.tolist(), n.tolist())))
        return weighted(gmat, rows, weights)

    monkeypatch.setattr(quadrature, "_weighted_rows", record)
    return counts


def _passes(expected):
    """(calls, weights) that _recorded_passes (or _recorded_closed) and
    _recorded_weights record for the passes ``expected``, each given as
    ({orbit weight: number of rows}, columns)."""
    return [(sum(w.values()), cols) for w, cols in expected], [w for w, _ in expected]


def _fine_rows(calls, grid):
    """Rows of the calls of the fine pass: those not on the decimated
    points, (n + 1) // 2 per axis, which the decimated pass streams whole,
    or, with its columns folded under z2 -> -z2, the first half and the
    centre of them."""
    even = ((grid.mode(1).q.n + 1) // 2) ** 2
    return [rows for rows, c in calls if c not in (even, (even + 1) // 2)]


# Every term of the indicator-2mode state has one photon in all, so every
# product has even parity and each streamed pass is folded: 220 rows of
# weight 2 and the centre row of the fine pass. The support cut drops the
# Gaussian tails of the Wigner and Husimi totals from it.
TERM_TABLE_FINE_CALLS = {
    "wigner": ({2: 197, 1: 1}, 381),
    "husimi": ({2: 197, 1: 1}, 381),
    "rivier": ({2: 220, 1: 1}, 441),
}


@pytest.mark.parametrize("rep", ["wigner", "husimi", "rivier"])
def test_term_table_passes_match_dense_oracle(monkeypatch, rep):
    grid = oracles.two_mode_grid(points=21)
    table = build_term_table(_indicator_2mode_state(), rep, grid)
    calls, weights = _recorded_passes(monkeypatch), _recorded_weights(monkeypatch)
    n1 = grid.mode(0).n_points
    _assert_matches_dense(table.abs_with_estimate(threads=2),
                          table.real_products(), grid)
    assert (calls, weights) == _passes([({2: 60, 1: 1}, 121), TERM_TABLE_FINE_CALLS[rep]])
    for key in table.pair_keys():
        prods = table.real_products([key])
        calls.clear()
        _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)
        assert sum(_fine_rows(calls, grid)) <= (n1 + 1) // 2


# Rivier products of Fock states: every one has parity (-1)^(photon
# numbers of the four Fock indices). With complex Kirkwood factors, the
# pair term Re(g K1 K2) + Re(g' K1' K2') of two terms that differ in both
# modes has rank 4; a self-pair, or a pair whose terms share a mode
# factor, has rank 2 and is summed in closed form, not streamed. So the
# cases are totals (rank 8) and the pair (0, 1) of |0,0> + |1,2>. Mode 2 of
# |0,0> + |1,2> holds |0> and |2> only, so every product is even under
# z2 -> -z2 and both of its sets fold their columns. ``orbit`` is the
# size of a generic row's orbit: 4 under C4 = {1, R, P, R^3}, which
# |0,1> + |1,0> has as every term holds one photon, 2 under {1, P}, 1
# unfolded.
@pytest.mark.parametrize("points", [21, 19])
@pytest.mark.parametrize("terms, keys, orbit, columns", [
    pytest.param(((0, 1), (1, 0)), None, 4, False, id="even-total"),
    pytest.param(((0, 0), (1, 2)), [(0, 1)], 2, True, id="odd-pair"),
    pytest.param(((0, 0), (1, 2)), None, 1, True, id="mixed-total"),
])
def test_folded_passes_match_dense_oracle(monkeypatch, terms, keys, orbit, columns, points):
    state = normalize(State(tuple(
        (c, fock(m), fock(n)) for c, (m, n) in zip((0.6 + 0.3j, 0.5 - 0.4j), terms))))
    grid = oracles.two_mode_grid(points=points)
    prods = build_term_table(state, "rivier", grid).real_products(keys)
    calls, weights = _recorded_passes(monkeypatch), _recorded_weights(monkeypatch)
    _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)
    n1, n2 = grid.mode(0).n_points, grid.mode(1).n_points
    # The decimated pass runs first, whole. Its points (even indices) hold
    # the centre row only at 21 points per axis; at 19 = 3 (mod 4) they
    # miss it. The odd pair is zero on the centre row, which the support
    # cut drops from the fine pass at no cost. Folded columns are the first
    # half and the centre, where there is one.
    even = ((points + 1) // 2) ** 2
    even_cols = (even + 1) // 2 if columns else even
    n2 = (n2 + 1) // 2 if columns else n2
    if orbit == 1:
        expected = [({1: even}, even_cols), ({1: n1}, n2)]
    else:
        origin = {1: 1} if even % 2 else {}
        centre = {} if keys else {1: 1}
        expected = [({orbit: even // orbit, **origin}, even_cols),
                    ({orbit: n1 // orbit, **centre}, n2)]
    assert (calls, weights) == _passes(expected)


@st.composite
def fock_states(draw):
    """Two-mode Fock superpositions, n <= 4. Half of them have one total
    photon-number parity, so their totals fold under P; half have real
    amplitudes, so every pair term and the total fold under T as well."""
    pairs = st.tuples(st.integers(0, 4), st.integers(0, 4))
    if draw(st.booleans()):
        parity = draw(st.integers(0, 1))
        pairs = pairs.filter(lambda mn: sum(mn) % 2 == parity)
    terms = draw(st.lists(pairs, min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        amp = st.floats(0.1, 1.0) | st.floats(-1.0, -0.1)
    else:
        amp = st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0)
    amps = draw(st.lists(amp, min_size=len(terms), max_size=len(terms)))
    return normalize(State(tuple(
        (c, fock(m), fock(n)) for c, (m, n) in zip(amps, terms))))


@settings(max_examples=25, deadline=None)
@given(state=fock_states(), rep=st.sampled_from(["wigner", "husimi", "rivier"]))
def test_fock_state_passes_match_dense_oracle(state, rep):
    grid = oracles.two_mode_grid(points=21)
    table = build_term_table(state, rep, grid)
    area = grid.mode(0).cell_area * grid.mode(1).cell_area

    def check(result, keys):
        prods = table.real_products(keys)
        if len(keys) == 1 and keys[0][0] == keys[0][1] and rep != "rivier":
            # The factorized diagonal has its own first-order estimate.
            assert_allclose(result[0], oracles.dense_abs_4d_sums(prods)[0] * area, rtol=1e-12)
            scale = abs(table.amplitudes[keys[0][0]]) ** 2
            d1, d2 = (table.stored_factors(m)[keys[0]] for m in range(2))
            a, ea = oracles.integral_with_estimate(np.abs(d1.real), grid.mode(0))
            b, eb = oracles.integral_with_estimate(np.abs(d2.real), grid.mode(1))
            assert abs(result[1] - scale * (ea * b + a * eb)) <= 1e-13 * result[0]
        else:
            _assert_matches_dense(result, prods, grid)

    # a one-term state's total is its single diagonal pair
    check(table.abs_with_estimate(threads=2), table.pair_keys())
    for key in table.pair_keys():
        prods = table.real_products([key])
        _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)
        check(table.abs_with_estimate([key], threads=2), [key])


def test_table_basis_built_once(monkeypatch):
    built = []

    def build(grids):
        built.append(len(grids))
        return quadrature.factor_basis(grids)

    monkeypatch.setattr(phasespace, "factor_basis", build)
    grid = oracles.two_mode_grid(points=21)
    # Wigner and Husimi Bell tables take their pair integrals and delta in
    # polar form (or, for Husimi, as 0), so they build no basis
    sweep_a((0, 1), [0.0, 0.5, 1.0], ["wigner", "husimi"], grid, threads=2)
    assert built == []
    sweep_a((0, 1), [0.0, 0.5, 1.0], ["wigner", "husimi", "rivier"], grid, threads=2)
    assert len(built) == 2
    table = build_term_table(entangled_state(1, 2, 0.5), "rivier", grid)
    table.abs_with_estimate()
    built.clear()
    child = table.with_amplitudes((0.6, 0.8))
    child.abs_with_estimate()
    child.abs_with_estimate([(0, 1)])
    assert built == []


# perfbench/child.py times the kernel with this call, on this table, and
# perfbench/tracer.py reads the tile_rows default through inspect.signature.
def test_benchmark_probe_call_matches_table_path():
    table = build_term_table(entangled_state(1, 2, 0.5), "wigner")
    value, est = table.abs_with_estimate()
    for threads in (1, 2):
        probe = abs_4d_with_estimate(table.real_products(), table.grid, threads=threads)
        assert_allclose(probe, (value, est), rtol=1e-13, atol=1e-14)
    default = inspect.signature(abs_4d_with_estimate).parameters["tile_rows"].default
    assert isinstance(default, int) and default > 0


def _parity_products(grid, signs, seed):
    """Random products whose factors are even (+1) or odd (-1) under z -> -z."""
    rng = np.random.default_rng(seed)
    m1, m2 = grid.mode(0), grid.mode(1)
    out = []
    for s1, s2 in signs:
        g = rng.standard_normal((m1.q.n, m1.p.n))
        h = rng.standard_normal((m2.q.n, m2.p.n))
        out.append((g + s1 * g[::-1, ::-1], h + s2 * h[::-1, ::-1]))
    return out


EVEN = ((1, 1), (-1, -1), (1, 1))
ODD = ((1, -1), (-1, 1), (1, -1))


# A sum that states P is folded; plain pairs state nothing and are
# streamed whole, whatever symmetry their factors have.
@pytest.mark.parametrize("signs, stated", [
    pytest.param(EVEN, True, id="even"),
    pytest.param(ODD, True, id="odd"),
    pytest.param(EVEN, False, id="even-plain"),
])
def test_stated_parity_fold(monkeypatch, signs, stated):
    grid = oracles.two_mode_grid(points=21)
    prods = _parity_products(grid, signs, seed=len(signs))
    calls, weights = _recorded_passes(monkeypatch), _recorded_weights(monkeypatch)
    products = oracles.stated_sum(prods, STATED["P"]) if stated else prods
    _assert_matches_dense(abs_4d_with_estimate(products, grid, threads=2), prods, grid)
    n1 = grid.mode(0).n_points
    assert _fine_rows(calls, grid) == [n1 // 2 + 1 if stated else n1]
    assert weights[1] == ({2: n1 // 2, 1: 1} if stated else {1: n1})


def _mirrored(f, mirrors):
    """f made even (+1) or odd (-1) under each image of ``mirrors`` in turn,
    by f + sign * image for each (image, sign): reversing the axes of a
    tuple, or "R", f o R with R (q, p) -> (-p, q), f[n - 1 - j, i] at node
    (i, j) (even or odd under R if f is even under P = R^2)."""
    for image, sign in mirrors:
        f = f + sign * (np.rot90(f, -1) if image == "R" else np.flip(f, image))
    return f


def _mirror_products(grid, mirrors, seed):
    """Random products whose g and h factors are _mirrored by mirrors[t]."""
    rng = np.random.default_rng(seed)
    m1, m2 = grid.mode(0), grid.mode(1)
    return [(_mirrored(rng.standard_normal((m1.q.n, m1.p.n)), g_mirrors),
             _mirrored(rng.standard_normal((m2.q.n, m2.p.n)), h_mirrors))
            for g_mirrors, h_mirrors in mirrors]


def _one_mirror(axes, signs):
    """Mirrors of products whose (g, h) factors have the given signs under
    reversing ``axes``."""
    return tuple((((axes, sg),), ((axes, sh),)) for sg, sh in signs)


# One set per subgroup of {1, P, T, PT}, and C4 = {1, R, P, R^3} and D4:
# P reverses both axes of both modes, T the p axes, PT the q axes, and R
# turns both modes by 90 degrees. Within a set every product has the same
# sign under each element of its group, while the factors' own signs
# vary; the random factors of "none" have no symmetry. The "full" set is
# even under T and odd under PT and P; the C4 and D4 sets are even under
# P and odd under R, and the D4 set even under T.
MIRROR_SETS = {
    "none": (((), ()),) * 3,
    "P": _one_mirror((0, 1), EVEN),
    "T": _one_mirror((1,), EVEN),
    "PT": _one_mirror((0,), ODD),
    "full": tuple(((((0,), a), ((1,), b)), (((0,), -a), ((1,), b)))
                  for a, b in ((1, 1), (-1, 1), (1, -1), (-1, -1))),
    "C4": tuple(((((0, 1), 1), ("R", a)), (((0, 1), 1), ("R", -a))) for a in (1, -1, 1)),
    "D4": tuple(((((0, 1), 1), ("R", a), ((1,), b)), (((0, 1), 1), ("R", -a), ((1,), b)))
                for a, b in ((1, 1), (-1, 1), (1, -1), (-1, -1))),
}
# The (P, T, PT, R) that each set states.
STATED = {"none": (False, False, False, False), "P": (True, False, False, False),
          "T": (False, True, False, False), "PT": (False, False, True, False),
          "full": (True, True, True, False), "C4": (True, False, False, True),
          "D4": (True, True, True, True)}

# ({orbit weight: number of rows}, columns) of the decimated pass, then of
# the fine pass, per group and points per axis: one _abs_sum call each,
# a row per orbit. Nothing on these random factors is small enough for
# the support cut. Every axis has a centre, so rows on a mirror line count
# once. The decimated points (even indices) of a 21-point axis, 11 x 11,
# hold the centre and fold the same way. Those of a 19-point axis, 10 x 10,
# are symmetric too but miss the centre and the axes: every decimated row
# counts the order of the group, but under D4 the rows on the diagonals,
# which a transpose maps onto themselves, count 4.
FOLD_CALLS = {
    "none": {21: [({1: 121}, 121), ({1: 441}, 441)], 19: [({1: 100}, 100), ({1: 361}, 361)]},
    "P": {21: [({2: 60, 1: 1}, 121), ({2: 220, 1: 1}, 441)],
          19: [({2: 50}, 100), ({2: 180, 1: 1}, 361)]},
    "T": {21: [({2: 55, 1: 11}, 121), ({2: 210, 1: 21}, 441)],
          19: [({2: 50}, 100), ({2: 171, 1: 19}, 361)]},
    "PT": {21: [({2: 55, 1: 11}, 121), ({2: 210, 1: 21}, 441)],
           19: [({2: 50}, 100), ({2: 171, 1: 19}, 361)]},
    "full": {21: [({4: 25, 2: 10, 1: 1}, 121), ({4: 100, 2: 20, 1: 1}, 441)],
             19: [({4: 25}, 100), ({4: 81, 2: 18, 1: 1}, 361)]},
    "C4": {21: [({4: 30, 1: 1}, 121), ({4: 110, 1: 1}, 441)],
           19: [({4: 25}, 100), ({4: 90, 1: 1}, 361)]},
    "D4": {21: [({8: 10, 4: 10, 1: 1}, 121), ({8: 45, 4: 20, 1: 1}, 441)],
           19: [({8: 10, 4: 5}, 100), ({8: 36, 4: 18, 1: 1}, 361)]},
    # T with the columns folded under z2 -> -z2: the first half and the
    # centre, where there is one.
    "T-columns": {21: [({2: 55, 1: 11}, 61), ({2: 210, 1: 21}, 221)],
                  19: [({2: 50}, 50), ({2: 171, 1: 19}, 181)]},
}


@pytest.mark.parametrize("points", [21, 19])
@pytest.mark.parametrize("group", list(MIRROR_SETS))
def test_group_fold_matches_dense_oracle(monkeypatch, group, points):
    grid = oracles.two_mode_grid(points=points)
    prods = _mirror_products(grid, MIRROR_SETS[group], seed=points)
    calls, weights = _recorded_passes(monkeypatch), _recorded_weights(monkeypatch)
    stated = oracles.stated_sum(prods, STATED[group])
    _assert_matches_dense(abs_4d_with_estimate(stated, grid, threads=2), prods, grid)
    assert (calls, weights) == _passes(FOLD_CALLS[group][points])


# The fine passes of Wigner and Husimi totals, whose Gaussian tails the
# support cut leaves out, per (representation, group, points); the
# decimated pass and every Rivier total stream as in FOLD_CALLS.
PRUNED_FINE_CALLS = {
    ("wigner", "C4", 21): ({4: 99, 1: 1}, 381),
    ("wigner", "D4", 21): ({8: 40, 4: 18, 1: 1}, 385),
    ("husimi", "C4", 21): ({4: 99, 1: 1}, 381),
    ("husimi", "D4", 21): ({8: 40, 4: 18, 1: 1}, 385),
    ("wigner", "C4", 19): ({4: 80, 1: 1}, 313),
    ("wigner", "D4", 19): ({8: 32, 4: 16, 1: 1}, 313),
    ("husimi", "C4", 19): ({4: 80, 1: 1}, 313),
    ("husimi", "D4", 19): ({8: 32, 4: 16, 1: 1}, 313),
    ("wigner", "T-columns", 21): ({2: 182, 1: 21}, 201),
    ("husimi", "T-columns", 21): ({2: 182, 1: 21}, 199),
    ("wigner", "T-columns", 19): ({2: 155, 1: 19}, 163),
    ("husimi", "T-columns", 19): ({2: 151, 1: 19}, 161),
}


# Totals of real-amplitude states fold under T (p -> -p in both modes);
# a complex amplitude breaks it. entangled01 has one photon in each term,
# so it keeps R (and P = R^2) either way: C4 with complex amplitudes, D4
# with real ones, half the rows of {1, P} and {1, P, T, PT}, which it
# folded under before R was stated. |0,0> + |1,2> mixes the photon-number parities,
# so with real amplitudes it folds under T alone (with complex ones it does
# not fold: test_folded_passes_match_dense_oracle[mixed-total]), and its
# mode 2 holds even states only, so it folds its columns too. Every total
# here has rank 4 or 8 and is streamed.
STATE_TOTALS = [
    pytest.param(((0, 1), (1, 0)), (0.6 + 0.3j, 0.5), "C4", id="entangled01-complex"),
    pytest.param(((0, 1), (1, 0)), (0.6, 0.8), "D4", id="entangled01-real"),
    pytest.param(((0, 0), (1, 2)), (0.6, -0.8), "T-columns", id="mixed-real"),
]


def _total_table(rep, terms, amps, points):
    state = normalize(State(tuple(
        (c, fock(m), fock(n)) for c, (m, n) in zip(amps, terms))))
    grid = oracles.two_mode_grid(points=points)
    return build_term_table(state, rep, grid), grid


@pytest.mark.parametrize("points", [21, 19])
@pytest.mark.parametrize("terms, amps, group", STATE_TOTALS)
@pytest.mark.parametrize("rep", ["wigner", "husimi", "rivier"])
def test_state_totals_fold_under_their_group(monkeypatch, rep, terms, amps, group, points):
    table, grid = _total_table(rep, terms, amps, points)
    calls, weights = _recorded_passes(monkeypatch), _recorded_weights(monkeypatch)
    _assert_matches_dense(table.abs_with_estimate(threads=2),
                          table.real_products(), grid)
    expected = FOLD_CALLS[group][points]
    if (rep, group, points) in PRUNED_FINE_CALLS:
        expected = [expected[0], PRUNED_FINE_CALLS[rep, group, points]]
    assert (calls, weights) == _passes(expected)


# States that must not state R, each with real amplitudes: a squeezed term
# (on a square grid, number-conserving); |0,0> + |1,2> and |0,1> + |1,1>,
# whose pair products have i^(N_l - N_k) = +-i; and |0,1> + |1,0>, which
# states D4 on square grids, on a mode grid whose q axis spans +-6 and p
# axis +-5.5 on 21 nodes each, where R maps no node onto a node.
NO_ROTATION_STATES = {
    "squeezed": ((squeezed_fock(0, 0.3), fock(1)), (fock(1), fock(0))),
    "00+12": ((fock(0), fock(0)), (fock(1), fock(2))),
    "01+11": ((fock(0), fock(1)), (fock(1), fock(1))),
    "unequal-axes": ((fock(0), fock(1)), (fock(1), fock(0))),
}
_FULL_COARSE = ({4: 25, 2: 10, 1: 1}, 121)
_FULL_PAIR = [({4: 25, 2: 10, 1: 1}, 61), ({4: 100, 2: 20}, 220)]
_PAIR_CLOSED = ([], [({4: 100, 2: 20, 1: 1}, 221), ({4: 25, 2: 10, 1: 1}, 61)])
# (streamed passes, closed-form passes) of the total, then the same of
# the pair (0, 1), each pass as ({orbit weight: number of rows}, columns),
# streamed decimated then fine, in closed form fine then decimated;
# unchanged from before R was stated. The support cut of a fine pass
# drops tail rows and columns up to a budget, so its counts move when the
# grid values change in their last bits (squeezed Wigner, 00+12 Husimi).
NO_ROTATION_CALLS = {
    ("squeezed", "wigner"): (([_FULL_COARSE, ({4: 88, 2: 20, 1: 1}, 385)], []), _PAIR_CLOSED),
    ("squeezed", "husimi"): (([_FULL_COARSE, ({4: 88, 2: 20, 1: 1}, 385)], []), _PAIR_CLOSED),
    ("squeezed", "rivier"): (([_FULL_COARSE, ({4: 100, 2: 20, 1: 1}, 441)], []),
                             (_FULL_PAIR, [])),
    ("00+12", "wigner"): (([({2: 55, 1: 11}, 61), ({2: 182, 1: 21}, 201)], []), _PAIR_CLOSED),
    ("00+12", "husimi"): (([({2: 55, 1: 11}, 61), ({2: 182, 1: 21}, 199)], []), _PAIR_CLOSED),
    ("00+12", "rivier"): (([({2: 55, 1: 11}, 61), ({2: 210, 1: 21}, 221)], []),
                          ([_FULL_PAIR[0], ({4: 100, 2: 20}, 221)], [])),
    **{("01+11", rep): (([], [({2: 210, 1: 21}, 221), ({2: 55, 1: 11}, 61)]), _PAIR_CLOSED)
       for rep in ("wigner", "husimi", "rivier")},
    ("unequal-axes", "wigner"): (([_FULL_COARSE, ({4: 90, 2: 20, 1: 1}, 397)], []),
                                 _PAIR_CLOSED),
    ("unequal-axes", "husimi"): (([_FULL_COARSE, ({4: 89, 2: 20, 1: 1}, 397)], []),
                                 _PAIR_CLOSED),
    ("unequal-axes", "rivier"): (([_FULL_COARSE, ({4: 100, 2: 20, 1: 1}, 441)], []),
                                 (_FULL_PAIR, [])),
}


def _no_rotation_table(name, rep):
    state = normalize(State(tuple((c, *prims) for c, prims
                                  in zip((0.6, 0.8), NO_ROTATION_STATES[name]))))
    grid = oracles.two_mode_grid(points=21)
    if name == "unequal-axes":
        mode = ModeAxes(Axis(-6.0, 6.0, 21), Axis(-5.5, 5.5, 21))
        grid = PhaseGrid((mode, mode))
    return build_term_table(state, rep, grid), grid


@pytest.mark.parametrize("rep", ["wigner", "husimi", "rivier"])
@pytest.mark.parametrize("name", list(NO_ROTATION_STATES))
def test_states_without_rotation_keep_their_folds(monkeypatch, name, rep):
    table, grid = _no_rotation_table(name, rep)
    streamed, closed = _recorded_passes(monkeypatch), _recorded_closed(monkeypatch)
    weights = _recorded_weights(monkeypatch)
    for keys, expected in zip((None, [(0, 1)]), NO_ROTATION_CALLS[name, rep]):
        prods = table.real_products(keys)
        assert not any(swap for swap, _ in prods.group)
        assert (prods.group, prods.mode2_parity) == oracles.symmetry_vote(*prods.bases,
                                                                          prods.core)
        streamed.clear(), closed.clear(), weights.clear()
        _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)
        (stream_calls, stream_weights), (closed_calls, closed_weights) = map(_passes, expected)
        assert (streamed, closed, weights) == (stream_calls, closed_calls,
                                               stream_weights + closed_weights)


def _assert_cut_within_budget(recorded, table, grid, keys, streamed):
    """The fine pass of each pinned case drops a bound of at most
    _SUPPORT_CUT of its kept sum, or 0.0 once it streams the dropped rows and
    columns too; kept sum and bound cover the dense oracle's sum. The pins
    count the rows and columns kept, which move with last-bit changes of the
    grid values; this states what the cut must keep."""
    cuts, sums = recorded
    cuts.clear(), sums.clear()
    prods = table.real_products(keys)
    abs_4d_with_estimate(prods, grid, threads=2)
    assert len(cuts) == int(streamed)
    fine, _ = oracles.dense_abs_4d_sums(prods)
    for (_, dropped), (_, total) in zip(cuts, sums):
        assert 0.0 <= dropped <= quadrature._SUPPORT_CUT * total
        assert total + dropped >= fine * (1.0 - 1e-12)


@pytest.mark.parametrize("points", [21, 19])
@pytest.mark.parametrize("terms, amps, group", STATE_TOTALS)
@pytest.mark.parametrize("rep", ["wigner", "husimi"])
def test_pruned_totals_drop_within_the_cut_budget(monkeypatch, rep, terms, amps, group, points):
    assert (rep, group, points) in PRUNED_FINE_CALLS
    table, grid = _total_table(rep, terms, amps, points)
    _assert_cut_within_budget(_recorded_cuts(monkeypatch), table, grid, None, True)


@pytest.mark.parametrize("rep", ["wigner", "husimi", "rivier"])
@pytest.mark.parametrize("name", list(NO_ROTATION_STATES))
def test_no_rotation_passes_drop_within_the_cut_budget(monkeypatch, name, rep):
    table, grid = _no_rotation_table(name, rep)
    recorded = _recorded_cuts(monkeypatch)
    for keys, (streamed, _) in zip((None, [(0, 1)]), NO_ROTATION_CALLS[name, rep]):
        _assert_cut_within_budget(recorded, table, grid, keys, bool(streamed))


# Products whose mode-2 factors share one parity, even or odd, state it and
# fold their columns under z2 -> -z2: the first half, doubled, and the
# centre, where there is one (the decimated points of a 19-point axis miss
# it). An odd h is zero on the centre column, which the support cut drops
# from the fine pass. A set with mixed mode-2 parities states nothing and
# streams every column. ({orbit weight: number of rows}, columns) of the
# decimated then the fine pass, per points per axis.
MODE2_SETS = {
    "even": (((1, 1), (-1, 1), (1, 1), (-1, 1)), "none", True,
             {21: [({1: 121}, 61), ({1: 441}, 221)], 19: [({1: 100}, 50), ({1: 361}, 181)]}),
    "odd": (((1, -1), (-1, -1), (1, -1), (-1, -1)), "none", True,
            {21: [({1: 121}, 61), ({1: 441}, 220)], 19: [({1: 100}, 50), ({1: 361}, 180)]}),
    "P-even": (((1, 1),) * 4, "P", True,
               {21: [({2: 60, 1: 1}, 61), ({2: 220, 1: 1}, 221)],
                19: [({2: 50}, 50), ({2: 180, 1: 1}, 181)]}),
    "mixed": (((1, 1), (1, -1), (-1, 1), (-1, -1)), "none", False,
              {21: [({1: 121}, 121), ({1: 441}, 441)], 19: [({1: 100}, 100), ({1: 361}, 361)]}),
}


@pytest.mark.parametrize("points", [21, 19])
@pytest.mark.parametrize("name", list(MODE2_SETS))
def test_mode2_column_fold_matches_dense_oracle(monkeypatch, name, points):
    signs, group, mode2, shapes = MODE2_SETS[name]
    grid = oracles.two_mode_grid(points=points)
    prods = _parity_products(grid, signs, seed=points)
    calls, weights = _recorded_passes(monkeypatch), _recorded_weights(monkeypatch)
    stated = oracles.stated_sum(prods, STATED[group], mode2)
    _assert_matches_dense(abs_4d_with_estimate(stated, grid, threads=2), prods, grid)
    assert (calls, weights) == _passes(shapes[points])


def _recorded_closed(monkeypatch):
    """List that records (rows of gmat, columns of hmat) of every
    _closed_abs_sum call."""
    calls = []
    closed = quadrature._closed_abs_sum

    def record(gmat, hmat):
        calls.append((gmat.shape[0], hmat.shape[1]))
        return closed(gmat, hmat)

    monkeypatch.setattr(quadrature, "_closed_abs_sum", record)
    return calls


# At rank <= 2 the closed form takes the same folds: one row per orbit,
# scaled by the orbit size, and the folded columns. (rows, columns) of the
# fine then the decimated call, per points per axis.
@pytest.mark.parametrize("points", [21, 19])
@pytest.mark.parametrize("signs, group, mode2, shapes", [
    pytest.param(((1, 1), (1, 1)), "P", True,
                 {21: [(221, 221), (61, 61)], 19: [(181, 181), (50, 50)]}, id="P-even"),
    pytest.param(((1, 1), (-1, 1)), "none", True,
                 {21: [(441, 221), (121, 61)], 19: [(361, 181), (100, 50)]}, id="even"),
    pytest.param(((1, 1), (1, -1)), "none", False,
                 {21: [(441, 441), (121, 121)], 19: [(361, 361), (100, 100)]}, id="mixed"),
])
def test_closed_form_folds_rows_and_columns(monkeypatch, signs, group, mode2, shapes, points):
    monkeypatch.setattr(quadrature, "_abs_sum", _no_stream)
    grid = oracles.two_mode_grid(points=points)
    prods = _parity_products(grid, signs, seed=points)
    calls = _recorded_closed(monkeypatch)
    stated = oracles.stated_sum(prods, STATED[group], mode2)
    _assert_matches_dense(abs_4d_with_estimate(stated, grid, threads=2), prods, grid)
    assert calls == shapes[points]


# A rank-1 slice of hmat is contiguous already, so a fold that doubled
# np.ascontiguousarray of it in place would double the caller's hmat, and
# the decimated pass would then read the doubled columns.
def test_rank1_column_fold_leaves_hmat_unchanged():
    grid = oracles.two_mode_grid(points=21)
    prods = _parity_products(grid, ((1, 1),), seed=7)
    folded = abs_4d_with_estimate(oracles.stated_sum(prods, STATED["P"], True), grid)
    unfolded = abs_4d_with_estimate(prods, grid)
    _assert_matches_dense(folded, prods, grid)
    assert_allclose(folded[0], unfolded[0], rtol=1e-14)
    assert abs(folded[1] - unfolded[1]) <= 1e-14 * unfolded[0]
    hmat = prods[0][1].reshape(1, -1)
    before = hmat.copy()
    out = quadrature._folded_columns(hmat)
    assert np.array_equal(hmat, before)
    assert not np.shares_memory(out, hmat)
    assert np.array_equal(out, np.concatenate([2.0 * before[:, :220], before[:, 220:221]], axis=1))


@st.composite
def two_mode_cases(draw):
    """(state, zero): a two-mode superposition of up to 3 terms, each mode
    |n> or |n, r>, n <= 4, 0.1 <= |r| <= 0.6, with real, complex or
    common-phase amplitudes; and None or the index of a term whose
    amplitude the test sets to 0 through with_amplitudes."""
    squeezing = st.floats(0.1, 0.6) | st.floats(-0.6, -0.1)
    prim = (st.builds(fock, st.integers(0, 4))
            | st.builds(squeezed_fock, st.integers(0, 4), squeezing))
    terms = draw(st.lists(st.tuples(prim, prim), min_size=1, max_size=3, unique=True))
    kind = draw(st.sampled_from(["real", "complex", "common-phase"]))
    if kind == "complex":
        amp = st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0)
    else:
        amp = st.floats(0.1, 1.0) | st.floats(-1.0, -0.1)
    amps = draw(st.lists(amp, min_size=len(terms), max_size=len(terms)))
    if kind == "common-phase":
        phase = cmath.exp(1j * draw(st.floats(0.1, 3.0)))
        amps = [c * phase for c in amps]
    zero = draw(st.none() | st.integers(0, len(terms) - 1)) if len(terms) > 1 else None
    state = normalize(State(tuple((c, m1, m2) for c, (m1, m2) in zip(amps, terms))))
    return state, zero


def _case_table(case, rep, points):
    """The case's term table on the default grid of ``points``, without the
    coverage check of build_term_table: the symmetries of the grids hold
    whether or not a coarse grid resolves the state."""
    state, zero = case
    rep = phasespace.Representation.parse(rep)
    grid = phasespace.default_grid(state, points=points)
    prims = [state.mode_primitives(m) for m in range(2)]
    table = phasespace.TermTable(rep, grid, state.amplitudes, [
        phasespace._build_cross_maps(rep, mode_prims, grid.mode(m))
        for m, mode_prims in enumerate(prims)], prims)
    if zero is None:
        return table
    return table.with_amplitudes([0.0 if k == zero else c
                                  for k, c in enumerate(table.amplitudes)])


def _key_sets(table):
    """Every key, then each key alone."""
    return [None] + [[key] for key in table.pair_keys()]


def _squeezed(table, state, keys):
    """Whether a term of ``keys`` (default all) with a non-zero amplitude
    has a squeezed primitive."""
    terms = {k for key in keys or table.pair_keys() for k in key}
    return any(table.amplitudes[k] != 0 and any(prim.r for prim in state.terms[k][1:])
               for k in terms)


def _gamma_noise(table, keys):
    """The largest |core entry| that the table takes as rounding: a gamma
    within _RANK_CUT of the largest |gamma| of the products of ``keys``
    (default all) of being real or imaginary is taken as exactly so. An
    entry holds the real or imaginary part of one gamma, twice it where a
    hermitian pair's two conjugate products add into one entry."""
    c = table.amplitudes
    largest = max(abs(c[k] * np.conj(c[l])) for k, l in keys or table.pair_keys())
    rounding = quadrature._RANK_CUT * largest
    return 2.0 * rounding if table.representation.hermitian_pairs else rounding


# The group a table states for its products, and its mode-2 parity, are the
# ones the factor grids show when each is compared with its mirror images,
# and R the one the dense 4D array shows (oracles.symmetry_vote, with the
# table's rule for a gamma that is real or imaginary up to rounding), on
# axes whose decimated nodes hold the centre (41) and miss it (39). A key
# set whose products all vanish (a zeroed term's diagonal) has no voter
# and is left out. R maps |n, r>
# onto |n, -r> up to a phase, so squeezed terms that pair up under r -> -r,
# such as |0, r>|0> + |0, -r>|0>, can make f even under R; the rule states
# R only for unsqueezed primitives, so where squeezed terms take part the
# measured rotations and transposes are not compared (the stated group
# holds: test_stated_group_holds_on_the_dense_integrand). Every key set is
# also judged by value: the folded sum equals the one that states nothing.
# The example's gamma has a real part 1.3e-13 of its modulus, which the
# table takes as imaginary: its Wigner total states {1, PT}, and a vote
# that counted the real part measured {1}.
@settings(max_examples=60, deadline=None)
@given(case=two_mode_cases(), rep=st.sampled_from(["wigner", "husimi", "rivier"]),
       points=st.sampled_from([39, 41]))
@example(case=(normalize(State(((0.832, fock(0), fock(0)),
                                (7.39e-14 + 0.5547j, fock(0), fock(1))))), None),
         rep="wigner", points=41)
def test_stated_group_is_the_measured_one(case, rep, points):
    table = _case_table(case, rep, points)
    for keys in _key_sets(table):
        prods = table.real_products(keys)
        if np.any(prods.core):
            group, mode2_parity = oracles.symmetry_vote(*prods.bases, prods.core,
                                                        noise=_gamma_noise(table, keys))
            if _squeezed(table, case[0], keys):
                assert not any(swap for swap, _ in prods.group)
                group = tuple(e for e in group if not e[0])
            assert (prods.group, prods.mode2_parity) == (group, mode2_parity)
            unfolded = copy.copy(prods)
            unfolded.group, unfolded.mode2_parity = prods.group[:1], False
            whole = abs_4d_with_estimate(unfolded, table.grid)[0]
            assert abs(abs_4d_with_estimate(prods, table.grid)[0] - whole) <= 1e-13 * whole


def _image_4d(dense, element):
    """The dense 4D integrand at g z in both modes, for the _D4 element
    g = (swap, axes): each mode's (q, p) grid transposed if ``swap``, then
    reversed along ``axes``."""
    swap, axes = element
    if swap:
        dense = dense.transpose(1, 0, 3, 2)
    return np.flip(dense, axes + tuple(a + 2 for a in axes))


# Every element the table claims, rotations and transposes included, maps
# the dense 4D integrand to +-itself, and so does z2 -> -z2 if it claims
# the mode-2 parity.
@settings(max_examples=25, deadline=None)
@given(case=two_mode_cases(), rep=st.sampled_from(["wigner", "husimi", "rivier"]))
def test_stated_group_holds_on_the_dense_integrand(case, rep):
    table = _case_table(case, rep, 21)
    for keys in _key_sets(table):
        prods = table.real_products(keys)
        if not np.any(prods.core):
            continue
        dense = sum(np.multiply.outer(g, h) for g, h in prods)
        tol = 1e-12 * np.max(np.abs(dense))
        for element in prods.group[1:]:
            image = _image_4d(dense, element)
            assert min(np.max(np.abs(image - dense)), np.max(np.abs(image + dense))) <= tol
        if prods.mode2_parity:
            image = np.flip(dense, (2, 3))
            assert min(np.max(np.abs(image - dense)), np.max(np.abs(image + dense))) <= tol


def _fock_products(grid, seed, count=4):
    """Random combinations of the real parts of the Fock cross-Wigner grids
    W_mn, m, n <= 2, whose Gaussian tails are below double precision at the
    edges of an extent-6 grid. Each Re W_mn is even under p -> -p, so every
    product is, and the set may state T."""
    rng = np.random.default_rng(seed)
    mode = grid.mode(0)
    q, p = mode.q.centers[:, None], mode.p.centers[None, :]
    fields = [cross_wigner_fock_closed(m, n, q + 0 * p, p + 0 * q).real
              for m in range(3) for n in range(3)]
    return [tuple(np.tensordot(rng.standard_normal(len(fields)), fields, axes=1)
                  for _ in range(2)) for _ in range(count)]


def _recorded_cuts(monkeypatch):
    """List that records (rows of the orbits, dropped bound) of every
    _pruned_abs_sum call, and one that records (target, sum) of each."""
    cuts, sums = [], []
    pruned = quadrature._pruned_abs_sum

    def record(gmat, hmat, orbits, target, *args):
        total, dropped = pruned(gmat, hmat, orbits, target, *args)
        cuts.append((len(orbits[0]), dropped))
        sums.append((target, total))
        return total, dropped

    monkeypatch.setattr(quadrature, "_pruned_abs_sum", record)
    return cuts, sums


# On a 31-point, extent-6 grid the edge rows and columns of |f| hold
# nothing at double precision: the fine pass streams fewer of them than
# the fold gives, the value stays within the dense oracle's rounding, and
# the dropped bound is part of the estimate.
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_support_cut_drops_tails_and_matches_dense_oracle(monkeypatch, seed):
    grid = oracles.two_mode_grid(points=31)
    prods = _fock_products(grid, seed)
    calls = _recorded_passes(monkeypatch)
    cuts, sums = _recorded_cuts(monkeypatch)
    result = abs_4d_with_estimate(oracles.stated_sum(prods, STATED["T"]), grid, threads=2)
    _assert_matches_dense(result, prods, grid)
    [(fold_rows, dropped)], [(target, total)] = cuts, sums
    area = grid.mode(0).cell_area * grid.mode(1).cell_area
    # The bound is within 1e-16 of the kept sum, up to the rounding of area,
    # and adds to the decimation estimate.
    assert 0.0 < dropped * area <= 1e-16 * (1.0 + 1e-12) * result[0]
    assert result[1] >= dropped * area
    assert result[1] == abs(total * area - target * area) + dropped * area
    fine = _fine_rows(calls, grid)
    assert sum(fine) < fold_rows
    assert all(cols < grid.mode(1).n_points for _, cols in calls[-len(fine):])


def _comb_products(grid, seed):
    """_fock_products with the mode-2 factors damped to 1/20 off the points
    whose q and p indices are both even, where the decimated pass looks."""
    n = grid.mode(1).q.n
    even = np.add.outer(np.arange(n) % 2, np.arange(n) % 2) == 0
    return [(g, h * np.where(even, 1.0, 0.05)) for g, h in _fock_products(grid, seed)]


# The cut leaves out at most half its allowance of the decimated target,
# so a target up to twice the pass passes the check. Here it is 3.7 times
# the pass: the dropped bound exceeds 1e-16 of the kept sum, so the dropped
# part is streamed too and no bound is added to the estimate.
def test_support_cut_streams_the_dropped_part_when_the_target_overshoots(monkeypatch):
    grid = oracles.two_mode_grid(points=21)
    prods = _comb_products(grid, seed=0)
    fine, even = oracles.dense_abs_4d_sums(prods)
    assert 16.0 * even > 2.0 * fine
    calls, weights = _recorded_passes(monkeypatch), _recorded_weights(monkeypatch)
    cuts, _ = _recorded_cuts(monkeypatch)
    stated = oracles.stated_sum(prods, STATED["T"])
    _assert_matches_dense(abs_4d_with_estimate(stated, grid, threads=2), prods, grid)
    assert cuts == [(441 // 2 + 21 // 2 + 1, 0.0)]
    # The kept rows on the kept columns, on the dropped columns, then the
    # dropped rows on every column.
    assert calls[1:] == [(210, 393), (210, 48), (21, 441)]
    assert weights[1:] == [{2: 189, 1: 21}, {2: 21}]


def _mode2_sum(grid, seed, signs, symmetry):
    """_parity_products as a SeparableSum that states ``symmetry`` and the
    mode-2 parity."""
    return oracles.stated_sum(_parity_products(grid, signs, seed), symmetry, mode2_parity=True)


# The folded sets state their group (None: plain pairs, or a set that is
# a SeparableSum already). The Fock
# products prune their tails; the comb products fall back to streaming the
# dropped part.
@pytest.mark.parametrize("tile_rows, make, points, stated", [
    *(pytest.param(rows, partial(_random_products, count=4), 21, None, id=str(rows))
      for rows in (1, 8, 512)),
    pytest.param(8, partial(_repeated_h_products, h_picks=RANK2), 21, None, id="8-rank2"),
    pytest.param(8, partial(_repeated_h_products, h_picks=RANK1), 21, None, id="8-rank1"),
    *(pytest.param(rows, partial(_parity_products, signs=EVEN), 21, STATED["P"],
                   id=f"{rows}-folded")
      for rows in (1, 8, 512)),
    *(pytest.param(rows, partial(_mirror_products, mirrors=MIRROR_SETS[group]), 21,
                   STATED[group], id=f"{rows}-{group}")
      for group in ("T", "full", "D4") for rows in (1, 8, 512)),
    *(pytest.param(rows, _fock_products, 31, STATED["T"], id=f"{rows}-pruned")
      for rows in (1, 8, 512)),
    pytest.param(8, _fock_products, 21, STATED["T"], id="8-pruned-21"),
    pytest.param(8, _comb_products, 21, STATED["T"], id="8-pruned-fallback"),
    *(pytest.param(rows, partial(_mode2_sum, signs=MODE2_SETS[name][0],
                                 symmetry=STATED[MODE2_SETS[name][1]]), 21, None,
                   id=f"{rows}-columns-{name}")
      for name in ("even", "P-even") for rows in (1, 8, 512)),
    # At 24 rows a tile of the 121 decimated columns takes 87 rows, so its
    # 121 rows make two tiles where 24-row tiles made six, and a tile of
    # the 61 folded decimated columns takes all 60 rows: fewer tiles than
    # the 3 workers, where 24-row tiles were at least as many.
    pytest.param(24, partial(_random_products, count=4), 21, None, id="24"),
    pytest.param(24, _fock_products, 21, STATED["T"], id="24-pruned"),
    *(pytest.param(24, partial(_mode2_sum, signs=MODE2_SETS[name][0],
                               symmetry=STATED[MODE2_SETS[name][1]]), 21, None,
                   id=f"24-columns-{name}")
      for name in ("even", "P-even")),
])
def test_streamed_bit_identical_across_threads(tile_rows, make, points, stated):
    grid = oracles.two_mode_grid(points=points)
    prods = make(grid, seed=1)
    if stated:
        prods = oracles.stated_sum(prods, stated)
    first = abs_4d_with_estimate(prods, grid, threads=1, tile_rows=tile_rows)
    for threads in (2, 3):
        assert abs_4d_with_estimate(prods, grid, threads=threads, tile_rows=tile_rows) == first


def _recorded_tiles(monkeypatch):
    """List that records (rows of gmat, columns of hmat, values per tile) of
    every _abs_sum call."""
    calls = []
    stream = quadrature._abs_sum

    def record(gmat, hmat, tile_points, threads):
        calls.append((gmat.shape[0], hmat.shape[1], tile_points))
        return stream(gmat, hmat, tile_points, threads)

    monkeypatch.setattr(quadrature, "_abs_sum", record)
    return calls


# A tile holds at most tile_rows * n2 values: tile_rows rows of the whole
# mode-2 grid, and as many rows as fit when a pass streams fewer columns
# (the decimated pass, folded columns, the support cut's columns, and the
# dropped columns the fallback streams). _abs_sum sets the rows of a tile
# as tile_points // columns. 441 points per mode.
@pytest.mark.parametrize("tile_rows", [1, 8, 512])
@pytest.mark.parametrize("make, stated", [
    pytest.param(partial(_random_products, count=4), None, id="plain"),
    pytest.param(partial(_mode2_sum, signs=MODE2_SETS["P-even"][0], symmetry=STATED["P"]),
                 None, id="columns"),
    pytest.param(_fock_products, STATED["T"], id="pruned"),
    pytest.param(_comb_products, STATED["T"], id="pruned-fallback"),
])
def test_tiles_hold_a_fixed_number_of_values(monkeypatch, tile_rows, make, stated):
    grid = oracles.two_mode_grid(points=21)
    n2 = grid.mode(1).n_points
    prods = make(grid, seed=0)
    if stated:
        prods = oracles.stated_sum(prods, stated)
    calls = _recorded_tiles(monkeypatch)
    abs_4d_with_estimate(prods, grid, threads=2, tile_rows=tile_rows)
    assert calls
    for rows, columns, tile_points in calls:
        assert tile_points == tile_rows * n2
        tile = tile_points // columns
        assert tile == max(tile_rows, tile_rows * n2 // columns)
        assert min(tile, rows) * columns <= tile_rows * n2


# Block shapes (rows of the first tile, columns) of every _abs_sum call at
# the default 8 rows, decimated pass then fine pass, on 441 points per
# mode: the full-width pass keeps 8-row tiles, the 121 decimated columns
# take 29 rows, and the folded columns, 61 and 221 of them, 57 and 15.
@pytest.mark.parametrize("make, blocks", [
    pytest.param(partial(_random_products, count=4), [(29, 121), (8, 441)], id="plain"),
    pytest.param(partial(_mode2_sum, signs=MODE2_SETS["P-even"][0], symmetry=STATED["P"]),
                 [(57, 61), (15, 221)], id="columns"),
])
def test_narrow_passes_take_taller_tiles(monkeypatch, make, blocks):
    grid = oracles.two_mode_grid(points=21)
    prods = make(grid, seed=0)
    calls = _recorded_tiles(monkeypatch)
    _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2),
                          list(prods), grid)
    assert [(min(tile_points // columns, rows), columns)
            for rows, columns, tile_points in calls] == blocks


# The orbits are kept per (shape, step, group) for the life of the
# process: a second call returns the same arrays, they equal a fresh
# computation, cannot be written, and their weights are orbit sizes that
# cover every node, one representative per orbit in increasing order. The
# rotation groups need square grids.
@pytest.mark.parametrize("shape, step, group", [
    pytest.param(shape, step, group, id=f"{group}-{step}-shape{i}")
    for group in ("none", "P", "T", "full", "C4", "D4") for step in (1, 2)
    for i, shape in enumerate([(21, 21), (19, 19), (21, 19)])
    if shape[0] == shape[1] or not STATED[group][3]])
def test_orbits_are_kept_read_only(shape, step, group):
    unit = np.ones((2, 2))
    elements = oracles.stated_sum([(unit, unit)], STATED[group]).group
    kept = quadrature._orbits(shape, step, elements)
    assert quadrature._orbits(shape, step, elements) is kept
    fresh = quadrature._orbits.__wrapped__(shape, step, elements)
    rows, weights = kept
    assert len(rows) == len(weights) and np.all(np.diff(rows) > 0)
    assert set(weights.tolist()) <= {1, 2, 4, 8} and np.all(len(elements) % weights == 0)
    nodes = len(range(0, shape[0], step)) * len(range(0, shape[1], step))
    assert np.sum(weights) == nodes
    for array, again in zip(kept, fresh):
        assert np.array_equal(array, again)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def _mode(nq, np_, extent_q=6.0, extent_p=6.0):
    return ModeAxes(Axis(-extent_q, extent_q, nq), Axis(-extent_p, extent_p, np_))


# A stretched grid: q spans +-7 on 21 nodes and p +-5 on 19 in both modes,
# as squeezing stretches a default grid, with unequal q and p axes.
STRETCHED = PhaseGrid((_mode(21, 19, 7.0, 5.0),) * 2)


# Each pass sums one weighted row per orbit, so its weights add up to the
# points of the pass's mode-1 grid: every node for the fine pass, the
# nodes with even q and p indices for the decimated one. The rotation
# groups need square grids.
@pytest.mark.parametrize("group, grid", [
    pytest.param(group, grid, id=f"{group}-{name}") for group in MIRROR_SETS
    for name, grid in (("21", oracles.two_mode_grid(points=21)),
                       ("19", oracles.two_mode_grid(points=19)), ("stretched", STRETCHED))
    if name != "stretched" or not STATED[group][3]])
def test_orbit_weights_sum_to_the_pass_points(monkeypatch, group, grid):
    mode = grid.mode(0)
    prods = _mirror_products(grid, MIRROR_SETS[group], seed=mode.p.n)
    weights = []
    orbits = quadrature._orbits

    def record(shape, step, elements):
        kept = orbits(shape, step, elements)
        weights.append(int(np.sum(kept[1])))
        return kept

    monkeypatch.setattr(quadrature, "_orbits", record)
    stated = oracles.stated_sum(prods, STATED[group])
    _assert_matches_dense(abs_4d_with_estimate(stated, grid, threads=2), prods, grid)
    coarse = ((mode.q.n + 1) // 2) * ((mode.p.n + 1) // 2)
    assert weights == [coarse, mode.n_points]


def _even_points(mode):
    """The old reference: a (q, p) grid that is True where both indices are even."""
    return np.logical_and.outer(np.arange(mode.q.n) % 2 == 0, np.arange(mode.p.n) % 2 == 0)


# Every axis has odd length, so the decimated pass folds under the whole
# stated group and folds its columns, on axes of both residues mod 4 (the
# even-index nodes of 19 miss the centre). The reference: an element is
# kept when its image of each mode's even-index mask is that mask, and the
# columns fold when P maps mode 2's mask onto itself. Swaps are stated
# only on square grids with equal axes, so sets with R have square modes;
# the others state {1, P, T, PT}.
@pytest.mark.parametrize("shape1, shape2", [
    ((21, 21), (21, 21)), ((19, 19), (19, 19)), ((21, 21), (19, 19)), ((19, 19), (21, 21)),
    ((21, 19), (21, 21)), ((19, 21), (21, 19)), ((21, 21), (19, 21)), ((19, 19), (21, 19)),
])
def test_decimated_fold_keeps_the_elements_that_map_even_points_onto_themselves(
        monkeypatch, shape1, shape2):
    grid = PhaseGrid((_mode(*shape1), _mode(*shape2)))
    square = shape1[0] == shape1[1] and shape2[0] == shape2[1]
    groups = []
    orbits = quadrature._orbits

    def record(shape, step, elements):
        groups.append(elements)
        return orbits(shape, step, elements)

    monkeypatch.setattr(quadrature, "_orbits", record)
    calls = _recorded_passes(monkeypatch)
    stated = oracles.stated_sum(_random_products(grid, 4, seed=1),
                                STATED["D4" if square else "full"], mode2_parity=True)
    abs_4d_with_estimate(stated, grid, threads=2)
    masks = [_even_points(grid.mode(m)) for m in range(2)]
    assert len(stated.group) == (8 if square else 4)
    expected = tuple(e for e in stated.group
                     if all(np.array_equal(quadrature._image(m, e), m) for m in masks))
    assert groups == [expected, stated.group] and expected == stated.group
    even = int(np.sum(masks[1]))
    assert np.array_equal(quadrature._image(masks[1], quadrature._D4[1]), masks[1])
    assert calls[0][1] == (even + 1) // 2


def test_kept_pools_serve_concurrent_callers():
    # Callers on several threads share the kept pools, with more workers
    # than the machine has cores and a short switch interval.
    rng = np.random.default_rng(5)
    gmat, hmat = rng.standard_normal((203, 4)), rng.standard_normal((4, 301))
    serial = quadrature._abs_sum(gmat, hmat, 8 * 301, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            futures = [callers.submit(quadrature._abs_sum, gmat, hmat, 8 * 301, threads)
                       for threads in (2, 3, 5) * 6]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial] * len(futures)
    assert quadrature._pool(3) is quadrature._pool(3)


def test_streamed_budget_guard():
    # 179^4 = 1.03e9 points, beyond the 1e9 budget: raises before any
    # 4D work is done.
    grid = oracles.two_mode_grid(points=179)
    vac, f1 = _two_mode_factors(grid)
    with pytest.raises(ResourceBudgetError):
        abs_4d_with_estimate([(vac, f1)], grid)


def test_streamed_empty_and_zero_products():
    grid = oracles.two_mode_grid(points=41)
    vac, _ = _two_mode_factors(grid)
    assert abs_4d_with_estimate([], grid)[0] == 0.0
    assert abs_4d_with_estimate([(0.0 * vac, vac)], grid)[0] == 0.0


def test_streamed_estimate_is_reported():
    grid = oracles.two_mode_grid(points=61)
    vac, f1 = _two_mode_factors(grid)
    value, est = abs_4d_with_estimate([(vac, f1)], grid)
    assert value > 1.0
    assert est >= 0.0


@pytest.mark.slow
def test_grid_halving_stability_of_delta():
    for family in ((0, 1), (1, 2)):
        st = entangled_state(*family, 0.5)
        d121 = delta_indicator(
            build_term_table(st, "wigner", oracles.two_mode_grid(points=121)),
            threads=2).value
        d161 = delta_indicator(
            build_term_table(st, "wigner", oracles.two_mode_grid(points=161)),
            threads=2).value
        assert abs(d121 - d161) < 2e-3


def test_axis_minimum_points():
    with pytest.raises(DomainError):
        Axis(-1.0, 1.0, 8)
    with pytest.raises(DomainError):
        Axis(1.0, -1.0, 32)
