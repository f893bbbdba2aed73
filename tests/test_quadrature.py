import inspect
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from psnci.errors import DomainError, QuadratureError, ResourceBudgetError
from psnci.grids import Axis
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
    grid = oracles.single_grid(extent=1.0, points=16)
    ones = np.ones((16, 16))
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
    grid = oracles.single_grid(points=32)
    with pytest.raises(DomainError):
        oracles.integrate_2d(np.ones((3, 3)), grid)


def test_refine_until_gaussian_converges_fast():
    grid0 = oracles.single_grid(extent=7.0, points=64)

    def f(grid):
        return _grid_values(grid, lambda q, p: np.exp(-q * q - p * p) / math.pi)

    res = oracles.refine_until(f, grid0, tol=1e-6)
    assert res.levels_used <= 3
    assert_allclose(res.value, 1.0, atol=1e-6)


def test_refine_until_kinked_integrand():
    grid0 = oracles.single_grid(extent=7.0, points=64)

    def f(grid):
        return _grid_values(
            grid, lambda q, p: np.abs(cross_wigner_fock_closed(2, 2, q, p).real))

    res = oracles.refine_until(f, grid0, tol=1e-4)
    assert res.levels_used <= 6
    assert abs(res.value - (1.0 + oracles.delta_fock2())) < 1e-3


def test_refine_until_nonconvergence():
    grid0 = oracles.single_grid(extent=7.0, points=32)

    def f(grid):
        return _grid_values(
            grid, lambda q, p: np.abs(cross_wigner_fock_closed(1, 1, q, p).real))

    with pytest.raises(QuadratureError) as err:
        oracles.refine_until(f, grid0, tol=1e-15, max_levels=2)
    assert err.value.values is not None


def test_refine_until_precondition():
    grid0 = oracles.single_grid(points=32)
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


# The compression factors its stacks in row blocks: 100 rows leave a
# ragged last block of the 441, and 3 rows are fewer than the 5 products.
# The last set splits its second product's scale 1e-14 : 1e14 between the
# modes; that product adds as much as the first.
@pytest.mark.parametrize("qr_rows", [3, 100])
def test_compression_row_blocks_match_dense_oracle(monkeypatch, qr_rows):
    monkeypatch.setattr(quadrature, "_QR_ROWS", qr_rows)
    grid = oracles.two_mode_grid(points=21)
    vac, f1 = _two_mode_factors(grid)
    for prods in (_random_products(grid, 5, seed=qr_rows),
                  _repeated_h_products(grid, RANK2, seed=qr_rows),
                  [(vac, vac), (1e-14 * vac, 1e14 * f1)]):
        _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)


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
       cols=st.lists(st.sampled_from(COLUMNS), min_size=256, max_size=256),
       rows=st.lists(st.sampled_from(ROWS), min_size=256, max_size=256))
def test_closed_form_matches_dense_oracle_on_awkward_geometry(rank, cols, rows):
    grid = oracles.two_mode_grid(points=16)
    hmat = np.array([(2.0, 1.0)] + cols[1:]).T[:rank]
    gmat = np.array([(1.0, 3.0)] + rows[1:])[:, :rank]
    prods = [(g.reshape(16, 16), h.reshape(16, 16)) for g, h in zip(gmat.T, hmat)]
    fine, even = oracles.dense_abs_4d_sums(prods)
    even1, even2 = quadrature._even_mask(grid.mode(0)), quadrature._even_mask(grid.mode(1))
    assert quadrature._closed_abs_sum(gmat, hmat) == fine
    assert quadrature._closed_abs_sum(gmat[even1], hmat[:, even2]) == even
    _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)


def _recorded_passes(monkeypatch):
    """List that records (rows of gmat, columns of hmat) of every _abs_sum call."""
    calls = []
    stream = quadrature._abs_sum

    def record(gmat, hmat, *args):
        calls.append((gmat.shape[0], hmat.shape[1]))
        return stream(gmat, hmat, *args)

    monkeypatch.setattr(quadrature, "_abs_sum", record)
    return calls


def _fine_rows(calls, grid):
    """Rows of the calls of the fine pass: those not on the decimated
    points, (n + 1) // 2 per axis, which the decimated pass streams whole."""
    even = ((grid.mode(1).q.n + 1) // 2) ** 2
    return [rows for rows, c in calls if c != even]


# Every term of the indicator-2mode state has one photon in all, so every
# product has even parity and each streamed pass is folded: 220 rows and
# the centre row of the fine pass. The support cut drops the Gaussian tails
# of the Wigner and Husimi totals from it.
TERM_TABLE_FINE_CALLS = {
    "wigner": [(197, 381), (1, 381)],
    "husimi": [(197, 381), (1, 381)],
    "rivier": [(220, 441), (1, 441)],
}


@pytest.mark.parametrize("rep", ["wigner", "husimi", "rivier"])
def test_term_table_passes_match_dense_oracle(monkeypatch, rep):
    grid = oracles.two_mode_grid(points=21)
    table = build_term_table(_indicator_2mode_state(), rep, grid)
    calls = _recorded_passes(monkeypatch)
    n1 = grid.mode(0).n_points
    _assert_matches_dense(table.abs_with_estimate(threads=2),
                          table.real_products(), grid)
    assert calls == [(60, 121), (1, 121)] + TERM_TABLE_FINE_CALLS[rep]
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
# cases are totals (rank 8) and the pair (0, 1) of |0,0> + |1,2>.
@pytest.mark.parametrize("points", [21, 20])
@pytest.mark.parametrize("terms, keys, folded", [
    pytest.param(((0, 1), (1, 0)), None, True, id="even-total"),
    pytest.param(((0, 0), (1, 2)), [(0, 1)], True, id="odd-pair"),
    pytest.param(((0, 0), (1, 2)), None, False, id="mixed-total"),
])
def test_folded_passes_match_dense_oracle(monkeypatch, terms, keys, folded, points):
    state = normalize(State(tuple(
        (c, fock(m), fock(n)) for c, (m, n) in zip((0.6 + 0.3j, 0.5 - 0.4j), terms))))
    grid = oracles.two_mode_grid(points=points)
    prods = build_term_table(state, "rivier", grid).real_products(keys)
    calls = _recorded_passes(monkeypatch)
    _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)
    n1, n2 = grid.mode(0).n_points, grid.mode(1).n_points
    # The decimated pass runs first. Even points per axis: no centre row,
    # and the decimated points (even indices) are not closed under
    # reversal, so that pass is whole. The odd pair is zero on the centre
    # row, which the support cut drops from the fine pass at no cost.
    even = ((points + 1) // 2) ** 2
    if not folded:
        assert calls == [(even, even), (n1, n2)]
    elif points % 2:
        centre = [] if keys else [(1, n2)]
        assert calls == [(even // 2, even), (1, even), (n1 // 2, n2)] + centre
    else:
        assert calls == [(even, even), (n1 // 2, n2)]


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
    sweep_a((0, 1), [0.0, 0.5, 1.0], ["wigner", "husimi", "rivier"], grid, threads=2)
    assert len(built) == 2 * 3
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


# A product 1e-17 times the largest has no parity but does not vote, as
# the rounding-noise products of a total do not.
@pytest.mark.parametrize("signs, noise, folded", [
    pytest.param(EVEN, 0.0, True, id="even"),
    pytest.param(ODD, 0.0, True, id="odd"),
    pytest.param(EVEN, 1e-17, True, id="even-noise"),
    pytest.param(EVEN, 1e-3, False, id="even-asymmetric"),
    pytest.param(EVEN + ODD, 0.0, False, id="mixed"),
])
def test_parity_vote(monkeypatch, signs, noise, folded):
    grid = oracles.two_mode_grid(points=21)
    prods = _parity_products(grid, signs, seed=len(signs))
    if noise:
        prods += [(noise * g, h) for g, h in _random_products(grid, 1, seed=5)]
    calls = _recorded_passes(monkeypatch)
    _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)
    n1 = grid.mode(0).n_points
    assert _fine_rows(calls, grid)[0] == (n1 // 2 if folded else n1)


def _mirrored(f, mirrors):
    """f made even (+1) or odd (-1) under reversing each of its ``axes``, by
    f + sign * reversed f for each (axes, sign) of ``mirrors`` in turn."""
    for axes, sign in mirrors:
        f = f + sign * np.flip(f, axes)
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


# One set per subgroup of {1, P, T, PT}: P reverses both axes of both
# modes, T the p axes and PT the q axes. Within a set every product has the
# same sign under each element of its group, while the factors' own signs
# vary; the random factors of "none" have no symmetry. The "full" set is
# even under T and odd under PT and P.
MIRROR_SETS = {
    "none": (((), ()),) * 3,
    "P": _one_mirror((0, 1), EVEN),
    "T": _one_mirror((1,), EVEN),
    "PT": _one_mirror((0,), ODD),
    "full": tuple(((((0,), a), ((1,), b)), (((0,), -a), ((1,), b)))
                  for a, b in ((1, 1), (-1, 1), (1, -1), (-1, -1))),
}

# (rows of gmat, columns of hmat) of every _abs_sum call, decimated pass
# then fine pass, per group and points per axis. Nothing on these random
# factors is small enough for the support cut. A 21-point axis has a
# centre, so rows on a mirror line count once; the 11 x 11 decimated grid
# folds the same way. A 20-point axis has no centre, and its decimated
# points (even indices) are not closed under any reversal.
FOLD_CALLS = {
    "none": {21: [(121, 121), (441, 441)], 20: [(100, 100), (400, 400)]},
    "P": {21: [(60, 121), (1, 121), (220, 441), (1, 441)], 20: [(100, 100), (200, 400)]},
    "T": {21: [(55, 121), (11, 121), (210, 441), (21, 441)], 20: [(100, 100), (200, 400)]},
    "PT": {21: [(55, 121), (11, 121), (210, 441), (21, 441)], 20: [(100, 100), (200, 400)]},
    "full": {21: [(25, 121), (10, 121), (1, 121), (100, 441), (20, 441), (1, 441)],
             20: [(100, 100), (100, 400)]},
}


@pytest.mark.parametrize("points", [21, 20])
@pytest.mark.parametrize("group", list(MIRROR_SETS))
def test_group_fold_matches_dense_oracle(monkeypatch, group, points):
    grid = oracles.two_mode_grid(points=points)
    prods = _mirror_products(grid, MIRROR_SETS[group], seed=points)
    calls = _recorded_passes(monkeypatch)
    _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)
    assert calls == FOLD_CALLS[group][points]


# The fine passes of Wigner and Husimi totals, whose Gaussian tails the
# support cut leaves out, per (representation, group, points); the
# decimated pass and every Rivier total stream as in FOLD_CALLS.
PRUNED_FINE_CALLS = {
    ("wigner", "P", 21): [(198, 381), (1, 381)],
    ("wigner", "full", 21): [(88, 384), (20, 384), (1, 384)],
    ("wigner", "T", 21): [(182, 401), (21, 401)],
    ("husimi", "P", 21): [(200, 381), (1, 381)],
    ("husimi", "full", 21): [(88, 385), (20, 385), (1, 385)],
    ("husimi", "T", 21): [(180, 401), (21, 401)],
    ("wigner", "P", 20): [(176, 352)],
    ("wigner", "full", 20): [(88, 352)],
    ("wigner", "T", 20): [(176, 360)],
    ("husimi", "P", 20): [(176, 352)],
    ("husimi", "full", 20): [(88, 352)],
    ("husimi", "T", 20): [(176, 360)],
}


# Totals of real-amplitude states fold under T (p -> -p in both modes);
# a complex amplitude breaks it. entangled01 has one photon in each term,
# so it keeps P either way; |0,0> + |1,2> mixes the photon-number parities,
# so with real amplitudes it folds under T alone (with complex ones it does
# not fold: test_folded_passes_match_dense_oracle[mixed-total]). Every total
# here has rank 4 or 8 and is streamed.
@pytest.mark.parametrize("points", [21, 20])
@pytest.mark.parametrize("terms, amps, group", [
    pytest.param(((0, 1), (1, 0)), (0.6 + 0.3j, 0.5), "P", id="entangled01-complex"),
    pytest.param(((0, 1), (1, 0)), (0.6, 0.8), "full", id="entangled01-real"),
    pytest.param(((0, 0), (1, 2)), (0.6, -0.8), "T", id="mixed-real"),
])
@pytest.mark.parametrize("rep", ["wigner", "husimi", "rivier"])
def test_state_totals_fold_under_their_group(monkeypatch, rep, terms, amps, group, points):
    state = normalize(State(tuple(
        (c, fock(m), fock(n)) for c, (m, n) in zip(amps, terms))))
    grid = oracles.two_mode_grid(points=points)
    table = build_term_table(state, rep, grid)
    calls = _recorded_passes(monkeypatch)
    _assert_matches_dense(table.abs_with_estimate(threads=2),
                          table.real_products(), grid)
    expected = FOLD_CALLS[group][points]
    if (rep, group, points) in PRUNED_FINE_CALLS:
        coarse = (points + 1) // 2
        expected = [c for c in expected if c[1] == coarse ** 2] \
            + PRUNED_FINE_CALLS[rep, group, points]
    assert calls == expected


def _fock_products(grid, seed, count=4):
    """Random combinations of the real parts of the Fock cross-Wigner grids
    W_mn, m, n <= 2, whose Gaussian tails are below double precision at the
    edges of an extent-6 grid. Each Re W_mn is even under p -> -p, so every
    product is, and the set folds under T."""
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
        cuts.append((sum(len(rows) for _, rows in orbits), dropped))
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
    result = abs_4d_with_estimate(prods, grid, threads=2)
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
    calls = _recorded_passes(monkeypatch)
    cuts, _ = _recorded_cuts(monkeypatch)
    _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)
    assert cuts == [(441 // 2 + 21 // 2 + 1, 0.0)]
    # The kept rows on the kept columns, on the dropped columns, then the
    # dropped rows on every column.
    assert calls[2:] == [(189, 393), (21, 393), (189, 48), (21, 48), (21, 441)]


# The Fock products prune their tails; the comb products fall back to
# streaming the dropped part.
@pytest.mark.parametrize("tile_rows, make, points", [
    *(pytest.param(rows, partial(_random_products, count=4), 21, id=str(rows))
      for rows in (1, 8, 512)),
    pytest.param(8, partial(_repeated_h_products, h_picks=RANK2), 21, id="8-rank2"),
    pytest.param(8, partial(_repeated_h_products, h_picks=RANK1), 21, id="8-rank1"),
    *(pytest.param(rows, partial(_parity_products, signs=EVEN), 21, id=f"{rows}-folded")
      for rows in (1, 8, 512)),
    *(pytest.param(rows, partial(_mirror_products, mirrors=MIRROR_SETS[group]), 21,
                   id=f"{rows}-{group}")
      for group in ("T", "full") for rows in (1, 8, 512)),
    *(pytest.param(rows, _fock_products, 31, id=f"{rows}-pruned") for rows in (1, 8, 512)),
    pytest.param(8, _fock_products, 21, id="8-pruned-21"),
    pytest.param(8, _comb_products, 21, id="8-pruned-fallback"),
])
def test_streamed_bit_identical_across_threads(tile_rows, make, points):
    grid = oracles.two_mode_grid(points=points)
    prods = make(grid, seed=1)
    first = abs_4d_with_estimate(prods, grid, threads=1, tile_rows=tile_rows)
    for threads in (2, 3):
        assert abs_4d_with_estimate(prods, grid, threads=threads, tile_rows=tile_rows) == first


def test_kept_pools_serve_concurrent_callers():
    # Callers on several threads share the kept pools, with more workers
    # than the machine has cores and a short switch interval.
    rng = np.random.default_rng(5)
    gmat, hmat = rng.standard_normal((203, 4)), rng.standard_normal((4, 301))
    serial = quadrature._abs_sum(gmat, hmat, 8, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            futures = [callers.submit(quadrature._abs_sum, gmat, hmat, 8, threads)
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
