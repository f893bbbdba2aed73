import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from psnci.errors import DomainError, QuadratureError, ResourceBudgetError
from psnci.grids import Axis, PhaseGrid
from psnci.phasespace import build_term_table, cross_wigner_fock_closed
from psnci import quadrature
from psnci.quadrature import abs_4d_with_estimate, integrate_2d
from psnci.states import TwoModeState, entangled_state, fock, normalize, squeezed_fock
from psnci.indicators import delta_indicator

import oracles


def _grid_values(grid, f):
    mode = grid.mode(0)
    q = mode.q.centers[:, None]
    p = mode.p.centers[None, :]
    return f(q, p)


def test_integrate_constant_is_exact_area():
    grid = PhaseGrid.single(extent=1.0, points=16)
    ones = np.ones((16, 16))
    assert_allclose(integrate_2d(ones, grid), 4.0, atol=1e-12)


def test_integrate_vacuum_wigner():
    grid = PhaseGrid.single()
    vals = _grid_values(grid, lambda q, p: np.exp(-q * q - p * p) / math.pi)
    assert_allclose(integrate_2d(vals, grid), 1.0, atol=1e-6)


def test_integrate_abs_fock1_wigner():
    grid = PhaseGrid.single()
    vals = _grid_values(
        grid, lambda q, p: np.abs(cross_wigner_fock_closed(1, 1, q, p).real))
    assert_allclose(integrate_2d(vals, grid), oracles.abs_integral_fock1(),
                    atol=1e-3)


def test_integrate_shape_mismatch():
    grid = PhaseGrid.single(points=32)
    with pytest.raises(DomainError):
        integrate_2d(np.ones((3, 3)), grid)


def test_refine_until_gaussian_converges_fast():
    grid0 = PhaseGrid.single(extent=7.0, points=64)

    def f(grid):
        return _grid_values(grid, lambda q, p: np.exp(-q * q - p * p) / math.pi)

    res = oracles.refine_until(f, grid0, tol=1e-6)
    assert res.levels_used <= 3
    assert_allclose(res.value, 1.0, atol=1e-6)


def test_refine_until_kinked_integrand():
    grid0 = PhaseGrid.single(extent=7.0, points=64)

    def f(grid):
        return _grid_values(
            grid, lambda q, p: np.abs(cross_wigner_fock_closed(2, 2, q, p).real))

    res = oracles.refine_until(f, grid0, tol=1e-4)
    assert res.levels_used <= 6
    assert abs(res.value - (1.0 + oracles.delta_fock2())) < 1e-3


def test_refine_until_nonconvergence():
    grid0 = PhaseGrid.single(extent=7.0, points=32)

    def f(grid):
        return _grid_values(
            grid, lambda q, p: np.abs(cross_wigner_fock_closed(1, 1, q, p).real))

    with pytest.raises(QuadratureError) as err:
        oracles.refine_until(f, grid0, tol=1e-15, max_levels=2)
    assert err.value.values is not None


def test_refine_until_precondition():
    grid0 = PhaseGrid.single(points=32)
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
    grid = PhaseGrid.two_mode()
    vac, f1 = _two_mode_factors(grid)
    assert_allclose(abs_4d_with_estimate([(vac, vac)], grid)[0], 1.0, atol=1e-6)
    assert abs_4d_with_estimate([(0.0 * vac, f1)], grid)[0] == 0.0


def test_separable_matches_streamed_on_single_product():
    grid = PhaseGrid.two_mode()
    vac, f1 = _two_mode_factors(grid)
    sep = oracles.separable_abs_integral(vac, f1, grid)
    streamed = abs_4d_with_estimate([(vac, f1)], grid)[0]
    assert abs(sep - streamed) < 1e-10
    # the diagonal term of a product state: vacuum factor integral is one,
    # so the product equals the one-mode absolute integral
    assert_allclose(sep, oracles.abs_integral_fock1(), atol=1e-3)


def test_streamed_determinism_across_threads():
    grid = PhaseGrid.two_mode(points=41)
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
    grid = PhaseGrid.two_mode(points=21)
    if h_picks is None:
        vac, f1 = _two_mode_factors(grid)
        prods = [(0.5 * vac, f1), (0.5 * f1, vac)] + _random_products(grid, 3, seed=tile_rows)
    else:
        prods = _repeated_h_products(grid, h_picks, seed=tile_rows)
    _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=3, tile_rows=tile_rows),
                          prods, grid)


# The compression factors its stacks in row blocks: 100 rows leave a
# ragged last block of the 441, and 3 rows are fewer than the 5 products.
@pytest.mark.parametrize("qr_rows", [3, 100])
def test_compression_row_blocks_match_dense_oracle(monkeypatch, qr_rows):
    monkeypatch.setattr(quadrature, "_QR_ROWS", qr_rows)
    grid = PhaseGrid.two_mode(points=21)
    for prods in (_random_products(grid, 5, seed=qr_rows),
                  _repeated_h_products(grid, RANK2, seed=qr_rows)):
        _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)


def _no_stream(*args):
    raise AssertionError("a product set of rank <= 2 was streamed")


def test_rank1_products_are_not_streamed(monkeypatch):
    monkeypatch.setattr(quadrature, "_abs_sum", _no_stream)
    grid = PhaseGrid.two_mode(points=21)
    prods = _repeated_h_products(grid, RANK1, seed=3)
    _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=3), prods, grid)


def _indicator_2mode_state():
    """The state of the benchmark's indicator-2mode workload: the first two
    terms overlap in mode 1 (squeezed and plain vacuum), the third is
    orthogonal to both."""
    return normalize(TwoModeState((
        (0.6 + 0.2j, fock(0), fock(1)),
        (0.5j, squeezed_fock(0, 0.5), fock(1)),
        (0.55 - 0.1j, fock(1), fock(0)),
    )))


# A Wigner or Husimi pair term is 2 Re(gamma A B), two real products, or
# on the diagonal one; a Rivier self-pair Re(K1 K2) is two.
@pytest.mark.parametrize("rep", ["wigner", "husimi", "rivier"])
def test_rank2_products_are_not_streamed(monkeypatch, rep):
    monkeypatch.setattr(quadrature, "_abs_sum", _no_stream)
    grid = PhaseGrid.two_mode(points=21)
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
    grid = PhaseGrid.two_mode(points=16)
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


def _rows_streamed(calls, cols):
    return [rows for rows, c in calls if c == cols]


# Every term of the indicator-2mode state has one photon in all, so every
# product has even parity and each streamed pass is folded.
@pytest.mark.parametrize("rep", ["wigner", "husimi", "rivier"])
def test_term_table_passes_match_dense_oracle(monkeypatch, rep):
    grid = PhaseGrid.two_mode(points=21)
    table = build_term_table(_indicator_2mode_state(), rep, grid)
    calls = _recorded_passes(monkeypatch)
    n1, n2 = grid.mode(0).n_points, grid.mode(1).n_points
    _assert_matches_dense(table.total_abs_with_estimate(threads=2),
                          table.real_products(), grid)
    assert _rows_streamed(calls, n2) == [n1 // 2, 1]
    for key in table.pair_keys():
        prods = table.real_products([key])
        calls.clear()
        _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)
        assert sum(_rows_streamed(calls, n2)) <= (n1 + 1) // 2


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
    state = normalize(TwoModeState(tuple(
        (c, fock(m), fock(n)) for c, (m, n) in zip((0.6 + 0.3j, 0.5 - 0.4j), terms))))
    grid = PhaseGrid.two_mode(points=points)
    prods = build_term_table(state, "rivier", grid).real_products(keys)
    calls = _recorded_passes(monkeypatch)
    _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)
    n1, n2 = grid.mode(0).n_points, grid.mode(1).n_points
    # Even points per axis: no centre row, and the decimated points
    # (even indices) are not closed under reversal, so that pass is whole.
    even = ((points + 1) // 2) ** 2
    if not folded:
        assert calls == [(n1, n2), (even, even)]
    elif points % 2:
        assert calls == [(n1 // 2, n2), (1, n2), (even // 2, even), (1, even)]
    else:
        assert calls == [(n1 // 2, n2), (even, even)]


@st.composite
def fock_states(draw):
    """Two-mode Fock superpositions, n <= 4, with complex amplitudes; half
    of them have one total photon-number parity, so their totals fold."""
    pairs = st.tuples(st.integers(0, 4), st.integers(0, 4))
    if draw(st.booleans()):
        parity = draw(st.integers(0, 1))
        pairs = pairs.filter(lambda mn: sum(mn) % 2 == parity)
    terms = draw(st.lists(pairs, min_size=1, max_size=3, unique=True))
    amps = draw(st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
                         min_size=len(terms), max_size=len(terms)))
    return normalize(TwoModeState(tuple(
        (c, fock(m), fock(n)) for c, (m, n) in zip(amps, terms))))


@settings(max_examples=25, deadline=None)
@given(state=fock_states(), rep=st.sampled_from(["wigner", "husimi", "rivier"]))
def test_fock_state_passes_match_dense_oracle(state, rep):
    grid = PhaseGrid.two_mode(points=21)
    table = build_term_table(state, rep, grid)
    _assert_matches_dense(table.total_abs_with_estimate(threads=2),
                          table.real_products(), grid)
    for key in table.pair_keys():
        prods = table.real_products([key])
        _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)


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
    grid = PhaseGrid.two_mode(points=21)
    prods = _parity_products(grid, signs, seed=len(signs))
    if noise:
        prods += [(noise * g, h) for g, h in _random_products(grid, 1, seed=5)]
    calls = _recorded_passes(monkeypatch)
    _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)
    n1 = grid.mode(0).n_points
    assert calls[0][0] == (n1 // 2 if folded else n1)


@pytest.mark.parametrize("tile_rows, make", [
    *(pytest.param(rows, partial(_random_products, count=4), id=str(rows))
      for rows in (1, 8, 512)),
    pytest.param(8, partial(_repeated_h_products, h_picks=RANK2), id="8-rank2"),
    pytest.param(8, partial(_repeated_h_products, h_picks=RANK1), id="8-rank1"),
    *(pytest.param(rows, partial(_parity_products, signs=EVEN), id=f"{rows}-folded")
      for rows in (1, 8, 512)),
])
def test_streamed_bit_identical_across_threads(tile_rows, make):
    grid = PhaseGrid.two_mode(points=21)
    prods = make(grid, seed=1)
    first = abs_4d_with_estimate(prods, grid, threads=1, tile_rows=tile_rows)
    for threads in (2, 3):
        assert abs_4d_with_estimate(prods, grid, threads=threads, tile_rows=tile_rows) == first


def test_streamed_budget_guard():
    # 179^4 = 1.03e9 points, beyond the 1e9 budget: raises before any
    # 4D work is done.
    grid = PhaseGrid.two_mode(points=179)
    vac, f1 = _two_mode_factors(grid)
    with pytest.raises(ResourceBudgetError):
        abs_4d_with_estimate([(vac, f1)], grid)


def test_streamed_empty_and_zero_products():
    grid = PhaseGrid.two_mode(points=41)
    vac, _ = _two_mode_factors(grid)
    assert abs_4d_with_estimate([], grid)[0] == 0.0
    assert abs_4d_with_estimate([(0.0 * vac, vac)], grid)[0] == 0.0


def test_streamed_estimate_is_reported():
    grid = PhaseGrid.two_mode(points=61)
    vac, f1 = _two_mode_factors(grid)
    value, est = abs_4d_with_estimate([(vac, f1)], grid)
    assert value > 1.0
    assert est >= 0.0


@pytest.mark.slow
def test_grid_halving_stability_of_delta():
    for family in ((0, 1), (1, 2)):
        st = entangled_state(*family, 0.5)
        d121 = delta_indicator(
            build_term_table(st, "wigner", PhaseGrid.two_mode(points=121)),
            threads=2).value
        d161 = delta_indicator(
            build_term_table(st, "wigner", PhaseGrid.two_mode(points=161)),
            threads=2).value
        assert abs(d121 - d161) < 2e-3


def test_axis_minimum_points():
    with pytest.raises(DomainError):
        Axis(-1.0, 1.0, 8)
    with pytest.raises(DomainError):
        Axis(1.0, -1.0, 32)
