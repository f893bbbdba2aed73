import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from psnci.errors import DomainError, QuadratureError, ResourceBudgetError
from psnci.grids import Axis, PhaseGrid
from psnci.phasespace import build_term_table, cross_wigner_fock_closed
from psnci import quadrature
from psnci.quadrature import abs_4d_with_estimate, integrate_2d, refine_until
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

    res = refine_until(f, grid0, tol=1e-6)
    assert res.levels_used <= 3
    assert_allclose(res.value, 1.0, atol=1e-6)


def test_refine_until_kinked_integrand():
    grid0 = PhaseGrid.single(extent=7.0, points=64)

    def f(grid):
        return _grid_values(
            grid, lambda q, p: np.abs(cross_wigner_fock_closed(2, 2, q, p).real))

    res = refine_until(f, grid0, tol=1e-4)
    assert res.levels_used <= 6
    assert abs(res.value - (1.0 + oracles.delta_fock2())) < 1e-3


def test_refine_until_nonconvergence():
    grid0 = PhaseGrid.single(extent=7.0, points=32)

    def f(grid):
        return _grid_values(
            grid, lambda q, p: np.abs(cross_wigner_fock_closed(1, 1, q, p).real))

    with pytest.raises(QuadratureError) as err:
        refine_until(f, grid0, tol=1e-15, max_levels=2)
    assert err.value.values is not None


def test_refine_until_precondition():
    grid0 = PhaseGrid.single(points=32)
    with pytest.raises(DomainError):
        refine_until(lambda g: None, grid0, tol=1e-6, max_levels=7)
    with pytest.raises(DomainError):
        refine_until(lambda g: None, grid0, tol=-1.0)


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


def test_rank1_products_are_not_streamed(monkeypatch):
    def no_stream(*args):
        raise AssertionError("a rank-1 product set was streamed")

    monkeypatch.setattr(quadrature, "_abs_sum", no_stream)
    grid = PhaseGrid.two_mode(points=21)
    prods = _repeated_h_products(grid, RANK1, seed=3)
    _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=3), prods, grid)


# indicator-2mode of the benchmark: the first two terms overlap in mode 1
# (squeezed and plain vacuum), the third is orthogonal to both.
@pytest.mark.parametrize("rep", ["wigner", "husimi", "rivier"])
def test_term_table_passes_match_dense_oracle(rep):
    state = normalize(TwoModeState((
        (0.6 + 0.2j, fock(0), fock(1)),
        (0.5j, squeezed_fock(0, 0.5), fock(1)),
        (0.55 - 0.1j, fock(1), fock(0)),
    )))
    grid = PhaseGrid.two_mode(points=21)
    table = build_term_table(state, rep, grid)
    _assert_matches_dense(table.total_abs_with_estimate(threads=2),
                          table.real_products(), grid)
    for key in table.pair_keys():
        prods = table.real_products([key])
        _assert_matches_dense(abs_4d_with_estimate(prods, grid, threads=2), prods, grid)


@pytest.mark.parametrize("tile_rows, h_picks", [
    *(pytest.param(rows, None, id=str(rows)) for rows in (1, 8, 512)),
    pytest.param(8, RANK2, id="8-rank2"),
    pytest.param(8, RANK1, id="8-rank1"),
])
def test_streamed_bit_identical_across_threads(tile_rows, h_picks):
    grid = PhaseGrid.two_mode(points=21)
    if h_picks is None:
        prods = _random_products(grid, 4, seed=1)
    else:
        prods = _repeated_h_products(grid, h_picks, seed=1)
    first = abs_4d_with_estimate(prods, grid, threads=1, tile_rows=tile_rows)
    for threads in (2, 3):
        assert abs_4d_with_estimate(prods, grid, threads=threads, tile_rows=tile_rows) == first


def test_streamed_budget_guard():
    grid = PhaseGrid.two_mode(points=41)
    vac, f1 = _two_mode_factors(grid)
    with pytest.raises(ResourceBudgetError):
        abs_4d_with_estimate([(vac, f1)], grid, max_points=1000)


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
