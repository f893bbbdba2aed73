"""The polar delta of products, of two-term number-conserving two-mode
Fock states and of one-mode states of one or two Fock terms
(psnci.polar.polar_delta), the polar pair integrals of all-Fock Wigner and
Husimi tables (psnci.polar.polar_pairs) and their radial building blocks,
against exact values, scipy quadrature, mpmath and the polar quadrature
oracles."""

import functools
import math

import numpy as np
import pytest

from psnci import indicators
from psnci.indicators import delta_indicator, eta_indicator, state_indicators
from psnci.phasespace import Representation, build_term_table
from psnci.polar import (Terms, _fock_radial, _mode_abs, cos_abs_excess, polar_delta,
                         polar_pairs, radial_pieces, sign_roots)
from psnci.states import (State, entangled_state, fock, normalize, squeezed_fock,
                          squeezed_vacuum_superposition)

import oracles

FAMILIES = [(low, high) for high in range(1, 5) for low in range(high)]  # every sweep_a family
A_SQ = [0.0, 0.2, 0.5, 0.8, 1.0]


def _reference_delta(family, a_sq):
    """Exact for products and for entangled01 (a beam splitter turns it into
    |0,1>, so delta is delta(|1>) = 4 e^(-1/2) - 2 at every a^2); the oracle
    otherwise, at min(a^2, 1 - a^2): the state at 1 - a^2 is the mode swap
    of the one at a^2, and delta does not see the mode order."""
    if a_sq in (0.0, 1.0):
        return oracles.product_wigner_delta(*family)
    if family == (0, 1):
        return 4.0 * math.exp(-0.5) - 2.0
    low = round(min(a_sq, 1.0 - a_sq), 12)  # one oracle call for a^2 and 1 - a^2
    return oracles.polar_wigner_abs_integral(
        math.sqrt(low), family, math.sqrt(1.0 - low), family[::-1]) - 1.0


def test_oracle_matches_exact_values():
    # the oracle on entangled01, whose delta is exact at every a^2
    for a_sq in (0.2, 0.5):
        value = oracles.polar_wigner_abs_integral(
            math.sqrt(a_sq), (0, 1), math.sqrt(1.0 - a_sq), (1, 0)) - 1.0
        assert abs(value - (4.0 * math.exp(-0.5) - 2.0)) <= 1e-9


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("a_sq", A_SQ)
def test_polar_delta_matches_reference(family, a_sq):
    result = delta_indicator(build_term_table(entangled_state(*family, a_sq), "wigner"))
    error = abs(result.value - _reference_delta(family, a_sq))
    assert error <= 1e-6
    assert error <= result.error_estimate


@pytest.mark.parametrize("c0, k, l", [(0.6, (3, 1), (2, 2)), (0.8, (4, 0), (1, 3))])
def test_polar_delta_of_other_number_conserving_pairs(c0, k, l):
    # two terms of one total photon number that are not each other's mode swap
    c1 = math.sqrt(1.0 - c0 * c0)
    state = State(((c0, fock(k[0]), fock(k[1])), (1j * c1, fock(l[0]), fock(l[1]))))
    result = delta_indicator(build_term_table(state, "wigner"))
    error = abs(result.value - (oracles.polar_wigner_abs_integral(c0, k, c1, l) - 1.0))
    assert error <= 1e-6
    assert error <= result.error_estimate


def test_swept_rows_take_the_polar_path():
    # a with_amplitudes row of a sweep is in the class like a fresh table
    table = build_term_table(entangled_state(1, 2, 0.5), "wigner")
    for a_sq in (0.0, 0.3, 1.0):
        row = table.with_amplitudes((math.sqrt(a_sq), math.sqrt(1.0 - a_sq)))
        fresh = build_term_table(entangled_state(1, 2, a_sq), "wigner")
        assert polar_delta(row) == polar_delta(fresh)
        assert delta_indicator(row).value == polar_delta(row)[0]


@pytest.mark.parametrize("state", [
    # not number-conserving: |0,0> + |1,1>
    State(((math.sqrt(0.5), fock(0), fock(0)), (math.sqrt(0.5), fock(1), fock(1)))),
    # three terms
    State(((0.6, fock(0), fock(1)), (0.6, fock(1), fock(0)), (math.sqrt(0.28), fock(2), fock(0)))),
    # a squeezed primitive
    State(((1.0, squeezed_fock(1, 0.3), fock(0)),)),
    # a photon number past the checked sweep_a range: |0,5> + |5,0>
    State(((math.sqrt(0.5), fock(0), fock(5)), (math.sqrt(0.5), fock(5), fock(0)))),
], ids=["two-photon-numbers", "three-terms", "squeezed", "five-photons"])
def test_states_outside_the_class_keep_the_grid(state):
    table = build_term_table(state, "wigner")
    assert polar_delta(table) is None
    absval, estimate = table.abs_with_estimate()
    result = delta_indicator(table)
    assert result.value == absval - table.total_integral()
    assert result.error_estimate == estimate


def test_other_representations_keep_their_paths():
    # Rivier has no polar rule; Husimi delta is 0, and a one-mode product is polar
    assert polar_delta(build_term_table(entangled_state(0, 1, 0.5), "rivier")) is None
    assert polar_delta(build_term_table(entangled_state(0, 1, 0.5), "husimi"))[:2] == (0.0, 0.0)
    assert polar_delta(build_term_table(State(((1.0, fock(1)),)), "wigner")) is not None


def test_polar_delta_is_independent_of_the_grid():
    coarse = oracles.two_mode_grid(points=41)
    for state in (entangled_state(0, 2, 0.3), entangled_state(2, 3, 1.0)):
        assert (polar_delta(build_term_table(state, "wigner", coarse))
                == polar_delta(build_term_table(state, "wigner")))


def test_cos_abs_excess_matches_a_dense_angle_sum():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(2, 200))
    a[:20], b[20:40] = 0.0, 0.0
    u = (np.arange(20000) + 0.5) * (2.0 * math.pi / 20000)
    dense = np.abs(a[:, None] + b[:, None] * np.cos(u)).mean(axis=1) * 2.0 * math.pi
    assert np.max(np.abs(cos_abs_excess(a, b) - (dense - 2.0 * math.pi * a))) <= 1e-7


def test_radial_pieces_integrate_a_kinked_power():
    # int_0^2 |x - 1|^(3/2) dx = 4/5, the kink flagged as singular
    nodes, weights = radial_pieces(np.array([0.0, 1.0, 2.0]), np.array([0, 1, 0]), 12)
    assert abs(np.sum(np.abs(nodes - 1.0) ** 1.5 * weights) - 0.8) <= 1e-12
    nodes, weights = radial_pieces(np.array([[0.0, 2.0], [1.0, 3.0]]), np.zeros((2, 2), int), 5)
    assert nodes.shape == weights.shape == (2, 5)
    assert np.allclose(np.sum(weights * nodes ** 3, axis=1), [4.0, 20.0])


def test_sign_roots_finds_the_zeros_of_combinations():
    values = lambda x: np.stack([np.cos(x), np.sin(x)])  # noqa: E731
    coef = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    nodes = np.linspace(0.1, 7.0, 200)
    mask, row, roots = sign_roots(coef, values, nodes, values(nodes))
    assert mask.shape == (3, 199)
    want = {0: [math.pi / 2, 3 * math.pi / 2], 1: [math.pi, 2 * math.pi],
            2: [math.pi / 4, 5 * math.pi / 4]}
    for r, expected in want.items():
        assert np.allclose(roots[row == r], expected, atol=1e-9)


@pytest.mark.parametrize("m, n", [(0, 0), (2, 2), (1, 3), (4, 1), (12, 9)])
def test_radial_factor_and_its_zeros(m, n):
    rho = np.linspace(0.0, 6.0, 61)
    closed = oracles._radial_poly(m, n)
    want = np.polynomial.polynomial.polyval(rho, closed) * np.exp(-rho * rho)
    # the monomial form loses digits to cancellation as n grows (2e-12 of the
    # peak at n = 9); the recurrence does not
    assert np.max(np.abs(_fock_radial([(m, n)], rho)[0] - want)) <= 1e-11 * np.max(np.abs(want))
    # its zeros as the two-term rule finds them: on a sign scan, by false position
    radial = functools.partial(_fock_radial, [(m, n)])
    scan = np.linspace(0.0, 8.0, 256)
    zeros = sign_roots(np.eye(1), radial, scan, radial(scan))[2]
    zeros = zeros[zeros > 0.0]  # R_mn(0) = 0 when m != n
    assert len(zeros) == min(m, n)
    assert np.max(np.abs(radial(zeros)), initial=0.0) <= 1e-7 * np.max(np.abs(want))


@pytest.mark.parametrize("m, ns, tolerance", [
    *(pytest.param(m, range(5), 1e-12, id=str(m)) for m in range(5)),
    # photon numbers to 64, breakpoints at the Jacobi matrix's zeros
    *(pytest.param(m, [m], 1e-12, id=f"{m}-{m}") for m in (12, 16, 32, 40, 64)),
    *(pytest.param(m, [n], 1e-9, id=f"{m}-{n}")
      for m, n in [(3, 12), (5, 20), (31, 40), (48, 64), (63, 64)]),
])
def test_wigner_radial_integral_matches_quad(m, ns, tolerance):
    # 2 pi int |R_mn| rho drho against scipy's quad between the Laguerre zeros
    for n in ns:
        value, estimate = _mode_abs(Representation.WIGNER, m, n)
        error = abs(value - 2.0 * math.pi * oracles.wigner_radial_abs(m, n))
        assert error <= tolerance
        assert error <= estimate


def test_wigner_radial_oracle_matches_mpmath():
    # 2 pi int |R_mn| rho drho by mpmath at 30 digits; the oracle's open last
    # piece toward infinity used to overflow to nan at (63, 64) and (64, 64)
    for m, n, reference in [(64, 64, 7.274245421771574), (63, 64, 7.248227696436204),
                            (48, 64, 6.82312675268278)]:
        assert abs(2.0 * math.pi * oracles.wigner_radial_abs(m, n) - reference) <= 1e-12


@pytest.mark.parametrize("m, n", [(0, 8), (3, 12), (8, 8), (0, 64)])
def test_polar_delta_of_products_at_any_photon_number(m, n):
    # a one-term product delta is a product of 1D radial integrals, for any n
    grid = oracles.two_mode_grid(extent=16.0, points=321)
    table = build_term_table(State(((1.0, fock(m), fock(n)),)), "wigner", grid)
    value = polar_delta(table)[0]
    assert abs(value - oracles.product_wigner_delta(m, n)) <= 1e-12


def test_husimi_radial_closed_form_matches_quad():
    for m, n in [(0, 1), (1, 2), (0, 64), (63, 64), (64, 64)] + [
            (m, n) for m in range(0, 65, 8) for n in range(m + 3, 65, 11)]:
        value, estimate = _mode_abs(Representation.HUSIMI, m, n)
        reference = 2.0 * math.pi * oracles.husimi_radial_abs(m, n)
        assert abs(value - reference) <= 1e-12 * reference
        assert estimate == 0.0


@pytest.mark.parametrize("a_sq", A_SQ)
def test_entangled01_eta_from_polar_pairs(a_sq):
    state = entangled_state(0, 1, a_sq)
    wigner, husimi = (build_term_table(state, rep) for rep in ("wigner", "husimi"))
    assert abs(eta_indicator(wigner).value - oracles.eta_wigner_entangled01(a_sq)) <= 1e-8
    assert abs(eta_indicator(husimi).value - oracles.eta_husimi_entangled01(a_sq)) <= 1e-8
    # 2 |c0 c1| times int |f_01| per unit, which is 1 for Wigner
    cross = 2.0 * math.sqrt(a_sq * (1.0 - a_sq))
    assert abs(polar_pairs(wigner)[1][0] - cross) <= 1e-12
    # every pair is polar; every Husimi diagonal has one sign, so |f| == f
    assert len(polar_pairs(wigner)) == len(polar_pairs(husimi)) == len(wigner.pair_keys())
    assert all(value == plain for value, _, plain in polar_pairs(husimi)[::2])


def test_polar_pair_with_equal_photon_numbers():
    # two terms on the same primitive, |1> and |1, r=0>: no mode's photon
    # numbers differ, so int |f_01| = 2 |Re gamma| 2 pi int |R_11| rho drho
    state = State(((0.6 + 0.2j, fock(1)), (0.5 - 0.3j, squeezed_fock(1, 0.0))))
    table = build_term_table(normalize(state), "wigner")
    value, estimate, _ = polar_pairs(table)[1]
    grid, grid_estimate = table.abs_with_estimate([(0, 1)])
    assert abs(value - grid) <= grid_estimate
    c0, c1 = table.amplitudes
    radial = _mode_abs(Representation.WIGNER, 1, 1)[0]
    assert value == 2.0 * abs((c0 * c1.conjugate()).real) * radial


@pytest.mark.parametrize("rep", ["wigner", "husimi"])
def test_one_signed_pairs_are_polar(rep):
    # the r = 0 row of sweep-r psi00r: both primitives are the vacuum, so
    # every pair has one sign, and its polar int |f| is its int f
    for a in (0.3, 0.5, 0.7):
        table = build_term_table(squeezed_vacuum_superposition(a, 0.0), rep)
        pairs = polar_pairs(table)
        assert len(pairs) == len(table.pair_keys())
        assert all(value == plain for value, _, plain in pairs)
        assert abs(eta_indicator(table).value) <= 1e-16


def test_polar_pairs_above_four_photons_match_the_grid():
    # (|0> + |12>) / sqrt2: every pair is polar; the vacuum diagonal has one
    # sign, so its int |f| is its int f, and the other two match the grid
    state = State(((math.sqrt(0.5), fock(0)), (math.sqrt(0.5), fock(12))))
    table = build_term_table(state, "wigner")
    (vacuum, _, plain), *polar = polar_pairs(table)
    assert vacuum == plain
    for key, (value, _, _) in zip(table.pair_keys()[1:], polar):
        grid, estimate = table.abs_with_estimate([key])
        assert abs(value - grid) <= estimate


def test_tables_outside_the_class_keep_their_grid_pairs():
    squeezed = State(((0.6, squeezed_fock(1, 0.3), fock(0)), (0.8, fock(0), fock(1))))
    five = State(((math.sqrt(0.5), fock(0), fock(5)), (math.sqrt(0.5), fock(5), fock(0))))
    assert polar_pairs(build_term_table(entangled_state(0, 1, 0.5), "rivier")) is None
    assert polar_pairs(build_term_table(squeezed, "wigner")) is None
    assert polar_pairs(build_term_table(squeezed, "husimi")) is None
    # five photons are in the class: every pair is polar
    for rep in ("wigner", "husimi"):
        assert len(polar_pairs(build_term_table(five, rep))) == 3


# --- one-mode states of one or two Fock terms -------------------------------

ROOT_HALF = math.sqrt(0.5)
# delta_W of (|0> + |n>) / sqrt2 on the benchmark's Fock ladder, to 10 digits
# (ROADMAP, "State": mpmath at n = 40, 128- and 256-node pieces at n = 64).
LADDER_DELTA = {4: 0.8027907596, 12: 1.7957025408, 20: 2.3919168018,
                40: 3.4697476258, 64: 4.4096905306}


def _fock_terms(rep, amplitudes, ns):
    return Terms(Representation.parse(rep), (tuple(fock(n) for n in ns),),
                 tuple(complex(c) for c in amplitudes))


def _mpmath_pair_delta(n, dps=30):
    """delta_W of (|0> + |n>) / sqrt2 in mpmath: R e^(rho^2) from the exact
    Laguerre coefficients, the roots of A +- B by a scan and findroot, and
    tanh-sinh quadrature between them."""
    import mpmath as mp
    mp.mp.dps = dps

    def radial(m, k):  # ascending coefficients in rho of R_mk e^(rho^2), padded to 2n + 1
        hi, lo = max(m, k), min(m, k)
        pref = (-1) ** lo / mp.pi * mp.sqrt(mp.mpf(2) ** (hi - lo) * mp.factorial(lo)
                                           / mp.factorial(hi))
        out = [mp.mpf(0)] * (2 * n + 1)
        for j, c in enumerate(oracles.laguerre_coeffs_exact(lo, hi - lo)):
            out[2 * j + hi - lo] = pref * mp.mpf(c.numerator) / c.denominator * 2 ** j
        return out
    a = [(x + y) / 2 for x, y in zip(radial(0, 0), radial(n, n))]
    b = radial(0, n)
    edge = math.sqrt(2.0 * n + 1.0) + 12.0
    scan = [edge * i / 800 for i in range(801)]
    cuts = []
    for poly in ([x + y for x, y in zip(a, b)], [x - y for x, y in zip(a, b)]):
        def at(x, poly=poly):
            return mp.polyval(poly[::-1], x)
        values = [at(x) for x in scan]
        cuts += [mp.findroot(at, (x0, x1), solver="anderson")
                 for x0, x1, v0, v1 in zip(scan, scan[1:], values, values[1:]) if v0 * v1 < 0]

    def integrand(rho):
        e = mp.exp(-rho * rho)
        big_a, big_b = mp.polyval(a[::-1], rho) * e, abs(mp.polyval(b[::-1], rho) * e)
        if abs(big_a) >= big_b:
            return rho * 2 * mp.pi * (abs(big_a) - big_a)
        return rho * (4 * mp.sqrt(big_b ** 2 - big_a ** 2) + 4 * big_a * mp.asin(big_a / big_b)
                      - 2 * mp.pi * big_a)
    return float(mp.quad(integrand, [0] + sorted(cuts) + [edge]))


def test_polar_fock_delta_oracle_matches_mpmath():
    assert abs(oracles.polar_fock_delta(ROOT_HALF, 0, ROOT_HALF, 20)
               - _mpmath_pair_delta(20)) <= 1e-13


@pytest.mark.parametrize("n", sorted(LADDER_DELTA))
def test_polar_fock_delta_on_the_ladder(n):
    value, estimate, norm = polar_delta(_fock_terms("wigner", (ROOT_HALF,) * 2, (0, n)))
    assert abs(value - LADDER_DELTA[n]) <= 1e-9
    assert abs(value - oracles.polar_fock_delta(ROOT_HALF, 0, ROOT_HALF, n)) <= estimate
    assert abs(norm - 1.0) <= 1e-12


@pytest.mark.parametrize("c0, m, c1, n", [(0.6, 3, 0.8j, 7), (0.28 - 0.96j, 9, 1.0, 2),
                                          (0.3, 1, 0.5 + 0.2j, 30)])
def test_polar_fock_delta_matches_the_oracle(c0, m, c1, n):
    # unequal and complex amplitudes, m > 0, the terms in either order;
    # the norm check is sum |c_k|^2 whether or not that is 1
    value, estimate, norm = polar_delta(_fock_terms("wigner", (c0, c1), (m, n)))
    assert abs(value - oracles.polar_fock_delta(c0, m, c1, n)) <= min(estimate, 1e-9)
    assert abs(norm - abs(c0) ** 2 - abs(c1) ** 2) <= 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 5, 16, 40, 64])
def test_polar_fock_delta_of_one_fock_state(n):
    # a dead second term leaves |n> alone
    for amplitudes, ns in (((1.0,), (n,)), ((0.0, 1.0), (abs(n - 1), n))):
        value, estimate, norm = polar_delta(_fock_terms("wigner", amplitudes, ns))
        assert abs(value - oracles.fock_wigner_delta(n)) <= max(estimate, 1e-12)
        assert abs(norm - 1.0) <= 1e-12


def test_husimi_polar_fock_delta_is_zero():
    for n in (1, 12, 64):
        terms = _fock_terms("husimi", (0.6, 0.8j), (0, n))
        assert polar_delta(terms) == (0.0, 0.0, abs(0.6) ** 2 + abs(0.8j) ** 2)


@pytest.mark.parametrize("rep", ["wigner", "husimi"])
def test_polar_fock_pairs_match_the_closed_forms(rep):
    # (c0 |0> + c1 |n>): the diagonal pairs integrate to |c_k|^2 and the
    # cross pair to 0; its |f_01| is 2 |c0 c1| (2 / pi) 2 pi int |R_0n| rho
    c0, c1 = 0.6, 0.48 - 0.64j
    for n in (1, 12, 64):
        pairs = polar_pairs(_fock_terms(rep, (c0, c1), (0, n)))
        (a00, _, p00), (a01, e01, p01), (a11, _, p11) = pairs
        assert p01 == 0.0
        assert abs(p00 - 0.36) <= 1e-12 and abs(p11 - 0.64) <= 1e-12
        assert abs(a00 - p00) <= 1e-12  # |0>'s diagonal has one sign
        assert a11 >= p11 - 1e-12
        radial = 2.0 * math.pi * (oracles.wigner_radial_abs(0, n) if rep == "wigner"
                                  else oracles.husimi_radial_abs(0, n))
        assert abs(a01 - 4.0 / math.pi * abs(c0 * c1) * radial) <= max(e01, 1e-12)


@pytest.mark.parametrize("rep", ["wigner", "husimi"])
def test_state_and_table_routes_agree(rep):
    # one path: a state's Terms and its table give the same bits
    state = normalize(State(((0.6, fock(2)), (0.8j, fock(9)))))
    table = build_term_table(state, rep)
    delta, eta = state_indicators(state, rep)
    assert delta == delta_indicator(table)
    assert eta == eta_indicator(table)


def test_states_outside_the_class_build_their_table(monkeypatch):
    outside = {
        "rivier": (State(((1.0, fock(3)),)), "rivier"),
        "squeezed": (State(((0.6, fock(0)), (0.8, squeezed_fock(1, 0.3)))), "wigner"),
        "three-terms": (State(((0.6, fock(0)), (0.6, fock(1)), (0.2 ** 0.5, fock(2)))), "wigner"),
        "repeated-n": (squeezed_vacuum_superposition(0.5, 0.0), "wigner"),
    }
    built = []
    build = indicators.build_term_table
    monkeypatch.setattr(indicators, "build_term_table",
                        lambda *args: built.append(args[1]) or build(*args))
    for name, (state, rep) in outside.items():
        state = normalize(state)
        table = build_term_table(state, rep)
        assert polar_delta(table) is None, name
        state_indicators(state, rep, threads=2)
    assert len(built) == len(outside)
    assert state_indicators(State(((1.0, fock(3)),)), "wigner")[0].valid
    assert len(built) == len(outside)


def test_states_that_polar_covers_build_no_table(monkeypatch):
    # two-mode states whose delta is polar, in Wigner and Husimi, and a
    # three-term Husimi state (its delta is 0): no table, every result valid
    def refuse(*args):
        raise AssertionError("a term table was built")
    monkeypatch.setattr(indicators, "build_term_table", refuse)
    three = normalize(State(((0.6, fock(0), fock(1)), (0.6, fock(1), fock(0)),
                             (math.sqrt(0.28), fock(2), fock(0)))))
    covered = [(entangled_state(0, 1, 0.5), rep) for rep in ("wigner", "husimi")]
    covered += [(entangled_state(1, 2, 0.5), rep) for rep in ("wigner", "husimi")]
    for state, rep in covered + [(three, "husimi")]:
        delta, eta = state_indicators(state, rep, threads=2)
        assert delta.valid and eta.valid, (state, rep)
    # the three-term Wigner state's delta is on the grid, so it builds its
    # table; its eta is still polar_pairs', to the bit
    monkeypatch.undo()
    built = []
    monkeypatch.setattr(indicators, "build_term_table",
                        lambda *args: built.append(args[1]) or build_term_table(*args))
    eta = state_indicators(three, "wigner")[1]
    assert built == [Representation.WIGNER]
    pairs = polar_pairs(build_term_table(three, "wigner"))
    assert eta.value == indicators._eta(pairs, [1.0] * len(pairs))[0]
