import cmath
import functools
import json
import math
import operator
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from psnci.errors import DomainError, GridCoverageError
from psnci import phasespace
from psnci.grids import Axis, ModeAxes, PhaseGrid
from psnci.phasespace import (
    Representation,
    TermTable,
    _build_cross_maps,
    _coherent_amplitude_grid,
    _husimi_pair_grid,
    _kirkwood_pair_grid,
    _mirror,
    _mode_phase,
    _Nodes,
    _ordered_entry,
    _pair_grid,
    _wigner_numeric_grid,
    build_term_table,
    cross_wigner_fock_closed,
    default_grid,
)
from psnci.states import (
    State,
    entangled_state,
    fock,
    fock_psi,
    normalize,
    squeezed_excited_superposition,
    squeezed_fock,
    squeezed_vacuum_superposition,
)
from psnci.indicators import delta_indicator, eta_indicator, sweep_r

import oracles

RNG = np.random.default_rng(20240809)
ORIGIN = np.zeros(1)


def _sample_points(n=20, span=2.5):
    return RNG.uniform(-span, span, size=(n, 2))


def _uniform(n, span):
    """n uniform nodes between two random ends in [-span, span]."""
    lo, hi = np.sort(RNG.uniform(-span, span, size=2))
    return np.linspace(lo, hi, n)


def _sample_axes(n=20, span=2.5):
    """Random uniform q and p axes; the grid evaluators return the
    len(q) x len(p) grid, and those with a phase table need uniform q."""
    return _uniform(n, span), _uniform(n, span)


def _axes(q, p):
    """Uniform q nodes and any p nodes as the mode an evaluator takes: the
    phase tables read the spacing of q alone (one node has none to state,
    and any serves)."""
    delta = (q[-1] - q[0]) / (len(q) - 1) if len(q) > 1 else 1.0
    assert np.allclose(np.diff(q), delta, rtol=1e-9, atol=0.0)
    return ModeAxes(_Nodes(q, delta), _Nodes(p, math.nan))


def _amplitude(prim, q, p):
    """<alpha|prim> on the len(q) x len(p) grid of uniform q nodes."""
    return _coherent_amplitude_grid(prim, _axes(q, p))


def _kirkwood(prim_i, prim_j, q, p):
    return _kirkwood_pair_grid(prim_i, prim_j, q, p, _mode_phase({}, _axes(q, p)))


def _husimi(prim_i, prim_j, q, p):
    """Husimi cross term on the len(q) x len(p) grid, paired as _pair_grid does."""
    amp_i = _amplitude(prim_i, q, p)
    amp_j = amp_i if prim_j == prim_i else _amplitude(prim_j, q, p)
    return _husimi_pair_grid(amp_i, amp_j)


# ---------------------------------------------------------------------------
# Wigner kernel and closed forms
# ---------------------------------------------------------------------------

def test_vacuum_wigner_peak():
    val = _wigner_numeric_grid(fock(0), fock(0), ORIGIN, ORIGIN)[0, 0]
    assert_allclose(val, 1.0 / math.pi, atol=1e-12)


def test_fock1_wigner_matches_analytic_factor():
    q, p = _sample_axes()
    got = _wigner_numeric_grid(fock(1), fock(1), q, p)
    u = q[:, None] ** 2 + p[None, :] ** 2
    ref = (2.0 / math.pi) * (u - 0.5) * np.exp(-u)
    assert np.max(np.abs(got - ref)) < 1e-8


def test_closed_form_origin_parity():
    for n in range(6):
        assert_allclose(cross_wigner_fock_closed(n, n, 0.0, 0.0),
                        (-1.0) ** n / math.pi, atol=1e-14)


# |q|, |p| up to 1e4 in both signs, with 8 e^5, the q reach of a default
# grid of |64, r = 5> scaled by e^r for the closed form
FAR_AXIS = np.array([0.0, 0.5, 3.0, 12.0, 27.0, 40.0, 8.0 * math.exp(5.0), 1e4])
FAR_AXIS = np.concatenate([-FAR_AXIS[::-1], FAR_AXIS[1:]])


@pytest.mark.parametrize("m", [0, 1, 2, 31, 63, 64])
@pytest.mark.parametrize("n", [0, 1, 40, 64])
def test_closed_form_is_finite_far_out(m, n):
    # e^(-u) L_n^k(2u) starts its recurrence from e^(-u), so far out it
    # underflows to 0 where L alone overflowed: (64, 64) at q = 8 e^5 was
    # inf * 0 = nan with overflow warnings. |W_mn| <= 1/pi everywhere.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cross_wigner_fock_closed(m, n, FAR_AXIS[:, None], FAR_AXIS[None, :])
        assert cross_wigner_fock_closed(m, n, 8.0 * math.exp(5.0), 0.0) == 0.0
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got)) <= 1.0 / math.pi


def test_closed_form_01_structure():
    pts = _sample_points()
    got = cross_wigner_fock_closed(0, 1, pts[:, 0], pts[:, 1])
    u = pts[:, 0] ** 2 + pts[:, 1] ** 2
    ref = math.sqrt(2.0) / math.pi * (pts[:, 0] + 1j * pts[:, 1]) * np.exp(-u)
    assert np.max(np.abs(got - ref)) < 1e-13


@pytest.mark.parametrize("make_state", [
    lambda: squeezed_vacuum_superposition(0.5, 1.0),
    lambda: squeezed_excited_superposition(0.7, 2.0),
], ids=["psi00r", "psi01r"])
@pytest.mark.parametrize("rep", ["wigner"])
def test_production_node_rules_are_converged(monkeypatch, rep, make_state):
    # Doubling the node count of the Wigner kernel quadrature must not move
    # any pair grid on the default grid.
    rep = Representation.parse(rep)
    state = make_state()
    mode = default_grid(state).mode(0)
    prims = state.mode_primitives(0)

    def pair_grids():
        cache = {}
        return [_pair_grid(rep, prims[i], prims[j], mode, cache)
                for i in range(len(prims)) for j in range(len(prims))]

    base = pair_grids()
    rule = phasespace._kernel_sampling

    def doubled(*args):
        half_width, nodes = rule(*args)
        return half_width, 2 * nodes

    monkeypatch.setattr(phasespace, "_kernel_sampling", doubled)
    for coarse, fine in zip(base, pair_grids()):
        assert np.max(np.abs(fine - coarse)) < 1e-12


def test_closed_vs_numeric_cross():
    val_c = cross_wigner_fock_closed(0, 2, 0.0, 0.0)
    val_n = _wigner_numeric_grid(fock(0), fock(2), ORIGIN, ORIGIN)[0, 0]
    assert abs(val_c - val_n) < 1e-8

    worst = 0.0
    for m in range(5):
        for n in range(m, 5):
            q, p = _sample_axes(4, span=3.0)
            closed = cross_wigner_fock_closed(m, n, q[:, None], p[None, :])
            numeric = _wigner_numeric_grid(fock(m), fock(n), q, p)
            worst = max(worst, float(np.max(np.abs(closed - numeric))))
    assert worst < 1e-8


def test_squeezed_vacuum_wigner_is_scaled_gaussian():
    # diagonal Wigner of |0, r> must be exp(-e^{2r} q^2 - e^{-2r} p^2) / pi
    r = 1.0
    q, p = _sample_axes(15, span=1.5)
    got = _wigner_numeric_grid(squeezed_fock(0, r), squeezed_fock(0, r), q, p)
    ref = np.exp(-math.exp(2 * r) * q[:, None] ** 2
                 - math.exp(-2 * r) * p[None, :] ** 2) / math.pi
    assert np.max(np.abs(got - ref)) < 1e-8


def test_vacuum_squeezed_cross_matches_reference():
    # paired real combination against the hand-derived Gaussian form
    r = 0.8
    q, p = _sample_axes(20, span=2.0)
    w12 = _wigner_numeric_grid(fock(0), squeezed_fock(0, r), q, p)
    combined = 2.0 * np.real(w12)
    ref = oracles.squeezed_vacuum_cross_reference(q[:, None], p[None, :], r)
    assert np.max(np.abs(combined - ref)) < 1e-6


def test_squeezing_covariance():
    # W of |n, r> at (q, p) equals W of |n> at (e^r q, e^-r p)
    q, p = _sample_axes(10, span=1.8)
    for n in (1, 2):
        for r in (0.5, -0.6):
            sq = _wigner_numeric_grid(squeezed_fock(n, r), squeezed_fock(n, r), q, p)
            ref = cross_wigner_fock_closed(n, n, math.exp(r) * q[:, None],
                                           math.exp(-r) * p[None, :])
            assert np.max(np.abs(sq - ref)) < 1e-8


# ---------------------------------------------------------------------------
# Husimi
# ---------------------------------------------------------------------------

def test_husimi_vacuum_peak():
    assert_allclose(_husimi(fock(0), fock(0), ORIGIN, ORIGIN)[0, 0], 1.0 / math.pi,
                    atol=1e-14)


def test_husimi_diagonal_form_and_positivity():
    q, p = _sample_axes(25, span=3.0)
    for n in (0, 1, 3):
        got = _husimi(fock(n), fock(n), q, p)
        u = q[:, None] ** 2 + p[None, :] ** 2
        ref = np.exp(-u) * u**n / (math.pi * math.factorial(n))
        assert np.max(np.abs(got - ref)) < 1e-13
        assert np.min(got.real) >= 0.0


def test_husimi_diag_normalization():
    grid = oracles.single_grid()
    for n in (0, 2):
        st = State(((1.0, fock(n)),))
        table = build_term_table(st, "husimi", grid)
        assert_allclose(table.total_integral(), 1.0, atol=1e-6)


def test_husimi_pair_grid_is_the_quotient_by_pi():
    # the pair grid multiplies by 1 / pi; numpy's division by the complex
    # pi + 0j gives the same bits, so Fock-only Husimi tables stay as they were
    amp_i, amp_j = ((RNG.standard_normal((40, 50)) + 1j * RNG.standard_normal((40, 50)))
                    * np.exp(RNG.uniform(-60.0, 2.0, (40, 50))) for _ in range(2))
    for a, b in ((amp_i, amp_j), (amp_i, amp_i)):
        want = a * np.conj(b) / math.pi
        if a is b:
            want.imag = 0.0
        assert np.array_equal(_husimi_pair_grid(a, b).view(np.uint64), want.view(np.uint64))


def test_husimi_self_pairs_are_real():
    # A pair of a primitive with itself, also across two terms that share
    # it, is |<alpha|prim>|^2 / pi: its imaginary part is exactly zero.
    state = normalize(State((
        (0.6 + 0.2j, fock(0), fock(1)),
        (0.5j, squeezed_fock(0, 0.5), fock(1)),
        (0.55 - 0.1j, fock(1), fock(0)),
    )))
    grid = oracles.two_mode_grid(points=21)
    table = build_term_table(state, "husimi", grid)
    q = grid.mode(0).q.centers
    p = grid.mode(0).p.centers
    self_pairs = 0
    for mode in range(2):
        prims = state.mode_primitives(mode)
        for (k, l), g in table.stored_factors(mode).items():
            if prims[k] == prims[l]:
                self_pairs += 1
                assert not np.any(g.imag)
                amp = _amplitude(prims[k], q, p)
                assert_allclose(g.real, np.abs(amp) ** 2 / math.pi, rtol=0, atol=1e-14)
    assert self_pairs == 7


def test_husimi_quadrature_path_matches_closed_fock():
    # a squeezed primitive with r = 0 goes through the squeezed closed form
    # and its recurrence; it must agree with the closed Fock route
    q, p = _sample_axes(12, span=2.0)
    for n in (0, 1):
        closed = _husimi(fock(n), fock(n), q, p)
        quad = _husimi(squeezed_fock(n, 0.0), squeezed_fock(n, 0.0), q, p)
        assert np.max(np.abs(closed - quad)) < 1e-10
    mixed_c = _husimi(fock(0), fock(1), q, p)
    mixed_q = _husimi(squeezed_fock(0, 0.0), squeezed_fock(1, 0.0), q, p)
    assert np.max(np.abs(mixed_c - mixed_q)) < 1e-10


# ---------------------------------------------------------------------------
# Rivier / Kirkwood
# ---------------------------------------------------------------------------

def test_kirkwood_vacuum_form():
    val = _kirkwood(fock(0), fock(0), ORIGIN, ORIGIN)[0, 0]
    assert_allclose(val, (2 * math.pi) ** -0.5 * math.pi ** -0.5, atol=1e-14)
    q, p = _sample_axes(15)
    got = np.real(_kirkwood(fock(0), fock(0), q, p))
    ref = ((2 * math.pi) ** -0.5 * fock_psi(0, q)[:, None] * fock_psi(0, p)[None, :]
           * np.cos(q[:, None] * p[None, :]))
    assert np.max(np.abs(got - ref)) < 1e-13


SQUEEZED_PRIMS = [squeezed_fock(0, 1.0), squeezed_fock(1, -0.5), squeezed_fock(2, 2.0)]
EPS = np.finfo(float).eps


def _phase_bound(q, p):
    """The stated bound on a factored phase table entry's error, per
    column: 4 eps (1 + max|q| |p|). Against an extended-precision
    e^(-iqp) the measured worst is 1.7 eps (1 + max|q| |p|), 1.1e-13 at
    |qp| ~ 370."""
    return 4.0 * EPS * (1.0 + np.max(np.abs(q)) * np.abs(p)[None, :])


@pytest.mark.parametrize("prim_j", [fock(0), fock(3)] + SQUEEZED_PRIMS)
@pytest.mark.parametrize("prim_i", [fock(1), squeezed_fock(1, 0.7)])
def test_shared_phase_kirkwood_is_the_direct_formula(prim_i, prim_j):
    # the kernel's e^(-iqp) comes from the factored phase table, the
    # oracle's from np.exp: each within the phase bound of the exact one
    q = _uniform(23, 4.0)
    p = RNG.uniform(-4.0, 4.0, size=31)
    direct = oracles.kirkwood_direct(prim_i, prim_j, q, p)
    got = _kirkwood(prim_i, prim_j, q, p)
    assert np.all(np.abs(got - direct) <= 2.0 * _phase_bound(q, p) * np.abs(direct))


def test_mode_phase_is_computed_once_per_mode():
    state = squeezed_excited_superposition(0.6, 1.0)
    mode = default_grid(state).mode(0)
    prims = state.mode_primitives(0)
    cache = {}
    first = _pair_grid(Representation.RIVIER, prims[0], prims[1], mode, cache)
    phase = cache["phase"]
    _pair_grid(Representation.RIVIER, prims[1], prims[0], mode, cache)
    _pair_grid(Representation.HUSIMI, prims[1], prims[1], mode, cache)
    assert cache["phase"] is phase
    q, p = mode.q.centers, mode.p.centers
    direct = oracles.kirkwood_direct(prims[0], prims[1], q, p)
    assert np.all(np.abs(first - direct) <= 2.0 * _phase_bound(q, p) * np.abs(direct))
    # Husimi pairs never need the e^(-iqp) grid: a squeezed amplitude takes
    # its own e^(i tanh(r) qp)
    husimi_cache = {}
    _pair_grid(Representation.HUSIMI, fock(0), squeezed_fock(2, 0.5), mode, husimi_cache)
    assert "phase" not in husimi_cache


def test_mode_phase_matches_extended_precision():
    # e^(-iqp) from two small exp tables, against the phase of the same
    # float nodes in 30-digit mpmath, at 3000 random entries of the grid
    import mpmath

    q = np.linspace(-19.5, 18.7, 200)
    p = RNG.uniform(-20.0, 20.0, size=300)
    phase = _mode_phase({}, _axes(q, p))
    bound = _phase_bound(q, p)
    with mpmath.workdps(30):
        for i, j in zip(RNG.integers(0, len(q), 3000), RNG.integers(0, len(p), 3000)):
            exact = complex(mpmath.expj(-mpmath.mpf(q[i]) * mpmath.mpf(p[j])))
            assert abs(phase[i, j] - exact) <= bound[0, j]


@pytest.fixture(params=[0, 1], ids=["even_nodes", "odd_nodes"])
def node_parity(request, monkeypatch):
    """Force the node count of the kernel quadrature to one parity."""
    rule = phasespace._kernel_sampling

    def forced(*args):
        half_width, nodes = rule(*args)
        return half_width, nodes // 2 * 2 + request.param

    monkeypatch.setattr(phasespace, "_kernel_sampling", forced)
    return request.param


# n_i + n_j even and odd, r < 0 and r > 0
FOLD_WIGNER_PAIRS = [
    (fock(0), squeezed_fock(1, 0.8)),
    (squeezed_fock(1, -0.6), fock(1)),
    (squeezed_fock(2, 0.5), squeezed_fock(0, -0.3)),
    (squeezed_fock(3, -1.0), fock(0)),
]


@pytest.mark.parametrize("prim_i, prim_j", FOLD_WIGNER_PAIRS)
def test_folded_wigner_kernel_matches_whole_node_sum(node_parity, prim_i, prim_j):
    q = RNG.uniform(-4.0, 4.0, size=17)
    p = RNG.uniform(-4.0, 4.0, size=29)
    got = _wigner_numeric_grid(prim_i, prim_j, q, p)
    assert np.max(np.abs(got - oracles.wigner_kernel_direct(prim_i, prim_j, q, p))) <= 2e-15


def _squeezed_amplitude_error(prim, iq, ip):
    """|production - mpmath| at the node (iq, ip) of the default grid's
    quadrant of |prim>, and the stated bound there, relative to the peak
    of the production amplitude over that quadrant (every k-th node, at
    most 64 x 64 of them). Production runs on the 9 q nodes that end at
    iq, so that its phase table factors (k = 3h + m)."""
    mode = default_grid(State(((1.0, prim),))).mode(0)
    q = mode.q.centers[mode.q.n // 2:]
    p = mode.p.centers[mode.p.n // 2:]
    step_q, step_p = -(-len(q) // 64), -(-len(p) // 64)
    peak = np.max(np.abs(_coherent_amplitude_grid(prim, ModeAxes(
        _Nodes(q[::step_q], step_q * mode.q.delta), _Nodes(p[::step_p], step_p * mode.p.delta)))))
    iq = max(iq, 8)
    got = _coherent_amplitude_grid(prim, ModeAxes(_Nodes(q[iq - 8:iq + 1], mode.q.delta),
                                                  _Nodes(p[ip:ip + 1], mode.p.delta)))[-1, 0]
    want = oracles.coherent_amplitude_reference(prim, q[iq], p[ip])
    bound = peak * (1e-14 + 8.0 * EPS * abs(math.tanh(prim.r) * q[iq] * p[ip]))
    return abs(got - want), bound


@settings(max_examples=4, deadline=None)
@given(n=st.integers(0, 64), r=st.floats(-5.0, 5.0),
       where=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), edge=st.booleans())
def test_squeezed_amplitude_matches_mpmath(n, r, where, edge):
    # the closed form against the mpmath quadrature, at a node inside the
    # default grid or on its last row or column. Past 1e-14 of the peak
    # the bound grows with tanh(r) qp: one rounding of a node moves the
    # exact e^(i tanh(r) qp) by |tanh(r) qp| eps of itself, and at |r| = 5
    # the grid edge holds |qp| ~ 1000 at amplitudes near the peak.
    prim = squeezed_fock(n, r)
    mode = default_grid(State(((1.0, prim),))).mode(0)
    nq, n_p = mode.q.n - mode.q.n // 2, mode.p.n - mode.p.n // 2
    iq, ip = (int(f * (m - 1)) for f, m in zip(where, (nq, n_p)))
    if edge:
        iq, ip = (nq - 1, ip) if where[0] < 0.5 else (iq, n_p - 1)
    error, bound = _squeezed_amplitude_error(prim, iq, ip)
    assert error <= bound


# (n, r, where): the interior, where the bound is 1e-14 of the peak, and the
# corners of the widest grids
SQUEEZED_AMPLITUDE_NODES = [
    (2, -1.5, (0.3, 0.1)), (7, 0.4, (0.2, 0.4)), (64, 0.3, (0.25, 0.2)),
    (64, 5.0, (0.0, 1.0)), (64, -5.0, (1.0, 0.0)), (40, 4.99, (1.0, 1.0)),
]


@pytest.mark.parametrize("n, r, where", SQUEEZED_AMPLITUDE_NODES)
def test_squeezed_amplitude_at_fixed_nodes(n, r, where):
    prim = squeezed_fock(n, r)
    mode = default_grid(State(((1.0, prim),))).mode(0)
    sizes = (mode.q.n - mode.q.n // 2, mode.p.n - mode.p.n // 2)
    error, bound = _squeezed_amplitude_error(
        prim, *(round(f * (m - 1)) for f, m in zip(where, sizes)))
    assert error <= bound


# (n, r, iq, ip) of quadrant nodes where the amplitude read 1.04 to 4.94
# times the bound: at r = 0 through the Fock envelope
# e^(-u / 2 - ln(n!) / 2), whose argument near -95 at n = 48 cost about
# 1e-14 of the peak; at r = -5 through nodes lo + (i + 1/2) delta, each
# rounded by eps |lo| (2e-13 on an axis reaching 1039) off the
# y_0 + k dy of the phase table.
FORMER_AMPLITUDE_FAULTS = [
    (47, 0.0, 140, 47), (48, 0.0, 140, 0), (48, 0.0, 140, 47), (55, 0.0, 140, 47),
    (57, 0.0, 0, 140), (0, -5.0, 20, 12), (2, -5.0, 20, 12), (10, -5.0, 8, 20),
    (30, -5.0, 20, 12), (64, -5.0, 20, 12),
]


@pytest.mark.parametrize("n, r, iq, ip", FORMER_AMPLITUDE_FAULTS)
def test_squeezed_amplitude_at_former_faults(n, r, iq, ip):
    error, bound = _squeezed_amplitude_error(squeezed_fock(n, r), iq, ip)
    assert error <= bound


def test_squeezed_amplitude_beyond_the_quadrature_support():
    # |0, r=-1.5> at q = -22.4, p = 0: the coherent centre sqrt2 q = -31.68
    # lies beyond the wavefunction's support radius 31.37, where the
    # midpoint quadrature this replaced stopped; it gave 2.69e-11 here
    prim = squeezed_fock(0, -1.5)
    want = oracles.coherent_amplitude_reference(prim, -22.4, 0.0)
    got = _amplitude(prim, np.array([-22.4]), ORIGIN)[0, 0]
    assert abs(want - 3.0171413548e-11) <= 1e-20
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("r", [5.0, -5.0, 3.0, -3.0, 1.0, -1.0])
def test_coherent_reference_at_the_origin_is_sqrt_sech(r):
    # <0|0, r> = sqrt(sech r) exactly. The reference's breakpoints reach
    # twice the support radius: out to the radius only, it lost 2.6e-12 of
    # the value at r = 5
    want = math.cosh(r) ** -0.5
    got = oracles.coherent_amplitude_reference(squeezed_fock(0, r), 0.0, 0.0)
    assert abs(got - want) <= 1e-15 * want


@pytest.mark.parametrize("r", [-5.0, -4.999, 4.999, 5.0])
def test_squeezed_amplitude_does_not_overflow(r):
    # |<alpha|n, r>| <= 1; far out the envelope underflows to 0 before the
    # recurrence can reach inf
    far = [0.0, 1e2, 1e4, 1e6, 1e8, 1e10]
    amp = np.array([[_amplitude(squeezed_fock(64, r), np.array([q]), np.array([p]))[0, 0]
                     for p in far] for q in far])
    assert np.all(np.isfinite(amp))
    assert np.all(np.abs(amp) <= 1.0)
    assert np.all(amp[3:, :] == 0.0) and np.all(amp[:, 3:] == 0.0)


# Primitive pairs with n_i + n_j odd and even, equal squeezing (the closed
# Wigner form) and unequal squeezing (the kernel quadrature), r < 0 and r > 0.
QUADRANT_PRIMS = [
    (fock(0), fock(1)),
    (fock(1), fock(3)),
    (squeezed_fock(1, 0.6), squeezed_fock(2, 0.6)),
    (squeezed_fock(0, -0.5), squeezed_fock(2, -0.5)),
    (squeezed_fock(0, -0.5), fock(2)),
    (squeezed_fock(1, 0.8), squeezed_fock(0, -0.4)),
]
# Unequal q and p axes, odd as every phase-space axis is, of both residues
# mod 4: the even-index nodes of an n = 3 (mod 4) axis miss the origin.
QUADRANT_MODES = {
    "33-35": ModeAxes(Axis(-5.0, 5.0, 33), Axis(-6.0, 6.0, 35)),
    "35-33": ModeAxes(Axis(-5.0, 5.0, 35), Axis(-6.0, 6.0, 33)),
}


@pytest.mark.parametrize("mode", QUADRANT_MODES.values(), ids=QUADRANT_MODES.keys())
@pytest.mark.parametrize("prims", QUADRANT_PRIMS)
@pytest.mark.parametrize("rep", list(Representation))
def test_quadrant_build_is_the_whole_axis_evaluation(rep, prims, mode):
    # the mirrored nodes are the negations of evaluated ones, which are the
    # axis's own nodes (test_axis_nodes_are_symmetric_and_rounded_once)
    cross, signs, ints, turns = _build_cross_maps(rep, prims, mode)
    for (i, j), quadrant in cross.items():
        grid = _mirror(quadrant, mode, signs[(i, j)])
        whole = _pair_grid(rep, prims[i], prims[j], mode, {})
        assert np.max(np.abs(grid - whole)) <= 1e-13 * np.max(np.abs(whole))
        # the integral is a folded sum over the quadrant, in its own order
        assert (abs(ints[(i, j)] - complex(np.sum(grid)) * mode.cell_area)
                <= 1e-14 * np.sum(np.abs(grid)) * mode.cell_area)


# Pair boxes across the advertised range: every pair of photon numbers at
# each squeezing, and mixed squeezings (the Wigner kernel quadrature).
BOX_NS = (0, 1, 5, 30, 64)
BOX_SQUEEZINGS = (0.0, 0.5, -0.5, 2.0, -2.0, 5.0, -5.0)
BOX_MIXED = ((0.0, 0.5), (-0.5, 2.0), (0.5, -2.0), (-5.0, -2.0), (2.0, 5.0))
BOX_PAIRS = {
    **{f"r={r:g}": [(squeezed_fock(m, r), squeezed_fock(n, r))
                    for m in BOX_NS for n in BOX_NS if m <= n] for r in BOX_SQUEEZINGS},
    **{f"r={a:g},{b:g}": [(squeezed_fock(m, a), squeezed_fock(n, b))
                          for m in BOX_NS for n in (0, 5, 64)] for a, b in BOX_MIXED},
}


def _box_reach(rep, prim_i, prim_j):
    """q and p past which every stored pair of (prim_i, prim_j) is cut."""
    if rep is Representation.RIVIER:
        return [max(a, b) for a, b in zip(phasespace._radii(prim_i), phasespace._radii(prim_j))]
    return phasespace._reach(rep, prim_i, prim_j)


def _kernel_floor(rep, prim_i, prim_j, p_max):
    """The kernel quadrature's own rounding, which two evaluations on
    different boxes need not share: a few eps (1 + 2 max|y| max|p|) / pi,
    its e^(2iyp) times int |psi_i psi_j| <= 1. 0 for other evaluators."""
    if rep is not Representation.WIGNER or prim_i.r == prim_j.r:
        return 0.0
    half_width = phasespace._kernel_sampling(prim_i, prim_j, p_max)[0]
    return 2.0 * EPS * (1.0 + 2.0 * half_width * p_max) / math.pi


@pytest.mark.parametrize("pairs", BOX_PAIRS.values(), ids=BOX_PAIRS.keys())
@pytest.mark.parametrize("rep", list(Representation))
def test_pair_boxes_cut_only_negligible_entries(rep, pairs):
    # the whole quadrant, by the same evaluator, on axes of 81 x 79 nodes
    # that reach 1.3 times past the box rule: past the box within _BOX_EPS
    # of the pair's peak, inside it the boxed values to 1e-13 of the peak,
    # each up to the kernel quadrature's rounding (_kernel_floor)
    if rep is Representation.WIGNER and pairs[0][0].r != pairs[0][1].r:
        pairs = pairs[::3]  # the kernel quadrature is the slow evaluator
    for prim_i, prim_j in pairs:
        q_reach, p_reach = (1.3 * x for x in _box_reach(rep, prim_i, prim_j))
        mode = ModeAxes(Axis(-q_reach, q_reach, 81), Axis(-p_reach, p_reach, 79))
        half = ModeAxes(_Nodes(mode.q.centers[40:], mode.q.delta),
                        _Nodes(mode.p.centers[39:], mode.p.delta))
        cross = _build_cross_maps(rep, (prim_i, prim_j), mode)[0]
        prims = (prim_i, prim_j)
        for i, j in [(0, 1), (1, 0)] if rep is Representation.RIVIER else [(0, 1)]:
            whole = _pair_grid(rep, prims[i], prims[j], half, {})
            box = cross[(i, j)]
            nq, n_p = box.shape
            peak = np.max(np.abs(whole))
            floor = _kernel_floor(rep, prims[i], prims[j], half.p.centers[-1])
            # the Kirkwood e^(-iqp) of either evaluation is within 4 eps
            # (1 + max|q| max|p|) of the exact one (_phase_bound)
            phase = (8.0 * EPS * (1.0 + half.q.centers[-1] * half.p.centers[-1]) * peak
                     if rep is Representation.RIVIER else 0.0)
            assert np.max(np.abs(whole[:nq, :n_p] - box)) <= 1e-13 * peak + floor + phase
            past = np.abs(whole)
            past[:nq, :n_p] = 0.0
            assert np.max(past) <= phasespace._BOX_EPS * peak * (1.0 + 1e-12) + floor, \
                (prims[i], prims[j])


def test_strict_radii_hold_for_every_photon_number():
    # past the radius |psi_n| stays at or below _RADIUS_EPS of its peak
    for n in range(65):
        x = np.linspace(0.0, math.sqrt(2.0 * n + 1.0) + 12.0, 4001)
        peak = np.max(np.abs(fock_psi(n, x)))
        radius = phasespace._radii(fock(n))[0]
        past = np.abs(fock_psi(n, radius + np.linspace(0.0, 10.0, 2001)))
        assert radius > math.sqrt(2.0 * n + 1.0)
        assert np.max(past) <= phasespace._RADIUS_EPS * peak


def test_asymmetric_axis_is_rejected():
    # a table stores one quadrant and folds its sums over the mirrors, which
    # map the nodes of an axis onto its nodes only if lo == -hi
    with pytest.raises(DomainError):
        Axis(-4.0, 6.5, 30)


@pytest.mark.parametrize("hi, n", [(6.0, 121), (6.0, 20), (5.0, 33), (0.3, 16),
                                   (7.0 * math.exp(5.0), round(281 * math.exp(5.0)))])
def test_axis_nodes_are_symmetric_and_rounded_once(hi, n):
    # node k is (k - (n - 1) / 2) delta rounded once: the negations of the
    # nodes are nodes, an odd axis's centre is 0, and any run of nodes is
    # y_0 + k delta to a rounding of each, as _phase_table takes it. The
    # former lo + (k + 1/2) delta put nodes near 0 eps |lo| off, 2e-13 on
    # the last axis, the q axis of a default grid at r = -5
    axis = Axis(-hi, hi, n)
    y = axis.centers
    assert np.array_equal(y, -y[::-1])
    assert n % 2 == 0 or y[n // 2] == 0.0
    for k in range(0, n, -(-n // 400)):
        exact = Fraction(2 * k - n + 1, 2) * Fraction(axis.delta)
        assert abs(Fraction(y[k]) - exact) <= Fraction(np.spacing(abs(y[k]))) / 2


def test_axis_takes_numpy_integer_point_counts():
    axis = Axis(-6.0, 6.0, np.int64(41))
    assert axis == Axis(-6.0, 6.0, 41) and type(axis.n) is int
    assert json.dumps(PhaseGrid((ModeAxes(axis, axis),)).describe())
    with pytest.raises(DomainError, match="must be an integer, got 41.0"):
        Axis(-6.0, 6.0, 41.0)
    with pytest.raises(DomainError, match="at least 16 points, got 15"):
        Axis(-6.0, 6.0, np.int32(15))


FOLD_MODES = {**QUADRANT_MODES, "default": default_grid(State(((1.0, fock(0)),))).mode(0)}


@pytest.mark.parametrize("amplitudes", [(0.8, 0.6), (0.6 + 0.3j, 0.5 - 0.4j),
                                        tuple(c * cmath.exp(1j) for c in (0.8, 0.6))],
                         ids=["real", "complex", "common-phase"])
@pytest.mark.parametrize("mode", FOLD_MODES.values(), ids=FOLD_MODES.keys())
@pytest.mark.parametrize("prims", QUADRANT_PRIMS)
@pytest.mark.parametrize("rep", list(Representation))
def test_folded_sums_equal_whole_grid_sums(rep, prims, mode, amplitudes):
    # complex amplitudes are the only inputs whose |f| differs between a
    # node and its T image; the common phase leaves Im c_0 conj(c_1) at
    # 2.8e-17, and the fold takes it as real. The tables need not be
    # normalized here
    cross, signs, ints, turns = _build_cross_maps(rep, prims, mode)
    table = TermTable(rep, PhaseGrid((mode,)), amplitudes, [(cross, signs, ints, turns)],
                      (prims,))
    for key, quadrant in cross.items():
        grid = _mirror(quadrant, mode, signs[key])
        assert (abs(ints[key] - np.sum(grid) * mode.cell_area)
                <= 1e-14 * np.sum(np.abs(grid)) * mode.cell_area)
    # the whole table mixes the parities of its pairs where n_i + n_j is odd
    cases = [([key], table.values([key])) for key in table.pair_keys()]
    for keys, values in cases + [(None, table.values())]:
        value, estimate = table.abs_with_estimate(keys)
        want, want_estimate = oracles.integral_with_estimate(np.abs(values), mode)
        assert abs(value - want) <= 1e-13 * want
        assert abs(estimate - want_estimate) <= 1e-13 * want


@pytest.mark.parametrize("n", [17, 19, 281])
def test_axis_folds_are_kept_read_only(n):
    fold = phasespace._axis_fold(n)
    assert phasespace._axis_fold(n) is fold
    assert np.array_equal(fold, phasespace._axis_fold.__wrapped__(n))
    with pytest.raises(ValueError):
        fold[0, 0] = 2.0


def _count_mirrors(monkeypatch) -> list:
    """List that records the id of every quadrant _mirror fills in."""
    mirrored = []
    mirror = phasespace._mirror

    def counted(quadrant, mode, sign):
        mirrored.append(id(quadrant))
        return mirror(quadrant, mode, sign)

    monkeypatch.setattr(phasespace, "_mirror", counted)
    return mirrored


@pytest.mark.parametrize("rep", list(Representation))
def test_sweep_r_never_mirrors(monkeypatch, rep):
    mirrored = _count_mirrors(monkeypatch)
    for family in ("psi00r", "psi01r"):
        sweep_r(family, [0.0, 1.0], [0.3, 0.7], rep)
    assert mirrored == []


@pytest.mark.parametrize("rep", list(Representation))
def test_single_mode_indicators_never_mirror(monkeypatch, rep):
    # mixed parities and complex amplitudes: |f| differs at all four images
    state = normalize(State(((0.6 + 0.3j, fock(0)), (0.5 - 0.4j, fock(1)),
                             (0.4, squeezed_fock(2, 0.5)))))
    table = build_term_table(state, rep)
    mirrored = _count_mirrors(monkeypatch)
    delta_indicator(table)
    eta_indicator(table)
    assert mirrored == []


@pytest.mark.parametrize("rep", list(Representation))
def test_two_mode_table_mirrors_each_grid_once(monkeypatch, rep):
    mirrored = _count_mirrors(monkeypatch)
    axes = ModeAxes(Axis(-6.0, 6.0, 41), Axis(-6.0, 6.0, 41))
    table = build_term_table(entangled_state(0, 1, 0.5), rep, PhaseGrid((axes, axes)))
    for a_sq in (0.0, 0.3):
        row = table.with_amplitudes((math.sqrt(a_sq), math.sqrt(1.0 - a_sq)))
        delta_indicator(row)
        eta_indicator(row)
    stored = sum(len(table._cross[m]) for m in range(2))
    # Wigner and Husimi integrate this all-Fock table's pairs in polar form
    expected = stored if rep is Representation.RIVIER else 0
    assert len(mirrored) == len(set(mirrored)) == expected
    # the factorized diagonal folds over the quadrants
    if rep.hermitian_pairs:
        d1, d2 = (table.stored_factors(m)[(0, 0)] for m in range(2))
        a, ea = oracles.integral_with_estimate(np.abs(d1.real), axes)
        b, eb = oracles.integral_with_estimate(np.abs(d2.real), axes)
        value, estimate = table.abs_with_estimate([(0, 0)])
        scale = abs(table.amplitudes[0]) ** 2
        assert value == pytest.approx(scale * a * b, rel=1e-13)
        assert abs(estimate - scale * (ea * b + a * eb)) <= 1e-13 * value


@pytest.mark.parametrize("rep", list(Representation))
def test_two_mode_table_holds_only_its_quadrants(rep):
    # the whole grids a factor basis is built from are dropped with it:
    # every stored grid stays the quadrant array it was built as
    axes = ModeAxes(Axis(-6.0, 6.0, 41), Axis(-6.0, 6.0, 39))
    state = State(((0.6, squeezed_fock(1, 0.3), fock(2)), (0.8j, fock(0), fock(1))))
    table = build_term_table(normalize(state), rep, PhaseGrid((axes, axes)))
    built = [dict(stored) for stored in table._cross]
    delta_indicator(table)
    eta_indicator(table)
    for stored, before in zip(table._cross, built):
        assert stored.keys() == before.keys()
        for key, d in stored.items():
            assert d is before[key]
            assert d.shape == (21, 20)
            assert d.base is None


@pytest.mark.parametrize("rep", ["husimi", "rivier"])
def test_table_builds_its_phase_grid_once_on_the_quadrant(monkeypatch, rep):
    built = []
    mode_phase = phasespace._mode_phase

    def counted(mode_cache, mode):
        if "phase" not in mode_cache:
            built.append((mode.q.n, mode.p.n))
        return mode_phase(mode_cache, mode)

    monkeypatch.setattr(phasespace, "_mode_phase", counted)
    state = squeezed_excited_superposition(0.6, 1.0)
    mode = default_grid(state).mode(0)
    build_term_table(state, rep)
    # Husimi amplitudes take their own e^(i tanh(r) qp), so only Rivier
    # builds the e^(-iqp) grid
    assert built == ([(mode.q.n - mode.q.n // 2, mode.p.n - mode.p.n // 2)]
                     if rep == "rivier" else [])


@pytest.mark.parametrize("rep", ["wigner", "husimi", "rivier"])
def test_values_is_the_hermitian_sum(rep):
    # the hermitian shortcut 2 Re(gamma D_ij) must equal the full pairing
    state = normalize(State(((0.6 + 0.3j, fock(1)),
                                       (0.5 - 0.4j, squeezed_fock(0, 0.8)))))
    table = build_term_table(state, rep)
    c = table.amplitudes
    whole = table.stored_factors(0)

    for i, j in table.pair_keys():
        gamma = c[i] * np.conj(c[j])
        ref = (gamma * _ordered_entry(whole, i, j)
               + np.conj(gamma) * _ordered_entry(whole, j, i)).real
        if i == j:
            ref = (abs(c[i]) ** 2) * whole[(i, i)].real
        assert np.array_equal(table.values([(i, j)]), ref)
    assert np.array_equal(table.values(), functools.reduce(
        operator.add, (table.values([key]) for key in table.pair_keys())))


@pytest.mark.parametrize("prim", [fock(0), fock(1), squeezed_fock(0, 1.0),
                                  squeezed_fock(2, -0.5)])
def test_kirkwood_diagonal_normalization(prim):
    st = State(((1.0, prim),))
    table = build_term_table(st, "rivier")
    assert_allclose(table.total_integral(), 1.0, atol=1e-6)


def test_rivier_fock1_goes_negative_on_default_grid():
    st = State(((1.0, fock(1)),))
    table = build_term_table(st, "rivier")
    assert float(np.min(table.values())) < -1e-4


# ---------------------------------------------------------------------------
# Term tables
# ---------------------------------------------------------------------------

def test_single_term_table_diagonal_equals_total():
    st = State(((1.0, fock(0)),))
    table = build_term_table(st, "wigner")
    assert table.pair_keys() == [(0, 0)]
    assert np.array_equal(table.values([(0, 0)]), table.values())


def test_entangled_pair_terms_match_analytic_forms():
    # mode labels swapped so the excited factor of the a^2 term sits in
    # the first mode's coordinates
    a_sq = 0.36
    a, b = math.sqrt(a_sq), math.sqrt(1 - a_sq)
    st = entangled_state(0, 1, a_sq)
    table = build_term_table(oracles.swapped(st), "wigner")
    m1, m2 = table.grid.mode(0), table.grid.mode(1)
    idx = RNG.integers(0, 121, size=(12, 4))
    for i1, j1, i2, j2 in idx:
        q1, p1 = m1.q.centers[i1], m1.p.centers[j1]
        q2, p2 = m2.q.centers[i2], m2.p.centers[j2]
        gauss = math.exp(-(q1**2 + p1**2 + q2**2 + p2**2))
        want_11 = a_sq * oracles.wigner_fock_diag(1, q1, p1) \
            * oracles.wigner_fock_diag(0, q2, p2)
        want_22 = (1 - a_sq) * oracles.wigner_fock_diag(0, q1, p1) \
            * oracles.wigner_fock_diag(1, q2, p2)
        want_cross = oracles.wigner_vacuum_fock1_cross_pair(q1, p1, q2, p2, a, b)
        del gauss
        got = {key: sum(g[i1, j1] * h[i2, j2] for g, h in table.real_products([key]))
               for key in table.pair_keys()}
        assert abs(got[(0, 0)] - want_11) < 1e-8
        assert abs(got[(1, 1)] - want_22) < 1e-8
        assert abs(got[(0, 1)] - want_cross) < 1e-8


def test_swap_invariance_of_indicators():
    st = entangled_state(0, 1, 0.3)
    plain = build_term_table(st, "wigner")
    swapped = build_term_table(oracles.swapped(st), "wigner")
    d1 = delta_indicator(plain).value
    d2 = delta_indicator(swapped).value
    e1 = eta_indicator(plain).value
    e2 = eta_indicator(swapped).value
    assert abs(d1 - d2) < 1e-12
    assert abs(e1 - e2) < 1e-12


def test_squeezed_superposition_cross_term_ratio():
    # cross pair of the normalized state is the unit-amplitude reference
    # times the constant c0 * c1 (amplitudes after renormalization)
    a, r = 0.5, 1.0
    st = squeezed_vacuum_superposition(a, r)
    table = build_term_table(st, "wigner")
    c0, c1 = (c.real for c in st.amplitudes)
    mode = table.grid.mode(0)
    cross = table.values([(0, 1)])
    iq = RNG.integers(0, mode.q.n, size=30)
    ip = RNG.integers(0, mode.p.n, size=30)
    ref = oracles.squeezed_vacuum_cross_reference(
        mode.q.centers[iq], mode.p.centers[ip], r)
    got = cross[iq, ip]
    assert np.max(np.abs(got - c0 * c1 * ref)) < 1e-6
    # the ratio to the raw sqrt-convention coefficients is the inverse
    # squared norm of the unnormalized state
    raw_norm_sq = 1.0 + 2.0 * a * math.sqrt(1 - a**2) * oracles.vacuum_squeezed_overlap(r)
    assert_allclose(c0 * c1, a * math.sqrt(1 - a**2) / raw_norm_sq, rtol=1e-10)


@pytest.mark.parametrize("rep", ["wigner", "husimi", "rivier"])
@pytest.mark.parametrize("make_state", [
    lambda: State(((1.0, fock(1)),)),
    lambda: normalize(State(((0.8, fock(0)), (0.6, fock(2))))),
    lambda: squeezed_vacuum_superposition(0.5, 1.0),
    lambda: entangled_state(0, 1, 0.5),
])
def test_normalization_invariant(rep, make_state):
    st = make_state()
    table = build_term_table(st, rep)
    assert abs(table.total_integral() - 1.0) < 1e-4


def test_wigner_marginals():
    st = normalize(State(((0.8, fock(0)), (0.6, fock(2)))))
    table = build_term_table(st, "wigner")
    mode = table.grid.mode(0)
    marginal = np.sum(table.values(), axis=1) * mode.p.delta
    density = np.abs(st.wavefunction(mode.q.centers)) ** 2
    assert np.max(np.abs(marginal - density)) < 1e-4


def test_decomposition_completeness_against_direct_kernel():
    # sum of pair terms vs a kernel quadrature on the full wavefunction
    st = normalize(State(((0.8, fock(0)), (0.6, fock(2)))))
    table = build_term_table(st, "wigner")
    mode = table.grid.mode(0)
    total = table.values()
    y = np.linspace(-9, 9, 6001)
    dy = y[1] - y[0]
    for _ in range(8):
        i = int(RNG.integers(0, mode.q.n))
        j = int(RNG.integers(0, mode.p.n))
        q, p = mode.q.centers[i], mode.p.centers[j]
        f = st.wavefunction(q + y) * np.conj(st.wavefunction(q - y))
        direct = np.real(np.sum(f * np.exp(-2j * p * y)) * dy / math.pi)
        assert abs(total[i, j] - direct) < 1e-10


def test_husimi_diagonal_floor():
    st = squeezed_vacuum_superposition(0.5, 1.0)
    table = build_term_table(st, "husimi")
    for i in range(2):
        assert float(np.min(table.values([(i, i)]))) >= -1e-14


def test_grid_coverage_error():
    st = State(((1.0, fock(2)),))
    with pytest.raises(GridCoverageError, match="does not cover"):
        build_term_table(st, "wigner", oracles.single_grid(extent=2.0, points=65))


def test_unnormalized_state_rejected():
    st = State(((0.5, fock(0)),))
    with pytest.raises(GridCoverageError):
        build_term_table(st, "wigner")


def test_representation_parse():
    assert Representation.parse("wigner") is Representation.WIGNER
    assert Representation.parse(Representation.HUSIMI) is Representation.HUSIMI
    with pytest.raises(DomainError):
        Representation.parse("glauber")


def test_default_grid_autoscaling():
    st = State(((1.0, squeezed_fock(0, 2.0)),))
    grid = default_grid(st)
    mode = grid.mode(0)
    assert mode.p.hi == pytest.approx(7.0 * math.exp(2.0))
    assert mode.q.hi == pytest.approx(7.0)
    # spacing is preserved, not stretched
    assert mode.p.delta == pytest.approx(14.0 / 281, rel=0.05)
    st_neg = State(((1.0, squeezed_fock(0, -1.0)),))
    mode_neg = default_grid(st_neg).mode(0)
    assert mode_neg.q.hi == pytest.approx(7.0 * math.e)


@settings(max_examples=200, deadline=None)
@given(half=st.integers(8, 2000),
       squeezings=st.lists(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3),
                           min_size=1, max_size=2))
def test_default_grid_axes_stay_odd(half, squeezings):
    # each term k holds |k, r> in every mode, r drawn per mode; a stretched
    # axis adds an even number of nodes to an odd ``points``, the nearest
    # such count to points e^|r|, so every axis keeps a node at 0
    points = 2 * half + 1
    terms = tuple((1.0, *(squeezed_fock(k, rs[k % len(rs)]) for rs in squeezings))
                  for k in range(max(map(len, squeezings))))
    grid = default_grid(State(terms), points=points)
    extent = 7.0 if len(squeezings) == 1 else 6.0
    for mode in grid.modes:
        for axis in (mode.q, mode.p):
            assert axis.n % 2 == 1
            assert abs(axis.n - points * axis.hi / extent) <= 1.0 + 1e-9 * axis.n


@pytest.mark.parametrize("family", [squeezed_vacuum_superposition, squeezed_excited_superposition])
def test_sweep_r_grids_at_r_1_and_2(family):
    # 281 e^1 = 763.8 and 281 e^2 = 2076.3 round to the odd 763 and 2077
    for r, p_nodes in ((1.0, 763), (2.0, 2077)):
        mode = default_grid(family(0.5, r)).mode(0)
        assert (mode.q.n, mode.p.n) == (281, p_nodes)
