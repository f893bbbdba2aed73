import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from psnci import states
from psnci.errors import DegenerateStateError, DomainError, StateFormatError
from psnci.states import (
    State,
    entangled_state,
    fock,
    fock_psi,
    momentum_wavefunction,
    normalize,
    overlap,
    position_wavefunction,
    squeezed_excited_superposition,
    squeezed_fock,
    squeezed_fock_psi,
    squeezed_vacuum_superposition,
    state_from_json,
    state_norm,
    state_to_dict,
)

import oracles


def test_fock_psi_values():
    assert_allclose(fock_psi(0, 0.0), math.pi ** -0.25, rtol=1e-14)
    assert fock_psi(1, 0.0) == 0.0
    # psi_2(1) composed from H_2(1) = 2
    expected = math.pi ** -0.25 / math.sqrt(8.0) * 2.0 * math.exp(-0.5)
    assert_allclose(fock_psi(2, 1.0), expected, rtol=1e-13)


def test_fock_psi_matches_direct_composition():
    x = np.linspace(-6, 6, 101)
    for n in range(0, 12):
        assert_allclose(fock_psi(n, x), oracles.psi_n_direct(n, x),
                        rtol=1e-10, atol=1e-12)


def test_squeezed_psi_peak_and_identity():
    for r in (-1.0, 0.3, 2.0):
        assert_allclose(squeezed_fock_psi(0, r, 0.0),
                        math.exp(r / 2) * math.pi ** -0.25, rtol=1e-13)
    x = np.linspace(-7, 7, 201)
    for n in range(4):
        assert np.max(np.abs(squeezed_fock_psi(n, 0.0, x) - fock_psi(n, x))) < 1e-12


def test_squeezed_psi_domain_guard():
    with pytest.raises(DomainError):
        squeezed_fock_psi(0, 5.5, 0.0)
    with pytest.raises(DomainError):
        squeezed_fock(1, -6.0)


def test_momentum_wavefunction_fock_phase():
    p = np.linspace(-4, 4, 41)
    assert_allclose(momentum_wavefunction(fock(0), p), fock_psi(0, p), atol=1e-14)
    got = momentum_wavefunction(fock(1), 1.0)
    assert_allclose(got, -1j * fock_psi(1, 1.0), atol=1e-14)


@pytest.mark.parametrize("prim", [fock(0), fock(3), squeezed_fock(0, 1.0),
                                  squeezed_fock(1, -0.7), squeezed_fock(2, 0.5)])
def test_momentum_wavefunction_against_fourier_quadrature(prim):
    x = np.linspace(-30, 30, 12001)
    f = position_wavefunction(prim, x)
    p_samples = np.linspace(-3, 3, 10)
    ref = oracles.fourier_transform_quadrature(f, x, p_samples)
    got = momentum_wavefunction(prim, p_samples)
    assert np.max(np.abs(np.abs(got) ** 2 - np.abs(ref) ** 2)) < 1e-8
    assert np.max(np.abs(got - ref)) < 1e-8


@pytest.mark.parametrize("prim", [fock(0), fock(2), squeezed_fock(0, 1.2),
                                  squeezed_fock(1, -0.8)])
def test_parseval(prim):
    x = np.linspace(-40, 40, 16001)
    dx = x[1] - x[0]
    pos = np.sum(np.abs(position_wavefunction(prim, x)) ** 2) * dx
    mom = np.sum(np.abs(momentum_wavefunction(prim, x)) ** 2) * dx
    assert_allclose(pos, 1.0, atol=1e-8)
    assert_allclose(mom, 1.0, atol=1e-8)


def test_fock_overlap_orthonormality():
    for n in range(5):
        for m in range(5):
            s1 = State(((1.0, fock(n)),))
            s2 = State(((1.0, fock(m)),))
            got = overlap(s1, s2)
            assert_allclose(got, 1.0 if m == n else 0.0, atol=1e-9)


def test_vacuum_squeezed_overlap():
    s1 = State(((1.0, fock(0)),))
    s2 = State(((1.0, squeezed_fock(0, 1.0)),))
    assert_allclose(overlap(s1, s2), oracles.vacuum_squeezed_overlap(1.0), atol=1e-9)
    # odd squeezed state is orthogonal to the vacuum by parity
    s3 = State(((1.0, squeezed_fock(1, 0.9)),))
    assert abs(overlap(s1, s3)) < 1e-10


def test_overlap_conjugate_symmetry():
    s1 = State(((0.6 + 0.2j, fock(0)), (0.5 - 0.1j, squeezed_fock(0, 0.8))))
    s2 = State(((0.3 - 0.4j, fock(2)), (0.9j, squeezed_fock(0, -0.5))))
    assert abs(overlap(s1, s2) - np.conj(overlap(s2, s1))) < 1e-10


def _counted_overlaps(monkeypatch):
    """Record the primitive pairs passed to primitive_overlap."""
    calls = []
    quadrature = states.primitive_overlap

    def counted(u, v):
        calls.append((u, v))
        return quadrature(u, v)

    monkeypatch.setattr(states, "primitive_overlap", counted)
    return calls


@pytest.mark.parametrize("prims", [
    (fock(0), squeezed_fock(1, 0.7)),
    (fock(0), squeezed_fock(0, -0.4)),
    (fock(0), squeezed_fock(1, 1.2), squeezed_fock(2, -0.5), fock(3)),
])
def test_overlap_is_the_sum_of_its_primitive_overlaps(prims):
    # <u|v> is real and symmetric, and each pair of unequal r and equal
    # parity agrees with the reference
    single = {(u, v): overlap(State(((1.0, u),)), State(((1.0, v),))) for u in prims for v in prims}
    for (u, v), value in single.items():
        assert value == single[(v, u)] and value.imag == 0.0
        if u.r != v.r and (u.n + v.n) % 2 == 0 and u.r < v.r:
            assert abs(value - oracles.primitive_overlap_reference(u, v)) <= 1e-13
    state = State(tuple((0.5 + 0.1j * k, prim) for k, prim in enumerate(prims)))
    expected = sum(np.conj(ck) * cl * single[(u, v)] for ck, u in state.terms for cl, v in state.terms)
    assert abs(overlap(state, state) - expected) <= 1e-15


# Primitives of equal r are one squeezing of orthonormal Fock states: their
# overlap is delta_mn, taken without primitive_overlap, whose Gauss-Hermite
# sum agrees to 1e-15.
@pytest.mark.parametrize("prims", [
    (fock(0), fock(64)),
    (fock(1), fock(3), fock(5)),
    (squeezed_fock(0, 0.7), squeezed_fock(2, 0.7)),
    (squeezed_fock(1, -1.5), squeezed_fock(3, -1.5)),
    (squeezed_fock(10, 5.0), squeezed_fock(40, 5.0)),
    (fock(2), squeezed_fock(0, 0.0)),
])
def test_equal_r_overlaps_are_exact_without_quadrature(monkeypatch, prims):
    quadrature = states.primitive_overlap
    calls = _counted_overlaps(monkeypatch)
    for u in prims:
        for v in prims:
            value = overlap(State(((1.0, u),)), State(((1.0, v),)))
            assert value == (1.0 if u.n == v.n else 0.0)
            assert abs(quadrature(u, v) - value) <= 1e-15
    two_mode = State(tuple((0.6 - 0.2j * k, u, v) for k, (u, v) in enumerate(zip(prims, prims[::-1]))))
    overlap(two_mode, two_mode)
    assert calls == []


def test_opposite_parity_overlap_is_exactly_zero(monkeypatch):
    calls = _counted_overlaps(monkeypatch)
    for u, v in [(fock(0), squeezed_fock(1, 0.9)), (squeezed_fock(2, -0.5), fock(1)),
                 (squeezed_fock(3, 1.0), squeezed_fock(0, 1.0))]:
        assert overlap(State(((1.0, u),)), State(((1.0, v),))) == 0.0
    assert calls == []


PRIMITIVES = st.builds(squeezed_fock, st.integers(0, 64), st.floats(-5.0, 5.0))


# Over the advertised range the Gauss-Hermite sum is exact but for
# rounding. The examples are the highest orders and pairs whose squeezings
# lie far apart, where nodes sized to the wider primitive miss the narrower.
@settings(max_examples=5, deadline=None)
@given(PRIMITIVES, PRIMITIVES)
@example(squeezed_fock(0, -5.0), squeezed_fock(0, 5.0))
@example(squeezed_fock(0, -3.2), squeezed_fock(0, 4.0))
@example(squeezed_fock(64, 5.0), squeezed_fock(62, -5.0))
def test_primitive_overlap_matches_the_reference(u, v):
    assert abs(states.primitive_overlap(u, v) - oracles.primitive_overlap_reference(u, v)) <= 1e-13


def test_far_apart_squeezed_vacua_overlap_in_closed_form():
    # <0, r1|0, r2> = sqrt(sech(r1 - r2)), the hand-done Gaussian integral
    for r1, r2 in [(-5.0, 5.0), (-3.2, 4.0)]:
        exact = oracles.vacuum_squeezed_overlap(r1 - r2)
        got = overlap(State(((1.0, squeezed_fock(0, r1)),)), State(((1.0, squeezed_fock(0, r2)),)))
        assert abs(got - exact) <= 1e-13 * exact
    c0, c1 = normalize(State(((0.6, squeezed_fock(0, -5.0)), (0.8, squeezed_fock(0, 5.0))))).amplitudes
    norm_sq = abs(c0) ** 2 + abs(c1) ** 2 + 2.0 * (np.conj(c0) * c1).real * oracles.vacuum_squeezed_overlap(10.0)
    assert abs(norm_sq - 1.0) <= 1e-14


SWEEP_R_PRIMITIVES = {"psi00r": (squeezed_vacuum_superposition, 0),
                      "psi01r": (squeezed_excited_superposition, 1)}


@pytest.mark.parametrize("family", SWEEP_R_PRIMITIVES)
def test_sweep_r_states_have_unit_norm(family):
    # |c0|^2 + |c1|^2 + 2 Re(conj(c0) c1 <0|n, r>), with <0|0, r> in closed
    # form and <0|1, r> = 0 by parity, at sweep_r's r range and beyond
    maker, n = SWEEP_R_PRIMITIVES[family]
    for r in (0.0, 0.5, 1.0, 2.0, -3.0, 5.0):
        cross = oracles.vacuum_squeezed_overlap(r) if n == 0 else 0.0
        for a in (0.3, 0.5, 0.7):
            c0, c1 = maker(a, r).amplitudes
            norm_sq = abs(c0) ** 2 + abs(c1) ** 2 + 2.0 * (np.conj(c0) * c1).real * cross
            assert abs(norm_sq - 1.0) <= 1e-14


def _norm_of_every_ordered_pair(state):
    """The norm with every ordered term pair through primitive_overlap."""
    total = sum(np.conj(ck) * cl * states.primitive_overlap(u, v)
                for ck, u in state.terms for cl, v in state.terms)
    return math.sqrt(total.real)


@pytest.mark.parametrize("n_squeezed", [0, 1])
@pytest.mark.parametrize("a", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("r", [-1.0, 0.0, 0.5, 2.0])
def test_normalize_matches_the_every_pair_norm(n_squeezed, a, r):
    raw = State(((math.sqrt(1.0 - a * a), fock(0)), (a, squeezed_fock(n_squeezed, r))))
    norm = _norm_of_every_ordered_pair(raw)
    got = normalize(raw).amplitudes
    assert max(abs(g - c / norm) for g, c in zip(got, raw.amplitudes)) <= 1e-15


def test_two_mode_overlap_is_product_of_mode_overlaps():
    for r in (0.5, 1.0):
        vacuum = State(((1.0, fock(0), fock(0)),))
        squeezed = State(((1.0, squeezed_fock(0, r), squeezed_fock(0, r)),))
        assert_allclose(overlap(vacuum, squeezed),
                        oracles.vacuum_squeezed_overlap(r) ** 2, atol=1e-9)


@pytest.mark.parametrize("terms", [
    ((0.6, fock(0)), (0.8, fock(1), fock(0))),
    ((1.0,),),
    ((1.0, fock(0), fock(1), fock(2)),),
], ids=["mixed", "zero-mode", "three-mode"])
def test_state_rejects_bad_mode_counts(terms):
    with pytest.raises(DomainError):
        State(terms)


def test_normalize_basics():
    bell = entangled_state(0, 1, 0.36)
    renorm = normalize(bell)
    for (c1, _, _), (c2, _, _) in zip(bell.terms, renorm.terms):
        assert abs(c1 - c2) < 1e-12

    doubled = State(((2.0, fock(0)),))
    assert_allclose(normalize(doubled).amplitudes[0], 1.0, atol=1e-12)


def test_normalize_idempotent_with_overlapping_terms():
    state = State(((0.75, fock(0)), (0.5, squeezed_fock(0, 1.0))))
    once = normalize(state)
    twice = normalize(once)
    assert_allclose(state_norm(once), 1.0, atol=1e-10)
    for (c1, _), (c2, _) in zip(once.terms, twice.terms):
        assert abs(c1 - c2) < 1e-12


def test_normalize_degenerate():
    with pytest.raises(DegenerateStateError):
        normalize(State(((0.0, fock(0)),)))


def test_superposition_families_are_normalized():
    for maker in (squeezed_vacuum_superposition, squeezed_excited_superposition):
        for convention in ("sqrt", "printed"):
            st = maker(0.5, 1.0, convention=convention)
            assert_allclose(state_norm(st), 1.0, atol=1e-10)
    # the two conventions give genuinely different states
    a_sqrt = squeezed_vacuum_superposition(0.5, 1.0, "sqrt").amplitudes
    a_printed = squeezed_vacuum_superposition(0.5, 1.0, "printed").amplitudes
    assert abs(a_sqrt[0] - a_printed[0]) > 1e-3


def test_entangled_state_validation():
    st = entangled_state(0, 1, 0.5)
    assert_allclose(state_norm(st), 1.0, atol=1e-12)
    with pytest.raises(DomainError):
        entangled_state(1, 1, 0.5)
    with pytest.raises(DomainError):
        entangled_state(0, 1, 1.5)


def test_json_round_trip():
    two = State((
        (0.6, fock(0), fock(1)),
        (0.8, squeezed_fock(1, 0.5), fock(0)),
    ))
    one = State(((0.6 - 0.2j, fock(2)), (0.5j, squeezed_fock(1, -0.7))))
    for st in (two, one):
        back = state_from_json(json.dumps(state_to_dict(st)))
        assert back == st


def test_squeezed_primitive_of_zero_r_is_the_fock_state():
    # the JSON type tag is derived from r on output
    parsed = state_from_json('{"modes": 1, "terms": [{"amp_re": 1.0, '
                             '"mode1": {"type": "squeezed", "n": 2, "r": 0.0}}]}')
    assert parsed == State(((1.0, fock(2)),))
    assert state_to_dict(parsed)["terms"][0]["mode1"] == {"type": "fock", "n": 2}


@pytest.mark.parametrize("payload", [
    "not json at all",
    '{"modes": 3, "terms": []}',
    '{"modes": 1, "terms": []}',
    '{"modes": 1, "terms": [{"amp_re": 1.0}]}',
    '{"modes": 1, "terms": [{"amp_re": 1.0, "mode1": {"type": "fock", "n": 0, "r": 1.0}}]}',
    '{"modes": 1, "terms": [{"amp_re": 1.0, "mode1": {"type": "squeezed", "n": 0}}]}',
    '{"modes": 1, "terms": [{"amp_re": 1.0, "mode1": {"type": "fock", "n": 0}, "mode2": {"type": "fock", "n": 0}}]}',
    '{"modes": 2, "terms": [{"amp_re": 1.0, "mode1": {"type": "fock", "n": 0}}]}',
    '{"modes": 1, "terms": [{"amp_re": 1.0, "mode1": {"type": "fock", "n": 0}, "bogus": 1}]}',
    '{"modes": 1, "bogus": true, "terms": [{"amp_re": 1.0, "mode1": {"type": "fock", "n": 0}}]}',
    # bool is a subclass of int in Python, but true is not a number here
    '{"modes": true, "terms": [{"amp_re": true, "mode1": {"type": "fock", "n": true}}]}',
    '{"modes": true, "terms": [{"amp_re": 1.0, "mode1": {"type": "fock", "n": 0}}]}',
    '{"modes": 1.0, "terms": [{"amp_re": 1.0, "mode1": {"type": "fock", "n": 0}}]}',
    '{"modes": 1, "terms": [{"amp_re": 1.0, "mode1": {"type": "fock", "n": true}}]}',
    '{"modes": 1, "terms": [{"amp_re": true, "mode1": {"type": "fock", "n": 0}}]}',
    '{"modes": 1, "terms": [{"amp_re": 1.0, "amp_im": false, "mode1": {"type": "fock", "n": 0}}]}',
    '{"modes": 1, "terms": [{"amp_re": 1.0, "mode1": {"type": "squeezed", "n": 0, "r": true}}]}',
])
def test_json_rejects_malformed(payload):
    with pytest.raises(StateFormatError):
        state_from_json(payload)
