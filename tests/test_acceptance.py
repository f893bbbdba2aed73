"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s``).
Two criteria assert supplied target values that the verified numerics
contradict (C2, and the r = 0 clause of C8 for psi01r); they are kept as
stated and fail honestly. See README, "Testing".
"""

import math
import time

import numpy as np
import pytest

from psnci.indicators import (
    delta_indicator,
    eta_indicator,
    sweep_a,
    sweep_r,
    von_neumann_entropy,
)
from psnci.phasespace import _wigner_numeric_grid, build_term_table
from psnci.quadrature import abs_4d_with_estimate
from psnci.states import (
    State,
    entangled_state,
    fock,
    squeezed_excited_superposition,
    squeezed_fock,
    squeezed_vacuum_superposition,
)
from psnci.validation import run_validation

import oracles

THREADS = 4
TWO_MODE_GRID = oracles.two_mode_grid(points=121)


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def _single(prim):
    return State(((1.0, prim),))


def _delta(state, rep, grid=None):
    table = build_term_table(state, rep, grid)
    return delta_indicator(table, threads=THREADS).value


def test_criterion_1_delta_constant_entangled01():
    t0 = time.time()
    values = []
    for a_sq in (0.2, 0.5, 0.8):
        t_point = time.time()
        values.append(_delta(entangled_state(0, 1, a_sq), "wigner", TWO_MODE_GRID))
        assert time.time() - t_point <= 60.0
    spread = max(values) - min(values)
    ok = all(abs(v - 0.426) <= 0.005 for v in values) and spread < 0.005
    _report("C1", ok,
            f"delta(0,1) = {[round(v, 5) for v in values]}, spread = {spread:.2e}, "
            f"{time.time() - t0:.1f} s")


def test_criterion_2_delta_entangled12():
    t0 = time.time()
    value = _delta(entangled_state(1, 2, 0.5), "wigner", TWO_MODE_GRID)
    elapsed = time.time() - t0
    ok = abs(value - 0.653) <= 0.005 and elapsed <= 90.0
    _report("C2", ok, f"delta(1,2) at a^2=0.5 = {value:.5f} (target 0.653 +- 0.005), "
                      f"{elapsed:.1f} s")


def test_criterion_2_computed_value_matches_polar_oracle():
    # C2's target stays as supplied; the value it computes on the Bell sweep
    # grid is pinned to the polar quadrature oracle
    value = _delta(entangled_state(1, 2, 0.5), "wigner", TWO_MODE_GRID)
    reference = oracles.polar_wigner_abs_integral(
        math.sqrt(0.5), (1, 2), math.sqrt(0.5), (2, 1)) - 1.0
    assert abs(value - reference) <= 1e-5


def test_criterion_3_single_mode_delta():
    t0 = time.time()
    d1 = _delta(_single(fock(1)), "wigner")
    d0 = _delta(_single(fock(0)), "wigner")
    elapsed = time.time() - t0
    ok = abs(d1 - oracles.delta_fock1()) <= 1e-3 and abs(d0) <= 1e-6 \
        and elapsed <= 1.0
    _report("C3", ok, f"delta(|1>) = {d1:.6f} (exact {oracles.delta_fock1():.6f}), "
                      f"delta(|0>) = {d0:.2e}, {elapsed:.2f} s")


ACCEPTANCE_STATES = [
    ("vacuum", lambda: _single(fock(0))),
    ("fock1", lambda: _single(fock(1))),
    ("fock2", lambda: _single(fock(2))),
    ("squeezed11", lambda: _single(squeezed_fock(1, 1.0))),
    ("entangled01", lambda: entangled_state(0, 1, 0.5)),
    ("entangled12", lambda: entangled_state(1, 2, 0.5)),
    ("psi00r", lambda: squeezed_vacuum_superposition(0.5, 1.0)),
    ("psi01r", lambda: squeezed_excited_superposition(0.5, 1.0)),
]


def test_criterion_4_husimi_delta_vanishes():
    # delta_indicator takes the Husimi delta as 0, since Q >= 0. Its premise
    # is checked on computed integrals: int |Q| from the folded sums or the
    # 4D kernel against int Q from the per-mode integrals.
    t0 = time.time()
    worst = 0.0
    for _, make in ACCEPTANCE_STATES:
        table = build_term_table(make(), "husimi")
        gap = table.abs_with_estimate(threads=THREADS)[0] - table.total_integral()
        worst = max(worst, abs(gap), abs(delta_indicator(table, threads=THREADS).value))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed <= 5.0
    _report("C4", ok, f"max |int |Q| - int Q| = {worst:.2e} over "
                      f"{len(ACCEPTANCE_STATES)} states, {elapsed:.1f} s")


def test_criterion_5_squeezing_invariance():
    t0 = time.time()
    worst = 0.0
    for n in (1, 2):
        base = _delta(_single(fock(n)), "wigner")
        for r in (0.5, 1.0):
            moved = _delta(_single(squeezed_fock(n, r)), "wigner")
            worst = max(worst, abs(moved - base))
    elapsed = time.time() - t0
    ok = worst <= 2e-3 and elapsed <= 10.0
    _report("C5", ok, f"max |delta_sq - delta| = {worst:.2e}, {elapsed:.1f} s")


@pytest.fixture(scope="module")
def bell_sweeps():
    data = {}
    t0 = time.time()
    a_sq = np.linspace(0.0, 1.0, 21)
    for family in ((0, 1), (1, 2)):
        data[family] = sweep_a(family, a_sq, ["wigner", "husimi", "rivier"],
                               TWO_MODE_GRID, entropy_base=2, threads=THREADS)
    data["elapsed"] = time.time() - t0
    return data


def test_criterion_6_bell_point_maximum(bell_sweeps):
    ok = True
    details = []
    for family in ((0, 1), (1, 2)):
        rows = bell_sweeps[family]
        for rep in ("wigner", "husimi", "rivier"):
            eta = [row.eta[rep] for row in rows]
            argmax = int(np.argmax(eta))
            sym = max(abs(eta[i] - eta[20 - i]) for i in range(21))
            ok = ok and argmax == 10 and sym <= 1e-3
            details.append(f"{family}/{rep}: argmax a^2 = {rows[argmax].param:.2f}, "
                           f"asym = {sym:.1e}")
    elapsed = bell_sweeps["elapsed"]
    ok = ok and elapsed <= 300.0
    _report("C6", ok, "; ".join(details) + f"; sweeps took {elapsed:.0f} s")


def test_criterion_7_entropy_correspondence(bell_sweeps):
    rows = bell_sweeps[(0, 1)]
    bell_entropy = rows[10].entropy
    ok = abs(bell_entropy - 1.0) <= 1e-12
    detail = [f"E_VN(a^2=0.5) = {bell_entropy:.12f}"]
    half = rows[:11]
    entropies = [r.entropy for r in half]
    for rep in ("wigner", "husimi", "rivier"):
        rho = oracles.spearman_rho([r.eta[rep] for r in half], entropies)
        ok = ok and rho == 1.0
        detail.append(f"spearman({rep}) = {rho:.3f}")
    _report("C7", ok, ", ".join(detail))


def test_criterion_7_eta_rises_with_entropy_on_fresh_tables():
    # The sweep scales one table's pair integrals by |c_i c_j|, which makes
    # eta a Moebius function of the concurrence by construction. Here every
    # a^2 gets its own table, so the rise of eta with the entropy is computed,
    # not implied.
    grid = oracles.two_mode_grid(points=41)
    for family in ((0, 1), (1, 2)):
        states = [entangled_state(*family, a_sq) for a_sq in (0.1, 0.2, 0.3, 0.4, 0.5)]
        entropies = [von_neumann_entropy(state) for state in states]
        assert all(later > earlier for earlier, later in zip(entropies, entropies[1:]))
        for rep in ("wigner", "husimi", "rivier"):
            eta = [eta_indicator(build_term_table(state, rep, grid), threads=THREADS).value
                   for state in states]
            assert all(later > earlier for earlier, later in zip(eta, eta[1:])), (family, rep, eta)


def _assert_exact(value, exact, estimate, bound, where):
    # within the reported estimate (honesty) and within a fixed bound, so a
    # wider estimate cannot pass
    err = abs(value - exact)
    assert err <= estimate, f"{where}: error {err:.2e} exceeds its estimate {estimate:.2e}"
    assert err <= bound, f"{where}: error {err:.2e} exceeds {bound:g}"


def test_entangled01_delta_is_fock1_delta(bell_sweeps):
    for row in bell_sweeps[(0, 1)]:
        _assert_exact(row.delta["wigner"], oracles.delta_fock1(),
                      row.error_estimate["wigner"], 1e-3, f"C1 at a^2 = {row.param}")


def test_entangled01_eta_closed_forms(bell_sweeps):
    for row in bell_sweeps[(0, 1)]:
        _assert_exact(row.eta["wigner"], oracles.eta_wigner_entangled01(row.param),
                      row.error_estimate["wigner"], 5e-4, f"eta_W at a^2 = {row.param}")
        _assert_exact(row.eta["husimi"], oracles.eta_husimi_entangled01(row.param),
                      row.error_estimate["husimi"], 1e-4, f"eta_H at a^2 = {row.param}")


def test_fock_product_delta(bell_sweeps):
    # the entangled12 sweep at a^2 = 1 is the product |1,2>
    row = bell_sweeps[(1, 2)][-1]
    assert row.param == 1.0
    _assert_exact(row.delta["wigner"], oracles.product_wigner_delta(1, 2),
                  row.error_estimate["wigner"], 2e-3, "|1,2>")
    row, = sweep_a((0, 2), [1.0], ["wigner"], TWO_MODE_GRID, threads=THREADS)
    _assert_exact(row.delta["wigner"], oracles.product_wigner_delta(0, 2),
                  row.error_estimate["wigner"], 2e-3, "|0,2>")


R_VALUES = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
A_VALUES = [0.3, 0.5, 0.7]


@pytest.mark.parametrize("family", ["psi00r", "psi01r"])
def test_criterion_8_squeezing_sweep(family):
    t0 = time.time()
    rows = sweep_r(family, R_VALUES, A_VALUES, "wigner")
    printed = sweep_r(family, [0.0, 1.0, 2.0], [0.5], "wigner",
                      convention="printed")
    elapsed = time.time() - t0
    ok = elapsed <= 120.0
    details = [f"{elapsed:.0f} s"]
    for a in A_VALUES:
        curve = [row.eta["wigner"] for row in rows if row.amplitude == a]
        zero = curve[0]
        increasing = all(later > earlier
                         for earlier, later in zip(curve[1:-1], curve[2:]))
        ok = ok and abs(zero) <= 1e-6 and increasing
        details.append(f"a={a}: eta(0) = {zero:.2e}, "
                       f"increasing on r>=0.25: {increasing}")
    details.append("printed-convention eta(r=0,1,2) at a=0.5: "
                   + ", ".join(f"{row.eta['wigner']:.4f}" for row in printed))
    _report(f"C8[{family}]", ok, "; ".join(details))


def test_criterion_9_validation_suite_green():
    t0 = time.time()
    results, ok = run_validation(threads=THREADS)
    elapsed = time.time() - t0
    failures = [r.name for r in results if not r.passed]
    ok = ok and elapsed <= 180.0
    _report("C9", ok, f"{len(results)} checks, failures: {failures or 'none'}, "
                      f"{elapsed:.0f} s")


def test_criterion_10_oracle_equivalence():
    t0 = time.time()
    grid = TWO_MODE_GRID
    mode = grid.mode(0)
    q = mode.q.centers[:, None]
    p = mode.p.centers[None, :]
    vac = np.exp(-q * q - p * p) / math.pi
    f1 = (2.0 / math.pi) * (q * q + p * p - 0.5) * np.exp(-q * q - p * p)
    streamed = abs_4d_with_estimate([(vac, f1)], grid, threads=THREADS)[0]
    separable = oracles.separable_abs_integral(vac, f1, grid)
    ok = abs(streamed - separable) <= 1e-10

    # analytic two-mode pair terms against the kernel quadrature, on the
    # 4D grid of two random (q, p) axes per mode
    rng = np.random.default_rng(11)
    q1, p1, q2, p2 = rng.uniform(-2.0, 2.0, size=(4, 20))
    z1 = (q1[:, None, None, None], p1[None, :, None, None])
    z2 = (q2[None, None, :, None], p2[None, None, None, :])
    a, b = math.sqrt(0.36), math.sqrt(0.64)
    w01 = _wigner_numeric_grid(fock(0), fock(1), q1, p1)
    w10 = _wigner_numeric_grid(fock(1), fock(0), q2, p2)
    kernel_cross = 2.0 * a * b * np.real(np.multiply.outer(w01, w10))
    closed_cross = oracles.wigner_vacuum_fock1_cross_pair(*z1, *z2, a, b)
    worst_cross = float(np.max(np.abs(kernel_cross - closed_cross)))
    ok = ok and worst_cross <= 1e-6

    diag_kernel = np.real(np.multiply.outer(
        _wigner_numeric_grid(fock(1), fock(1), q1, p1),
        _wigner_numeric_grid(fock(0), fock(0), q2, p2)))
    diag_closed = (oracles.wigner_fock_diag(1, *z1)
                   * oracles.wigner_fock_diag(0, *z2))
    worst_diag = float(np.max(np.abs(diag_kernel - diag_closed)))
    ok = ok and worst_diag <= 1e-6

    # squeezed-superposition cross term against its closed Gaussian form,
    # up to the normalization constant of the printed coefficients
    st = squeezed_vacuum_superposition(0.5, 1.0)
    table = build_term_table(st, "wigner")
    c0, c1 = (c.real for c in st.amplitudes)
    m = table.grid.mode(0)
    iq = rng.integers(0, m.q.n, size=25)
    ip = rng.integers(0, m.p.n, size=25)
    got = table.values([(0, 1)])[iq, ip]
    ref = c0 * c1 * oracles.squeezed_vacuum_cross_reference(
        m.q.centers[iq], m.p.centers[ip], 1.0)
    worst_sq = float(np.max(np.abs(got - ref)))
    ok = ok and worst_sq <= 1e-6

    elapsed = time.time() - t0
    ok = ok and elapsed <= 60.0
    _report("C10", ok,
            f"streamed vs separable diff = {abs(streamed - separable):.1e}, "
            f"pair-term residuals: cross {worst_cross:.1e}, diag {worst_diag:.1e}, "
            f"squeezed {worst_sq:.1e}, {elapsed:.0f} s")
