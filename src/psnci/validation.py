"""Self-check suite behind the ``validate`` CLI command.

Every check recomputes its reference quantity through an independent
route (direct kernel quadrature on the total wavefunction, closed vs
numeric evaluation, bitwise comparison across worker counts) rather than
trusting the code paths it is checking.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import PhaseSpaceError
from .grids import DEFAULT_TWO_MODE_EXTENT, Axis, ModeAxes, PhaseGrid
from .indicators import eta_indicator
from .phasespace import (
    Representation,
    _coherent_amplitude_grid,
    _mode_primitives,
    _wigner_numeric_grid,
    build_term_table,
    cross_wigner_fock_closed,
    default_grid,
)
from .quadrature import abs_4d_with_estimate
from .states import (
    State,
    entangled_state,
    fock,
    position_wavefunction,
    squeezed_excited_superposition,
    squeezed_fock,
    squeezed_vacuum_superposition,
)

NORMALIZATION_TOL = 1e-4
MARGINAL_TOL = 1e-4
DECOMPOSITION_TOL = 1e-10
CLOSED_NUMERIC_TOL = 1e-8
HUSIMI_FLOOR = -1e-14
FOLD_TOL = 1e-13
ETA_SLACK = 1e-9

_QUARTIC_ROOT_PI = math.pi ** -0.25


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_states():
    return [
        ("vacuum", State(((1.0, fock(0)),))),
        ("fock1", State(((1.0, fock(1)),))),
        ("fock2", State(((1.0, fock(2)),))),
        ("squeezed_fock1_r0.8", State(((1.0, squeezed_fock(1, 0.8)),))),
        ("entangled01_bell", entangled_state(0, 1, 0.5)),
        ("entangled12_bell", entangled_state(1, 2, 0.5)),
        ("psi00r_a0.5_r1", squeezed_vacuum_superposition(0.5, 1.0)),
        ("psi01r_a0.5_r1", squeezed_excited_superposition(0.5, 1.0)),
    ]


# ---------------------------------------------------------------------------
# Independent direct evaluation of the total distribution
# ---------------------------------------------------------------------------

def _direct_nodes(state, p_absmax):
    prims = sum(_mode_primitives(state), ())
    half = max(p.support_radius for p in prims) + 4.0
    bandwidth = 2.0 * max(p.momentum_radius for p in prims) + 2.0 * p_absmax + 12.0
    dx = 2.0 * math.pi / (1.7 * bandwidth + 24.0)
    n = max(128, int(math.ceil(2.0 * half / dx)))
    dx = 2.0 * half / n
    return -half + (np.arange(n) + 0.5) * dx, dx


def _direct_amplitudes(state: State, q, p) -> np.ndarray:
    """<alpha|psi>, alpha = q + ip, on the len(q) x len(p) grid: the
    coherent wavefunction pi^(-1/4) e^(iqp) e^(-(x - sqrt2 q)^2 / 2)
    e^(-i sqrt2 px) summed against psi over this module's nodes."""
    x, dx = _direct_nodes(state, float(np.max(np.abs(p))))
    gauss = np.exp(-0.5 * (x[None, :] - math.sqrt(2.0) * q[:, None]) ** 2)
    osc = np.exp(-1j * math.sqrt(2.0) * np.outer(x, p))
    return ((gauss * state.wavefunction(x)) @ osc * np.exp(1j * np.outer(q, p))
            * (_QUARTIC_ROOT_PI * dx))


def _direct_single(state: State, rep: Representation, q: float, p: float) -> float:
    x, dx = _direct_nodes(state, abs(p))
    if rep is Representation.WIGNER:
        f = state.wavefunction(q + x) * np.conj(state.wavefunction(q - x))
        return float(np.real(np.sum(f * np.exp(-2j * p * x)) * dx / math.pi))
    if rep is Representation.HUSIMI:
        amp = _direct_amplitudes(state, np.array([q]), np.array([p]))[0, 0]
        return float(abs(amp) ** 2 / math.pi)
    phi = np.sum(state.wavefunction(x) * np.exp(-1j * x * p)) * dx / math.sqrt(2.0 * math.pi)
    kirk = state.wavefunction(np.array(q))[()] * np.conj(phi) * np.exp(-1j * q * p)
    return float(np.real(kirk / math.sqrt(2.0 * math.pi)))


def _two_mode_wavefunction_grid(state: State, x1, x2):
    psi = np.zeros((x1.size, x2.size), dtype=complex)
    for c, p1, p2 in state.terms:
        psi += c * np.outer(position_wavefunction(p1, x1), position_wavefunction(p2, x2))
    return psi


def _direct_two_mode(state: State, rep: Representation, z1, z2) -> float:
    q1, p1 = z1
    q2, p2 = z2
    x, dx = _direct_nodes(state, max(abs(p1), abs(p2)))
    if rep is Representation.WIGNER:
        a = _two_mode_wavefunction_grid(state, q1 + x, q2 + x)
        b = np.conj(_two_mode_wavefunction_grid(state, q1 - x, q2 - x))
        e1 = np.exp(-2j * p1 * x)
        e2 = np.exp(-2j * p2 * x)
        val = e1 @ (a * b) @ e2 * dx * dx / math.pi**2
        return float(np.real(val))
    if rep is Representation.HUSIMI:
        psi = _two_mode_wavefunction_grid(state, x, x)
        c1 = np.exp(-0.5 * (x - math.sqrt(2.0) * q1) ** 2
                    + 1j * (q1 * p1 - math.sqrt(2.0) * p1 * x))
        c2 = np.exp(-0.5 * (x - math.sqrt(2.0) * q2) ** 2
                    + 1j * (q2 * p2 - math.sqrt(2.0) * p2 * x))
        amp = _QUARTIC_ROOT_PI**2 * (c1 @ psi @ c2) * dx * dx
        return float(abs(amp) ** 2 / math.pi**2)
    psi = _two_mode_wavefunction_grid(state, x, x)
    f1 = np.exp(-1j * x * p1)
    f2 = np.exp(-1j * x * p2)
    phi = (f1 @ psi @ f2) * dx * dx / (2.0 * math.pi)
    amp_q = np.zeros((), dtype=complex)
    for c, pa, pb in state.terms:
        amp_q = amp_q + c * position_wavefunction(pa, q1) * position_wavefunction(pb, q2)
    kirk = amp_q * np.conj(phi) * np.exp(-1j * (q1 * p1 + q2 * p2)) / (2.0 * math.pi)
    return float(np.real(kirk))


def _reconstruct_two_mode(table, idx1, idx2) -> float:
    total = 0.0
    for g, h in table.real_products():
        total += g[idx1] * h[idx2]
    return total


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def _norm_and_tables(states, reps, extent, points, results):
    tables = {}
    for sname, state in states:
        for rep in reps:
            name = f"normalization[{sname},{rep.value}]"
            try:
                grid = default_grid(state, extent=extent, points=points)
                table = build_term_table(state, rep, grid)
            except PhaseSpaceError as exc:
                results.append(CheckResult(name, False, f"build failed: {exc}"))
                continue
            norm = table.total_integral()
            ok = abs(norm - 1.0) <= NORMALIZATION_TOL
            results.append(CheckResult(name, ok, f"integral = {norm:.8f}"))
            tables[(sname, rep)] = (state, table)
    return tables


def _marginal_checks(tables, results):
    for (sname, rep), (state, table) in tables.items():
        if rep is not Representation.WIGNER or table.n_modes != 1:
            continue
        mode = table.grid.mode(0)
        marginal = np.sum(table.values(), axis=1) * mode.p.delta
        density = np.abs(state.wavefunction(mode.q.centers)) ** 2
        worst = float(np.max(np.abs(marginal - density)))
        ok = worst <= MARGINAL_TOL
        results.append(CheckResult(f"wigner_marginals[{sname}]", ok,
                                   f"max |int W dp - |psi|^2| = {worst:.3e}"))


def _quadrant_nodes(mode, rng) -> list:
    """Two random (q, p) node indices from each sign quadrant of a mode's
    grid, so that every mirrored part of its factor grids is sampled, all
    within |q|, |p| <= 2, where the check states are not negligible."""
    sides = [(np.flatnonzero((c < 0.0) & (c >= -2.0)), np.flatnonzero((c >= 0.0) & (c <= 2.0)))
             for c in (mode.q.centers, mode.p.centers)]
    nodes = []
    for iq in sides[0]:
        for ip in sides[1]:
            nodes += zip(rng.choice(iq, 2).tolist(), rng.choice(ip, 2).tolist())
    return nodes


def _decomposition_checks(tables, results, rng):
    for (sname, rep), (state, table) in tables.items():
        if table.n_modes == 1:
            mode = table.grid.mode(0)
            total = table.values()
            worst = 0.0
            for a, b in _quadrant_nodes(mode, rng):
                direct = _direct_single(state, rep,
                                        float(mode.q.centers[a]), float(mode.p.centers[b]))
                worst = max(worst, abs(total[a, b] - direct))
        else:
            m1, m2 = table.grid.mode(0), table.grid.mode(1)
            nodes2 = _quadrant_nodes(m2, rng)
            worst = 0.0
            # Each quadrant of each mode is sampled twice, paired at random.
            for (i1, j1), k in zip(_quadrant_nodes(m1, rng), rng.permutation(len(nodes2))):
                i2, j2 = nodes2[k]
                z1 = (float(m1.q.centers[i1]), float(m1.p.centers[j1]))
                z2 = (float(m2.q.centers[i2]), float(m2.p.centers[j2]))
                direct = _direct_two_mode(state, rep, z1, z2)
                recon = _reconstruct_two_mode(table, (i1, j1), (i2, j2))
                worst = max(worst, abs(recon - direct))
        ok = worst <= DECOMPOSITION_TOL
        results.append(CheckResult(f"decomposition[{sname},{rep.value}]", ok,
                                   f"max |sum f_ij - direct| = {worst:.3e}"))


def _closed_vs_numeric_check(results, rng):
    # The kernel quadrature here is the evaluator behind every Wigner pair
    # grid of unequally squeezed primitives.
    worst = 0.0
    for m in range(5):
        for n in range(m, 5):
            q, p = rng.uniform(-3.0, 3.0, size=(2, 10))
            closed = cross_wigner_fock_closed(m, n, q[:, None], p[None, :])
            numeric = _wigner_numeric_grid(fock(m), fock(n), q, p)
            worst = max(worst, float(np.max(np.abs(closed - numeric))))
    ok = worst <= CLOSED_NUMERIC_TOL
    results.append(CheckResult("closed_vs_numeric_cross_wigner", ok,
                               f"max |closed - numeric| = {worst:.3e} over 1500 points"))


def _closed_vs_direct_amplitude_check(results):
    # The closed form behind every squeezed Husimi grid, against the direct
    # sum on this module's own nodes that the decomposition checks use, to
    # their tolerance, on a uniform 16 x 16 grid over [-3, 3]^2 (the closed
    # form's phase table needs uniform q nodes).
    axis = Axis(-3.0, 3.0, 16)
    worst, count = 0.0, 0
    for n in range(5):
        for r in (-1.5, 0.5, 2.0):
            prim = squeezed_fock(n, r)
            direct = _direct_amplitudes(State(((1.0, prim),)), axis.centers, axis.centers)
            closed = _coherent_amplitude_grid(prim, ModeAxes(axis, axis))
            worst = max(worst, float(np.max(np.abs(closed - direct))))
            count += closed.size
    results.append(CheckResult("closed_vs_direct_coherent_amplitude", worst <= DECOMPOSITION_TOL,
                               f"max |closed - direct| = {worst:.3e} over {count} points"))


def _husimi_checks(tables, results, threads):
    for (sname, rep), (state, table) in tables.items():
        if rep is not Representation.HUSIMI:
            continue
        worst = 0.0
        if table.n_modes == 1:
            for i in range(len(table.amplitudes)):
                worst = min(worst, float(np.min(table.values([(i, i)]))))
            total_min = float(np.min(table.values()))
            ok = worst >= HUSIMI_FLOOR and total_min >= -1e-12
            detail = f"diag min = {worst:.3e}, total min = {total_min:.3e}"
        else:
            factors = [table.stored_factors(m) for m in range(2)]
            for k in range(len(table.amplitudes)):
                worst = min(worst, *(float(np.min(f[(k, k)].real)) for f in factors))
            # delta_indicator takes int |Q| as int Q; the 4D kernel checks it.
            total = table.total_integral()
            gap = abs(table.abs_with_estimate(threads=threads)[0] - total) / total
            ok = worst >= HUSIMI_FLOOR and gap <= 1e-12
            detail = f"per-mode diag min = {worst:.3e}, |int |Q| - int Q| / int Q = {gap:.3e}"
        results.append(CheckResult(f"husimi_positivity[{sname}]", ok, detail))


def _eta_checks(tables, results, threads):
    for (sname, rep), (_, table) in tables.items():
        try:
            eta = eta_indicator(table, threads=threads).value
        except PhaseSpaceError as exc:
            results.append(CheckResult(f"eta_range[{sname},{rep.value}]", False, str(exc)))
            continue
        ok = -ETA_SLACK <= eta <= 1.0 + ETA_SLACK
        results.append(CheckResult(f"eta_range[{sname},{rep.value}]", ok,
                                   f"eta = {eta:.6f}"))


def _determinism_check(tables, results):
    # The Wigner total folds its rows; a Rivier pair term, of rank 4 when its
    # two terms differ in both modes, folds its columns under z2 -> -z2 too.
    details, ok = [], True
    for rep, keys in ((Representation.WIGNER, None), (Representation.RIVIER, [(0, 1)])):
        pick = next((table for (_, r), (_, table) in tables.items()
                     if r is rep and table.n_modes == 2), None)
        if pick is None:
            continue
        serial = pick.abs_with_estimate(keys, threads=1)[0]
        pooled = pick.abs_with_estimate(keys, threads=2)[0]
        again = pick.abs_with_estimate(keys, threads=2)[0]
        ok = ok and serial == pooled == again
        name = "total" if keys is None else f"pair {keys[0]}"
        details.append(f"{rep.value} {name}: serial = {serial!r}, threads=2 -> {pooled!r}")
    results.append(CheckResult("determinism_threads", ok, "; ".join(details)
                               or "skipped: no two-mode Wigner or Rivier table built"))


def _fold_check(rep_list, results, threads):
    # The 4D kernel sums one mode-1 row per orbit of the group a table
    # states (D4 for the Bell states), and half the columns when it states
    # the mode-2 parity; the same sum stating nothing streams every point.
    extent = DEFAULT_TWO_MODE_EXTENT
    axis = Axis(-extent, extent, 41)
    grid = PhaseGrid((ModeAxes(axis, axis),) * 2)
    worst, orders = 0.0, set()
    for state in (entangled_state(0, 1, 0.5), entangled_state(1, 2, 0.5)):
        for rep, keys in ((Representation.WIGNER, None), (Representation.RIVIER, [(0, 1)])):
            if rep not in rep_list:
                continue
            folded = build_term_table(state, rep, grid).real_products(keys)
            plain = copy.copy(folded)
            plain.group, plain.mode2_parity = folded.group[:1], False
            value = abs_4d_with_estimate(folded, grid, threads=threads)[0]
            reference = abs_4d_with_estimate(plain, grid, threads=threads)[0]
            worst = max(worst, abs(value - reference) / reference)
            orders.add(len(folded.group))
    if orders:
        results.append(CheckResult(
            "fold_vs_unfolded", worst <= FOLD_TOL,
            f"max |folded - unfolded| / unfolded = {worst:.3e}, groups of order "
            f"{sorted(orders)}, Bell Wigner totals and Rivier pairs (0, 1) on 41^2 x 41^2"))


def run_validation(*, extent=None, points=None, reps=None, threads: int = 1):
    """Run every invariant check; returns (results, all_passed)."""
    rep_list = ([Representation.parse(r) for r in reps] if reps
                else list(Representation))
    results = []
    rng = np.random.default_rng(20240811)
    states = _check_states()
    tables = _norm_and_tables(states, rep_list, extent, points, results)
    _marginal_checks(tables, results)
    _decomposition_checks(tables, results, rng)
    if Representation.WIGNER in rep_list:
        _closed_vs_numeric_check(results, rng)
    if Representation.HUSIMI in rep_list:
        _closed_vs_direct_amplitude_check(results)
    _husimi_checks(tables, results, threads)
    _eta_checks(tables, results, threads)
    _determinism_check(tables, results)
    _fold_check(rep_list, results, threads)
    return results, all(r.passed for r in results)
