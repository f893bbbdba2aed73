"""Scalar non-classicality diagnostics and parameter sweeps.

* ``delta_indicator``: the negativity volume
      delta = int |f| - int f
  over phase space. It vanishes exactly when the distribution is
  non-negative (so always for Husimi) and is insensitive to squeezing of
  the state, since squeezing only rescales phase space area-preservingly.

* ``eta_indicator``: the interference indicator
      eta = sum_ij int (|f_ij| - f_ij) / sum_ij int (|f_ij| + f_ij)
  over the term-pair decomposition, bounded between 0 and 1.

* ``von_neumann_entropy``: entanglement entropy of a two-mode pure state
  with Fock-only terms, from the singular values of the coefficient
  matrix.

Sweeps integrate each pair term of a table once: pair grids do not depend
on the amplitudes, so eta rows rescale per-unit |c_i c_j| pair integrals
and delta rows restream the 4D absolute integral of the total. ``sweep_a``
builds one table per representation, ``sweep_r`` one per r (its grid
stretches with e^r), dropped once that r's rows are formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateStateError, DomainError, UnsupportedStateError
from .grids import PhaseGrid
from .phasespace import NORM_CHECK_TOLERANCE, Representation, build_term_table, default_grid
from .states import (
    FOCK,
    State,
    entangled_state,
    squeezed_excited_superposition,
    squeezed_vacuum_superposition,
)

SWEEP_R_FAMILIES = ("psi00r", "psi01r")


@dataclass(frozen=True)
class IndicatorResult:
    """Indicator value with quadrature diagnostics."""

    value: float
    error_estimate: float
    norm_check: float
    representation: str

    @property
    def valid(self) -> bool:
        return abs(self.norm_check - 1.0) <= NORM_CHECK_TOLERANCE


@dataclass(frozen=True)
class SweepRow:
    """One parameter point of a sweep; indicator values keyed by representation."""

    param: float
    eta: dict
    delta: dict = field(default_factory=dict)
    entropy: float = None
    norm_check: dict = field(default_factory=dict)
    error_estimate: dict = field(default_factory=dict)
    amplitude: float = None


def delta_indicator(table, *, threads: int = 1) -> IndicatorResult:
    """Negativity volume int |f| - int f of the table's total distribution.

    The subtracted integral is computed, not assumed to be one; it is
    reported as norm_check so quadrature drift stays visible. The error
    estimate is that of int |f|. A Husimi Q = |<alpha|psi>|^2 / pi^n is
    non-negative, so its int |Q| is int Q and delta is 0 by construction;
    the estimate is then the distance of int Q to its decimated integral,
    and no |f| is integrated.
    """
    plain = table.total_integral()
    if table.representation is Representation.HUSIMI:
        value, estimate = 0.0, abs(plain - table.decimated_integral())
    else:
        absval, estimate = table.abs_with_estimate(threads=threads)
        value = absval - plain
    return IndicatorResult(
        value=value,
        error_estimate=estimate,
        norm_check=plain,
        representation=table.representation.value,
    )


def eta_indicator(table, *, threads: int = 1) -> IndicatorResult:
    """Interference indicator over the table's term-pair decomposition."""
    pairs = _pair_integrals(table, threads)
    value, norm, est = _eta(pairs, [1.0] * len(pairs))
    return IndicatorResult(
        value=value,
        error_estimate=est,
        norm_check=norm,
        representation=table.representation.value,
    )


def _pair_integrals(table, threads: int) -> list:
    """(int |f_ij|, its estimate, int f_ij) for every pair key of the table."""
    return [table.abs_with_estimate([key], threads=threads) + (table.pair_integral(*key),)
            for key in table.pair_keys()]


def _eta(pairs, weights) -> tuple:
    """(eta, norm_check, error_estimate) of weighted pair integrals."""
    num = den = est = norm = 0.0
    for w, (absval, abs_est, plain) in zip(weights, pairs):
        num += w * (absval - plain)
        den += w * (absval + plain)
        est += w * abs_est
        norm += w * plain
    if den < 1e-12:
        raise DegenerateStateError("eta denominator vanished")
    return num / den, norm, 2.0 * est / den


def _entropy_base_factor(log_base) -> float:
    if log_base in (2, 2.0, "2"):
        return math.log(2.0)
    if log_base in ("e", math.e):
        return 1.0
    raise DomainError(f"log_base must be 2 or 'e', got {log_base!r}")


def von_neumann_entropy(state: State, log_base=2) -> float:
    """Entanglement entropy of a normalized Fock-term two-mode pure state.

    Builds the coefficient matrix over occupied Fock labels and returns
    -sum sigma_k^2 log(sigma_k^2) over its singular values.
    """
    if state.n_modes != 2:
        raise DomainError("von_neumann_entropy needs a two-mode state")
    factor = _entropy_base_factor(log_base)
    for _, p1, p2 in state.terms:
        for prim in (p1, p2):
            if prim.kind != FOCK and prim.r != 0.0:
                raise UnsupportedStateError(
                    "entropy is defined here only for Fock-term states; "
                    "squeezed primitives are not supported")
    labels1 = sorted({p1.n for _, p1, _ in state.terms})
    labels2 = sorted({p2.n for _, _, p2 in state.terms})
    index1 = {n: i for i, n in enumerate(labels1)}
    index2 = {n: i for i, n in enumerate(labels2)}
    coeff = np.zeros((len(labels1), len(labels2)), dtype=complex)
    for c, p1, p2 in state.terms:
        coeff[index1[p1.n], index2[p2.n]] += c
    total = float(np.sum(np.abs(coeff) ** 2))
    if abs(total - 1.0) > 1e-6:
        raise DomainError(f"state must be normalized, got norm^2 = {total:.8f}")
    singular = np.linalg.svd(coeff, compute_uv=False)
    lam = singular**2
    lam = lam[lam > 1e-18]
    # + 0.0 turns the -0.0 of a product state into +0.0
    return float(-np.sum(lam * np.log(lam)) / factor) + 0.0


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _sorted_params(values, name, lo, hi, *, inclusive=True) -> list:
    out = sorted({float(v) for v in values})
    if not out:
        raise DomainError(f"{name} must not be empty")
    for v in out:
        inside = lo <= v <= hi if inclusive else lo < v < hi
        if not inside:
            raise DomainError(f"{name} value {v} outside allowed range")
    return out


def _eta_rows(table, amplitude_rows, threads: int = 1) -> list:
    """(eta, norm_check, error_estimate) of the table at each amplitude tuple.

    Each pair term is integrated once, at the table's amplitudes, and kept
    per unit |c_i c_j|. A pair term is linear in gamma_ij = c_i c_j*, so
    rescaling by |gamma_ij| is exact only while gamma_ij keeps its phase;
    both sweep families have real, non-negative amplitudes (sweep_r's for
    a in (0, 1) under both coefficient conventions), so it does.
    """
    ref = [abs(c) for c in table.amplitudes]
    keys = table.pair_keys()
    units = [tuple(x / (ref[i] * ref[j]) for x in pair)
             for (i, j), pair in zip(keys, _pair_integrals(table, threads))]
    return [_eta(units, [abs(c[i]) * abs(c[j]) for i, j in keys]) for c in amplitude_rows]


def sweep_a(family, a_sq_values, reps, grid: PhaseGrid = None, *,
            entropy_base=2, threads: int = 1) -> list:
    """Sweep the superposition weight a^2 of an entangled pair family.

    For each a^2 the row carries eta for every requested representation,
    delta for Wigner and Rivier, and the entanglement entropy. Pair grids
    are evaluated once per representation; only amplitudes change per row.
    """
    n_low, n_high = family
    if not (0 <= n_low < n_high <= 4):
        raise DomainError(f"family must satisfy 0 <= n_low < n_high <= 4, got {family}")
    a_list = _sorted_params(a_sq_values, "a_sq", 0.0, 1.0)
    rep_list = [Representation.parse(r) for r in reps]
    ref_state = entangled_state(n_low, n_high, 0.5)
    if grid is None:
        grid = default_grid(ref_state)
    amps = [(math.sqrt(a_sq), math.sqrt(max(0.0, 1.0 - a_sq))) for a_sq in a_list]
    cached = {}
    for rep in rep_list:
        table = build_term_table(ref_state, rep, grid)
        cached[rep] = (table, _eta_rows(table, amps, threads))

    rows = []
    for k, (a_sq, c) in enumerate(zip(a_list, amps)):
        eta, delta, norm, err = {}, {}, {}, {}
        for rep in rep_list:
            table, eta_rows = cached[rep]
            eta[rep.value], norm[rep.value], err[rep.value] = eta_rows[k]
            if rep in (Representation.WIGNER, Representation.RIVIER):
                result = delta_indicator(table.with_amplitudes(c), threads=threads)
                delta[rep.value] = result.value
                err[rep.value] = max(err[rep.value], result.error_estimate)
        entropy = von_neumann_entropy(entangled_state(n_low, n_high, a_sq),
                                      log_base=entropy_base)
        rows.append(SweepRow(param=a_sq, eta=eta, delta=delta, entropy=entropy,
                             norm_check=norm, error_estimate=err))
    return rows


def sweep_r(family: str, r_values, a_values, rep, *, convention: str = "sqrt",
            extent: float = None, points: int = None) -> list:
    """Sweep the squeezing parameter of a squeezed-superposition family.

    Rows are grouped by amplitude a (ascending), with r strictly increasing
    inside each group. Each r gets one table on the default grid of
    ``extent`` and ``points`` stretched with e^r, and every a's row is scaled
    from its pair integrals (last digits can differ from ``eta_indicator``).
    Both families superpose Fock and real-r squeezed Fock primitives, whose
    wavefunctions are real with definite parity, so each table's grids are
    evaluated and kept on the q >= 0, p >= 0 quadrant, and every pair
    integral is a folded sum over it (see ``psnci.phasespace``): no whole
    grid is built. The sweep spends most of its time evaluating that
    quadrant of the e^r-stretched grid: the shared e^(-iqp) grid, the
    closed forms and the two kernel quadratures, each folded over +-y, in
    comparable shares.
    """
    makers = {
        "psi00r": squeezed_vacuum_superposition,
        "psi01r": squeezed_excited_superposition,
    }
    if family not in makers:
        raise DomainError(f"family must be one of {SWEEP_R_FAMILIES}, got {family!r}")
    maker = makers[family]
    r_list = _sorted_params(r_values, "r", 0.0, 2.0)
    a_list = _sorted_params(a_values, "a", 0.0, 1.0, inclusive=False)
    rep = Representation.parse(rep)
    per_r = {}
    for r in r_list:
        states = [maker(a, r, convention=convention) for a in a_list]
        grid = default_grid(states[0], extent=extent, points=points)
        # The table is never named, so it is freed before the next r is built.
        per_r[r] = _eta_rows(build_term_table(states[0], rep, grid),
                             [st.amplitudes for st in states])
    rows = []
    for k, a in enumerate(a_list):
        for r in r_list:
            eta, norm, err = per_r[r][k]
            rows.append(SweepRow(param=r, amplitude=a, eta={rep.value: eta},
                                 norm_check={rep.value: norm},
                                 error_estimate={rep.value: err}))
    return rows
