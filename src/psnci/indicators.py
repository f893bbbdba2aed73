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

Sweeps reuse one evaluated term table per parameter family: pair grids do
not depend on the superposition amplitudes, so each row only rescales the
cached pair integrals (eta) or restreams the 4D absolute integral of the
total (delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateStateError, DomainError, UnsupportedStateError
from .grids import PhaseGrid
from .phasespace import Representation, build_term_table, default_grid
from .states import (
    FOCK,
    TwoModeState,
    entangled_state,
    squeezed_excited_superposition,
    squeezed_vacuum_superposition,
)

NORM_CHECK_TOLERANCE = 1e-3

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
    reported as norm_check so quadrature drift stays visible.
    """
    if table.n_modes == 1:
        mode = table.grid.mode(0)
        from .quadrature import integral_with_estimate

        total = table.total_values()
        plain, est_plain = integral_with_estimate(total, mode)
        absval, est_abs = integral_with_estimate(np.abs(total), mode)
    else:
        absval, est_abs = table.total_abs_with_estimate(threads=threads)
        plain = table.total_integral()
        est_plain = 0.0
    return IndicatorResult(
        value=absval - plain,
        error_estimate=est_abs + est_plain,
        norm_check=plain,
        representation=table.representation.value,
    )


def eta_indicator(table, *, threads: int = 1) -> IndicatorResult:
    """Interference indicator over the table's term-pair decomposition."""
    num = 0.0
    den = 0.0
    est = 0.0
    norm = 0.0
    for key in table.pair_keys():
        absval, abs_est = table.pair_abs_with_estimate(key, threads=threads)
        plain = table.pair_integral(*key)
        num += absval - plain
        den += absval + plain
        est += abs_est
        norm += plain
    if den < 1e-12:
        raise DegenerateStateError("eta denominator vanished")
    return IndicatorResult(
        value=num / den,
        error_estimate=2.0 * est / den,
        norm_check=norm,
        representation=table.representation.value,
    )


def _entropy_base_factor(log_base) -> float:
    if log_base in (2, 2.0, "2"):
        return math.log(2.0)
    if log_base in ("e", math.e):
        return 1.0
    raise DomainError(f"log_base must be 2 or 'e', got {log_base!r}")


def von_neumann_entropy(state: TwoModeState, log_base=2) -> float:
    """Entanglement entropy of a normalized Fock-term two-mode pure state.

    Builds the coefficient matrix over occupied Fock labels and returns
    -sum sigma_k^2 log(sigma_k^2) over its singular values.
    """
    if not isinstance(state, TwoModeState):
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
    return float(-np.sum(lam * np.log(lam)) / factor)


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
    cached = {}
    for rep in rep_list:
        table = build_term_table(ref_state, rep, grid)
        ref_c = [abs(c) for c in ref_state.amplitudes]
        pair_data = {}
        for key in table.pair_keys():
            i, j = key
            scale = ref_c[i] * ref_c[j]
            absval, abs_est = table.pair_abs_with_estimate(key, threads=threads)
            plain = table.pair_integral(i, j)
            pair_data[key] = (absval / scale, abs_est / scale, plain / scale)
        cached[rep] = (table, pair_data)

    rows = []
    for a_sq in a_list:
        c = (math.sqrt(a_sq), math.sqrt(max(0.0, 1.0 - a_sq)))
        eta, delta, norm, err = {}, {}, {}, {}
        for rep in rep_list:
            table, pair_data = cached[rep]
            num = den = est = plain_sum = 0.0
            for (i, j), (absval, abs_est, plain) in pair_data.items():
                w = c[i] * c[j]
                num += w * (absval - plain)
                den += w * (absval + plain)
                est += w * abs_est
                plain_sum += w * plain
            if den < 1e-12:
                raise DegenerateStateError("eta denominator vanished in sweep")
            eta[rep.value] = num / den
            norm[rep.value] = plain_sum
            err[rep.value] = 2.0 * est / den
            if rep in (Representation.WIGNER, Representation.RIVIER):
                result = delta_indicator(table.with_amplitudes(c), threads=threads)
                delta[rep.value] = result.value
                err[rep.value] = max(err[rep.value], result.error_estimate)
        entropy = von_neumann_entropy(entangled_state(n_low, n_high, a_sq),
                                      log_base=entropy_base)
        rows.append(SweepRow(param=a_sq, eta=eta, delta=delta, entropy=entropy,
                             norm_check=norm, error_estimate=err))
    return rows


def sweep_r(family: str, r_values, a_values, rep, grid: PhaseGrid = None, *,
            convention: str = "sqrt", threads: int = 1) -> list:
    """Sweep the squeezing parameter of a squeezed-superposition family.

    Rows are grouped by amplitude a (ascending), with r strictly increasing
    inside each group. Grids auto-stretch with e^r unless one is supplied.
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
    table_cache = {}
    rows = []
    for a in a_list:
        for r in r_list:
            state = maker(a, r, convention=convention)
            if r not in table_cache:
                g = grid if grid is not None else default_grid(state)
                table_cache[r] = build_term_table(state, rep, g)
                table = table_cache[r]
            else:
                table = table_cache[r].with_amplitudes(state.amplitudes)
            result = eta_indicator(table, threads=threads)
            rows.append(SweepRow(
                param=r,
                amplitude=a,
                eta={rep.value: result.value},
                norm_check={rep.value: result.norm_check},
                error_estimate={rep.value: result.error_estimate},
            ))
    return rows
