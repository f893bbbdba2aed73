"""Wigner, Husimi and Rivier distributions on phase-space grids.

Conventions (fixed so that every diagonal distribution integrates to one
over dq dp):

* Wigner cross-distribution of primitives i, j:
      W_ij(q, p) = (1/pi) int psi_i(q + y) psi_j*(q - y) e^(-2ipy) dy.
  For two Fock states there is a closed form through associated Laguerre
  polynomials; it is the fast path and is validated against the kernel
  quadrature. Equal squeezing on both sides reduces to the Fock form at
  the area-preserving scaled point (e^r q, e^-r p).

* Husimi: Q_ij(q, p) = (1/pi) <alpha|psi_i><psi_j|alpha> with
  alpha = q + i p, so the diagonal is (1/pi) e^(-|alpha|^2) |alpha|^(2n) / n!
  for Fock states, non-negative, peak 1/pi for the vacuum and unit integral.
  Coherent overlaps with squeezed primitives are done by quadrature on the
  position wavefunction.

* Rivier: real part of the Kirkwood kernel
      K_ij(q, p) = (2 pi)^(-1/2) psi_i(q) phi_j*(p) e^(-iqp),
  combined hermitially per term pair.

A TermTable holds the real term-pair decomposition f = sum_kl f_kl of a
one- or two-mode superposition state's distribution: a diagonal term per
term of the state and one combined real interference term per unordered
pair. Each f_kl is built from per-mode complex factor grids, one per
ordered primitive pair, so two-mode quantities are sums of separable
products and the 4D array is never materialized.
"""

from __future__ import annotations

import functools
import math
import operator
from enum import Enum

import numpy as np

from . import specialfn
from .errors import (
    DomainError,
    GridCoverageError,
    QuadratureError,
)
from .grids import (
    Axis,
    DEFAULT_SINGLE_MODE_EXTENT,
    DEFAULT_SINGLE_MODE_POINTS,
    DEFAULT_TWO_MODE_EXTENT,
    DEFAULT_TWO_MODE_POINTS,
    ModeAxes,
    PhaseGrid,
)
from .quadrature import (
    SeparableSum,
    abs_4d_with_estimate,
    factor_basis,
    integral_with_estimate,
)
from .states import (
    FOCK,
    Primitive,
    momentum_wavefunction,
    position_wavefunction,
)

_KIRKWOOD_NORM = (2.0 * math.pi) ** -0.5
_QUARTIC_ROOT_PI = math.pi ** -0.25
_LN2 = math.log(2.0)

# Node-spacing safety for the oscillatory quadratures: the sampling rate
# exceeds the integrand bandwidth by this factor, keeping aliasing far
# below double precision for Gaussian-enveloped integrands.
_BAND_SAFETY = 1.7
_BAND_PAD = 24.0
_MIN_NODES = 96


class Representation(Enum):
    """Available phase-space distribution families."""

    WIGNER = "wigner"
    HUSIMI = "husimi"
    RIVIER = "rivier"

    @classmethod
    def parse(cls, value) -> "Representation":
        if isinstance(value, cls):
            return value
        name = str(value).strip().lower()
        for rep in cls:
            if rep.value == name:
                return rep
        raise DomainError(f"unknown representation {value!r}; "
                          f"choose from {[r.value for r in cls]}")

    @property
    def hermitian_pairs(self) -> bool:
        """Whether D_ji = conj(D_ij) holds for this representation."""
        return self is not Representation.RIVIER


# ---------------------------------------------------------------------------
# Default grids
# ---------------------------------------------------------------------------

def _mode_scales(prims) -> tuple:
    """Axis stretch factors: position widens for r < 0, momentum for r > 0."""
    q_scale = max(1.0, max(math.exp(max(0.0, -p.r)) for p in prims))
    p_scale = max(1.0, max(math.exp(max(0.0, p.r)) for p in prims))
    return q_scale, p_scale


def _scaled_mode(extent: float, points: int, prims) -> ModeAxes:
    q_scale, p_scale = _mode_scales(prims)
    q_axis = Axis(-extent * q_scale, extent * q_scale, int(round(points * q_scale)))
    p_axis = Axis(-extent * p_scale, extent * p_scale, int(round(points * p_scale)))
    return ModeAxes(q_axis, p_axis)


def _mode_primitives(state) -> tuple:
    """Each mode's primitives, in term order."""
    return tuple(state.mode_primitives(m) for m in range(state.n_modes))


def default_grid(state, *, extent: float = None, points: int = None) -> PhaseGrid:
    """Default evaluation grid for a state.

    Squeezed terms stretch the dilated axis extent by e^|r| with the node
    spacing kept fixed. The contracted axis is not refined, so a squeezed
    term's features along it span e^-|r| times as many nodes.
    """
    prims = _mode_primitives(state)
    single = len(prims) == 1
    if extent is None:
        extent = DEFAULT_SINGLE_MODE_EXTENT if single else DEFAULT_TWO_MODE_EXTENT
    if points is None:
        points = DEFAULT_SINGLE_MODE_POINTS if single else DEFAULT_TWO_MODE_POINTS
    return PhaseGrid(tuple(_scaled_mode(float(extent), int(points), mode_prims)
                           for mode_prims in prims))


# ---------------------------------------------------------------------------
# Wigner evaluation
# ---------------------------------------------------------------------------

def cross_wigner_fock_closed(m: int, n: int, q, p):
    """Closed-form Fock cross-Wigner W_mn(q, p).

    For m >= n:
        W_mn = (-1)^n / pi * sqrt(2^(m-n) n! / m!) (q - ip)^(m-n)
               L_n^(m-n)(2 (q^2 + p^2)) e^(-(q^2 + p^2))
    and W_mn = conj(W_nm) otherwise. Normalized so the diagonal has unit
    integral over dq dp.
    """
    m = specialfn._check_order("m", m)
    n = specialfn._check_order("n", n)
    if m < n:
        return np.conj(cross_wigner_fock_closed(n, m, q, p))
    qa = np.asarray(q, dtype=float)
    pa = np.asarray(p, dtype=float)
    u = qa * qa + pa * pa
    log_pref = 0.5 * ((m - n) * _LN2
                      + specialfn.log_factorial(n) - specialfn.log_factorial(m))
    pref = ((-1.0) ** n / math.pi) * math.exp(log_pref)
    lag = np.asarray(specialfn.assoc_laguerre(n, m - n, 2.0 * u), dtype=float)
    if m == n:
        val = (pref * lag) * np.exp(-u) + 0.0j
    else:
        amp = (qa - 1j * pa) ** (m - n)
        val = (pref * amp) * lag * np.exp(-u)
    if np.ndim(q) == 0 and np.ndim(p) == 0 and not isinstance(q, np.ndarray):
        return complex(val)
    return val


def _kernel_sampling(prim_i: Primitive, prim_j: Primitive, p_absmax: float) -> tuple:
    half_width = 0.5 * (prim_i.support_radius + prim_j.support_radius)
    bandwidth = prim_i.momentum_radius + prim_j.momentum_radius + 2.0 * p_absmax
    dy = 2.0 * math.pi / (_BAND_SAFETY * bandwidth + _BAND_PAD)
    nodes = max(_MIN_NODES, int(math.ceil(2.0 * half_width / dy)))
    return half_width, nodes


def _wigner_numeric_grid(prim_i: Primitive, prim_j: Primitive, q, p) -> np.ndarray:
    """Kernel quadrature on the len(q) x len(p) grid via two real matrix products."""
    p_absmax = max(1.0, float(np.max(np.abs(p))))
    half_width, nodes = _kernel_sampling(prim_i, prim_j, p_absmax)
    dy = 2.0 * half_width / nodes
    y = -half_width + (np.arange(nodes) + 0.5) * dy
    f = (position_wavefunction(prim_i, q[:, None] + y[None, :])
         * position_wavefunction(prim_j, q[:, None] - y[None, :]))
    arg = 2.0 * y[:, None] * p[None, :]
    real = f @ np.cos(arg)
    imag = f @ np.sin(arg)
    return (real - 1j * imag) * (dy / math.pi)


def _wigner_pair_grid(prim_i: Primitive, prim_j: Primitive, q, p) -> np.ndarray:
    if prim_i.r == prim_j.r:
        s = math.exp(prim_i.r)
        return np.asarray(cross_wigner_fock_closed(prim_i.n, prim_j.n,
                                                   s * q[:, None], p[None, :] / s))
    return _wigner_numeric_grid(prim_i, prim_j, q, p)


# ---------------------------------------------------------------------------
# Husimi evaluation
# ---------------------------------------------------------------------------

def _husimi_sampling(prim: Primitive, p_absmax: float) -> tuple:
    half_width = prim.support_radius
    bandwidth = math.sqrt(2.0) * p_absmax + prim.momentum_radius + 7.0
    dx = 2.0 * math.pi / (_BAND_SAFETY * bandwidth + _BAND_PAD)
    nodes = max(_MIN_NODES, int(math.ceil(2.0 * half_width / dx)))
    return half_width, nodes


def _coherent_amplitude_grid(prim: Primitive, q, p, phase) -> np.ndarray:
    """<alpha|prim> on the len(q) x len(p) grid, alpha = q + ip.

    Fock states use the closed overlap e^(-|alpha|^2 / 2) (alpha*)^n / sqrt(n!);
    squeezed states integrate the coherent-state wavefunction against the
    primitive's position wavefunction, with e^(iqp) = conj(phase) taken
    from the mode's shared e^(-iqp) grid (Fock states ignore ``phase``).
    """
    if prim.kind == FOCK:
        u = q[:, None] ** 2 + p[None, :] ** 2
        env = np.exp(-0.5 * u - 0.5 * specialfn.log_factorial(prim.n))
        if prim.n == 0:
            return env.astype(complex)
        return env * (q[:, None] - 1j * p[None, :]) ** prim.n
    p_absmax = max(1.0, float(np.max(np.abs(p))))
    half_width, nodes = _husimi_sampling(prim, p_absmax)
    dx = 2.0 * half_width / nodes
    x = -half_width + (np.arange(nodes) + 0.5) * dx
    psi_w = position_wavefunction(prim, x) * dx
    gauss = np.exp(-0.5 * (x[None, :] - math.sqrt(2.0) * q[:, None]) ** 2)
    osc = np.exp(-1j * math.sqrt(2.0) * x[:, None] * p[None, :])
    core = (gauss * psi_w[None, :]) @ osc
    return _QUARTIC_ROOT_PI * np.conj(phase) * core


def _husimi_pair_grid(amp_i: np.ndarray, amp_j: np.ndarray) -> np.ndarray:
    pair = amp_i * np.conj(amp_j) / math.pi
    if amp_i is amp_j:
        # |alpha|^2 / pi is real; the complex product leaves rounding noise
        # in its imaginary part.
        pair.imag = 0.0
    return pair


# ---------------------------------------------------------------------------
# Rivier (Kirkwood) evaluation
# ---------------------------------------------------------------------------

def _kirkwood_pair_grid(prim_i: Primitive, prim_j: Primitive, q, p, phase) -> np.ndarray:
    """Kirkwood kernel K_ij(q, p) = (2 pi)^(-1/2) psi_i(q) phi_j*(p) e^(-iqp)
    on the len(q) x len(p) grid, with ``phase`` = e^(-iqp) on that grid;
    tables pair it hermitially into Rivier terms."""
    psi_q = np.asarray(position_wavefunction(prim_i, q))
    phi_p = np.conj(momentum_wavefunction(prim_j, p))
    return _KIRKWOOD_NORM * np.outer(psi_q, phi_p) * phase


# ---------------------------------------------------------------------------
# Term tables
# ---------------------------------------------------------------------------

def _hermitian_keys(n_terms: int):
    return [(i, j) for i in range(n_terms) for j in range(i, n_terms)]


def _ordered_keys(n_terms: int):
    return [(i, j) for i in range(n_terms) for j in range(n_terms)]


def _ordered_entry(stored: dict, k, l):
    """Entry (k, l) of a per-mode map, or the conjugate of (l, k) if only that is stored."""
    if (k, l) in stored:
        return stored[(k, l)]
    return np.conj(stored[(l, k)])


class TermTable:
    """Real term-pair decomposition f = sum_{k<=l} f_kl of a one- or
    two-mode distribution, with gamma_kl = c_k c_l* and
        f_kl = Re(gamma_kl prod_m D_m,kl + gamma_lk prod_m D_m,lk),
        f_kk = |c_k|^2 prod_m Re D_m,kk.

    Per mode it holds the complex factor grids D_m,kl, their integrals and,
    from the first 4D integral on, their factor basis. Two-mode quantities
    are sums of separable products of these grids and never materialize
    the 4D array. Immutable by convention.
    """

    def __init__(self, representation, grid, amplitudes, cross_by_mode, ints_by_mode):
        self.representation = representation
        self.grid = grid
        self.amplitudes = tuple(complex(c) for c in amplitudes)
        self._cross = cross_by_mode
        self._ints = ints_by_mode
        self._bases = {}  # per-mode factor bases of a two-mode table

    @property
    def n_modes(self) -> int:
        return self.grid.n_modes

    def _terms(self, k, l, per_mode) -> list:
        """(gamma, per-mode entries) of the one product of f_kk or the two of f_kl."""
        c = self.amplitudes
        pairs = [(k, l)] if k == l else [(k, l), (l, k)]
        return [(abs(c[i]) ** 2 if i == j else c[i] * np.conj(c[j]),
                 [_ordered_entry(stored, i, j) for stored in per_mode])
                for i, j in pairs]

    def _paired(self, k, l, per_mode):
        """Sum of gamma times its per-mode entries over the products of f_kl."""
        return functools.reduce(operator.add, (functools.reduce(operator.mul, entries, gamma)
                                               for gamma, entries in self._terms(k, l, per_mode)))

    def pair_keys(self):
        return _hermitian_keys(len(self.amplitudes))

    def stored_factors(self, mode: int) -> dict:
        """Ordered-pair complex factor grids held for one mode."""
        return dict(self._cross[mode])

    def products(self, k, l):
        """Complex factor products (gamma, D_1, ...) whose paired real part is f_kl."""
        return [(gamma + 0.0j if k == l else gamma, *factors)
                for gamma, factors in self._terms(k, l, self._cross)]

    def pair_integral(self, k, l) -> float:
        return float(self._paired(k, l, self._ints).real)

    def total_integral(self) -> float:
        return math.fsum(self.pair_integral(*k) for k in self.pair_keys())

    @property
    def norm_check(self) -> float:
        return self.total_integral()

    def with_amplitudes(self, amplitudes) -> "TermTable":
        if len(amplitudes) != len(self.amplitudes):
            raise DomainError("amplitude count mismatch")
        table = TermTable(self.representation, self.grid, amplitudes, self._cross, self._ints)
        table._bases = self._bases  # the bases depend on the grids only
        return table

    def pair_abs_with_estimate(self, key, threads: int = 1) -> tuple:
        """int |f_kl| over the grid, with its decimation estimate.

        One mode integrates the dense pair grid serially; two modes use the
        factorized diagonal below, else the 4D kernel on ``threads`` workers.
        """
        k, l = key
        if self.n_modes == 1:
            return integral_with_estimate(np.abs(self.pair_values(k, l)), self.grid.mode(0))
        if k == l and self.representation.hermitian_pairs:
            # Exact single real product: |f| factorizes across the modes.
            # The 4D kernel's closed form gives the same value to 2e-16,
            # but even with the factor bases built it costs 46-77x more per
            # term on the default grid (3 ms against 0.04-0.06 ms: factors,
            # a sort and a prefix sum over every point), and its estimate
            # is the decimated sum, not the first-order ea*b + a*eb.
            [(scale, (d1, d2))] = self._terms(k, k, self._cross)
            a, ea = integral_with_estimate(np.abs(d1.real), self.grid.mode(0))
            b, eb = integral_with_estimate(np.abs(d2.real), self.grid.mode(1))
            return scale * a * b, scale * (ea * b + a * eb)
        return abs_4d_with_estimate(self.real_products([key]), self.grid, threads=threads)

    # Single-mode tables: dense real grids.

    def pair_values(self, i, j) -> np.ndarray:
        """Real combined term f_ij on the grid of a single-mode table."""
        c = self.amplitudes
        if i == j:
            return (abs(c[i]) ** 2) * self._cross[0][(i, i)].real
        if not self.representation.hermitian_pairs:
            return self._paired(i, j, self._cross).real
        # The (j, i) product is the conjugate of the (i, j) one, so their
        # sum is twice its real part, bit for bit.
        return 2.0 * (c[i] * np.conj(c[j]) * _ordered_entry(self._cross[0], i, j)).real

    def total_values(self) -> np.ndarray:
        return functools.reduce(operator.add,
                                (self.pair_values(*key) for key in self.pair_keys()))

    # Two-mode tables: real separable products for the 4D kernel.

    def real_products(self, keys=None) -> SeparableSum:
        """sum_kl f_kl over ``keys`` (default all) on each mode's factor
        basis, built on first use from the Re and Im parts of its stored
        grids: grid i is the vector e_2i + i e_2i+1, as a column in mode 1,
        so the real part of the vectors' paired sum is the core."""
        if keys is None:
            keys = self.pair_keys()
        units = []
        for mode, stored in enumerate(self._cross):
            if mode not in self._bases:
                self._bases[mode] = factor_basis(
                    [part for d in stored.values() for part in (d.real, d.imag)])
            eye = np.eye(2 * len(stored))
            unit = eye[0::2] + 1j * eye[1::2]
            units.append(dict(zip(stored, unit[:, :, None] if mode == 0 else unit)))
        core = sum(self._paired(k, l, units).real for k, l in keys)
        return SeparableSum(self._bases[0], self._bases[1], core)

    def total_abs_with_estimate(self, threads: int = 1) -> tuple:
        return abs_4d_with_estimate(self.real_products(), self.grid, threads=threads)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _mode_phase(mode_cache: dict, q, p) -> np.ndarray:
    """e^(-iqp) on the mode grid, computed on first use and kept in the
    mode's cache for every later Kirkwood pair and squeezed amplitude."""
    if "phase" not in mode_cache:
        mode_cache["phase"] = np.exp(-1j * np.outer(q, p))
    return mode_cache["phase"]


def _pair_grid(rep: Representation, prim_i: Primitive, prim_j: Primitive,
               mode: ModeAxes, mode_cache: dict) -> np.ndarray:
    q, p = mode.q.centers, mode.p.centers
    if rep is Representation.WIGNER:
        return _wigner_pair_grid(prim_i, prim_j, q, p)
    if rep is Representation.HUSIMI:
        for prim in (prim_i, prim_j):
            if prim not in mode_cache:
                phase = None if prim.kind == FOCK else _mode_phase(mode_cache, q, p)
                mode_cache[prim] = _coherent_amplitude_grid(prim, q, p, phase)
        return _husimi_pair_grid(mode_cache[prim_i], mode_cache[prim_j])
    return _kirkwood_pair_grid(prim_i, prim_j, q, p, _mode_phase(mode_cache, q, p))


def _build_cross_maps(rep, prims, mode):
    keys = (_hermitian_keys(len(prims)) if rep.hermitian_pairs
            else _ordered_keys(len(prims)))
    mode_cache = {}  # Husimi amplitudes per primitive, and the e^(-iqp) grid
    cross, ints = {}, {}
    for i, j in keys:
        g = _pair_grid(rep, prims[i], prims[j], mode, mode_cache)
        if not np.all(np.isfinite(g)):
            raise QuadratureError(
                f"non-finite values in the {rep.value} grid for pair ({i}, {j})")
        cross[(i, j)] = g
        ints[(i, j)] = complex(np.sum(g)) * mode.cell_area
    return cross, ints


def build_term_table(state, representation, grid: PhaseGrid = None) -> TermTable:
    """Evaluate the term-pair decomposition of a normalized state.

    The total integral over the grid must come out within 1e-3 of one,
    otherwise the grid does not cover the state (or the state was not
    normalized) and GridCoverageError is raised.
    """
    rep = Representation.parse(representation)
    prims = _mode_primitives(state)
    if grid is None:
        grid = default_grid(state)
    if grid.n_modes != len(prims):
        raise DomainError(f"a {len(prims)}-mode state needs a {len(prims)}-mode grid")
    cross, ints = zip(*(_build_cross_maps(rep, mode_prims, grid.mode(m))
                        for m, mode_prims in enumerate(prims)))
    table = TermTable(rep, grid, state.amplitudes, cross, ints)
    norm = table.total_integral()
    if not np.isfinite(norm):
        raise QuadratureError("term table integral is not finite")
    if abs(norm - 1.0) > 1e-3:
        raise GridCoverageError(
            f"total integral {norm:.6f} deviates from 1 by more than 1e-3; "
            "the grid does not cover the state's support (or the state is "
            "not normalized)")
    return table
