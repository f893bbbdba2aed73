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

A TermTable holds the real term-pair decomposition f = sum_ij f_ij of a
superposition state's distribution: diagonal terms per primitive and one
combined real interference term per unordered pair. Two-mode tables store
per-mode complex factor grids and reconstruct 4D quantities as sums of
products, never materializing the 4D array.
"""

from __future__ import annotations

import math
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
    abs_4d_with_estimate,
    integral_with_estimate,
)
from .states import (
    FOCK,
    Primitive,
    SingleModeState,
    TwoModeState,
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


def default_grid(state, *, extent: float = None, points: int = None) -> PhaseGrid:
    """Default evaluation grid for a state.

    Squeezed terms stretch the dilated axis extent by e^|r| with the node
    spacing kept fixed. The contracted axis is not refined, so a squeezed
    term's features along it span e^-|r| times as many nodes.
    """
    if isinstance(state, SingleModeState):
        base_e = DEFAULT_SINGLE_MODE_EXTENT if extent is None else float(extent)
        base_n = DEFAULT_SINGLE_MODE_POINTS if points is None else int(points)
        return PhaseGrid((_scaled_mode(base_e, base_n, state.primitives),))
    if isinstance(state, TwoModeState):
        base_e = DEFAULT_TWO_MODE_EXTENT if extent is None else float(extent)
        base_n = DEFAULT_TWO_MODE_POINTS if points is None else int(points)
        return PhaseGrid((
            _scaled_mode(base_e, base_n, state.mode_primitives(0)),
            _scaled_mode(base_e, base_n, state.mode_primitives(1)),
        ))
    raise DomainError(f"unsupported state type {type(state)!r}")


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


class SingleModeTermTable:
    """Real term-pair decomposition of a single-mode distribution.

    Immutable by convention.
    """

    n_modes = 1

    def __init__(self, representation, grid, primitives, amplitudes, cross, cross_ints):
        self.representation = representation
        self.grid = grid
        self.primitives = tuple(primitives)
        self.amplitudes = tuple(complex(c) for c in amplitudes)
        self._cross = cross
        self._cross_ints = cross_ints

    def _grid_of(self, i, j):
        if (i, j) in self._cross:
            return self._cross[(i, j)]
        return np.conj(self._cross[(j, i)])

    def _int_of(self, i, j):
        if (i, j) in self._cross_ints:
            return self._cross_ints[(i, j)]
        return np.conj(self._cross_ints[(j, i)])

    def pair_keys(self):
        return _hermitian_keys(len(self.primitives))

    def pair_values(self, i, j) -> np.ndarray:
        """Real combined term f_ij on the grid."""
        c = self.amplitudes
        if i == j:
            return (abs(c[i]) ** 2) * self._grid_of(i, i).real
        gamma_ij = c[i] * np.conj(c[j])
        if self.representation.hermitian_pairs:
            # The (j, i) product is the conjugate of the (i, j) one, so their
            # sum is twice its real part, bit for bit.
            return 2.0 * (gamma_ij * self._grid_of(i, j)).real
        combined = gamma_ij * self._grid_of(i, j) + np.conj(gamma_ij) * self._grid_of(j, i)
        return combined.real

    def pair_integral(self, i, j) -> float:
        c = self.amplitudes
        if i == j:
            return float(((abs(c[i]) ** 2) * self._int_of(i, i)).real)
        gamma_ij = c[i] * np.conj(c[j])
        return float((gamma_ij * self._int_of(i, j)
                      + np.conj(gamma_ij) * self._int_of(j, i)).real)

    def pair_abs_with_estimate(self, key, threads: int = 1) -> tuple:
        values = self.pair_values(*key)
        return integral_with_estimate(np.abs(values), self.grid.mode(0))

    def total_values(self) -> np.ndarray:
        total = None
        for key in self.pair_keys():
            term = self.pair_values(*key)
            total = term if total is None else total + term
        return total

    def total_integral(self) -> float:
        return math.fsum(self.pair_integral(*k) for k in self.pair_keys())

    @property
    def norm_check(self) -> float:
        return self.total_integral()


class TwoModeTermTable:
    """Term-pair decomposition of a two-mode distribution.

    Each pair term is a short sum of products of per-mode complex factor
    grids, with the real part taken after pairing. 4D integrals stream the
    expanded real products through the tiled engine.
    """

    n_modes = 2

    def __init__(self, representation, grid, term_primitives, amplitudes,
                 cross_by_mode, ints_by_mode):
        self.representation = representation
        self.grid = grid
        self.term_primitives = tuple(term_primitives)
        self.amplitudes = tuple(complex(c) for c in amplitudes)
        self._cross = cross_by_mode      # (dict for mode 1, dict for mode 2)
        self._ints = ints_by_mode

    def _mode_grid(self, mode, k, l):
        table = self._cross[mode]
        if (k, l) in table:
            return table[(k, l)]
        return np.conj(table[(l, k)])

    def _mode_int(self, mode, k, l):
        table = self._ints[mode]
        if (k, l) in table:
            return table[(k, l)]
        return np.conj(table[(l, k)])

    def pair_keys(self):
        return _hermitian_keys(len(self.amplitudes))

    def stored_factors(self, mode: int) -> dict:
        """Ordered-pair complex factor grids held for one mode."""
        return dict(self._cross[mode])

    def products(self, k, l):
        """Complex factor products whose paired real part is the term f_kl."""
        c = self.amplitudes
        if k == l:
            return [(abs(c[k]) ** 2 + 0.0j,
                     self._mode_grid(0, k, k), self._mode_grid(1, k, k))]
        return [
            (c[k] * np.conj(c[l]), self._mode_grid(0, k, l), self._mode_grid(1, k, l)),
            (c[l] * np.conj(c[k]), self._mode_grid(0, l, k), self._mode_grid(1, l, k)),
        ]

    def real_products(self, keys=None):
        """Expand Re[gamma D1 (x) D2] into real separable products."""
        if keys is None:
            keys = self.pair_keys()
        out = []
        for k, l in keys:
            for gamma, d1, d2 in self.products(k, l):
                if gamma == 0:
                    continue
                w = gamma * d1
                out.append((np.ascontiguousarray(w.real), np.ascontiguousarray(d2.real)))
                if np.iscomplexobj(d2):
                    out.append((np.ascontiguousarray(-w.imag), np.ascontiguousarray(d2.imag)))
        return out

    def pair_integral(self, k, l) -> float:
        c = self.amplitudes
        if k == l:
            total = (abs(c[k]) ** 2) * self._mode_int(0, k, k) * self._mode_int(1, k, k)
        else:
            total = (c[k] * np.conj(c[l]) * self._mode_int(0, k, l) * self._mode_int(1, k, l)
                     + c[l] * np.conj(c[k]) * self._mode_int(0, l, k) * self._mode_int(1, l, k))
        return float(total.real)

    def pair_abs_with_estimate(self, key, threads: int = 1) -> tuple:
        k, l = key
        if k == l and self.representation.hermitian_pairs:
            # Exact single real product: |f| factorizes across the modes.
            # abs_4d_with_estimate's closed form gives the same value to
            # 2e-16 but costs about 100x more per term (QR, SVD, a sort
            # and a prefix sum over every point), and its estimate would be
            # the decimated sum instead of the first-order ea*b + a*eb.
            scale = abs(self.amplitudes[k]) ** 2
            f1 = np.abs(self._mode_grid(0, k, k).real)
            f2 = np.abs(self._mode_grid(1, k, k).real)
            a, ea = integral_with_estimate(f1, self.grid.mode(0))
            b, eb = integral_with_estimate(f2, self.grid.mode(1))
            return scale * a * b, scale * (ea * b + a * eb)
        return abs_4d_with_estimate(self.real_products([key]), self.grid, threads=threads)

    def total_integral(self) -> float:
        return math.fsum(self.pair_integral(*k) for k in self.pair_keys())

    def total_abs_with_estimate(self, threads: int = 1) -> tuple:
        return abs_4d_with_estimate(self.real_products(), self.grid, threads=threads)

    @property
    def norm_check(self) -> float:
        return self.total_integral()

    def with_amplitudes(self, amplitudes) -> "TwoModeTermTable":
        if len(amplitudes) != len(self.amplitudes):
            raise DomainError("amplitude count mismatch")
        return TwoModeTermTable(self.representation, self.grid, self.term_primitives,
                                amplitudes, self._cross, self._ints)


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


def build_term_table(state, representation, grid: PhaseGrid = None):
    """Evaluate the term-pair decomposition of a normalized state.

    The total integral over the grid must come out within 1e-3 of one,
    otherwise the grid does not cover the state (or the state was not
    normalized) and GridCoverageError is raised.
    """
    rep = Representation.parse(representation)
    if isinstance(state, SingleModeState):
        if grid is None:
            grid = default_grid(state)
        if grid.n_modes != 1:
            raise DomainError("single-mode state needs a single-mode grid")
        cross, ints = _build_cross_maps(rep, state.primitives, grid.mode(0))
        table = SingleModeTermTable(rep, grid, state.primitives,
                                    state.amplitudes, cross, ints)
    elif isinstance(state, TwoModeState):
        if grid is None:
            grid = default_grid(state)
        if grid.n_modes != 2:
            raise DomainError("two-mode state needs a two-mode grid")
        cross1, ints1 = _build_cross_maps(rep, state.mode_primitives(0), grid.mode(0))
        cross2, ints2 = _build_cross_maps(rep, state.mode_primitives(1), grid.mode(1))
        table = TwoModeTermTable(rep, grid,
                                 tuple(zip(state.mode_primitives(0),
                                           state.mode_primitives(1))),
                                 state.amplitudes,
                                 (cross1, cross2), (ints1, ints2))
    else:
        raise DomainError(f"unsupported state type {type(state)!r}")
    norm = table.total_integral()
    if not np.isfinite(norm):
        raise QuadratureError("term table integral is not finite")
    if abs(norm - 1.0) > 1e-3:
        raise GridCoverageError(
            f"total integral {norm:.6f} deviates from 1 by more than 1e-3; "
            "the grid does not cover the state's support (or the state is "
            "not normalized)")
    return table
