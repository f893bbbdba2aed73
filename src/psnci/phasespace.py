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
  Coherent overlaps with squeezed primitives have a closed form too
  (_coherent_amplitude_grid): a Gaussian envelope, the phase
  e^(i tanh(r) qp) and a three-term recurrence in (q - ip) / cosh r.

* Rivier: real part of the Kirkwood kernel
      K_ij(q, p) = (2 pi)^(-1/2) psi_i(q) phi_j*(p) e^(-iqp),
  combined hermitially per term pair.

Every primitive is a Fock state or a squeezed Fock state with real r, so
its wavefunction is real with parity (-1)^n. Each per-mode grid of a pair
of primitives i, j (the Wigner cross term, the Husimi pair product and,
with n_j = 0, each amplitude <alpha|prim_i>, the Kirkwood kernel and,
with n_i = n_j = 0, the shared e^(-iqp) grid) therefore satisfies

      D_ij(q, -p) = conj D_ij(q, p),   D_ij(-q, -p) = (-1)^(n_i + n_j) D_ij(q, p).

The table builder evaluates and stores every grid on the q >= 0, p >= 0
quadrant of its grid, whose axes are symmetric about 0 (grids.Axis
requires lo == -hi). Every 2D integral of a stored grid is a sum over that
quadrant folded by these mirrors, and a reader of whole grids gets fresh
ones filled by the mirrors on each read. One rule, _symmetry, decides from
the amplitudes and parity signs which mirrors an |f| is symmetric under,
for the single-mode folds and for the 4D kernel alike.

Unsqueezed primitives (r = 0) add the 90-degree rotation R,
(q, p) -> (-p, q): with phi_n = (-i)^n psi_n, and D_ji = conj D_ij for
the Wigner and Husimi grids, every such grid satisfies

      D_ij(-p, q) = (-i)^(n_i - n_j) conj D_ji(q, p).

A second rule, _rotation, decides from it and the photon numbers of the
terms when a two-mode |f| is symmetric under R in both modes, for the 4D
kernel: on square mode grids with equal q and p axes, where R maps nodes
onto nodes.

The one kernel quadrature, the Wigner cross term of unequally squeezed
primitives, sums over midpoint nodes symmetric about 0: it evaluates the
half y >= 0 and adds every node's mirror image (the centre node of an odd
count, its own image, with weight 1/2), pairing psi_i(q + y) psi_j(q - y)
with psi_i(q - y) psi_j(q + y). Every phase grid e^(icyp), the kernel's
(c = 2), the squeezed amplitude's (c = tanh r) and the Kirkwood one
(c = -1), comes from _phase_table along uniform nodes y of stated spacing.

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
from typing import NamedTuple

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
    _RANK_CUT,
    SeparableSum,
    abs_4d_with_estimate,
    factor_basis,
)
from .states import (
    FOCK,
    Primitive,
    momentum_wavefunction,
    position_wavefunction,
)

_KIRKWOOD_NORM = (2.0 * math.pi) ** -0.5
_LN2 = math.log(2.0)

# Node-spacing safety for the oscillatory kernel quadrature: the sampling rate
# exceeds the integrand bandwidth by this factor, keeping aliasing far
# below double precision for Gaussian-enveloped integrands.
_BAND_SAFETY = 1.7
_BAND_PAD = 24.0
_MIN_NODES = 96

# A table whose total integral is farther than this from one does not
# cover its state (build_term_table raises); indicator results report it.
NORM_CHECK_TOLERANCE = 1e-3


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


def _half_nodes(half_width: float, nodes: int) -> tuple:
    """The y >= 0 half of the ``nodes`` midpoint nodes on [-half_width,
    half_width], which lie symmetrically about 0, with their weights in a
    sum over y and -y, and the spacing dy. An even count has the nodes
    (k + 1/2) dy, all of weight 1; an odd one has k dy, and its centre node
    y = 0, its own mirror image, has weight 1/2."""
    dy = 2.0 * half_width / nodes
    y = (np.arange((nodes + 1) // 2) + 0.5 * (1 - nodes % 2)) * dy
    weights = np.ones(len(y))
    if nodes % 2:
        weights[0] = 0.5
    return y, weights, dy


def _phase_table(c: float, y: np.ndarray, dy: float, p) -> np.ndarray:
    """e^(icyp) on the len(y) x len(p) grid of the uniform nodes
    y_k = y_0 + k dy, dy stated by the axis or node rule of the y, from two
    small exp tables: with k = L h + m and L = isqrt(len(y)),
    e^(icy_k p) = e^(icy_(Lh) p) e^(icm dy p), one complex product per
    entry, within a few eps |c| max|y| |p| of the exact phase."""
    step = math.isqrt(len(y))
    coarse = np.exp(1j * c * np.outer(y[::step], p))
    fine = np.exp(1j * c * np.outer(np.arange(step) * dy, p))
    return (coarse[:, None, :] * fine[None, :, :]).reshape(-1, len(p))[:len(y)]


def _flushed(integrand: np.ndarray) -> np.ndarray:
    """``integrand`` with its subnormal entries set to 0, in place. They
    come from Gaussian tails, move a matrix product by far less than one
    rounding, and made the kernel quadrature's matmuls about twice as slow."""
    tiny = np.finfo(float).tiny
    np.copyto(integrand, 0.0, where=(integrand < tiny) & (integrand > -tiny))
    return integrand


def _wigner_numeric_grid(prim_i: Primitive, prim_j: Primitive, q, p) -> np.ndarray:
    """Kernel quadrature on the len(q) x len(p) grid via two real matrix
    products, folded over y and -y: with fp = psi_i(q + y) psi_j(q - y) and
    fm = psi_i(q - y) psi_j(q + y) on the half nodes y >= 0 of weight w,
        W_ij = (dy / pi) [((fp + fm) w) @ cos(2yp) - i ((fp - fm) w) @ sin(2yp)],
    with cos(2yp) and sin(2yp) the parts of _phase_table(2, y, dy, p)."""
    p_absmax = max(1.0, float(np.max(np.abs(p))))
    y, weights, dy = _half_nodes(*_kernel_sampling(prim_i, prim_j, p_absmax))
    plus, minus = q[:, None] + y[None, :], q[:, None] - y[None, :]
    fp = position_wavefunction(prim_i, plus) * position_wavefunction(prim_j, minus)
    fm = position_wavefunction(prim_i, minus) * position_wavefunction(prim_j, plus)
    weights *= dy / math.pi
    table = _phase_table(2.0, y, dy, p)
    grid = np.empty((len(q), len(p)), dtype=complex)
    grid.real = _flushed((fp + fm) * weights) @ np.ascontiguousarray(table.real)
    grid.imag = _flushed((fm - fp) * weights) @ np.ascontiguousarray(table.imag)
    return grid


def _wigner_pair_grid(prim_i: Primitive, prim_j: Primitive, q, p) -> np.ndarray:
    if prim_i.r == prim_j.r:
        s = math.exp(prim_i.r)
        return np.asarray(cross_wigner_fock_closed(prim_i.n, prim_j.n,
                                                   s * q[:, None], p[None, :] / s))
    return _wigner_numeric_grid(prim_i, prim_j, q, p)


# ---------------------------------------------------------------------------
# Husimi evaluation
# ---------------------------------------------------------------------------

def _coherent_amplitude_grid(prim: Primitive, mode) -> np.ndarray:
    """<alpha|prim> on the len(q) x len(p) grid of a mode's nodes, alpha = q + ip.

    Fock states use the closed overlap e^(-|alpha|^2 / 2) (alpha*)^n / sqrt(n!).
    Squeezed ones use the Gaussian-Hermite integral of Gradshteyn & Ryzhik
    7.374 over psi (squeezed number states as in Kim, de Oliveira and
    Knight, Phys. Rev. A 40, 2494 (1989)): with t = tanh r, w = (q - ip) / cosh r,
        <alpha|n, r> = (n! cosh r)^(-1/2) e^(-q^2 / (1 + e^(-2r)))
                       e^(-p^2 / (1 + e^(2r))) e^(itqp) g_n(w),
    g_n(w) = (-t/2)^(n/2) H_n(w / sqrt(-2t)) by g_0 = 1, g_1 = w and
    g_(k+1) = w g_k + k t g_(k-1) (the Fock form at r = 0). The recurrence
    starts from the envelope, so far out it underflows to 0 rather than
    overflowing; e^(itqp) is _phase_table along the uniform q nodes.
    """
    q, p = mode.q.centers, mode.p.centers
    if prim.kind == FOCK:
        u = q[:, None] ** 2 + p[None, :] ** 2
        env = np.exp(-0.5 * u - 0.5 * specialfn.log_factorial(prim.n))
        if prim.n == 0:
            return env.astype(complex)
        return env * (q[:, None] - 1j * p[None, :]) ** prim.n
    r, t = prim.r, math.tanh(prim.r)
    scale = 1.0 / math.sqrt(math.factorial(prim.n) * math.cosh(r))
    g = np.outer(np.exp(q * q / -(1.0 + math.exp(-2.0 * r))) * scale,
                 np.exp(p * p / -(1.0 + math.exp(2.0 * r))))
    amp = _phase_table(t, q, mode.q.delta, p)
    if prim.n:
        s = 1.0 / math.cosh(r)
        w = (s * q)[:, None] - 1j * (s * p)[None, :]
        g_prev, g = g, w * g
        if prim.n > 1:
            g_prev, buf = g_prev.astype(complex), np.empty_like(g)
        for k in range(1, prim.n):
            np.multiply(w, g, out=buf)
            g_prev *= k * t
            buf += g_prev
            g_prev, g, buf = g, buf, g_prev
    return np.multiply(amp, g, out=amp)


def _husimi_pair_grid(amp_i: np.ndarray, amp_j: np.ndarray) -> np.ndarray:
    pair = amp_i * np.conj(amp_j)
    # numpy divides by the complex pi + 0j as (x + 0) times 1 / pi: this is
    # pair / pi to the bit (but for the sign of a zero), at a sixth of the cost
    pair *= 1.0 / math.pi
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
    psi_q = _KIRKWOOD_NORM * np.asarray(position_wavefunction(prim_i, q))
    kernel = np.outer(psi_q, np.conj(momentum_wavefunction(prim_j, p)))
    return np.multiply(kernel, phase, out=kernel)


# ---------------------------------------------------------------------------
# Quadrant grids
# ---------------------------------------------------------------------------

@functools.cache
def _axis_fold(n: int) -> np.ndarray:
    """Rows of weights of the evaluated nodes of an n-node axis, its upper
    half from the middle index on, in the folded sums: 1 for the node; 1 if
    its mirror image is a node not evaluated (not the middle node of an odd
    axis); and each of these only where that image's full index is even,
    for the decimated estimate. Kept per n, read-only: every table sum
    reads them."""
    start = n // 2
    index = np.arange(start, n)
    mirror = n - 1 - index
    filled = mirror < start
    fold = np.array([np.ones(len(index)), filled, index % 2 == 0,
                     filled & (mirror % 2 == 0)], dtype=float)
    fold.setflags(write=False)
    return fold


def _mirror(quadrant: np.ndarray, mode: ModeAxes, sign: int) -> np.ndarray:
    """The whole grid of a stored quadrant, filled by D(q, -p) = conj D(q, p)
    and D(-q, p) = sign conj D(q, p), sign = (-1)^(n_i + n_j). The filled
    values sit at the exact negations of evaluated nodes, which may differ
    from the axis's own nodes there by one rounding."""
    nq, n_p = mode.q.n, mode.p.n
    sq, sp = mode.q.n // 2, mode.p.n // 2
    g = np.empty((nq, n_p), dtype=complex)
    g[sq:, sp:] = quadrant
    np.conjugate(g[sq:, n_p - sp:][:, ::-1], out=g[sq:, :sp])
    np.conjugate(g[nq - sq:][::-1], out=g[:sq])
    if sign < 0:
        np.negative(g[:sq], out=g[:sq])
    return g


def _folded_integral(quadrant: np.ndarray, sign: int, mode: ModeAxes,
                     decimated: bool = False) -> complex:
    """int D over a mode's whole grid from its stored quadrant: each node
    stands for D there and sign D at its P image (-q, -p), conj D at its T
    image (q, -p) and sign conj D at its PT image (-q, p). ``decimated``
    counts only the nodes and images at even indices of both axes, times 4:
    the integral of the decimated estimate."""
    rows = slice(2, 4) if decimated else slice(0, 2)
    q, p = _axis_fold(mode.q.n)[rows], _axis_fold(mode.p.n)[rows]
    s = q @ quadrant @ p.T
    area = 4.0 * mode.cell_area if decimated else mode.cell_area
    return complex(s[0, 0] + sign * s[1, 1] + np.conj(s[0, 1] + sign * s[1, 0])) * area


def _symmetry(pairs) -> tuple:
    """Whether f = Re sum gamma D is even or odd under P, (q, p) -> (-q, -p),
    T, p -> -p, and PT, q -> -q, for the (gamma, parity sign) ``pairs`` of
    its terms, each D a grid, or a product of per-mode grids, with
    D(-z) = sign D(z) and D(q, -p) = conj D(q, p).

    T takes Re(gamma D) to Re(conj(gamma) D): to itself if gamma is real,
    to its negative if gamma is imaginary. An element holds if it gives
    every term with non-zero gamma one sign: P the parity sign, T that of
    gamma, PT their product; so any two imply the third. Real and
    imaginary are to within _RANK_CUT of the largest |gamma|, which keeps
    T for amplitudes that share a global phase, whose products
    c_k conj(c_l) are real up to rounding. The rotation R of both modes
    takes D_ij to conj D_ji, not to +-itself, so no sign here decides it:
    _rotation does, for the 4D kernel.
    """
    pairs = [(complex(gamma), sign) for gamma, sign in pairs]
    tol = _RANK_CUT * max((abs(gamma) for gamma, _ in pairs), default=0.0)
    signs = [(sign, 1 if abs(gamma.imag) <= tol else -1 if abs(gamma.real) <= tol else 0)
             for gamma, sign in pairs if gamma != 0]
    return tuple(len(held) <= 1 and 0 not in held for held in (
        {p for p, _ in signs}, {t for _, t in signs}, {p * t for p, t in signs}))


def _rotation(pairs, modes) -> bool:
    """Whether f = Re sum gamma prod_m D_m,kl is even or odd under R,
    (q, p) -> (-p, q) in every mode at once, for the (gamma, per-mode
    turns) ``pairs`` of its products on the ``modes`` axes. A turn is
    n_k - n_l for a pair of unsqueezed primitives, None otherwise.

    Unsqueezed, every factor grid has D_kl(-p, q) = (-i)^(n_k - n_l)
    conj D_lk(q, p), so f(Rz) = Re sum gamma_kl i^(N_l - N_k) prod_m D_m,kl(z),
    N the photon number of a term over both modes. R holds if every
    product with non-zero gamma has the same i^(N_l - N_k), 1 or -1 (exact
    in integers mod 4), and maps nodes onto nodes: each mode's q and p
    axes are equal. Then P = R^2 holds too, with sign +1.
    """
    held = {None if None in turns else sum(turns) % 4 for gamma, turns in pairs if gamma != 0}
    return all(mode.q == mode.p for mode in modes) and len(held) <= 1 and held <= {0, 2}


def _folded_abs(terms, mode: ModeAxes) -> tuple:
    """int |f| over a mode's whole grid and its estimate (the distance to 4
    times the sum over the even-index nodes), for f = Re sum gamma D over
    the (gamma, stored quadrant, parity sign) triples ``terms``. With E and
    O the sums of gamma D over the terms of sign +1 and -1, |f| is
    |Re(E + O)| at a node and |Re(E - O)| at its P image, and the same with
    conj D at its T and PT images. An image under an element that
    _symmetry says holds shares the node's grid: bit for bit when every
    gamma is exactly real or exactly imaginary, as under P always; a gamma
    that is so only to within the tolerance of _symmetry moves the sum by
    a few roundings from the unfolded one."""
    def at(conj, triples):  # folded |f| with D (conj -1) or conj D (+1)
        return q @ np.abs(functools.reduce(operator.add, (
            gamma.real * d.real if gamma.imag == 0.0
            else gamma.real * d.real + (conj * gamma.imag) * d.imag
            for gamma, d, _ in triples))) @ p.T
    q, p = _axis_fold(mode.q.n), _axis_fold(mode.p.n)
    flipped = [(-gamma if sign < 0 else gamma, d, sign) for gamma, d, sign in terms]
    p_sym, t_sym, pt_sym = _symmetry([(gamma, sign) for gamma, _, sign in terms])
    node = at(-1.0, terms)
    p_image = node if p_sym else at(-1.0, flipped)
    t_image = node if t_sym else at(1.0, terms)
    pt_image = (node if pt_sym else p_image if t_sym else t_image if p_sym
                else at(1.0, flipped))
    fine = float(node[0, 0] + p_image[1, 1] + t_image[0, 1] + pt_image[1, 0]) * mode.cell_area
    coarse = float(node[2, 2] + p_image[3, 3] + t_image[2, 3] + pt_image[3, 2]) * 4.0 * mode.cell_area
    return fine, abs(fine - coarse)


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

    Per mode it holds the complex factor grids D_m,kl on their evaluated
    quadrant, their parity signs (-1)^(n_k + n_l) and integrals, and, from
    the first 4D integral on, the factor basis built from their whole
    grids; it holds no whole grid. Integrals of |f| on one mode, of a pair
    term or the total, are folded sums over the quadrant; two-mode ones are
    sums of separable products and never materialize the 4D array.
    Immutable by convention.
    """

    def __init__(self, representation, grid, amplitudes, maps_by_mode):
        """``maps_by_mode``: each mode's _build_cross_maps."""
        self.representation = representation
        self.grid = grid
        self.amplitudes = tuple(complex(c) for c in amplitudes)
        self._cross, self._signs, self._ints, self._turns = zip(*maps_by_mode)
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

    def _mode_terms(self, key) -> list:
        """(gamma, stored quadrant, parity sign) triples of a single-mode
        f_kl = Re sum gamma D. A hermitian pair is the one triple of
        2 gamma_kl D_kl: the (l, k) product is the conjugate of the (k, l)
        one, so their sum is twice its real part, bit for bit."""
        k, l = key
        c, stored, signs = self.amplitudes, self._cross[0], self._signs[0]
        if k == l or not self.representation.hermitian_pairs:
            return [(gamma, d, signs[key]) for gamma, (d,) in self._terms(k, l, [stored])]
        return [(2.0 * c[k] * np.conj(c[l]), stored[key], signs[key])]

    def pair_keys(self):
        return _hermitian_keys(len(self.amplitudes))

    def stored_factors(self, mode: int) -> dict:
        """Ordered-pair complex factor grids held for one mode, mirrored
        whole afresh on each call."""
        axes, signs = self.grid.mode(mode), self._signs[mode]
        return {key: _mirror(d, axes, signs[key]) for key, d in self._cross[mode].items()}

    def pair_integral(self, k, l) -> float:
        return float(self._paired(k, l, self._ints).real)

    def total_integral(self) -> float:
        return math.fsum(self.pair_integral(*k) for k in self.pair_keys())

    def decimated_integral(self) -> float:
        """total_integral on the nodes with even indices on every axis,
        times 4 per mode, from per-mode folded sums of the stored quadrants
        (computed on each call)."""
        ints = [{key: _folded_integral(d, signs[key], axes, decimated=True)
                 for key, d in cross.items()}
                for cross, signs, axes in zip(self._cross, self._signs, self.grid.modes)]
        return math.fsum(float(self._paired(k, l, ints).real) for k, l in self.pair_keys())

    def with_amplitudes(self, amplitudes) -> "TermTable":
        if len(amplitudes) != len(self.amplitudes):
            raise DomainError("amplitude count mismatch")
        table = TermTable(self.representation, self.grid, amplitudes,
                          zip(self._cross, self._signs, self._ints, self._turns))
        table._bases = self._bases
        return table

    def abs_with_estimate(self, keys=None, threads: int = 1) -> tuple:
        """int |sum f_kl| over ``keys`` (default all) on the grid, with its
        decimation estimate.

        One mode folds the sum over the stored quadrant (_folded_abs); two
        modes use the factorized diagonal below for a single Hermitian
        diagonal pair, else the 4D kernel on ``threads`` workers.
        """
        if keys is None:
            keys = self.pair_keys()
        if self.n_modes == 1:
            return _folded_abs([t for key in keys for t in self._mode_terms(key)],
                               self.grid.mode(0))
        if len(keys) == 1 and keys[0][0] == keys[0][1] and self.representation.hermitian_pairs:
            # Exact single real product: |f| factorizes across the modes.
            # The 4D kernel's closed form gives the same value to 2e-16,
            # but even with the factor bases built it costs 46-77x more per
            # term on the default grid (3 ms against 0.04-0.06 ms: factors,
            # a sort and a prefix sum over every point), and its estimate
            # is the decimated sum, not the first-order ea*b + a*eb.
            [(scale, (d1, d2))] = self._terms(*keys[0], self._cross)
            a, ea = _folded_abs([(1.0, d1, 1)], self.grid.mode(0))
            b, eb = _folded_abs([(1.0, d2, 1)], self.grid.mode(1))
            return scale * a * b, scale * (ea * b + a * eb)
        return abs_4d_with_estimate(self.real_products(keys), self.grid, threads=threads)

    def values(self, keys=None) -> np.ndarray:
        """sum f_kl over ``keys`` (default all), in key order, on the whole
        grid of a single-mode table."""
        if keys is None:
            keys = self.pair_keys()
        axes = self.grid.mode(0)

        def pair(key):  # f_kk = |c_k|^2 Re D_kk; Re(gamma D) would flip some signed zeros
            parts = (gamma * _mirror(d, axes, sign).real if key[0] == key[1]
                     else (gamma * _mirror(d, axes, sign)).real
                     for gamma, d, sign in self._mode_terms(key))
            return functools.reduce(operator.add, parts)
        return functools.reduce(operator.add, map(pair, keys))

    # Two-mode tables: real separable products for the 4D kernel.

    def real_products(self, keys=None) -> SeparableSum:
        """sum_kl f_kl over ``keys`` (default all) on each mode's factor
        basis, built on first use from the Re and Im parts of its whole
        grids: grid i is the vector e_2i + i e_2i+1, as a column in mode 1,
        so the real part of the vectors' paired sum is the core. It states
        the _symmetry of the products' gamma and signs, the product of their
        per-mode parity signs; the _rotation of their gamma and turns; and,
        as its mode2_parity, the P of _symmetry with their mode-2 signs
        alone: every product with non-zero gamma has one (always so for a
        single pair term)."""
        if keys is None:
            keys = self.pair_keys()
        units = []
        for mode, stored in enumerate(self._cross):
            if mode not in self._bases:
                self._bases[mode] = factor_basis(
                    [part for d in self.stored_factors(mode).values() for part in (d.real, d.imag)])
            eye = np.eye(2 * len(stored))
            unit = eye[0::2] + 1j * eye[1::2]
            units.append(dict(zip(stored, unit[:, :, None] if mode == 0 else unit)))
        core = sum(self._paired(k, l, units).real for k, l in keys)
        terms = [term for k, l in keys for term in self._terms(k, l, self._signs)]
        turns = [term for k, l in keys for term in self._terms(k, l, self._turns)]
        mode2_parity = _symmetry([(gamma, signs[1]) for gamma, signs in terms])[0]
        return SeparableSum(self._bases[0], self._bases[1], core,
                            _symmetry([(gamma, math.prod(signs)) for gamma, signs in terms])
                            + (_rotation(turns, self.grid.modes),),
                            mode2_parity)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _mode_phase(mode_cache: dict, mode) -> np.ndarray:
    """e^(-iqp) on the mode's nodes, _phase_table(-1) along its uniform q
    nodes, computed on first use and kept in the mode's cache for every
    later Kirkwood pair. Like every factor grid it is conjugated by
    p -> -p and even under (q, p) -> (-q, -p), so _build_cross_maps needs
    it on the non-negative quadrant only."""
    if "phase" not in mode_cache:
        mode_cache["phase"] = _phase_table(-1.0, mode.q.centers, mode.q.delta, mode.p.centers)
    return mode_cache["phase"]


def _pair_grid(rep: Representation, prim_i: Primitive, prim_j: Primitive,
               mode: ModeAxes, mode_cache: dict) -> np.ndarray:
    q, p = mode.q.centers, mode.p.centers
    if rep is Representation.WIGNER:
        return _wigner_pair_grid(prim_i, prim_j, q, p)
    if rep is Representation.HUSIMI:
        for prim in (prim_i, prim_j):
            if prim not in mode_cache:
                mode_cache[prim] = _coherent_amplitude_grid(prim, mode)
        return _husimi_pair_grid(mode_cache[prim_i], mode_cache[prim_j])
    return _kirkwood_pair_grid(prim_i, prim_j, q, p, _mode_phase(mode_cache, mode))


class _Nodes(NamedTuple):
    """The evaluated nodes of an axis, uniform with its spacing ``delta``,
    standing in for it in _pair_grid."""

    centers: np.ndarray
    delta: float

    @property
    def n(self) -> int:
        return len(self.centers)


def _build_cross_maps(rep, prims, mode):
    """Each mode's factor grids D_ij, their parity signs (-1)^(n_i + n_j),
    their integrals, and the turns of every ordered pair (_rotation).

    The grids are evaluated and kept on the nodes from the middle index of
    each axis on: the q >= 0, p >= 0 quadrant. _mirror fills in the rest for
    the readers of whole grids; the integrals are folded sums over the
    quadrant.
    """
    keys = (_hermitian_keys(len(prims)) if rep.hermitian_pairs
            else _ordered_keys(len(prims)))
    half = ModeAxes(_Nodes(mode.q.centers[mode.q.n // 2:], mode.q.delta),
                    _Nodes(mode.p.centers[mode.p.n // 2:], mode.p.delta))
    mode_cache = {}  # Husimi amplitudes per primitive, or the e^(-iqp) grid
    cross, signs, ints = {}, {}, {}
    turns = {(i, j): u.n - v.n if u.r == 0.0 == v.r else None
             for i, u in enumerate(prims) for j, v in enumerate(prims)}
    for i, j in keys:
        quadrant = _pair_grid(rep, prims[i], prims[j], half, mode_cache)
        if not np.all(np.isfinite(quadrant)):
            raise QuadratureError(
                f"non-finite values in the {rep.value} grid for pair ({i}, {j})")
        cross[(i, j)] = quadrant
        signs[(i, j)] = (-1) ** (prims[i].n + prims[j].n)
        ints[(i, j)] = _folded_integral(quadrant, signs[(i, j)], mode)
    return cross, signs, ints, turns


def build_term_table(state, representation, grid: PhaseGrid = None) -> TermTable:
    """Evaluate the term-pair decomposition of a normalized state.

    The total integral over the grid must come out within
    NORM_CHECK_TOLERANCE of one, otherwise the grid does not cover the
    state (or the state was not normalized) and GridCoverageError is
    raised.
    """
    rep = Representation.parse(representation)
    prims = _mode_primitives(state)
    if grid is None:
        grid = default_grid(state)
    if grid.n_modes != len(prims):
        raise DomainError(f"a {len(prims)}-mode state needs a {len(prims)}-mode grid")
    table = TermTable(rep, grid, state.amplitudes,
                      [_build_cross_maps(rep, mode_prims, grid.mode(m))
                       for m, mode_prims in enumerate(prims)])
    norm = table.total_integral()
    if not np.isfinite(norm):
        raise QuadratureError("term table integral is not finite")
    if abs(norm - 1.0) > NORM_CHECK_TOLERANCE:
        raise GridCoverageError(
            f"total integral {norm:.6f} deviates from 1 by more than 1e-3; "
            "the grid does not cover the state's support (or the state is "
            "not normalized)")
    return table
