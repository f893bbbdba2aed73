"""Independent reference implementations used as test oracles.

Everything here is derived from first principles (explicit polynomial
coefficients, Gaussian integrals done by hand, plain discrete Fourier
sums) and deliberately avoids the code paths under test.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from psnci.errors import DomainError, QuadratureError
from psnci.grids import (
    Axis,
    DEFAULT_SINGLE_MODE_EXTENT,
    DEFAULT_SINGLE_MODE_POINTS,
    DEFAULT_TWO_MODE_EXTENT,
    DEFAULT_TWO_MODE_POINTS,
    ModeAxes,
    PhaseGrid,
)
from psnci.states import State

SQRT_PI = math.sqrt(math.pi)
MAX_ORDER = 64


# --- polynomials by explicit coefficient expansion ------------------------

def hermite_coeffs(n):
    """Coefficients of H_n (ascending powers), from the explicit sum
    H_n(x) = n! sum_m (-1)^m (2x)^(n-2m) / (m! (n-2m)!)."""
    coeffs = [0.0] * (n + 1)
    for m in range(n // 2 + 1):
        k = n - 2 * m
        coeffs[k] += ((-1) ** m * math.factorial(n) * 2**k
                      / (math.factorial(m) * math.factorial(k)))
    return coeffs


def hermite_phys(n, x):
    """Physicists' Hermite polynomial H_n(x), 0 <= n <= 64, by the upward
    recurrence H_{k+1} = 2 x H_k - 2 k H_{k-1}. Accepts scalars or arrays;
    x must be finite."""
    if not isinstance(n, (int, np.integer)) or not 0 <= n <= MAX_ORDER:
        raise DomainError(f"n must be an integer in [0, {MAX_ORDER}], got {n!r}")
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise DomainError("hermite_phys requires finite x")
    h_prev = np.ones_like(xa)
    h_cur = h_prev if n == 0 else 2.0 * xa
    for k in range(1, n):
        h_cur, h_prev = 2.0 * xa * h_cur - 2.0 * k * h_prev, h_cur
    if np.ndim(x) == 0 and not isinstance(x, np.ndarray):
        return float(h_cur)
    return h_cur


def laguerre_coeffs_exact(n, k):
    """Exact rational coefficients of L_n^k (ascending powers), from
    L_n^k(x) = sum_i (-1)^i C(n+k, n-i) x^i / i!."""
    return [Fraction((-1) ** i * math.comb(n + k, n - i), math.factorial(i))
            for i in range(n + 1)]


def polyval(coeffs, x):
    out = np.zeros_like(np.asarray(x, dtype=float))
    for c in reversed(coeffs):
        out = out * x + float(c)
    return out


def polyval_exact(coeffs, x):
    """Horner evaluation in exact rational arithmetic, rounded once."""
    def at(v):
        acc = Fraction(0)
        xv = Fraction(v)
        for c in reversed(coeffs):
            acc = acc * xv + Fraction(c)
        return float(acc)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    return np.array([at(v) for v in xa])


def polyder(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


# --- oscillator wavefunctions by direct composition ------------------------

def psi_n_direct(n, x):
    """pi^(-1/4) (2^n n!)^(-1/2) H_n(x) e^(-x^2/2) via explicit coefficients."""
    norm = math.pi ** -0.25 / math.sqrt(2.0**n * math.factorial(n))
    return norm * polyval(hermite_coeffs(n), x) * np.exp(-0.5 * np.asarray(x, float) ** 2)


def fourier_transform_quadrature(f_vals, x, p):
    """(2 pi)^(-1/2) int f(x) e^(-ixp) dx as a plain Riemann sum."""
    dx = x[1] - x[0]
    return np.array([
        np.sum(f_vals * np.exp(-1j * x * pk)) * dx for pk in np.atleast_1d(p)
    ]) / math.sqrt(2.0 * math.pi)


# --- closed-form distribution references -----------------------------------

def wigner_fock_diag(n, q, p):
    """(-1)^n / pi * L_n(2(q^2+p^2)) e^(-(q^2+p^2)) via explicit coefficients."""
    u = np.asarray(q, float) ** 2 + np.asarray(p, float) ** 2
    return ((-1) ** n / math.pi) * polyval(laguerre_coeffs_exact(n, 0), 2 * u) * np.exp(-u)


def wigner_vacuum_fock1_cross_pair(q1, p1, q2, p2, a, b):
    """Combined real interference term of a|0>|1> + b|1>|0>:
    (4ab/pi^2) (q1 q2 + p1 p2) exp(-q1^2-p1^2-q2^2-p2^2)."""
    g = np.exp(-(q1**2 + p1**2 + q2**2 + p2**2))
    return 4.0 * a * b / math.pi**2 * (q1 * q2 + p1 * p2) * g


def squeezed_vacuum_cross_reference(q, p, r):
    """Unit-amplitude combined real cross term of |0> with |0, r>.

    Gaussian integral of the transform kernel done by hand:
        2 Re W = (2 sqrt(2) / (pi sqrt(1+e^{2r}))) e^{r/2}
                 exp(-(2 e^{2r} q^2 + 2 p^2) / (1+e^{2r}))
                 cos(2 q p (e^{2r} - 1) / (1+e^{2r})).
    Reduces to twice the vacuum Wigner function at r = 0.
    """
    e2r = math.exp(2.0 * r)
    pref = 2.0 * math.sqrt(2.0) * math.exp(0.5 * r) / (math.pi * math.sqrt(1.0 + e2r))
    env = np.exp(-(2.0 * e2r * q**2 + 2.0 * p**2) / (1.0 + e2r))
    osc = np.cos(2.0 * q * p * (e2r - 1.0) / (1.0 + e2r))
    return pref * env * osc


# --- direct pair-grid formulas ---------------------------------------------
# The production Kirkwood kernel takes its e^(-iqp) from a factored phase
# table; this computes it in place, with otherwise the same arithmetic. The
# kernel quadrature oracle sums every one of the production midpoint nodes,
# with the phase computed at each: production folds the sum over +-y and
# factors the phase table, which agrees with it to rounding.

def kirkwood_direct(prim_i, prim_j, q, p):
    """(2 pi)^(-1/2) psi_i(q) phi_j*(p) e^(-iqp) on the len(q) x len(p) grid."""
    from psnci.states import momentum_wavefunction, position_wavefunction

    psi_q = np.asarray(position_wavefunction(prim_i, q))
    phi_p = np.conj(momentum_wavefunction(prim_j, p))
    return (2.0 * math.pi) ** -0.5 * np.outer(psi_q, phi_p) * np.exp(-1j * np.outer(q, p))


def wigner_kernel_direct(prim_i, prim_j, q, p):
    """(1/pi) int psi_i(q + y) psi_j(q - y) e^(-2ipy) dy on the len(q) x len(p)
    grid, as the plain cos and sin sums over the production midpoint nodes."""
    from psnci.phasespace import _kernel_sampling
    from psnci.states import position_wavefunction

    p_absmax = max(1.0, float(np.max(np.abs(p))))
    half_width, nodes = _kernel_sampling(prim_i, prim_j, p_absmax)
    dy = 2.0 * half_width / nodes
    y = (np.arange(nodes) + 0.5 - 0.5 * nodes) * dy
    f = (position_wavefunction(prim_i, q[:, None] + y[None, :])
         * position_wavefunction(prim_j, q[:, None] - y[None, :]))
    arg = 2.0 * y[:, None] * p[None, :]
    return (f @ np.cos(arg) - 1j * (f @ np.sin(arg))) * (dy / math.pi)


def coherent_amplitude_reference(prim, q, p):
    """<alpha|prim>, alpha = q + ip, at one point: the coherent wavefunction
    pi^(-1/4) e^(iqp) e^(-(x - sqrt2 q)^2 / 2) e^(-i sqrt2 px) integrated
    against psi(x) = e^(r/2) psi_n(e^r x) by mpmath.quad (Gauss-Legendre),
    with H_n by its recurrence, all at 18 digits. Breakpoints at
    sqrt2 q + k, |k| <= 9, resolve the coherent Gaussian and breakpoints at
    eighths of psi's support radius its oscillations; the outer pieces run
    to infinity. No node rule of psnci is used."""
    import mpmath

    with mpmath.workdps(18):
        n, s = prim.n, mpmath.exp(prim.r)
        q, p = mpmath.mpf(q), mpmath.mpf(p)
        centre = mpmath.sqrt(2) * q
        norm = mpmath.sqrt(s / (2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi)))

        def integrand(x):
            y = s * x
            h_prev, h = mpmath.mpf(1), 2 * y
            for k in range(1, n):
                h_prev, h = h, 2 * y * h - 2 * k * h_prev
            return ((h if n else h_prev) * norm
                    * mpmath.exp(-y * y / 2 - (x - centre) ** 2 / 2 - 2j * p * x / mpmath.sqrt(2)))

        radius = (math.sqrt(2 * n + 1) + 6.0) * math.exp(-prim.r)
        cuts = ({float(centre) + k for k in range(-9, 10)}
                | {radius * k / 8 for k in range(-8, 9)})
        value = mpmath.quad(integrand, [-mpmath.inf, *sorted(cuts), mpmath.inf],
                            method="gauss-legendre")
        return complex(mpmath.pi ** -0.25 * mpmath.expj(q * p) * value)


# --- analytic negativity volumes -------------------------------------------

def delta_fock1():
    """int(|W_1| - W_1): radial integral of |2u-1| e^-u minus one."""
    return 4.0 * math.exp(-0.5) - 2.0


def abs_integral_fock1():
    return 4.0 * math.exp(-0.5) - 1.0


def delta_fock2():
    """From the antiderivative G(u) = e^-u (2u^2 + 1) of the radial form."""
    u1 = 1.0 - 1.0 / math.sqrt(2.0)
    u2 = 1.0 + 1.0 / math.sqrt(2.0)
    g = lambda u: math.exp(-u) * (2.0 * u * u + 1.0)
    return 2.0 * (g(u2) - g(u1))


def fock_wigner_delta(n):
    """delta(|n>) = int |W_n| - 1 = (1/2) int_0^inf |L_n(x)| e^(-x/2) dx - 1.

    |L_n| is a polynomial on each interval between consecutive roots of L_n
    (the Gauss-Laguerre nodes), so Gauss-Legendre on each interval and
    Gauss-Laguerre on the tail beyond the last root, x = x_n + 2s, converge
    to rounding.
    """
    coeffs = [0.0] * n + [1.0]
    edges = np.concatenate(([0.0], np.polynomial.laguerre.laggauss(n)[0] if n else []))
    nodes = n + 32
    t, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        x = 0.5 * (b - a) * t + 0.5 * (a + b)
        lag = np.polynomial.laguerre.lagval(x, coeffs)
        total += 0.5 * (b - a) * float(np.dot(w, np.abs(lag) * np.exp(-0.5 * x)))
    s, v = np.polynomial.laguerre.laggauss(nodes)
    tail = np.abs(np.polynomial.laguerre.lagval(edges[-1] + 2.0 * s, coeffs))
    total += 2.0 * math.exp(-0.5 * edges[-1]) * float(np.dot(v, tail))
    return 0.5 * total - 1.0


def product_wigner_delta(m, n):
    """delta(|m>|n>) = (1 + delta_m)(1 + delta_n) - 1, since |W_m W_n| = |W_m| |W_n|."""
    return (1.0 + fock_wigner_delta(m)) * (1.0 + fock_wigner_delta(n)) - 1.0


# --- entangled01 in closed form --------------------------------------------
# a|0,1> + sqrt(1 - a^2)|1,0> is a beam splitter turned on |0,1>, and the
# Wigner function is covariant under it, so delta_W is delta(|1>) at every
# a^2. The cross term integrates to zero with int |f_cross| = C (Wigner)
# or C / 2 (Husimi), and eta follows from the pair integrals.

def concurrence(a_sq):
    """C = 2 a sqrt(1 - a^2) of the entangled01 state at weight a^2."""
    return 2.0 * math.sqrt(a_sq * (1.0 - a_sq))


def eta_wigner_entangled01(a_sq):
    """(delta_1 + C) / (delta_1 + 2 + C), delta_1 = delta(|1>)."""
    d1, c = delta_fock1(), concurrence(a_sq)
    return (d1 + c) / (d1 + 2.0 + c)


def eta_husimi_entangled01(a_sq):
    """C / (4 + C): the Husimi diagonal terms are non-negative."""
    c = concurrence(a_sq)
    return c / (4.0 + c)


# --- dense 2D midpoint sums -----------------------------------------------

def _mode_of(grid):
    if isinstance(grid, ModeAxes):
        return grid
    if isinstance(grid, PhaseGrid):
        if grid.n_modes != 1:
            raise DomainError("integrate_2d expects a single-mode grid")
        return grid.mode(0)
    raise DomainError(f"expected PhaseGrid or ModeAxes, got {type(grid)!r}")


def integrate_2d(values, grid):
    """Midpoint sum over a whole single-mode grid: sum(values) * dq * dp,
    pairwise accumulation in index order."""
    mode = _mode_of(grid)
    values = np.asarray(values)
    if values.shape != (mode.q.n, mode.p.n):
        raise DomainError(
            f"value grid shape {values.shape} does not match axes ({mode.q.n}, {mode.p.n})"
        )
    return float(np.sum(values)) * mode.cell_area


def integral_with_estimate(values, grid):
    """integrate_2d plus the distance to 4 times the sum over the nodes with
    even q and p indices: the dense reference of the folded sums."""
    mode = _mode_of(grid)
    fine = integrate_2d(values, grid)
    coarse = float(np.sum(np.asarray(values)[::2, ::2])) * 4.0 * mode.cell_area
    return fine, abs(fine - coarse)


# --- 4D absolute integrals ------------------------------------------------

def separable_abs_integral(g, h, grid):
    """int |g(z1) h(z2)| d^4z of one real product, as the product of the two
    2D midpoint sums of |g| and |h|, since |g h| = |g| |h|."""
    return (float(np.sum(np.abs(g))) * grid.mode(0).cell_area
            * float(np.sum(np.abs(h))) * grid.mode(1).cell_area)


def stated_sum(products, symmetry, mode2_parity=False):
    """The (g, h) pairs ``products`` as a SeparableSum on their own bases
    (core I) that states the (P, T, PT, R) flags ``symmetry``, and
    ``mode2_parity``, as a term table does."""
    from psnci.quadrature import SeparableSum, factor_basis

    gs, hs = zip(*products)
    return SeparableSum(factor_basis(gs), factor_basis(hs), np.eye(len(products)), symmetry,
                        mode2_parity)


def _parity(f, axes):
    """+1 or -1 if the factor grid f is even or odd under reversing its
    ``axes``, to within _RANK_CUT of its largest value; 0 otherwise."""
    from psnci.quadrature import _RANK_CUT

    tol = _RANK_CUT * np.max(np.abs(f))
    flipped = np.flip(f, axes)
    for sign in (1, -1):
        if np.max(np.abs(f - sign * flipped)) <= tol:
            return sign
    return 0


def rotated_4d(f):
    """f(Rz1, Rz2) on the nodes of the dense 4D array f(q1, p1, q2, p2) of
    two square mode grids with equal axes: R is (q, p) -> (-p, q), so node
    (i, j) of a mode reads f at node (n - 1 - j, i)."""
    return np.flip(f.transpose(1, 0, 3, 2), (1, 3))


def _rotation_vote(basis1, basis2, core):
    """Whether B1 core B2^T is even or odd under R in both modes, on the
    values of its dense 4D array, to within 1e-12 of its largest value; False
    unless both mode grids are square."""
    shapes = [basis.grids.shape[1:] for basis in (basis1, basis2)]
    if any(nq != n_p for nq, n_p in shapes):
        return False
    b1, b2 = (basis.grids.reshape(len(basis.grids), -1).T for basis in (basis1, basis2))
    dense = (b1 @ core @ b2.T).reshape(*shapes[0], *shapes[1])
    turned, tol = rotated_4d(dense), 1e-12 * np.max(np.abs(dense))
    return any(np.max(np.abs(turned - sign * dense)) <= tol for sign in (1, -1))


def symmetry_vote(basis1, basis2, core):
    """(group, mode2_parity) of B1 core B2^T: its group, as the _D4
    elements that hold, in _D4 order, and whether it is even or odd under
    z2 -> -z2 alone. Measured on the basis grids and on the dense 4D
    array, the reference for what a term table states.

    P, T and PT vote per term: an element is kept when every term
    core_ij b1_i b2_j^T has a parity under it (the product of its
    columns') and all have the same one; the mode-2 parity when every b2_j
    of a term has one and all the same. Terms smaller than _RANK_CUT times
    the largest do not vote: rounding noise has no parity but cannot move
    the sum. Any two kept elements imply the third; if rounding keeps only
    two, the first of them is used, P before T. R maps a factor grid D_kl
    to one of D_lk, not to +-itself, so no term votes on it: R and R^3 are
    kept when the dense array is even or odd under R (_rotation_vote). The
    transposes are kept with R and T, which make the group D4; alone they
    are not measured.
    """
    from psnci.quadrature import _D4, _RANK_CUT

    flips = _D4[1:4]
    scale1, scale2 = (np.array([np.max(np.abs(g)) for g in basis.grids])
                      for basis in (basis1, basis2))
    parity1, parity2 = (np.array([[_parity(g, axes) for _, axes in flips]
                                  for g in basis.grids]) for basis in (basis1, basis2))
    weight = np.abs(core) * np.outer(scale1, scale2)
    i, j = np.nonzero(weight > _RANK_CUT * weight.max())
    signs = parity1[i] * parity2[j]
    kept = [e for e, sign in zip(flips, signs.T) if sign[0] and np.all(sign == sign[0])]
    held = set(kept if len(kept) == 3 else kept[:1])
    if _rotation_vote(basis1, basis2, core):
        held |= set(_D4[4:6]) | (set(_D4[6:]) if _D4[2] in held else set())
    mode2 = parity2[j, 0]
    return (tuple(e for e in _D4 if e == _D4[0] or e in held),
            bool(mode2[0] and np.all(mode2 == mode2[0])))


def dense_abs_4d_sums(products):
    """Sums of |sum_t g_t(q1, p1) h_t(q2, p2)| over the dense 4D array.

    Returns the sum over every point and the sum over the points with even
    q and even p indices in both modes.
    """
    dense = sum(np.multiply.outer(g, h) for g, h in products)
    absval = np.abs(dense)
    return float(np.sum(absval)), float(np.sum(absval[::2, ::2, ::2, ::2]))


# --- grids and states built only by tests ---------------------------------

def single_grid(extent=DEFAULT_SINGLE_MODE_EXTENT, points=DEFAULT_SINGLE_MODE_POINTS):
    """Square single-mode grid over [-extent, extent] in q and p."""
    ax = Axis(-float(extent), float(extent), int(points))
    return PhaseGrid((ModeAxes(ax, ax),))


def two_mode_grid(extent=DEFAULT_TWO_MODE_EXTENT, points=DEFAULT_TWO_MODE_POINTS):
    """Two copies of the square mode grid over [-extent, extent]."""
    ax = Axis(-float(extent), float(extent), int(points))
    mode = ModeAxes(ax, ax)
    return PhaseGrid((mode, mode))


def swapped(state):
    """The two-mode state with its mode labels exchanged."""
    return State(tuple((c, p2, p1) for c, p1, p2 in state.terms))


# --- resolution doubling ----------------------------------------------------

@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with a resolution-doubling error estimate."""

    value: float
    error_estimate: float
    levels_used: int

    def __post_init__(self):
        if self.error_estimate < 0 or self.levels_used < 1:
            raise DomainError("invalid quadrature result fields")


def refine_until(f, grid0, tol, max_levels=6):
    """Double the per-axis resolution of a single-mode grid until successive
    midpoint sums agree to tol.

    ``f`` maps a PhaseGrid to a value array on that grid. Raises
    QuadratureError (carrying the last two values) on non-convergence.
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    if not 1 <= max_levels <= 6:
        raise DomainError(f"max_levels must lie in [1, 6], got {max_levels}")

    def midpoint(grid):
        return float(np.sum(f(grid))) * grid.mode(0).cell_area

    def refined(factor):
        mode = grid0.mode(0)
        q, p = (Axis(ax.lo, ax.hi, ax.n * factor) for ax in (mode.q, mode.p))
        return PhaseGrid((ModeAxes(q, p),))

    prev = midpoint(grid0)
    last_two = (prev, prev)
    for level in range(2, max_levels + 1):
        cur = midpoint(refined(2 ** (level - 1)))
        diff = abs(cur - prev)
        last_two = (prev, cur)
        if diff < tol:
            return QuadratureResult(cur, diff, level)
        prev = cur
    raise QuadratureError(
        f"no convergence to {tol:g} within {max_levels} levels",
        achieved=abs(last_two[1] - last_two[0]),
        values=last_two,
    )


# --- misc -------------------------------------------------------------------

def spearman_rho(x, y):
    """Spearman rank correlation, no ties expected."""
    def ranks(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        return r
    rx, ry = ranks(np.asarray(x)), ranks(np.asarray(y))
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.sum(rx * ry) / math.sqrt(np.sum(rx**2) * np.sum(ry**2)))


def vacuum_squeezed_overlap(r):
    """<0|0,r> = (cosh r)^(-1/2), the hand-done Gaussian overlap."""
    return math.cosh(r) ** -0.5
