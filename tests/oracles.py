"""Independent reference implementations used as test oracles.

Everything here is derived from first principles (explicit polynomial
coefficients, Gaussian integrals done by hand, plain discrete Fourier
sums) and deliberately avoids the code paths under test.
"""

import functools
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


class ReferenceQuadratureError(QuadratureError):
    """A reference quadrature here did not converge: ``achieved`` holds the
    best residual reached, ``values`` the last two integral estimates when
    available."""

    def __init__(self, message, achieved=None, values=None):
        super().__init__(message)
        self.achieved = achieved
        self.values = values


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
    eighths of psi's support radius, out to twice that radius, its
    oscillations and its tails; the outer pieces run to infinity. No node
    rule of psnci is used."""
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
                | {radius * k / 8 for k in range(-16, 17)})
        value = mpmath.quad(integrand, [-mpmath.inf, *sorted(cuts), mpmath.inf],
                            method="gauss-legendre")
        return complex(mpmath.pi ** -0.25 * mpmath.expj(q * p) * value)


_FIXED_BITS = 160


def _hermite_fixed(n, y):
    """H_n(y) for an mpf y by the recurrence H_(k+1) = 2y H_k - 2k H_(k-1)
    in Python integers scaled by 2^_FIXED_BITS: the 160-bit fraction keeps
    every H_k to ~1e-48 absolute, at a fraction of the cost of mpf steps."""
    import mpmath

    y_fixed = int(mpmath.floor(mpmath.ldexp(y, _FIXED_BITS)))
    h_prev, h = 1 << _FIXED_BITS, 2 * y_fixed
    for k in range(1, n):
        h_prev, h = h, ((2 * y_fixed * h) >> _FIXED_BITS) - 2 * k * h_prev
    return mpmath.ldexp(h if n else h_prev, -_FIXED_BITS)


def primitive_overlap_reference(prim1, prim2):
    """<prim1|prim2> = int psi_1 psi_2 dx, with psi = e^(r/2) psi_n(e^r x),
    by mpmath.quad (Gauss-Legendre) at 30 digits. Breakpoints at sixteenths
    of each primitive's support radius, out to twice that radius, resolve
    the narrower primitive and the oscillations of both; the outer pieces
    run to infinity. Raises if mpmath's own error estimate exceeds 1e-20.
    No node rule of psnci and no Hermite quadrature is used."""
    import mpmath

    with mpmath.workdps(30):
        def psi(prim):
            n, s = prim.n, mpmath.exp(mpmath.mpf(prim.r))
            norm = mpmath.sqrt(s / (2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi)))

            def value(x):
                y = s * x
                return norm * _hermite_fixed(n, y) * mpmath.exp(-y * y / 2)
            return value

        psi1, psi2 = psi(prim1), psi(prim2)
        radii = [(math.sqrt(2 * p.n + 1) + 6.0) * math.exp(-p.r) for p in (prim1, prim2)]
        cuts = sorted({radius * k / 16 for radius in radii for k in range(-32, 33)})
        value, error = mpmath.quad(lambda x: psi1(x) * psi2(x), [-mpmath.inf, *cuts, mpmath.inf],
                                   method="gauss-legendre", error=True)
        if error > 1e-20:
            raise ReferenceQuadratureError("overlap reference did not converge",
                                           achieved=float(error))
        return float(value)


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


# --- polar reduction of number-conserving two-term states ------------------
# For c0|k1,k2> + c1|l1,l2> with k1 + k2 = l1 + l2, every Wigner pair term
# depends on the angles only through psi = theta1 - theta2, so
# W = A(rho1, rho2) + B(rho1, rho2) cos(Delta psi + phi), and the angles
# integrate in closed form. What is left is a 2D radial integral: adaptive
# QUADPACK (scipy.integrate.quad) in rho1 over an inner rho2 integral cut at
# the exact polynomial roots of A +- B.

def _radial_poly(m, n):
    """Ascending coefficients in rho of R_mn(rho) e^(rho^2), with R_mn the
    radial factor of W_mn = R_mn(rho) e^(-i(m-n)theta): (-1)^n / pi
    sqrt(2^(m-n) n! / m!) rho^(m-n) L_n^(m-n)(2 rho^2) for m >= n."""
    m, n = max(m, n), min(m, n)
    k = m - n
    pref = (-1) ** n / math.pi * math.sqrt(2 ** k * math.factorial(n) / math.factorial(m))
    coeffs = np.zeros(2 * n + k + 1)
    for j, c in enumerate(laguerre_coeffs_exact(n, k)):
        coeffs[2 * j + k] = pref * float(c) * 2 ** j
    return coeffs


def wigner_radial_abs(m, n):
    """int_0^inf |R_mn(rho)| rho drho of the Wigner radial factor (see
    _radial_poly), by scipy.integrate.quad between its zeros, the roots
    sqrt(x_j / 2) of L_n^(m-n)(2 rho^2) with x_j from
    scipy.special.roots_genlaguerre, and on to sqrt(2m + 1) + 12, where the
    integrand is below 1e-72 for every m, n <= 64. The integrand is
    taken in log form: at high n, rho^k L alone overflows where e^(-rho^2)
    underflows."""
    from scipy import integrate, special
    m, n = max(m, n), min(m, n)
    k = m - n
    log_pref = 0.5 * (k * math.log(2.0) + math.lgamma(n + 1.0) - math.lgamma(m + 1.0)) \
        - math.log(math.pi)

    def integrand(rho):
        lag = abs(special.eval_genlaguerre(n, k, 2.0 * rho * rho))
        if rho == 0.0 or lag == 0.0:
            return 0.0
        return math.exp(log_pref + (k + 1) * math.log(rho) + math.log(lag) - rho * rho)
    zeros = np.sqrt(special.roots_genlaguerre(n, k)[0] / 2.0).tolist() if n else []
    edges = [0.0, *zeros, math.sqrt(2.0 * m + 1.0) + 12.0]
    return math.fsum(integrate.quad(integrand, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                     for a, b in zip(edges[:-1], edges[1:]))


def husimi_radial_abs(m, n):
    """int_0^inf |R_mn(rho)| rho drho of the Husimi radial factor
    e^(-rho^2) rho^(m + n) / (pi sqrt(m! n!)), by scipy.integrate.quad in
    log form, split at the peak of the integrand."""
    from scipy import integrate
    power = m + n + 1
    log_scale = -math.log(math.pi) - 0.5 * (math.lgamma(m + 1.0) + math.lgamma(n + 1.0))

    def integrand(rho):
        return math.exp(power * math.log(rho) - rho * rho + log_scale) if rho > 0.0 else 0.0
    peak = math.sqrt(0.5 * power)
    return math.fsum(integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for a, b in ((0.0, peak), (peak, np.inf)))


def _angle_abs(a, b):
    """int_0^2pi |a + b cos u| du, elementwise: 2 pi |a| if |a| >= |b|, else
    the two arcs split at cos u = -a / b, 4 sqrt(b^2 - a^2) + 4 a arcsin(a / |b|)."""
    b = np.abs(b)
    arcs = np.abs(a) < b
    ratio = np.divide(a, b, out=np.zeros_like(b), where=arcs)
    return np.where(arcs, 4.0 * np.sqrt(np.where(arcs, b * b - a * a, 0.0))
                    + 4.0 * a * np.arcsin(ratio), 2.0 * math.pi * np.abs(a))


@functools.lru_cache(maxsize=None)
def polar_wigner_abs_integral(c0, k, c1, l, epsabs=1e-10):
    """int |W| d^4z of the Fock state c0|k1,k2> + c1|l1,l2>, k1 + k2 = l1 + l2,
    as 2 pi int int rho1 rho2 int_0^2pi |A + B cos u| du drho1 drho2 over
    [0, 10] x [0, 10] (the integrand is below e^-90 past that), with
    A = |c0|^2 a1 a2 + |c1|^2 b1 b2 and B = 2 |c0 c1| c1' c2' from the
    diagonal (a, b) and cross (c') radial factors of each mode.

    The inner rho2 integral is cut at every root of A +- B, where
    |A + B cos| leaves its (rho2 - root)^(3/2) term; each piece is taken in
    t, rho2 = lo + (hi - lo) sin^2 t, which makes that term a smooth t^3,
    by 64-node Gauss-Legendre in t."""
    from numpy.polynomial import polynomial as P
    from scipy.integrate import quad

    weights = (abs(c0) ** 2, abs(c1) ** 2, 2.0 * abs(c0 * c1))
    mode = [[_radial_poly(k[m], k[m]), _radial_poly(l[m], l[m]), _radial_poly(k[m], l[m])]
            for m in (0, 1)]
    edge = 10.0
    t, tw = np.polynomial.legendre.leggauss(64)
    t, tw = 0.25 * math.pi * (t + 1.0), 0.25 * math.pi * tw  # on [0, pi/2]
    stretch, dstretch = np.sin(t) ** 2, np.sin(2.0 * t) * tw

    def zeros(coeffs):  # real roots, and pairs within 1e-6 of real: a double root
        # (A + B touches 0, as on entangled02 at a^2 = 1/2) leaves a |x|^3 kink
        roots = P.polyroots(P.polytrim(coeffs)) if np.any(coeffs) else []
        return sorted(r.real for r in roots if abs(r.imag) < 1e-6 and 0.0 < r.real < edge)

    width = max(len(c) for c in mode[1])
    mode2 = np.array([np.pad(c, (0, width - len(c))) for c in mode[1]])

    def cuts_at(rho1):
        u = [w * P.polyval(rho1, c) * math.exp(-rho1 * rho1) for w, c in zip(weights, mode[0])]
        return u, [zeros(np.array([u[0], u[1], sign * u[2]]) @ mode2) for sign in (1.0, -1.0)]

    def inner(rho1):
        u, (plus, minus) = cuts_at(rho1)
        edges = np.array([0.0, *sorted(set(plus) | set(minus)), edge])
        span = np.diff(edges)[:, None]
        rho2 = edges[:-1, None] + span * stretch
        a2, b2, c2 = P.polyval(rho2, mode2.T) * np.exp(-rho2 * rho2)
        f = rho2 * _angle_abs(u[0] * a2 + u[1] * b2, u[2] * c2)
        return float(np.sum(f * span * dstretch)) * rho1

    # The inner integral has a kink in rho1 where its set of roots changes
    # (a zero curve of A +- B turns, or leaves [0, edge]): bisect each change
    # of the root counts on a scan, and cut there too. The zero curves of
    # A + B and A - B also cross where B = 0: on a zero rho2 = z of the
    # mode-2 cross factor, at the roots in rho1 of A(rho1, z).
    def counts(rho1):
        return tuple(len(c) for c in cuts_at(rho1)[1])

    outer_cuts = {z for c in mode[0] for z in zeros(c)}
    for z in zeros(mode[1][2]):
        outer_cuts.update(zeros(P.polyadd(weights[0] * P.polyval(z, mode[1][0]) * mode[0][0],
                                          weights[1] * P.polyval(z, mode[1][1]) * mode[0][1])))
    scan = np.linspace(0.0, edge, 401)
    seen = [counts(x) for x in scan]
    for lo, hi, before, after in zip(scan[:-1], scan[1:], seen[:-1], seen[1:]):
        while before != after and hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if counts(mid) == before else (lo, mid)
        if before != after:
            outer_cuts.add(0.5 * (lo + hi))
    edges = [0.0, *sorted(outer_cuts), edge]
    return 2.0 * math.pi * sum(
        quad(inner, lo, hi, epsabs=epsabs, epsrel=epsabs, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo)


# --- polar reduction of one-mode two-term Fock states ----------------------
# c0|m> + c1|n> has W = A(rho) + B(rho) cos((m - n) theta + phi) with
# A = |c0|^2 R_mm + |c1|^2 R_nn and B = 2 |c0 c1| R_mn, so delta_W is one
# radial integral of the closed angle integral.

def _radial_factor(m, n, rho):
    """R_mn(rho) of W_mn = R_mn(rho) e^(-i(m-n)theta), signed, from
    scipy.special.eval_genlaguerre in log form (rho^k L alone overflows at
    high n where e^(-rho^2) underflows)."""
    from scipy import special
    hi, lo = max(m, n), min(m, n)
    k = hi - lo
    rho = np.asarray(rho, dtype=float)
    lag = special.eval_genlaguerre(lo, k, 2.0 * rho * rho)
    with np.errstate(divide="ignore"):
        log_mag = 0.5 * (k * math.log(2.0) + math.lgamma(lo + 1.0) - math.lgamma(hi + 1.0)) \
            - math.log(math.pi) + (k * np.log(rho) if k else 0.0) + np.log(np.abs(lag)) - rho * rho
    return (-1) ** lo * np.sign(lag) * np.exp(log_mag)


def polar_fock_delta(c0, m, c1, n):
    """delta_W of the one-mode state c0|m> + c1|n>, m != n, as
    int_0^inf rho (int_0^2pi |A + B cos u| du - 2 pi A) drho by
    scipy.integrate.quad, to sqrt(2 max(m, n) + 1) + 12 (the integrand is
    below 1e-60 past it), between breakpoints of its own: the zeros of
    each factor (scipy.special.roots_genlaguerre) and the roots of A +- B,
    bracketed on a scan of 32 nodes per pi / sqrt(2 max(m, n) + 1) and
    refined by brentq. Pieces narrower than 1e-12 (a root next to a zero)
    are left out."""
    from scipy import integrate, optimize, special
    w = (abs(c0) ** 2, abs(c1) ** 2, 2.0 * abs(c0 * c1))
    pairs = ((m, m), (n, n), (m, n))
    top = max(m, n)
    edge = math.sqrt(2.0 * top + 1.0) + 12.0

    def parts(rho):
        a, b, c = (w_i * _radial_factor(i, j, rho) for w_i, (i, j) in zip(w, pairs))
        return a + b, c

    cuts = {math.sqrt(x / 2.0) for i, j in pairs if min(i, j)
            for x in special.roots_genlaguerre(min(i, j), abs(i - j))[0]}
    scan = np.linspace(0.0, edge, int(32 * edge * math.sqrt(2.0 * top + 1.0) / math.pi) + 2)
    for sign in (1.0, -1.0):
        def g(rho, sign=sign):
            a, b = parts(rho)
            return float(a + sign * b)
        values = [g(x) for x in scan]
        for lo, hi, glo, ghi in zip(scan[:-1], scan[1:], values[:-1], values[1:]):
            if glo * ghi < 0.0:
                cuts.add(optimize.brentq(g, lo, hi, xtol=1e-15, rtol=1e-15))

    def integrand(rho):
        a, b = parts(rho)
        return rho * float(_angle_abs(np.array(a), np.array(b)) - 2.0 * math.pi * a)
    edges = sorted({0.0, edge} | {x for x in cuts if x < edge})
    return math.fsum(integrate.quad(integrand, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                     for a, b in zip(edges[:-1], edges[1:]) if b - a > 1e-12)


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


def symmetry_vote(basis1, basis2, core, noise=0.0):
    """(group, mode2_parity) of B1 core B2^T: its group, as the _D4
    elements that hold, in _D4 order, and whether it is even or odd under
    z2 -> -z2 alone. Measured on the basis grids and on the dense 4D
    array, the reference for what a term table states.

    P, T and PT vote per term: an element is kept when every term
    core_ij b1_i b2_j^T has a parity under it (the product of its
    columns') and all have the same one; the mode-2 parity when every b2_j
    of a term has one and all the same. Terms smaller than _RANK_CUT times
    the largest do not vote: rounding noise has no parity but cannot move
    the sum. Nor do terms with |core_ij| <= ``noise``: a term table's core
    entries are the real and imaginary parts of its amplitude products
    gamma, and the table takes a gamma whose real (imaginary) part is
    within _RANK_CUT of the largest |gamma| as imaginary (real), so its
    ``noise`` is that bound on an entry. Any two kept elements imply the third; if rounding keeps only
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
    i, j = np.nonzero((weight > _RANK_CUT * weight.max()) & (np.abs(core) > noise))
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


# --- resolution tripling ----------------------------------------------------

@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with a resolution-tripling error estimate."""

    value: float
    error_estimate: float
    levels_used: int

    def __post_init__(self):
        if self.error_estimate < 0 or self.levels_used < 1:
            raise DomainError("invalid quadrature result fields")


def refine_until(f, grid0, tol, max_levels=6):
    """Triple the per-axis resolution of a single-mode grid until successive
    midpoint sums agree to tol. Each cell splits into three, so an odd
    count stays odd and every node stays a node.

    ``f`` maps a PhaseGrid to a value array on that grid. Raises
    ReferenceQuadratureError (carrying the last two values) on
    non-convergence.
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
        cur = midpoint(refined(3 ** (level - 1)))
        diff = abs(cur - prev)
        last_two = (prev, cur)
        if diff < tol:
            return QuadratureResult(cur, diff, level)
        prev = cur
    raise ReferenceQuadratureError(
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
