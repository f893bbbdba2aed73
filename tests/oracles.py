"""Independent reference implementations used as test oracles.

Everything here is derived from first principles (explicit polynomial
coefficients, Gaussian integrals done by hand, plain discrete Fourier
sums) and deliberately avoids the code paths under test.
"""

import math
from fractions import Fraction

import numpy as np

SQRT_PI = math.sqrt(math.pi)


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


# --- 4D absolute integrals ------------------------------------------------

def separable_abs_integral(g, h, grid):
    """int |g(z1) h(z2)| d^4z of one real product, as the product of the two
    2D midpoint sums of |g| and |h|, since |g h| = |g| |h|."""
    return (float(np.sum(np.abs(g))) * grid.mode(0).cell_area
            * float(np.sum(np.abs(h))) * grid.mode(1).cell_area)


def dense_abs_4d_sums(products):
    """Sums of |sum_t g_t(q1, p1) h_t(q2, p2)| over the dense 4D array.

    Returns the sum over every point and the sum over the points with even
    q and even p indices in both modes.
    """
    dense = sum(np.multiply.outer(g, h) for g, h in products)
    absval = np.abs(dense)
    return float(np.sum(absval)), float(np.sum(absval[::2, ::2, ::2, ::2]))


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
