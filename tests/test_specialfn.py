import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from psnci.errors import DomainError
from psnci.specialfn import laguerre_recurrence, laguerre_zeros, log_factorial

import oracles
from oracles import hermite_phys


def test_hermite_low_orders():
    assert hermite_phys(0, 3.7) == 1.0
    assert hermite_phys(1, 2.0) == 4.0
    # H_3(x) = 8x^3 - 12x by explicit expansion
    assert_allclose(hermite_phys(3, 1.0), 8.0 - 12.0, rtol=0, atol=1e-14)


def test_hermite_matches_coefficient_expansion():
    rng = np.random.default_rng(1)
    x = rng.uniform(-10, 10, size=50)
    for n in range(0, 21):
        ref = oracles.polyval(oracles.hermite_coeffs(n), x)
        got = hermite_phys(n, x)
        assert_allclose(got, ref, rtol=1e-9, atol=1e-9)


def test_hermite_recurrence_consistency():
    rng = np.random.default_rng(2)
    x = rng.uniform(-10, 10, size=200)
    for n in range(1, 20):
        lhs = hermite_phys(n + 1, x) - 2 * x * hermite_phys(n, x) \
            + 2 * n * hermite_phys(n - 1, x)
        scale = np.maximum(np.abs(hermite_phys(n + 1, x)), 1.0)
        assert np.max(np.abs(lhs) / scale) < 1e-9


def _laguerre(n, k, x):
    return laguerre_recurrence(n, k, np.asarray(x, dtype=float), 1.0)


def test_laguerre_low_orders():
    assert _laguerre(0, 3, 12.0) == 1.0
    assert_allclose(_laguerre(1, 0, 2.0), -1.0, atol=1e-14)
    # L_2^1(x) = x^2/2 - 3x + 3
    assert_allclose(_laguerre(2, 1, 1.0), 0.5, atol=1e-14)


def test_laguerre_matches_coefficient_expansion():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 20, size=12)
    for n in range(0, 21):
        for k in (0, 1, 2, 5):
            ref = oracles.polyval_exact(oracles.laguerre_coeffs_exact(n, k), x)
            got = _laguerre(n, k, x)
            scale = np.maximum(np.abs(ref), 1.0)
            assert np.max(np.abs(got - ref) / scale) < 1e-9


def test_laguerre_ode_residual():
    # x y'' + (k + 1 - x) y' + n y = 0, derivatives evaluated exactly from
    # the explicit coefficients, y from the recurrence under test
    rng = np.random.default_rng(4)
    x = rng.uniform(0.1, 15, size=10)
    for n in range(1, 21):
        for k in (0, 1, 3):
            c = oracles.laguerre_coeffs_exact(n, k)
            y = _laguerre(n, k, x)
            d1 = oracles.polyval_exact(oracles.polyder(c), x)
            d2 = oracles.polyval_exact(oracles.polyder(oracles.polyder(c)), x)
            resid = x * d2 + (k + 1 - x) * d1 + n * y
            scale = np.maximum.reduce([np.abs(x * d2), np.abs((k + 1 - x) * d1),
                                       np.abs(n * y), np.ones_like(x)])
            assert np.max(np.abs(resid) / scale) < 1e-8


def test_laguerre_zeros_match_scipy():
    from scipy.special import roots_genlaguerre
    assert laguerre_zeros(0, 3).shape == (0,)
    for k in (0, 1, 3, 10, 30, 64):
        for n in range(1, 65):
            zeros = laguerre_zeros(n, k)
            reference = roots_genlaguerre(n, k)[0]
            assert np.max(np.abs(zeros / reference - 1.0)) <= 1e-12


def test_log_factorial_values():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0
    assert_allclose(log_factorial(10), sum(math.log(k) for k in range(1, 11)),
                    rtol=1e-15)
    assert_allclose(log_factorial(10), 15.104412573075516, rtol=1e-13)


def test_log_factorial_matches_exact_factorial():
    for n in range(21):
        assert_allclose(math.exp(log_factorial(n)), math.factorial(n), rtol=1e-12)


def test_log_factorial_large_argument():
    # compare the lgamma regime against exact log sums
    for n in (200, 1000, 10**6):
        exact = math.fsum(math.log(k) for k in range(1, n + 1))
        assert_allclose(log_factorial(n), exact, rtol=1e-12)


@pytest.mark.parametrize("bad_call", [
    lambda: hermite_phys(65, 0.0),
    lambda: hermite_phys(-1, 0.0),
    lambda: hermite_phys(2.5, 0.0),
    lambda: log_factorial(-1),
    lambda: log_factorial(10**6 + 1),
])
def test_domain_errors(bad_call):
    with pytest.raises(DomainError):
        bad_call()
