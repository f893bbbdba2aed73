"""Special functions needed by the distribution formulas.

Associated Laguerre polynomials are evaluated by upward three-term
recurrence, which is stable for the moderate orders supported
here (n <= 64). The recurrence is linear, so it can start from any
factor, start * L_0^k = start: the Fock Wigner functions start it from
their Gaussian e^(-u), and no term of theirs overflows where e^(-u)
underflows. Normalization constants are handled in log space so that
factorials never overflow.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

MAX_ORDER = 64

_EXACT_FACTORIAL_LIMIT = 128
_MAX_FACTORIAL_ARG = 10**6

# ln(n!) by exact summation of ln k for small n; lgamma covers the rest.
_LOG_FACTORIAL_TABLE = [0.0]
for _k in range(1, _EXACT_FACTORIAL_LIMIT + 1):
    _LOG_FACTORIAL_TABLE.append(_LOG_FACTORIAL_TABLE[-1] + math.log(_k))


def _check_order(name: str, value) -> int:
    if not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < 0 or value > MAX_ORDER:
        raise DomainError(f"{name} must lie in [0, {MAX_ORDER}], got {value}")
    return value


def _as_input_like(result, template):
    if np.ndim(template) == 0 and not isinstance(template, np.ndarray):
        return float(result)
    return result


def assoc_laguerre(n: int, k: int, x):
    """Associated Laguerre polynomial L_n^k(x) for x >= 0.

    Stable upward recurrence in the degree:
    (m+1) L_{m+1}^k = (2m + 1 + k - x) L_m^k - (m + k) L_{m-1}^k.
    """
    n = _check_order("n", n)
    k = _check_order("k", k)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0) or not np.all(np.isfinite(xa)):
        raise DomainError("assoc_laguerre requires finite x >= 0")
    return _as_input_like(laguerre_recurrence(n, k, xa, 1.0), x)


def laguerre_recurrence(n: int, k: int, x: np.ndarray, start) -> np.ndarray:
    """start * L_n^k(x) by the recurrence of assoc_laguerre started from
    ``start`` (a float, or an array shaped like x), for orders and a float
    array x that the caller has checked: no checks, no conversions."""
    if n == 0:
        return start * np.ones_like(x)
    l_prev, l_cur = start, start * (1.0 + k - x)
    for m in range(1, n):
        l_cur, l_prev = ((2.0 * m + 1.0 + k - x) * l_cur - (m + k) * l_prev) / (m + 1.0), l_cur
    return l_cur


def log_factorial(n: int) -> float:
    """ln(n!), accurate to better than 1e-12 relative for n <= 10^6."""
    if not isinstance(n, (int, np.integer)):
        raise DomainError(f"log_factorial expects an integer, got {n!r}")
    n = int(n)
    if n < 0 or n > _MAX_FACTORIAL_ARG:
        raise DomainError(f"log_factorial supports 0 <= n <= {_MAX_FACTORIAL_ARG}, got {n}")
    if n <= _EXACT_FACTORIAL_LIMIT:
        return _LOG_FACTORIAL_TABLE[n]
    return math.lgamma(n + 1.0)
