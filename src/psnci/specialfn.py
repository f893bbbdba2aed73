"""Special functions needed by the distribution formulas.

Associated Laguerre polynomials are evaluated by upward three-term
recurrence, which is stable for the moderate orders supported
here (n <= 64). The recurrence is linear, so it can start from any
factor, start * L_0^k = start: the Fock Wigner functions start it from
their Gaussian e^(-u), and no term of theirs overflows where e^(-u)
underflows. Their zeros are the eigenvalues of a Jacobi matrix
(laguerre_zeros). Normalization constants are handled in log space so
that factorials never overflow.
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


def laguerre_recurrence(n: int, k: int, x: np.ndarray, start) -> np.ndarray:
    """start * L_n^k(x) by (m+1) L_{m+1}^k = (2m + 1 + k - x) L_m^k - (m + k) L_{m-1}^k
    from ``start`` (a float, or an array shaped like x), for orders and a float
    array x that the caller has checked: no checks, no conversions."""
    if n == 0:
        return start * np.ones_like(x)
    l_prev, l_cur = start, start * (1.0 + k - x)
    for m in range(1, n):
        l_cur, l_prev = ((2.0 * m + 1.0 + k - x) * l_cur - (m + k) * l_prev) / (m + 1.0), l_cur
    return l_cur


def laguerre_zeros(n: int, k: int) -> np.ndarray:
    """The n zeros of L_n^k, ascending: the eigenvalues of its Jacobi matrix,
    diagonal 2i + k + 1 and off-diagonal sqrt(i (i + k)) in the lower triangle,
    the one eigvalsh reads (Golub & Welsch, Math. Comp. 23 (1969) 221-230)."""
    i = np.arange(1.0, n)
    return np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + k + 1.0)
                              + np.diag(np.sqrt(i * (i + k)), -1))


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
