"""States: finite superpositions of Fock and squeezed-Fock primitives.

One ``State`` holds a one- or two-mode superposition; its terms are
(c, u1) or (c, u1, u2), an amplitude and one primitive per mode.

Dimensionless oscillator units are used throughout (hbar = 1, unit mass
and frequency). The number-state wavefunction is

    psi_n(q) = pi^(-1/4) (2^n n!)^(-1/2) H_n(q) exp(-q^2 / 2),

and a positive squeezing parameter r contracts position by e^r:

    psi_{n,r}(q) = e^(r/2) psi_n(e^r q),

which dilates the momentum wavefunction by the same factor; a Fock state
is the primitive of r = 0. Primitives of unequal r are generally not
orthogonal: their overlaps are integrated exactly by a Gauss-Hermite
rule (``primitive_overlap``) rather than assumed.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import specialfn
from .errors import (
    DegenerateStateError,
    DomainError,
    StateFormatError,
)

MAX_SQUEEZING = 5.0

# The primitive type tags of the JSON wire format.
FOCK = "fock"
SQUEEZED = "squeezed"

# Margin of the support radius sqrt(2n + 1) + 6, before squeezing. At q = 7,
# psi_0 is still e^(-24.5) = 2.3e-11 of its peak, not below rounding; its
# square, the scale of a Wigner function there, is about 5e-22 of the peak.
_SUPPORT_MARGIN = 6.0


@dataclass(frozen=True)
class Primitive:
    """One basis primitive: the number state |n> squeezed by r, Fock at r == 0."""

    n: int
    r: float = 0.0

    def __post_init__(self):
        specialfn._check_order("n", self.n)
        if not np.isfinite(self.r) or abs(self.r) > MAX_SQUEEZING:
            raise DomainError(
                f"squeezing parameter must satisfy |r| <= {MAX_SQUEEZING}, got {self.r}"
            )

    @property
    def support_radius(self) -> float:
        """Position radius beyond which the wavefunction is negligible."""
        return (math.sqrt(2.0 * self.n + 1.0) + _SUPPORT_MARGIN) * math.exp(-self.r)

    @property
    def momentum_radius(self) -> float:
        return (math.sqrt(2.0 * self.n + 1.0) + _SUPPORT_MARGIN) * math.exp(self.r)


def fock(n: int) -> Primitive:
    return Primitive(int(n))


def squeezed_fock(n: int, r: float) -> Primitive:
    return Primitive(int(n), float(r))


def fock_psi(n: int, q):
    """Number-state position wavefunction psi_n(q).

    Evaluated with the orthonormal-function recurrence
    psi_{k+1} = sqrt(2/(k+1)) q psi_k - sqrt(k/(k+1)) psi_{k-1},
    which avoids overflow of H_n and n! for moderate n.
    """
    specialfn._check_order("n", n)
    qa = np.asarray(q, dtype=float)
    psi_prev = np.pi ** -0.25 * np.exp(-0.5 * qa * qa)
    if n == 0:
        return specialfn._as_input_like(psi_prev, q)
    psi_cur = math.sqrt(2.0) * qa * psi_prev
    for k in range(1, n):
        psi_cur, psi_prev = (
            math.sqrt(2.0 / (k + 1.0)) * qa * psi_cur
            - math.sqrt(k / (k + 1.0)) * psi_prev,
            psi_cur,
        )
    return specialfn._as_input_like(psi_cur, q)


def squeezed_fock_psi(n: int, r: float, q):
    """Position wavefunction of the squeezed number state, e^(r/2) psi_n(e^r q)."""
    if not np.isfinite(r) or abs(r) > MAX_SQUEEZING:
        raise DomainError(f"|r| <= {MAX_SQUEEZING} required, got {r}")
    s = math.exp(r)
    return math.sqrt(s) * fock_psi(n, np.multiply(q, s))


def position_wavefunction(prim: Primitive, q):
    if prim.r == 0.0:
        return fock_psi(prim.n, q)
    return squeezed_fock_psi(prim.n, prim.r, q)


def momentum_wavefunction(prim: Primitive, p):
    """Momentum wavefunction phi(p) = (2 pi)^(-1/2) int psi(q) e^(-iqp) dq.

    Closed form: phi_n(p) = (-i)^n psi_n(p) for Fock states, and
    (-i)^n e^(-r/2) psi_n(e^(-r) p) for squeezed ones.
    """
    phase = (-1j) ** prim.n
    if prim.r == 0.0:
        return phase * np.asarray(fock_psi(prim.n, p), dtype=complex)
    s = math.exp(-prim.r)
    pa = np.asarray(p, dtype=float)
    return phase * math.sqrt(s) * np.asarray(fock_psi(prim.n, s * pa), dtype=complex)


def _validate_amplitude(c) -> complex:
    c = complex(c)
    if not (np.isfinite(c.real) and np.isfinite(c.imag)):
        raise DomainError("amplitudes must be finite")
    return c


@dataclass(frozen=True)
class State:
    """Finite superposition sum_k c_k |u_1k>...|u_Mk> of M = 1 or 2 modes."""

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise DomainError("state needs at least one term")
        modes = {len(term) - 1 for term in self.terms}
        if modes not in ({1}, {2}):
            raise DomainError(f"terms must all have 1 or all 2 modes, got {sorted(modes)}")
        checked = tuple((_validate_amplitude(c), *prims) for c, *prims in self.terms)
        object.__setattr__(self, "terms", checked)

    @property
    def n_modes(self) -> int:
        return len(self.terms[0]) - 1

    @property
    def amplitudes(self) -> tuple:
        return tuple(term[0] for term in self.terms)

    def mode_primitives(self, mode: int) -> tuple:
        if not 0 <= mode < self.n_modes:
            raise DomainError(f"mode must lie in [0, {self.n_modes}), got {mode}")
        return tuple(term[1 + mode] for term in self.terms)

    def wavefunction(self, *x):
        """sum_k c_k prod_m u_mk(x_m), one coordinate array per mode."""
        if len(x) != self.n_modes:
            raise DomainError(f"{self.n_modes} coordinate arrays needed, got {len(x)}")
        xs = [np.asarray(xm, dtype=float) for xm in x]
        total = np.zeros(np.broadcast_shapes(*(xm.shape for xm in xs)), dtype=complex)
        for c, *prims in self.terms:
            term = c
            for prim, xm in zip(prims, xs):
                term = term * position_wavefunction(prim, xm)
            total = total + term
        return total

    def with_amplitudes(self, amplitudes) -> "State":
        if len(amplitudes) != len(self.terms):
            raise DomainError("amplitude count mismatch")
        return State(tuple((c, *term[1:]) for c, term in zip(amplitudes, self.terms)))


# ---------------------------------------------------------------------------
# Overlaps and normalization
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _hermite_rule(count: int) -> tuple:
    """Gauss-Hermite nodes u and weights w e^(u^2) of ``count`` points, so
    that sum w e^(u^2) g(u) = int g for g a polynomial of degree below
    2 count times e^(-u^2). Kept per count: n <= 64 needs at most 65."""
    u, w = np.polynomial.hermite.hermgauss(count)
    w = w * np.exp(u * u)
    u.flags.writeable = w.flags.writeable = False  # shared by every caller
    return u, w


def primitive_overlap(p1: Primitive, p2: Primitive) -> complex:
    """<p1|p2>, exact but for rounding.

    psi_1 psi_2 is a polynomial of degree n1 + n2 times e^(-a x^2),
    a = (e^(2 r1) + e^(2 r2)) / 2, which the Gauss-Hermite rule of
    (n1 + n2) // 2 + 1 nodes at x = u / sqrt(a) integrates exactly.
    """
    root_a = math.sqrt(0.5 * (math.exp(2.0 * p1.r) + math.exp(2.0 * p2.r)))
    u, w = _hermite_rule((p1.n + p2.n) // 2 + 1)
    x = u / root_a
    return complex(w @ (position_wavefunction(p1, x) * position_wavefunction(p2, x)) / root_a)


def overlap(s1: State, s2: State) -> complex:
    """<s1|s2> = sum_kl conj(c_k) c_l prod_m <u_mk|u_ml>, cross terms between
    non-orthogonal primitives included.

    Every primitive wavefunction is real with parity (-1)^n, so <u|v> is
    exactly 0 when n_u + n_v is odd. Primitives of equal r are one
    squeezing of orthonormal Fock states, so their <u|v> is exactly
    delta_(n_u n_v); only pairs of unequal r go to primitive_overlap."""
    if s1.n_modes != s2.n_modes:
        raise DomainError(f"mode counts differ: {s1.n_modes} and {s2.n_modes}")
    total = 0.0 + 0.0j
    for ck, *uk in s1.terms:
        for cl, *ul in s2.terms:
            term = np.conj(ck) * cl
            for u, v in zip(uk, ul):
                term = term * (complex(u.n == v.n) if u.r == v.r
                               else primitive_overlap(u, v) if (u.n + v.n) % 2 == 0 else 0.0j)
            total += term
    return total


def state_norm(state: State) -> float:
    return math.sqrt(max(overlap(state, state).real, 0.0))


def normalize(state):
    """Return the state rescaled to unit norm. Idempotent."""
    norm = state_norm(state)
    if norm <= 1e-12:
        raise DegenerateStateError(f"cannot normalize state with norm {norm:g}")
    return state.with_amplitudes([c / norm for c in state.amplitudes])


# ---------------------------------------------------------------------------
# State families used by the sweeps
# ---------------------------------------------------------------------------

COEFF_CONVENTIONS = ("sqrt", "printed")


def entangled_state(n_low: int, n_high: int, a_sq: float) -> State:
    """a |n_low, n_high> + sqrt(1 - a^2) |n_high, n_low>, a = sqrt(a_sq)."""
    if not 0 <= n_low < n_high <= specialfn.MAX_ORDER:
        raise DomainError(f"need 0 <= n_low < n_high, got ({n_low}, {n_high})")
    if not 0.0 <= a_sq <= 1.0:
        raise DomainError(f"a_sq must lie in [0, 1], got {a_sq}")
    a = math.sqrt(a_sq)
    b = math.sqrt(max(0.0, 1.0 - a_sq))
    return State((
        (a, fock(n_low), fock(n_high)),
        (b, fock(n_high), fock(n_low)),
    ))


def _superposition_with_squeezed(a: float, squeezed_prim: Primitive,
                                 convention: str) -> State:
    if convention not in COEFF_CONVENTIONS:
        raise DomainError(f"convention must be one of {COEFF_CONVENTIONS}, got {convention!r}")
    if not -1.0 <= a <= 1.0:
        raise DomainError(f"amplitude a must lie in [-1, 1], got {a}")
    c0 = (1.0 - a * a) if convention == "printed" else math.sqrt(1.0 - a * a)
    raw = State(((c0, fock(0)), (a, squeezed_prim)))
    return normalize(raw)


def squeezed_vacuum_superposition(a: float, r: float, convention: str = "sqrt") -> State:
    """Normalized superposition of |0> and the squeezed vacuum |0, r>.

    The two components are non-orthogonal, so the printed coefficients are
    renormalized including their overlap.
    """
    return _superposition_with_squeezed(a, squeezed_fock(0, r), convention)


def squeezed_excited_superposition(a: float, r: float, convention: str = "sqrt") -> State:
    """Normalized superposition of |0> and the squeezed one-photon state |1, r>."""
    return _superposition_with_squeezed(a, squeezed_fock(1, r), convention)


# ---------------------------------------------------------------------------
# JSON state description (CLI wire format)
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    """A JSON integer: bool is a subclass of int, but true is not 1 here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _primitive_from_dict(obj, where: str) -> Primitive:
    if not isinstance(obj, dict):
        raise StateFormatError(f"{where} must be an object")
    allowed = {"type", "n", "r"}
    unknown = set(obj) - allowed
    if unknown:
        raise StateFormatError(f"{where} has unknown keys {sorted(unknown)}")
    kind = obj.get("type")
    if kind not in (FOCK, SQUEEZED):
        raise StateFormatError(f"{where}.type must be 'fock' or 'squeezed'")
    if not _is_int(obj.get("n")) or obj["n"] < 0:
        raise StateFormatError(f"{where}.n must be a non-negative integer")
    try:
        if kind == FOCK:
            if "r" in obj:
                raise StateFormatError(f"{where}: fock primitives take no 'r'")
            return fock(obj["n"])
        if not _is_number(obj.get("r")):
            raise StateFormatError(f"{where}: squeezed primitives need a numeric 'r'")
        return squeezed_fock(obj["n"], float(obj["r"]))
    except DomainError as exc:
        raise StateFormatError(f"{where}: {exc}") from exc


def state_from_dict(data) -> State:
    if not isinstance(data, dict):
        raise StateFormatError("state description must be a JSON object")
    unknown = set(data) - {"modes", "terms"}
    if unknown:
        raise StateFormatError(f"unknown top-level keys {sorted(unknown)}")
    modes = data.get("modes")
    if not _is_int(modes) or modes not in (1, 2):
        raise StateFormatError("'modes' must be 1 or 2")
    terms = data.get("terms")
    if not isinstance(terms, list) or not terms:
        raise StateFormatError("'terms' must be a non-empty list")
    mode_keys = [f"mode{m + 1}" for m in range(modes)]
    parsed = []
    for idx, term in enumerate(terms):
        where = f"terms[{idx}]"
        if not isinstance(term, dict):
            raise StateFormatError(f"{where} must be an object")
        unknown = set(term) - {"amp_re", "amp_im", *mode_keys}
        if unknown:
            raise StateFormatError(f"{where} has unknown keys {sorted(unknown)}")
        if not _is_number(term.get("amp_re")):
            raise StateFormatError(f"{where}.amp_re must be a number")
        amp_im = term.get("amp_im", 0.0)
        if not _is_number(amp_im):
            raise StateFormatError(f"{where}.amp_im must be a number")
        amp = complex(float(term["amp_re"]), float(amp_im))
        parsed.append((amp, *(_primitive_from_dict(term.get(key), f"{where}.{key}")
                              for key in mode_keys)))
    try:
        return State(tuple(parsed))
    except DomainError as exc:
        raise StateFormatError(str(exc)) from exc


def state_from_json(text: str) -> State:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"invalid JSON: {exc}") from exc
    return state_from_dict(data)


def _primitive_to_dict(prim: Primitive) -> dict:
    if prim.r == 0.0:
        return {"type": FOCK, "n": prim.n}
    return {"type": SQUEEZED, "n": prim.n, "r": prim.r}


def state_to_dict(state: State) -> dict:
    terms = []
    for c, *prims in state.terms:
        term = {"amp_re": c.real, "amp_im": c.imag}
        term.update((f"mode{m + 1}", _primitive_to_dict(p)) for m, p in enumerate(prims))
        terms.append(term)
    return {"modes": state.n_modes, "terms": terms}
