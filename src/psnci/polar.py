"""Polar rules for Wigner and Husimi distributions of Fock primitives (r = 0).

Each factor is D_mn = R_mn(rho) e^(-i(m - n) theta), so the angles
integrate in closed form. The two entry points read only the representation,
primitives and amplitudes of a TermTable or a state's Terms: no grid.
polar_pairs gives every pair's int |f_kl| and int f_kl, for any modes, terms
and photon numbers, from 1D radial integrals on pieces between the zeros of
R_mn, sqrt(x / 2) for the Jacobi eigenvalues x of L_low^k (laguerre_zeros).
polar_delta gives delta and norm_check; Wigner delta of a product is a
product of those, of one mode's two Fock terms a 1D rule (_single_rule), and
of two two-mode terms of one total photon number up to _POLAR_MAX_N a 2D
radial rule on sign-scanned breakpoints (_polar_rule). Each rule runs to the
support radius, not the grid; its estimate is its distance to the rule with
half the nodes.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .phasespace import Representation, _fock_core, _hermitian_keys
from .specialfn import laguerre_zeros
from .states import Primitive

# Nodes per piece, scan nodes per axis, where whole-radius edges stop short
# of the support radius (rho |W_nn| < 1.1e-6 of its peak past
# sqrt(2n + 1) + 3), and the largest photon number of _polar_rule: that of
# the sweep_a families, each of which is within 7.5e-7 of the oracle at every a^2.
_POLAR_ORDER, _POLAR_SCAN, _POLAR_TAIL, _POLAR_MAX_N = 12, 256, 3.0, 4
# _single_rule's nodes per piece, scan nodes per wavelength pi / sqrt(2n + 1)
# of R_nn and false-position steps: within 5e-11 of the references on
# (|0> + |n>) / sqrt2, n in {4, 12, 20, 40, 64}; 4 scan nodes miss root pairs
# at n = 64 (1.9e-7 off), and 2 steps leave n = 20 1.2e-8 off.
_SINGLE_ORDER, _SINGLE_SCAN, _SINGLE_STEPS = 24, 8, 4


class Terms(NamedTuple):
    """What the polar rules read of a TermTable, taken from a state: no grid."""

    representation: Representation
    primitives: tuple  # per mode, in term order
    amplitudes: tuple


def polar_pairs(terms):
    """(int |f_kl|, its estimate, int f_kl) per pair key of a Wigner or
    Husimi table (or Terms) whose primitives all have r = 0, else None.

    When some mode's photon numbers differ, f_kl = 2 |gamma_kl| prod_m R_m
    cos(phi - sum_m (m - n)_m theta_m): its |cos| averages 2 / pi over the
    angles, and its int f is 0. Otherwise f_kl = s prod_m R_nn, with
    s = |c_k|^2 on the diagonal and 2 Re gamma_kl off it; so a pair of one
    sign (Husimi's, or Wigner's with n = 0 in every mode) has
    int |f| = |int f| to the bit. The estimate is first order in the modes'
    estimates, plus 4 ulp of the value for its rounding."""
    rep, prims = terms.representation, terms.primitives
    if rep is Representation.RIVIER or any(p.r for mode in prims for p in mode):
        return None
    c, out = terms.amplitudes, []
    for k, l in _hermitian_keys(len(c)):
        ns, gamma = [(mode[k].n, mode[l].n) for mode in prims], c[k] * c[l].conjugate()
        values, estimates = zip(*(_mode_abs(rep, m, n) for m, n in ns))
        if any(m != n for m, n in ns):
            scale, plain = 4.0 / math.pi * abs(gamma), 0.0
        else:
            s = abs(c[k]) ** 2 if k == l else 2.0 * gamma.real
            signed = (1.0 if rep is Representation.HUSIMI else _radial_integrals(n, n)[0][1]
                      for n, _ in ns)  # 2 pi int R_nn rho drho; Husimi's is 1, exact
            scale, plain = abs(s), s * math.prod(signed)
        value = scale * math.prod(values)
        out.append((value, scale * sum(e * math.prod(values[:i] + values[i + 1:])
                                       for i, e in enumerate(estimates))
                    + 4.0 * math.ulp(value), plain))
    return out


def polar_delta(terms):
    """(delta, estimate, norm_check) of a table (or Terms) that polar_pairs
    covers and a polar rule gives delta for, else None. norm_check is the
    fsum of polar_pairs' int f_kl, and Husimi delta is 0. Wigner delta is
    |c|^2 (prod_m 2 pi int |R_nn| rho - prod_m 2 pi int R_nn rho) for one
    live term; for one mode's live (c_m, m), (c_n, n) of distinct n, W =
    A + B cos(k theta - phi) with A = |c_m|^2 R_mm + |c_n|^2 R_nn and
    B = 2 |c_m c_n| R_mn, so delta = int rho cos_abs_excess(A, B) drho
    (_single_rule); for two two-mode terms of one total photon number, none
    above _POLAR_MAX_N, W = A + B cos(Delta psi + phi), psi = theta1 - theta2,
    and delta = 2 pi int int rho1 rho2 cos_abs_excess(A, B) (_polar_rule)."""
    if (pairs := polar_pairs(terms)) is None:
        return None
    norm = math.fsum(plain for _, _, plain in pairs)
    if terms.representation is Representation.HUSIMI:
        return 0.0, 0.0, norm
    live = [(c, tuple(p.n for p in prims))
            for c, prims in zip(terms.amplitudes, zip(*terms.primitives)) if c != 0]
    if len(live) == 1:
        (c, ns), = live
        fine, coarse = (abs(c) ** 2 * (math.prod(a) - math.prod(s)) for a, s in (
            zip(*rule) for rule in zip(*(_radial_integrals(n, n) for n in ns))))
    elif len(live) != 2 or live[0][1] == live[1][1]:
        return None
    elif len(terms.primitives) == 1:
        fine, coarse = _single_rule(*((c, n) for c, (n,) in live))
    else:
        (c0, k), (c1, l) = min(sorted((abs(c), ns) for c, ns in live),
                               sorted((abs(c), ns[::-1]) for c, ns in live))  # swap-invariant
        if len(k) != 2 or sum(k) != sum(l) or max(k + l) > _POLAR_MAX_N:
            return None
        fine, coarse = _polar_rule(np.array([c0 * c0, c1 * c1, 2.0 * c0 * c1]),
                                   [((a, a), (b, b), (a, b)) for a, b in zip(k, l)],
                                   [Primitive(max(a, b)).support_radius for a, b in zip(k, l)])
    return fine, abs(fine - coarse), norm


def _single_rule(first, second) -> tuple:
    """Fine and coarse int rho cos_abs_excess(A, B) drho for the live terms
    (c_m, m) and (c_n, n): pieces end at the factors' zeros, whole radii
    and the roots of A +- B, flagged singular, from a sign scan
    _SINGLE_SCAN nodes a wavelength. A root where A +- B only touches 0
    does not change the branch and needs no edge."""
    (cm, m), (cn, n) = first, second
    pairs, hi = ((m, m), (n, n), (m, n)), Primitive(max(m, n)).support_radius
    weights = np.array([abs(cm) ** 2, abs(cn) ** 2, 2.0 * abs(cm * cn)])
    radial = functools.partial(_fock_radial, pairs)
    zeros = [np.sqrt(0.5 * laguerre_zeros(min(a, b), abs(a - b))) for a, b in pairs]
    scan = np.linspace(0.0, hi, math.ceil(hi * _SINGLE_SCAN * math.sqrt(2 * max(m, n) + 1)
                                          / math.pi) + 1)
    roots = sign_roots(weights * [[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]], radial, scan,
                       radial(scan), _SINGLE_STEPS)[2]
    edges, singular = _edges(_plain_edges(hi, np.concatenate(zeros)), roots, hi)

    def rule(order):
        r, w = radial_pieces(edges, singular, order)
        a, b, x = weights[:, None] * radial(r)
        return float(np.sum(cos_abs_excess(a + b, x) * r * w))
    return rule(_SINGLE_ORDER), rule(_SINGLE_ORDER // 2)


def _mode_abs(rep, m, n) -> tuple:
    """2 pi int |R_mn| rho drho of one mode's factor, and its estimate.
    Husimi's |R_mn| is e^(-rho^2) rho^(m + n) / (pi sqrt(m! n!)), so this
    is Gamma((m + n) / 2 + 1) / sqrt(m! n!), exact; Wigner's is the radial
    rule, with its distance to half the nodes."""
    if rep is Representation.HUSIMI:
        return math.exp(math.lgamma(0.5 * (m + n) + 1.0)
                        - 0.5 * (math.lgamma(m + 1.0) + math.lgamma(n + 1.0))), 0.0
    (fine, _), (coarse, _) = _radial_integrals(m, n)
    return fine, abs(fine - coarse)


@functools.lru_cache(maxsize=None)
def _radial_integrals(m, n) -> tuple:
    """(2 pi int |R_mn| rho, 2 pi int R_mn rho) over [0, the support radius
    of |max(m, n)>], by the rule on pieces between the zeros of R_mn (all
    below sqrt(2 max(m, n) + 1)), and by the rule with half the nodes. Shared.
    R_00 = e^(-rho^2) / pi is positive with unit integral: both are 1, exact."""
    if m == n == 0:
        return (1.0, 1.0), (1.0, 1.0)
    hi = Primitive(max(m, n)).support_radius
    zeros = np.sqrt(0.5 * laguerre_zeros(min(m, n), abs(m - n)))
    edges = np.sort(_plain_edges(hi, zeros))

    def rule(order):
        r, w = radial_pieces(edges, np.zeros(edges.shape, int), order)
        f = 2.0 * math.pi * _fock_radial([(m, n)], r)[0] * r * w
        return float(np.sum(np.abs(f))), float(np.sum(f))
    return rule(_POLAR_ORDER), rule(_POLAR_ORDER // 2)


def _fock_radial(pairs, rho) -> np.ndarray:
    """R_mn(rho) = W_mn(rho, 0) per (m, n) of ``pairs``: W_mn(rho, t) = R_mn(rho) e^(-i(m-n)t)."""
    u = rho * rho
    out = np.empty((len(pairs),) + rho.shape)
    for row, (m, n) in zip(out, pairs):
        low, k = min(m, n), abs(m - n)
        np.multiply(rho ** k, _fock_core(low, k, u), out=row)
    return out


@functools.lru_cache(maxsize=None)
def _radial_scan(pairs, hi) -> tuple:
    """The scan nodes on [0, hi], the factors of ``pairs`` there, which factor
    each zero in [0, hi] is of, and the zeros. Shared; not to be written to."""
    radial, scan = functools.partial(_fock_radial, pairs), np.linspace(0.0, hi, _POLAR_SCAN)
    values = radial(scan)
    return (scan, values, *sign_roots(np.eye(len(pairs)), radial, scan, values)[1:])


def _plain_edges(hi, zeros) -> np.ndarray:
    """0, hi, whole radii below hi - _POLAR_TAIL and the ``zeros`` of radial
    factors, where |A| has its kinks when B = 0; unsorted."""
    return np.concatenate([[0.0, hi], np.arange(1.0, hi - _POLAR_TAIL), zeros])


def _edges(plain, singular, hi) -> tuple:
    """Sorted edges in [0, hi] along the last axis, and their singular flags."""
    edges = np.concatenate([plain, np.clip(singular, 0.0, hi)], axis=-1)
    flags = np.concatenate([np.zeros(plain.shape, int), np.ones(singular.shape, int)], axis=-1)
    order = np.argsort(edges, axis=-1, kind="stable")
    return np.take_along_axis(edges, order, -1), np.take_along_axis(flags, order, -1)


def _polar_rule(weights, pairs, his) -> tuple:
    """Fine and coarse 2 pi int int rho1 rho2 cos_abs_excess(A, B) for
    A = w0 a1 a2 + w1 b1 b2, B = w2 c1 c2. rho2 pieces end at each rho1 node's
    roots of A +- B, whose count changes, or which cross, at rho1 edges."""
    radial = [functools.partial(_fock_radial, p) for p in pairs]
    (scan1, on_scan1, _, zeros1), (scan2, on_scan2, which2, zeros2) = (
        _radial_scan(p, hi) for p, hi in zip(pairs, his))

    def rows(u):  # A + B and A - B on the mode-2 factors, two rows per rho1
        return (u.T[:, None, :] * [[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]]).reshape(-1, 3)

    negative = (rows(weights[:, None] * on_scan1) @ on_scan2 < 0.0).reshape(_POLAR_SCAN, 2, -1)
    c = np.count_nonzero(negative[..., 1:] != negative[..., :-1], axis=-1)
    events = scan1[np.flatnonzero(np.any(c[1:] != c[:-1], axis=1))] + 0.5 * scan1[1]
    plain = [_plain_edges(his[0], zeros1), _plain_edges(his[1], zeros2)]
    on_zeros = radial[1](zeros2[which2 == 2])  # where the mode-2 cross factor is 0
    crossings = sign_roots(((weights * [1.0, 1.0, 0.0])[:, None] * on_zeros).T,
                           radial[0], scan1, on_scan1)[2] if on_zeros.size else []
    e1, s1 = _edges(plain[0], np.concatenate([events, crossings]), his[0])
    first = np.flatnonzero(np.diff(e1, prepend=-1.0) > 1e-9)  # one edge per position
    e1, s1 = e1[first], np.maximum.reduceat(s1, first)

    def rule(order):
        r1, w1 = radial_pieces(e1, s1, order)
        u = weights[:, None] * radial[0](r1)
        mask, row, roots = sign_roots(rows(u), radial[1], scan2, on_scan2)
        count = mask.sum(axis=1)
        ends = np.full((len(mask), max(1, count.max())), his[1])
        ends[row, np.arange(len(row)) - (np.cumsum(count) - count)[row]] = roots
        e2, s2 = _edges(np.broadcast_to(plain[1], (len(r1), len(plain[1]))),
                        ends.reshape(len(r1), -1), his[1])

        def excess(i, rho2):  # E(A, B) at the rho1 nodes i
            v = radial[1](rho2)
            return cos_abs_excess(u[0][i] * v[0] + u[1][i] * v[1], u[2][i] * v[2])

        mid = excess(np.arange(len(r1))[:, None], 0.5 * (e2[:, 1:] + e2[:, :-1]))  # 0 if A >= |B|
        i, p = divmod(np.flatnonzero((e2[:, 1:] > e2[:, :-1]) & (mid > 0.0)), len(e2[0]) - 1)
        r2, w2 = radial_pieces(np.stack([e2[i, p], e2[i, p + 1]], -1),
                               np.stack([s2[i, p], s2[i, p + 1]], -1), order)
        return 2.0 * math.pi * float(np.sum(excess(i[:, None], r2) * r2 * w2 * (r1 * w1)[i, None]))
    return rule(_POLAR_ORDER), rule(_POLAR_ORDER // 2)


@functools.lru_cache(maxsize=None)
def _piece_rule(order: int) -> tuple:
    """Gauss-Legendre s(tau) and weights under tau, tau^2, tau (2 - tau), sin^2(pi tau / 2)."""
    t, w = np.polynomial.legendre.leggauss(order)
    tau, half = 0.5 * (t + 1.0), 0.25 * math.pi * (t + 1.0)
    s = np.stack([tau, tau * tau, tau * (2.0 - tau), np.sin(half) ** 2])
    ds = np.stack([np.ones_like(tau), 2.0 * tau, 2.0 - 2.0 * tau,
                   0.5 * math.pi * np.sin(2.0 * half)])
    return s, 0.5 * w * ds


def radial_pieces(edges: np.ndarray, singular: np.ndarray, order: int) -> tuple:
    """``order``-node Gauss-Legendre nodes and weights on the pieces between
    ``edges`` (sorted, last axis); a piece is mapped with s ~ tau^2 at an end
    flagged ``singular``, making an (x - x0)^(3/2) term there a smooth tau^3."""
    s, w = _piece_rule(order)
    kind = singular[..., :-1] + 2 * singular[..., 1:]
    lo, span = edges[..., :-1, None], np.diff(edges)[..., None]
    shape = edges.shape[:-1] + (-1,)
    return (lo + span * s[kind]).reshape(shape), (span * w[kind]).reshape(shape)


def cos_abs_excess(a, b):
    """int_0^2pi (|a + b cos u| - a) du: 2 pi (|a| - a) if |a| >= |b|, else
    4 sqrt(b^2 - a^2) + 4 a arcsin(a / |b|) - 2 pi a, ~ (|b| - a)^(3/2) at |b|."""
    b = np.abs(b)
    inside = np.abs(a) < b
    ratio = np.where(inside, a / np.where(inside, b, 1.0), 0.0)
    crossing = 4.0 * np.sqrt(np.maximum(b * b - a * a, 0.0)) + 4.0 * a * np.arcsin(ratio)
    return np.where(inside, crossing - 2.0 * math.pi * a, 2.0 * math.pi * (np.abs(a) - a))


def sign_roots(coef: np.ndarray, values, nodes: np.ndarray, at_nodes: np.ndarray,
               steps: int = 2) -> tuple:
    """The sign-change mask of each row of coef @ values(x) on the scan
    ``nodes`` (at_nodes = values(nodes)), and the row and root of each change,
    row-major, after ``steps`` false-position steps (on the Bell families,
    delta is within 1.2e-10 of one step and 2.4e-11 of three). Root pairs
    between two nodes are missed."""
    g = coef @ at_nodes
    mask = (g[:, 1:] < 0.0) != (g[:, :-1] < 0.0)
    row, j = divmod(np.flatnonzero(mask), mask.shape[1])  # 10x np.nonzero's speed in 2D
    lo, up, glo, gup = nodes[j], nodes[j + 1], g[row, j], g[row, j + 1]
    for _ in range(steps):
        x = lo - glo * (up - lo) / (gup - glo)
        gx = np.einsum("ij,ji->i", coef[row], values(x))
        left = (gx < 0.0) == (glo < 0.0)
        lo, glo = np.where(left, x, lo), np.where(left, gx, glo)
        up, gup = np.where(left, up, x), np.where(left, gup, gx)
    return mask, row, lo - glo * (up - lo) / (gup - glo)
