"""Polar rules for Wigner and Husimi tables of Fock primitives (r = 0).

Each factor is D_mn = R_mn(rho) e^(-i(m - n) theta), so the angles
integrate in closed form. polar_pair_abs takes each pair integral, and
polar_wigner_delta the two-mode delta of a product, as 1D radial integrals
for any photon numbers: pieces between the zeros of R_mn, sqrt(x / 2) for
the Jacobi eigenvalues x of L_low^k (laguerre_zeros). Two terms of one
total photon number up to _POLAR_MAX_N take a 2D radial rule on sign-scanned
breakpoints (_polar_rule). One-mode delta, norm and pairs of one or two
Fock terms are 1D rules for any n, read from a table or from a state's
Terms with no grid (polar_fock_delta). Each rule runs to the support
radius, not the grid, and its estimate is its distance to the rule with
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


def polar_wigner_delta(table):
    """(delta, estimate) of a two-mode Wigner table whose primitives have r = 0
    and whose live terms are one product, or two of one total photon number
    with none above _POLAR_MAX_N; else None.
    Then W = A + B cos(Delta psi + phi), psi = theta1 - theta2, and delta is
    2 pi int int rho1 rho2 cos_abs_excess(A, B) up to the support radii (not
    the grid). The estimate is the distance to the rule with half the nodes."""
    if table.representation is not Representation.WIGNER or table.n_modes != 2 \
            or any(p.r for mode in table.primitives for p in mode):
        return None
    live = sorted((abs(c), tuple(p.n for p in prims))
                  for c, prims in zip(table.amplitudes, zip(*table.primitives)) if c != 0)
    live = min(live, sorted((c, ns[::-1]) for c, ns in live))  # a mode swap gives the same bits

    if len(live) == 1:  # a product, |f| = |W_kk(z1)| |W_ll(z2)|
        (c, ns), = live
        fine, coarse = (float(c * c * (math.prod(a) - math.prod(p))) for a, p in (
            zip(*rule) for rule in zip(*(_radial_integrals(n, n) for n in ns))))
    elif len(live) == 2 and live[0][1] != live[1][1] and sum(live[0][1]) == sum(live[1][1]) \
            and max(live[0][1] + live[1][1]) <= _POLAR_MAX_N:
        (c0, k), (c1, l) = live
        fine, coarse = _polar_rule(np.array([c0 * c0, c1 * c1, 2.0 * c0 * c1]),
                                   [((a, a), (b, b), (a, b)) for a, b in zip(k, l)],
                                   [Primitive(max(a, b)).support_radius for a, b in zip(k, l)])
    else:
        return None
    return fine, abs(fine - coarse)


def polar_pair_abs(table) -> dict:
    """int |f_kl| and its estimate per pair key of a Wigner or Husimi table
    whose primitives all have r = 0, from one radial integral per mode; {}
    for any other table.

    Each factor is D_mn = R_mn(rho) e^(-i(m - n) theta), so f_kl =
    2 |gamma_kl| prod_m R_m cos(phi - sum_m (m - n)_m theta_m), whose |cos|
    averages 2 / pi over the angles when some mode's photon numbers differ
    and is |cos phi| when none does; f_kk = |c_k|^2 prod_m R_m. The estimate
    is first order in the modes' estimates. A pair in which no mode's
    photon numbers differ and every R_nn >= 0 (every such Husimi pair, and
    Wigner's with n = 0 in every mode) has one sign everywhere; it is left
    to the grid, whose int |f| is then the very sum of its int f, or, in
    polar_fock_pairs, to the radial integral of f."""
    rep, prims = table.representation, table.primitives
    if rep is Representation.RIVIER or any(p.r for mode in prims for p in mode):
        return {}
    c, out = table.amplitudes, {}
    for k, l in _hermitian_keys(len(c)):
        ns = [(mode[k].n, mode[l].n) for mode in prims]
        gamma = c[k] * c[l].conjugate()
        if any(m != n for m, n in ns):
            scale = 4.0 / math.pi * abs(gamma)
        elif rep is Representation.HUSIMI or not any(m for m, _ in ns):
            continue
        else:
            scale = abs(c[k]) ** 2 if k == l else 2.0 * abs(gamma.real)
        values, estimates = zip(*(_mode_abs(rep, m, n) for m, n in ns))
        out[(k, l)] = (scale * math.prod(values), scale * sum(
            e * math.prod(values[:i] + values[i + 1:]) for i, e in enumerate(estimates)))
    return out


def fock_single_mode(table):
    """The live (amplitude, photon number) terms of a one-mode Wigner or
    Husimi table (or Terms) whose primitives all have r = 0, if they are one
    or two of distinct photon numbers; else None."""
    rep, prims = table.representation, table.primitives
    if rep is Representation.RIVIER or len(prims) != 1 or any(p.r for p in prims[0]):
        return None
    live = [(c, p.n) for c, p in zip(table.amplitudes, prims[0]) if c != 0]
    return live if 0 < len(live) == len({n for _, n in live}) <= 2 else None


def polar_fock_delta(table):
    """(delta, estimate, norm_check) of a table that fock_single_mode
    covers, else None. norm_check is sum |c_k|^2 2 pi int R_kk rho, and
    Husimi delta is 0. Wigner W = A + B cos(k theta - phi), with
    A = |c_m|^2 R_mm + |c_n|^2 R_nn and B = 2 |c_m c_n| R_mn, so delta =
    int rho cos_abs_excess(A, B) drho (_single_rule); one live term's is
    |c|^2 2 pi int (|R_nn| - R_nn) rho."""
    if (live := fock_single_mode(table)) is None:
        return None
    rep = table.representation
    norm = math.fsum(abs(c) ** 2 * _mode_signed(rep, n)[0] for c, n in live)
    if rep is Representation.HUSIMI:
        return 0.0, 0.0, norm
    if len(live) == 1:
        (c, n), = live
        fine, coarse = (abs(c) ** 2 * (a - s) for a, s in _radial_integrals(n, n))
    else:
        fine, coarse = _single_rule(*live)
    return fine, abs(fine - coarse), norm


def polar_fock_pairs(table):
    """(int |f_kl|, its estimate, int f_kl) per pair key of a table that
    fock_single_mode covers, else None: polar_pair_abs, and a pair of one
    sign takes its plain integral. int f_kl is 0 off the diagonal (the
    angle integral of cos, or gamma = 0) and |c_k|^2 2 pi int R_kk rho on it."""
    if fock_single_mode(table) is None:
        return None
    rep, c, prims = table.representation, table.amplitudes, table.primitives[0]
    polar, out = polar_pair_abs(table), []
    for k, l in _hermitian_keys(len(c)):
        plain, estimate = ((abs(c[k]) ** 2 * x for x in _mode_signed(rep, prims[k].n))
                           if k == l else (0.0, 0.0))
        out.append(polar.get((k, l), (plain, estimate)) + (plain,))
    return out


def _mode_signed(rep, n) -> tuple:
    """2 pi int R_nn rho drho and its estimate: Husimi's is 1, exact;
    Wigner's is the radial rule, with its distance to half the nodes."""
    if rep is Representation.HUSIMI:
        return 1.0, 0.0
    (_, fine), (_, coarse) = _radial_integrals(n, n)
    return fine, abs(fine - coarse)


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
    below sqrt(2 max(m, n) + 1)), and by the rule with half the nodes. Shared."""
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
