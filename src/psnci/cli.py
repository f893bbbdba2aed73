"""Command-line interface.

Commands: dist, indicator, sweep-a, sweep-r, entropy, validate.
Exit codes: 0 success, 1 validation failure, 2 usage or parse error,
3 numerical failure. Identical configuration produces byte-identical
output files; every file written with --out gets a ``<out>.meta.json``
sidecar holding the full effective configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from .errors import PhaseSpaceError, StateFormatError
from .grids import DEFAULT_TWO_MODE_EXTENT, DEFAULT_TWO_MODE_POINTS, PhaseGrid
from .indicators import (
    delta_indicator,
    eta_indicator,
    sweep_a,
    sweep_r,
    von_neumann_entropy,
)
from .phasespace import Representation, build_term_table, default_grid
from .states import normalize, state_from_json, state_to_dict
from .validation import run_validation

SWEEP_CSV_HEADER = "param,rep,delta,eta,entropy,norm_check,err_est"


class UsageError(Exception):
    """Bad command usage that argparse cannot catch itself."""


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{float(x):.12g}"


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _float_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc


def _resolve_threads(value) -> int:
    if value is not None:
        return max(1, int(value))
    env = os.environ.get("PSNCI_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise UsageError(f"PSNCI_THREADS must be an integer, got {env!r}") from exc
    return os.cpu_count() or 1


def _load_state(spec_text: str):
    if spec_text.lstrip().startswith("{"):
        return state_from_json(spec_text)
    try:
        with open(spec_text, "r", encoding="utf-8") as fh:
            return state_from_json(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read state file {spec_text!r}: {exc}") from exc


def _grid_for(state, args) -> PhaseGrid:
    return default_grid(state, extent=args.extent, points=args.points)


def _config_dict(args, command: str, extra: dict = None) -> dict:
    cfg = {
        "command": command,
        "threads": _resolve_threads(args.threads),
        "tol": args.tol,
        "extent": args.extent,
        "points": args.points,
        "coeff_convention": getattr(args, "coeff_convention", "sqrt"),
        "entropy_base": getattr(args, "entropy_base", "2"),
        "out": args.out,
    }
    if extra:
        cfg.update(extra)
    return cfg


def _emit(lines, args, config: dict):
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        sys.stdout.write(text)


def _print_json(payload: dict, args):
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_dist(args) -> int:
    state = normalize(_load_state(args.state), tol=args.tol)
    reps = args.rep or ["wigner"]
    if len(reps) != 1:
        raise UsageError("dist takes exactly one representation")
    rep = Representation.parse(reps[0])
    table = build_term_table(state, rep, _grid_for(state, args))
    config = _config_dict(args, "dist", {
        "state": state_to_dict(state),
        "rep": rep.value,
        "grid": table.grid.describe(),
    })
    lines = []
    if table.n_modes == 1:
        keys = sorted(table.pair_keys(), key=lambda ij: (ij[0] != ij[1], ij))
        header = "q,p,f_total," + ",".join(f"f_{i + 1}{j + 1}" for i, j in keys)
        lines.append(header)
        mode = table.grid.mode(0)
        q = mode.q.centers
        p = mode.p.centers
        total = table.total_values()
        terms = [table.pair_values(i, j) for i, j in keys]
        for a in range(mode.q.n):
            for b in range(mode.p.n):
                cells = [_fmt(q[a]), _fmt(p[b]), _fmt(total[a, b])]
                cells += [_fmt(t[a, b]) for t in terms]
                lines.append(",".join(cells))
    else:
        lines.append("mode,term_i,term_j,q,p,re,im")
        for m in range(2):
            mode = table.grid.mode(m)
            q = mode.q.centers
            p = mode.p.centers
            stored = table.stored_factors(m)
            for (k, l) in sorted(stored):
                g = stored[(k, l)]
                for a in range(mode.q.n):
                    for b in range(mode.p.n):
                        lines.append(",".join([
                            str(m + 1), str(k + 1), str(l + 1),
                            _fmt(q[a]), _fmt(p[b]),
                            _fmt(g[a, b].real), _fmt(g[a, b].imag),
                        ]))
    _emit(lines, args, config)
    norm_line = f"norm_check = {_fmt(table.norm_check)}"
    if args.out:
        print(norm_line)
    else:
        print(norm_line, file=sys.stderr)
    return 0


def _cmd_indicator(args) -> int:
    threads = _resolve_threads(args.threads)
    state = normalize(_load_state(args.state), tol=args.tol)
    reps = [Representation.parse(r) for r in (args.rep or ["wigner", "husimi", "rivier"])]
    results = {}
    for rep in reps:
        table = build_term_table(state, rep, _grid_for(state, args))
        d = delta_indicator(table, threads=threads)
        e = eta_indicator(table, threads=threads)
        results[rep.value] = {
            "delta": {"value": d.value, "error_estimate": d.error_estimate,
                      "norm_check": d.norm_check, "valid": d.valid},
            "eta": {"value": e.value, "error_estimate": e.error_estimate,
                    "norm_check": e.norm_check, "valid": e.valid},
        }
    payload = {
        "config": _config_dict(args, "indicator", {
            "state": state_to_dict(state),
            "reps": [r.value for r in reps],
        }),
        "results": results,
    }
    _print_json(payload, args)
    return 0


_FAMILY_RE = re.compile(r"^entangled(\d)(\d)$")


def _cmd_sweep_a(args) -> int:
    threads = _resolve_threads(args.threads)
    match = _FAMILY_RE.match(args.family)
    if not match:
        raise UsageError(f"unknown family {args.family!r}; expected e.g. entangled01")
    n_low, n_high = int(match.group(1)), int(match.group(2))
    reps = args.reps or ["wigner", "husimi", "rivier"]
    a_sq = np.linspace(0.0, 1.0, args.steps).tolist() if args.steps > 1 else [0.5]
    grid = None
    if args.extent is not None or args.points is not None:
        extent = args.extent if args.extent is not None else DEFAULT_TWO_MODE_EXTENT
        points = args.points if args.points is not None else DEFAULT_TWO_MODE_POINTS
        grid = PhaseGrid.two_mode(extent=extent, points=points)
    rows = sweep_a((n_low, n_high), a_sq, reps, grid,
                   entropy_base=args.entropy_base, threads=threads)
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        for rep in reps:
            rep_name = Representation.parse(rep).value
            lines.append(",".join([
                _fmt(row.param), rep_name,
                _fmt(row.delta.get(rep_name)),
                _fmt(row.eta.get(rep_name)),
                _fmt(row.entropy),
                _fmt(row.norm_check.get(rep_name)),
                _fmt(row.error_estimate.get(rep_name)),
            ]))
    config = _config_dict(args, "sweep-a", {
        "family": args.family, "steps": args.steps,
        "reps": [Representation.parse(r).value for r in reps],
        "a_sq_values": a_sq,
    })
    _emit(lines, args, config)
    return 0


def _cmd_sweep_r(args) -> int:
    threads = _resolve_threads(args.threads)
    r_values = np.linspace(0.0, args.rmax, args.steps).tolist() if args.steps > 1 else [0.0]
    reps = args.rep or ["wigner"]
    if len(reps) != 1:
        raise UsageError("sweep-r takes exactly one representation")
    rep_name = Representation.parse(reps[0]).value
    rows = sweep_r(args.family, r_values, args.a, rep_name,
                   convention=args.coeff_convention, threads=threads)
    lines = [SWEEP_CSV_HEADER + ",a"]
    for row in rows:
        lines.append(",".join([
            _fmt(row.param), rep_name,
            "",  # delta is not part of the squeezing sweep
            _fmt(row.eta.get(rep_name)),
            "",  # entropy undefined for single-mode states
            _fmt(row.norm_check.get(rep_name)),
            _fmt(row.error_estimate.get(rep_name)),
            _fmt(row.amplitude),
        ]))
    config = _config_dict(args, "sweep-r", {
        "family": args.family, "steps": args.steps, "rmax": args.rmax,
        "rep": rep_name, "a_values": args.a,
        "r_values": r_values,
    })
    _emit(lines, args, config)
    return 0


def _cmd_entropy(args) -> int:
    state = normalize(_load_state(args.state), tol=args.tol)
    value = von_neumann_entropy(state, log_base=args.entropy_base)
    payload = {
        "config": _config_dict(args, "entropy", {"state": state_to_dict(state)}),
        "entropy": value,
        "log_base": args.entropy_base,
    }
    _print_json(payload, args)
    return 0


def _cmd_validate(args) -> int:
    threads = _resolve_threads(args.threads)
    results, ok = run_validation(extent=args.extent, points=args.points,
                                 reps=args.rep, threads=threads)
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.name}: {res.detail}")
    n_fail = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    if args.out:
        report = {
            "config": _config_dict(args, "validate",
                                   {"reps": args.rep or ["wigner", "husimi", "rivier"]}),
            "all_passed": ok,
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in results],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--rep", type=lambda s: [t.strip() for t in s.split(",") if t.strip()],
                        default=None, help="representation(s), comma separated")
    parser.add_argument("--extent", type=float, default=None,
                        help="half-width of the base grid")
    parser.add_argument("--points", type=_positive_int, default=None,
                        help="points per axis of the base grid")
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="pointwise quadrature tolerance")
    parser.add_argument("--coeff-convention", choices=["printed", "sqrt"],
                        default="sqrt", dest="coeff_convention")
    parser.add_argument("--entropy-base", choices=["2", "e"], default="2",
                        dest="entropy_base")
    parser.add_argument("--threads", type=_positive_int, default=None,
                        help="worker threads (default: PSNCI_THREADS or CPU count)")
    parser.add_argument("--out", type=str, default=None, help="output file path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psnci",
        description="Phase-space distributions and non-classicality indicators "
                    "for Fock and squeezed-Fock superpositions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="dump a distribution grid as CSV")
    p.add_argument("--state", required=True, help="state JSON (inline or file path)")
    _add_common(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("indicator", help="compute delta and eta for a state")
    p.add_argument("--state", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_indicator)

    p = sub.add_parser("sweep-a", help="sweep the entanglement weight a^2")
    p.add_argument("--family", required=True, help="e.g. entangled01, entangled12")
    p.add_argument("--steps", type=_positive_int, required=True)
    p.add_argument("--reps", type=lambda s: [t.strip() for t in s.split(",") if t.strip()],
                   default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep_a)

    p = sub.add_parser("sweep-r", help="sweep the squeezing parameter r")
    p.add_argument("--family", required=True, choices=["psi00r", "psi01r"])
    p.add_argument("--a", type=_float_list, required=True,
                   help="comma-separated amplitudes in (0, 1)")
    p.add_argument("--rmax", type=float, default=2.0)
    p.add_argument("--steps", type=_positive_int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep_r)

    p = sub.add_parser("entropy", help="Von Neumann entanglement entropy")
    p.add_argument("--state", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("validate", help="run the invariant check suite")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (UsageError, StateFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PhaseSpaceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
