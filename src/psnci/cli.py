"""Command-line interface.

Commands: dist, indicator, sweep-a, sweep-r, entropy, validate; each
takes only the flags its handler reads (``_COMMANDS``).
Exit codes: 0 success, 1 validation failure, 2 usage or parse error,
3 numerical failure. Identical configuration produces byte-identical
output files; every file written with --out gets a ``<out>.meta.json``
sidecar holding the full effective configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from .errors import PhaseSpaceError, StateFormatError
from .grids import PhaseGrid
from .indicators import (
    SWEEP_R_FAMILIES,
    state_indicators,
    sweep_a,
    sweep_r,
    von_neumann_entropy,
)
from .phasespace import Representation, build_term_table, default_grid
from .states import entangled_state, normalize, state_from_json, state_to_dict
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


def _name_list(text: str) -> list:
    return [t.strip() for t in text.split(",") if t.strip()]


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


def _config_dict(args, derived: dict, drop=()) -> dict:
    """The command, every flag it accepts and the values derived from them.

    A derived value replaces the flag of the same name; ``drop`` names a
    flag whose resolved value is recorded under another name.
    """
    cfg = {k: v for k, v in vars(args).items() if k != "func" and k not in drop}
    cfg.update(derived)
    return cfg


def _emit(lines, args, config: dict):
    text = "\n".join(lines) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise UsageError(f"cannot write --out {args.out!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_dist(args) -> int:
    state = normalize(_load_state(args.state))
    reps = args.rep or ["wigner"]
    if len(reps) != 1:
        raise UsageError("dist takes exactly one representation")
    rep = Representation.parse(reps[0])
    table = build_term_table(state, rep, _grid_for(state, args))
    config = _config_dict(args, {
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
        total = table.values()
        terms = [table.values([key]) for key in keys]
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
    norm_line = f"norm_check = {_fmt(table.total_integral())}"
    if args.out:
        print(norm_line)
    else:
        print(norm_line, file=sys.stderr)
    return 0


def _cmd_indicator(args) -> int:
    state = normalize(_load_state(args.state))
    reps = [Representation.parse(r) for r in (args.rep or ["wigner", "husimi", "rivier"])]
    results = {}
    for rep in reps:
        d, e = state_indicators(state, rep, _grid_for(state, args), threads=args.threads)
        results[rep.value] = {
            "delta": {"value": d.value, "error_estimate": d.error_estimate,
                      "norm_check": d.norm_check, "valid": d.valid},
            "eta": {"value": e.value, "error_estimate": e.error_estimate,
                    "norm_check": e.norm_check, "valid": e.valid},
        }
    config = _config_dict(args, {
        "state": state_to_dict(state),
        "reps": [r.value for r in reps],
    }, drop=("rep",))
    payload = {"config": config, "results": results}
    _emit([json.dumps(payload, indent=2, sort_keys=True)], args, config)
    return 0


_FAMILY_RE = re.compile(r"^entangled(\d)(\d)$")


def _cmd_sweep_a(args) -> int:
    match = _FAMILY_RE.match(args.family)
    n_low, n_high = (int(match.group(1)), int(match.group(2))) if match else (0, 0)
    if not n_low < n_high <= 4:
        raise UsageError(f"unknown family {args.family!r}; expected entangledNM with "
                         "0 <= N < M <= 4, e.g. entangled01")
    reps = args.reps or ["wigner", "husimi", "rivier"]
    a_sq = np.linspace(0.0, 1.0, args.steps).tolist() if args.steps > 1 else [0.5]
    grid = _grid_for(entangled_state(n_low, n_high, 0.5), args)
    rows = sweep_a((n_low, n_high), a_sq, reps, grid,
                   entropy_base=args.entropy_base, threads=args.threads)
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
    config = _config_dict(args, {
        "reps": [Representation.parse(r).value for r in reps],
        "a_sq_values": a_sq,
    })
    _emit(lines, args, config)
    return 0


def _cmd_sweep_r(args) -> int:
    if args.family not in SWEEP_R_FAMILIES:
        raise UsageError(f"unknown family {args.family!r}; expected one of {SWEEP_R_FAMILIES}")
    r_values = np.linspace(0.0, args.rmax, args.steps).tolist() if args.steps > 1 else [0.0]
    reps = args.rep or ["wigner"]
    if len(reps) != 1:
        raise UsageError("sweep-r takes exactly one representation")
    rep_name = Representation.parse(reps[0]).value
    rows = sweep_r(args.family, r_values, args.a, rep_name,
                   convention=args.coeff_convention, extent=args.extent,
                   points=args.points)
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
    config = _config_dict(args, {"rep": rep_name, "r_values": r_values})
    _emit(lines, args, config)
    return 0


def _cmd_entropy(args) -> int:
    state = normalize(_load_state(args.state))
    value = von_neumann_entropy(state, log_base=args.entropy_base)
    config = _config_dict(args, {"state": state_to_dict(state)})
    payload = {"config": config, "entropy": value, "log_base": args.entropy_base}
    _emit([json.dumps(payload, indent=2, sort_keys=True)], args, config)
    return 0


def _cmd_validate(args) -> int:
    results, ok = run_validation(extent=args.extent, points=args.points,
                                 reps=args.rep, threads=args.threads)
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.name}: {res.detail}")
    n_fail = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    if args.out:
        config = _config_dict(args, {"reps": args.rep or ["wigner", "husimi", "rivier"]},
                              drop=("rep",))
        report = {
            "config": config,
            "all_passed": ok,
            "checks": [{"name": r.name, "passed": bool(r.passed), "detail": r.detail}
                       for r in results],
        }
        _emit([json.dumps(report, indent=2, sort_keys=True)], args, config)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Every flag of the CLI. A command declares only the flags its handler reads.
_FLAGS = {
    "state": dict(required=True, help="state JSON (inline or file path)"),
    "family": dict(required=True,
                   help="sweep-a: entangledNM, e.g. entangled01; sweep-r: psi00r or psi01r"),
    "a": dict(type=_float_list, required=True, help="comma-separated amplitudes in (0, 1)"),
    "rmax": dict(type=float, default=2.0),
    "steps": dict(type=_positive_int, required=True),
    "rep": dict(type=_name_list, action="extend", help="representation(s), comma separated"),
    "reps": dict(type=_name_list, action="extend", help="representations, comma separated"),
    "extent": dict(type=float, default=None, help="half-width of the base grid"),
    "points": dict(type=_positive_int, default=None, help="points per axis of the base grid, odd"),
    "coeff-convention": dict(choices=["printed", "sqrt"], default="sqrt"),
    "entropy-base": dict(choices=["2", "e"], default="2"),
    "threads": dict(type=_positive_int, default=None,
                    help="worker threads (default: CPU count)"),
    "out": dict(default=None, help="output file path"),
}

_COMMANDS = {
    "dist": (_cmd_dist, "dump a distribution grid as CSV",
             ("state", "rep", "extent", "points", "out")),
    "indicator": (_cmd_indicator, "compute delta and eta for a state",
                  ("state", "rep", "extent", "points", "threads", "out")),
    "sweep-a": (_cmd_sweep_a, "sweep the entanglement weight a^2",
                ("family", "steps", "reps", "extent", "points", "entropy-base", "threads",
                 "out")),
    # sweep-r accepts and records --threads but does not read it: its
    # tables are one-mode, and TermTable.abs_with_estimate reads
    # threads only for two modes. A 2-thread pool over sweep_r's r values
    # made the single-mode benchmark slower (median 0.250 -> 0.286 s,
    # slower in 5 of 6 alternating pairs, seed 0, 2 CPUs) and raised its
    # peak RSS from 46.1 MB to 56.6-56.9 MB (one e^r-stretched table per
    # worker).
    # The flag stays because the perfbench workloads pass it.
    "sweep-r": (_cmd_sweep_r, "sweep the squeezing parameter r",
                ("family", "a", "rmax", "steps", "rep", "extent", "points",
                 "coeff-convention", "threads", "out")),
    "entropy": (_cmd_entropy, "Von Neumann entanglement entropy",
                ("state", "entropy-base", "out")),
    "validate": (_cmd_validate, "run the invariant check suite",
                 ("rep", "extent", "points", "threads", "out")),
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it reports a flag it does not take with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and kept for the life of the
    process: building it took 1.3-2 ms, once per command of a benchmark pass.
    Parsing leaves it unchanged, so a call that fails to parse leaves the
    next call as it would find a new parser."""
    parser = argparse.ArgumentParser(
        prog="psnci",
        description="Phase-space distributions and non-classicality indicators "
                    "for Fock and squeezed-Fock superpositions.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, (func, help_text, flags) in _COMMANDS.items():
        # no abbreviations: --rep must not pass for sweep-a's --reps
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for flag in flags:
            p.add_argument("--" + flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if "threads" in vars(args) and args.threads is None:
            args.threads = os.cpu_count() or 1
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
