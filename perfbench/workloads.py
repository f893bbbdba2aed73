"""Workload inputs and the output checker.

A workload is a list of operations; one operation is one CLI command,
given as the argv passed to ``psnci.cli.main``. Inputs are generated from
the seed alone; seed 0 gives the reference inputs described in README.md.
"""

from __future__ import annotations

import cmath
import json
import math
import random

THREADS = "2"
REPS = ("wigner", "husimi", "rivier")
# a^2 = 0, 0.5, 1: the C6/C7 point a^2 = 0.5 is on the sweep, and one pass
# (11 streamed 4D passes) is short enough for three passes in a run. The
# paper's 21-step sweep makes 47 and takes about 30 s.
BELL_STEPS = 3
SWEEP_R_STEPS = 9

# (0.6+0.2i)|0,1> + 0.5i|0_{r=0.5},1> + (0.55-0.1i)|1,0>, unnormalized,
# as (amplitude, mode 1, mode 2, phase group). The first two terms overlap
# (squeezed and plain vacuum in mode 1), which makes the raw norm 1.073;
# the third is orthogonal to both. A seed gives each group one phase, so
# the overlap and the norm stay fixed.
TWO_MODE_TERMS = (
    (0.6 + 0.2j, {"type": "fock", "n": 0}, {"type": "fock", "n": 1}, 0),
    (0.5j, {"type": "squeezed", "n": 0, "r": 0.5}, {"type": "fock", "n": 1}, 0),
    (0.55 - 0.1j, {"type": "fock", "n": 1}, {"type": "fock", "n": 0}, 1),
)
DEFAULT_SWEEP_R_AMPLITUDES = (0.3, 0.5, 0.7)
SWEEP_R_JITTER = 0.05
FOCK_LADDER = (4, 12, 20, 40, 64)

NORM_TOL = 1e-3
ETA_SLACK = 1e-9
HUSIMI_DELTA_TOL = 1e-9
C1_DELTA = 0.426
C1_TOL = 0.005
ENTROPY_TOL = 1e-9
PSI00R_ETA_R0_TOL = 1e-6


def two_mode_state(seed: int) -> str:
    """The indicator-2mode state; other seeds rotate the amplitude phases.

    Rotating the two overlapping terms apart would change the norm and the
    interference of the squeezed and plain vacuum, and with them the state's
    shape and its error estimates (by up to 25 % between seeds).
    """
    rng = random.Random(seed)
    phases = [rng.uniform(0.0, 2.0 * math.pi) if seed else 0.0 for _ in range(2)]
    terms = []
    for amp, mode1, mode2, group in TWO_MODE_TERMS:
        amp *= cmath.exp(1j * phases[group])
        terms.append({"amp_re": amp.real, "amp_im": amp.imag,
                      "mode1": mode1, "mode2": mode2})
    return json.dumps({"modes": 2, "terms": terms})


def sweep_r_amplitudes(seed: int) -> tuple:
    """The three sweep-r amplitudes; other seeds draw each within
    SWEEP_R_JITTER of its default.

    err_est_max on single-mode is set by psi01r Wigner at the largest
    amplitude and grows with it, so a narrow draw keeps that metric
    comparable across seeds while the inputs still change.
    """
    if not seed:
        return DEFAULT_SWEEP_R_AMPLITUDES
    rng = random.Random(seed)
    return tuple(round(a + rng.uniform(-SWEEP_R_JITTER, SWEEP_R_JITTER), 6)
                 for a in DEFAULT_SWEEP_R_AMPLITUDES)


def fock_pair_state(n: int) -> str:
    half = 1.0 / math.sqrt(2.0)
    return json.dumps({"modes": 1, "terms": [
        {"amp_re": half, "mode1": {"type": "fock", "n": 0}},
        {"amp_re": half, "mode1": {"type": "fock", "n": n}},
    ]})


def operations(workload: str, seed: int, *, steps: int = None, points: int = None) -> list:
    """argv lists of one pass of ``workload``.

    ``steps`` and ``points`` shrink the workload for smoke tests; the
    benchmark itself always runs the defaults.
    """
    grid = ["--points", str(points)] if points else []
    if workload == "bell-sweep":
        return [["sweep-a", "--family", "entangled01", "--steps", str(steps or BELL_STEPS),
                 "--reps", ",".join(REPS), "--threads", THREADS] + grid]
    if workload == "indicator-2mode":
        state = two_mode_state(seed)
        return [["indicator", "--state", state, "--rep", rep, "--threads", THREADS] + grid
                for rep in REPS]
    if workload == "single-mode":
        amps = ",".join(f"{a:g}" for a in sweep_r_amplitudes(seed))
        ops = [["sweep-r", "--family", family, "--rep", rep, "--a", amps,
                "--rmax", "2", "--steps", str(steps or SWEEP_R_STEPS), "--threads", THREADS] + grid
               for family in ("psi00r", "psi01r") for rep in REPS]
        ops += [["indicator", "--state", fock_pair_state(n), "--rep", rep,
                 "--threads", THREADS] + grid
                for n in FOCK_LADDER for rep in REPS]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("bell-sweep", "indicator-2mode", "single-mode")


# ---------------------------------------------------------------------------
# Output checker
# ---------------------------------------------------------------------------

def _check_norm(problems, where, value):
    if not abs(value - 1.0) <= NORM_TOL:
        problems.append(f"{where}: norm_check {value!r} is not within {NORM_TOL} of 1")


def _check_eta(problems, where, value):
    if not -ETA_SLACK <= value <= 1.0 + ETA_SLACK:
        problems.append(f"{where}: eta {value!r} outside [0, 1]")


def _check_indicator(text: str, problems: list) -> list:
    payload = json.loads(text)
    errors = []
    for rep, res in payload["results"].items():
        for name in ("delta", "eta"):
            _check_norm(problems, f"{rep} {name}", res[name]["norm_check"])
            errors.append(res[name]["error_estimate"])
        _check_eta(problems, rep, res["eta"]["value"])
        if rep == "husimi" and not abs(res["delta"]["value"]) <= HUSIMI_DELTA_TOL:
            problems.append(f"husimi delta {res['delta']['value']!r} is not 0")
    return errors


def _read_sweep(text: str) -> list:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        rows.append({k: (v if k == "rep" else float(v) if v else None)
                     for k, v in cells.items()})
    if not rows:
        raise ValueError("sweep output has no rows")
    return rows


def _check_sweep_a(rows: list, problems: list):
    for rep in {row["rep"] for row in rows}:
        mine = [row for row in rows if row["rep"] == rep]
        best = max(mine, key=lambda row: row["eta"])
        if best["param"] != 0.5:
            problems.append(f"C6 {rep}: eta peaks at a^2 = {best['param']!r}, not 0.5")
    for row in rows:
        if row["rep"] == "wigner" and not abs(row["delta"] - C1_DELTA) <= C1_TOL:
            problems.append(f"C1: wigner delta {row['delta']!r} at a^2 = {row['param']!r}")
        if row["param"] == 0.5 and not abs(row["entropy"] - 1.0) <= ENTROPY_TOL:
            problems.append(f"C7: entropy {row['entropy']!r} at a^2 = 0.5")


def check_output(argv: list, text: str) -> tuple:
    """Check the stdout of one successful command.

    Returns (problems, error_estimates): a list of failed checks (empty
    when the output is correct) and every error estimate the output
    reports. The C2 and C8[psi01r] targets are deliberately not checked.
    """
    problems = []
    try:
        if argv[0] == "indicator":
            return problems, _check_indicator(text, problems)
        rows = _read_sweep(text)
        for row in rows:
            where = f"{row['rep']} at {row['param']!r}"
            _check_norm(problems, where, row["norm_check"])
            _check_eta(problems, where, row["eta"])
            if row["rep"] == "husimi" and row["delta"] is not None \
                    and not abs(row["delta"]) <= HUSIMI_DELTA_TOL:
                problems.append(f"{where}: husimi delta {row['delta']!r} is not 0")
        if argv[0] == "sweep-a":
            _check_sweep_a(rows, problems)
        elif argv[argv.index("--family") + 1] == "psi00r":
            # At r = 0 both components are the vacuum, whose Wigner and Husimi
            # functions are non-negative, so eta vanishes. Its Rivier function
            # is not non-negative, so Rivier eta(0) > 0 is correct.
            for row in rows:
                if row["rep"] == "rivier":
                    continue
                if row["param"] == 0.0 and not row["eta"] <= PSI00R_ETA_R0_TOL:
                    problems.append(f"psi00r: eta {row['eta']!r} at r = 0, a = {row['a']!r}")
        return problems, [row["err_est"] for row in rows]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], []
