#!/usr/bin/env python3
"""psnci benchmark: end-to-end or per-layer metrics of one CLI workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bell-sweep --seed 3 --trace 0

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json. The workload
runs in its own child process (child.py) as a closed loop of CLI
commands, repeated until ``--seconds`` have passed (at least two passes).
Set-up is measured in that child and in SETUP_CHILDREN further children
that only import ``psnci.cli``, half started before the workload and half
after; the median is reported. The last line of stdout is one JSON
object: correct, attempted, failed, metrics. With ``--trace 1`` the child
runs the same passes untraced, then one pass with every psnci function
wrapped (tracer.py) and reports per-layer metrics plus the tracing
overhead (traced minus untraced wall time).
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SETUP_CHILDREN = 12

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
              "err_est_max": "1"}
PER_LAYER_UNITS = {"calls": "count", "points": "count", "products": "count",
                   "self_s": "s", "points_per_s": "1/s", "flops_computed": "flop",
                   "bytes_computed": "B", "t1": "s", "t2": "s", "pair_grids": "count",
                   "grid_points": "count", "bytes_out": "B", "overhead_s": "s"}


class BenchError(Exception):
    """The benchmark itself could not run (not a failure of the program)."""


def _child(spec: dict) -> dict:
    """Run child.py on ``spec`` and return its JSON result.

    There is no time limit here; the caller's own limit applies. If this
    process is interrupted or terminated, the child is killed and waited for.
    """
    spec = dict(spec, root=str(ROOT), t_spawn=time.monotonic())
    with subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def _setup() -> float:
    return _child({"setup_only": True})["setup_s"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, *,
                 steps: int = None, points: int = None) -> dict:
    """Run one workload in child processes and derive its metrics."""
    # Half of the set-up samples before the workload and half after, so
    # the median spans the run rather than one moment of machine load.
    setups = [_setup() for _ in range(SETUP_CHILDREN // 2)]
    OUT_DIR.mkdir(exist_ok=True)
    spans_out = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    res = _child({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                  "steps": steps, "points": points,
                  "spans_out": str(spans_out) if trace else None})
    setups.append(res["setup_s"])
    setups += [_setup() for _ in range(SETUP_CHILDREN - SETUP_CHILDREN // 2)]
    passes = res["passes"] + ([res["traced"]] if trace else [])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["err_est"]]
    wall = statistics.median(p["elapsed"] for p in res["passes"])
    out = {
        "workload": workload, "seed": seed, "machine": res["machine"],
        "pass_wall_s": [p["elapsed"] for p in res["passes"]],
        "pass_op_s": [p["op_s"] for p in res["passes"]], "setup_s_samples": setups,
        "correct": not any(p["wrong"] for p in passes),
        "attempted": attempted, "failed": failed,
        "failures": sorted(set(f for p in passes for f in p["failures"])),
        "end_to_end": {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
            "fail_ratio": failed / attempted,
            "err_est_max": max(errors) if errors else 0.0,
        },
    }
    if trace:
        layers = dict(res["layers"])
        layers.update(res["probe"])
        layers["cli.bytes_out"] = res["traced"]["bytes_out"]
        layers["trace.overhead_s"] = res["traced"]["elapsed"] - wall
        out["per_layer"] = layers
        out["spans_file"] = str(spans_out.relative_to(ROOT))
    return out


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def _report(result: dict):
    e2e = result["end_to_end"]
    print(f"== {result['workload']} (seed {result['seed']}): {len(result['pass_wall_s'])} "
          f"timed pass(es), {len(result['setup_s_samples'])} set-ups, "
          f"correct={result['correct']}")
    for name in ("wall_s", "setup_s", "peak_rss_mb", "ok_ratio", "fail_ratio", "err_est_max"):
        unit = END_TO_END.get(name, "ratio")
        print(f"   {name:<42} {e2e[name]:>14.6g} {unit}")
    print(f"   {'failed / attempted':<42} {result['failed']:>8d} / {result['attempted']}")
    for failure in result["failures"]:
        print(f"   failure: {failure}")
    for name, value in result.get("per_layer", {}).items():
        print(f"   {name:<42} {value:>14.6g} {_unit(name)}")


def _terminate(signum, frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through _child, which kills the running child.
    signal.signal(signal.SIGTERM, _terminate)

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    _report(result)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    chosen = result["per_layer"] if args.trace else {
        k: v for k, v in result["end_to_end"].items() if k != "fail_ratio"}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
