"""One workload in its own process: a closed loop of CLI commands.

Started by run.py with a JSON spec as its only argument. The single
client issues one ``psnci.cli.main(argv)`` call at a time, captures and
checks its output, and prints one JSON result line on stdout. The time
from process start until ``psnci.cli`` is imported is the set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROBE_REPEATS = 3
# wall_s is the median over the passes of a run; it needs at least two.
MIN_PASSES = 2


def _import_cli(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import psnci.cli

    if src not in Path(psnci.cli.__file__).resolve().parents:
        raise ImportError(f"psnci was imported from {psnci.cli.__file__}, not {src}")
    return psnci.cli


def _run_op(cli, argv: list) -> dict:
    """Run one command; its time excludes the output check."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # the program crashed: a failed operation, not a harness error
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return {"code": code, "elapsed": elapsed, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def run_pass(cli, ops: list, check) -> dict:
    """One pass over the workload's operations."""
    summary = {"elapsed": 0.0, "op_s": [], "attempted": 0, "failed": 0, "wrong": 0,
               "err_est": [], "bytes_out": 0, "failures": []}
    for argv in ops:
        res = _run_op(cli, argv)
        summary["elapsed"] += res["elapsed"]
        summary["op_s"].append(res["elapsed"])
        summary["attempted"] += 1
        summary["bytes_out"] += len(res["stdout"].encode())
        if res["code"] != 0:
            summary["failed"] += 1
            last = res["stderr"].strip().splitlines()[-1:] or [""]
            summary["failures"].append(f"{argv[0]} exit {res['code']}: {last[0][:160]}")
            continue
        problems, errors = check(argv, res["stdout"])
        if problems:
            summary["failed"] += 1
            summary["wrong"] += 1
            summary["failures"].append(f"{argv[0]} wrong output: {'; '.join(problems)[:300]}")
        else:
            summary["err_est"].extend(errors)
    return summary


def probe_pass_seconds() -> dict:
    """Time one streamed 4D pass over the entangled12 Bell Wigner products
    at threads=1 and threads=2, alternating, median of PROBE_REPEATS each."""
    from psnci.phasespace import build_term_table
    from psnci.quadrature import abs_4d_with_estimate
    from psnci.states import entangled_state

    table = build_term_table(entangled_state(1, 2, 0.5), "wigner")
    products = table.real_products()
    times = {1: [], 2: []}
    for _ in range(PROBE_REPEATS):
        for threads in (1, 2):
            start = time.perf_counter()
            abs_4d_with_estimate(products, table.grid, threads=threads)
            times[threads].append(time.perf_counter() - start)
    return {f"quadrature.abs_4d.pass_s.t{t}": statistics.median(v) for t, v in times.items()}


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    cli = _import_cli(root)
    setup_s = time.monotonic() - spec["t_spawn"]
    if spec.get("setup_only"):
        print(json.dumps({"setup_s": setup_s}))
        return 0

    sys.path.insert(0, str(HERE))
    import machine
    import workloads

    ops = workloads.operations(spec["workload"], spec["seed"],
                               steps=spec.get("steps"), points=spec.get("points"))
    result = {"setup_s": setup_s, "machine": machine.facts(root)}
    if spec["trace"]:
        result["probe"] = probe_pass_seconds()
    passes = []
    deadline = time.perf_counter() + spec["seconds"]
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(cli, ops, workloads.check_output))
    result["passes"] = passes
    if spec["trace"]:
        import tracer

        tr = tracer.Tracer()
        tr.install()
        try:
            traced = run_pass(cli, ops, workloads.check_output)
        finally:
            tr.uninstall()
        result["traced"] = traced
        result["layers"] = tr.layer_metrics()
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "points",
                                      "products", "flops", "bytes"],
                           "spans": tr.spans}, fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
