"""Smoke tests of the benchmark harness at toy size.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

TOY = {"steps": 3, "points": 41}


def _cli_stdout(argv):
    from psnci.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_at_toy_size(workload):
    result = run.run_workload(workload, 0, 0.0, False, **TOY)
    passes = len(result["pass_wall_s"])
    assert passes >= 2
    assert result["attempted"] == passes * len(workloads.operations(workload, 0, **TOY))
    assert result["correct"], result["failures"]
    e2e = result["end_to_end"]
    assert e2e["wall_s"] > 0 and e2e["setup_s"] > 0 and e2e["peak_rss_mb"] > 0
    assert e2e["ok_ratio"] + e2e["fail_ratio"] == pytest.approx(1.0)
    if workload == "single-mode":
        # The Fock ladder outruns the default grids (and the toy grid more so).
        assert result["failed"] >= 8
        assert all("exit 3" in f for f in result["failures"])
    else:
        assert result["failed"] == 0, result["failures"]


def test_traced_counts_repeat_and_match_the_workload():
    first = run.run_workload("bell-sweep", 0, 0.0, True, **TOY)["per_layer"]
    second = run.run_workload("bell-sweep", 0, 0.0, True, **TOY)["per_layer"]
    n = TOY["points"] ** 4
    # 5 table passes (Wigner and Husimi one pair each, Rivier three) plus a
    # Wigner and a Rivier delta per a^2 step.
    assert first["quadrature.abs_4d.calls"] == 5 + 2 * TOY["steps"]
    assert first["quadrature.abs_4d.points"] == first["quadrature.abs_4d.calls"] * n
    assert first["quadrature.abs_4d.flops_computed"] == 2 * first["quadrature.abs_4d.products"] * n
    for name, value in first.items():
        if not name.endswith(("_s", ".t1", ".t2", "points_per_s")):
            assert second[name] == value, name
    assert first["quadrature.abs_4d.pass_s.t1"] > 0 and first["quadrature.abs_4d.pass_s.t2"] > 0


def test_single_mode_makes_no_4d_passes():
    result = run.run_workload("single-mode", 0, 0.0, True, **TOY)
    layers = result["per_layer"]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    assert sorted(set(result["end_to_end"]) - {"fail_ratio"}) == sorted(
        m["name"] for m in spec["end_to_end"])
    for metric in spec["per_layer"] + spec["end_to_end"]:
        assert run._unit(metric["name"]) == metric["unit"], metric["name"]
    assert layers["quadrature.abs_4d.calls"] == 0
    assert layers["quadrature.abs_4d.points"] == 0
    assert layers["phasespace.build_term_table.calls"] > 0
    assert layers["states.wavefunction.points"] > 0


def test_checker_rejects_corrupted_sweep():
    argv = workloads.operations("bell-sweep", 0, **TOY)[0]
    text = _cli_stdout(argv)
    assert workloads.check_output(argv, text)[0] == []
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("0.5,wigner,"))
    cells = lines[row].split(",")
    for column, bad in ((3, "1.5"), (5, "0.99"), (2, "0.3"), (4, "0.9")):
        broken = list(cells)
        broken[column] = bad
        corrupted = "\n".join(lines[:row] + [",".join(broken)] + lines[row + 1:])
        problems, _ = workloads.check_output(argv, corrupted)
        assert problems, f"column {column} = {bad} was accepted"
    assert workloads.check_output(argv, "garbage")[0]


def test_checker_rejects_corrupted_indicator():
    argv = workloads.operations("indicator-2mode", 0, **TOY)[1]
    text = _cli_stdout(argv)
    assert workloads.check_output(argv, text)[0] == []
    payload = json.loads(text)
    payload["results"]["husimi"]["delta"]["value"] = 1e-3
    assert workloads.check_output(argv, json.dumps(payload))[0]


def test_seed_zero_gives_the_reference_inputs():
    terms = json.loads(workloads.two_mode_state(0))["terms"]
    assert [complex(t["amp_re"], t["amp_im"]) for t in terms] == [0.6 + 0.2j, 0.5j, 0.55 - 0.1j]
    assert terms[1]["mode1"] == {"type": "squeezed", "n": 0, "r": 0.5}
    assert workloads.sweep_r_amplitudes(0) == (0.3, 0.5, 0.7)
    ops = workloads.operations("single-mode", 0)
    assert len(ops) == 6 + 3 * len(workloads.FOCK_LADDER)


def test_other_seeds_rotate_phases_only():
    ref = json.loads(workloads.two_mode_state(0))["terms"]
    assert workloads.two_mode_state(7) == workloads.two_mode_state(7)
    rotated = json.loads(workloads.two_mode_state(7))["terms"]
    for a, b in zip(ref, rotated):
        assert math.hypot(b["amp_re"], b["amp_im"]) == pytest.approx(
            math.hypot(a["amp_re"], a["amp_im"]), rel=1e-12)
    assert rotated != ref
    # The overlapping first two terms keep their relative phase.
    ratio = [complex(t[1]["amp_re"], t[1]["amp_im"]) / complex(t[0]["amp_re"], t[0]["amp_im"])
             for t in (ref, rotated)]
    assert ratio[1] == pytest.approx(ratio[0], rel=1e-12)
    amps = workloads.sweep_r_amplitudes(7)
    assert all(0.0 < a < 1.0 for a in amps) and amps != (0.3, 0.5, 0.7)


def test_fails_without_the_program():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "single-mode",
                               "--seconds", "1"], cwd=bare, capture_output=True, text=True,
                              timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
