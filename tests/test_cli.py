import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import psnci
from psnci import quadrature
from psnci.cli import _build_parser, _fmt, main
from psnci.indicators import sweep_r

VACUUM = '{"modes": 1, "terms": [{"amp_re": 1.0, "mode1": {"type": "fock", "n": 0}}]}'
FOCK1 = '{"modes": 1, "terms": [{"amp_re": 1.0, "mode1": {"type": "fock", "n": 1}}]}'
ROOT_HALF = 1.0 / math.sqrt(2.0)
BELL = json.dumps({
    "modes": 2,
    "terms": [
        {"amp_re": ROOT_HALF, "mode1": {"type": "fock", "n": 0},
         "mode2": {"type": "fock", "n": 1}},
        {"amp_re": ROOT_HALF, "mode1": {"type": "fock", "n": 1},
         "mode2": {"type": "fock", "n": 0}},
    ],
})


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_dist_fock1_minimum(tmp_path):
    state_file = tmp_path / "fock1.json"
    state_file.write_text(FOCK1)
    out = tmp_path / "f1.csv"
    code = main(["dist", "--state", str(state_file), "--rep", "wigner",
                 "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    assert header[:3] == ["q", "p", "f_total"]
    vals = [float(r["f_total"]) for r in rows]
    assert min(vals) == pytest.approx(-1.0 / math.pi, abs=1e-9)
    # config sidecar is written alongside
    meta = json.loads((tmp_path / "f1.csv.meta.json").read_text())
    assert meta["command"] == "dist"
    assert meta["rep"] == "wigner"


def test_dist_vacuum_norm_check(tmp_path, capsys):
    out = tmp_path / "vac.csv"
    code = main(["dist", "--state", VACUUM, "--out", str(out)])
    assert code == 0
    norm_line = capsys.readouterr().out.strip()
    assert norm_line.startswith("norm_check = ")
    assert float(norm_line.split("=")[1]) == pytest.approx(1.0, abs=1e-6)


def test_dist_two_mode_factor_dump(tmp_path):
    out = tmp_path / "bell.csv"
    code = main(["dist", "--state", BELL, "--rep", "wigner", "--points", "41",
                 "--extent", "6", "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["mode", "term_i", "term_j", "q", "p", "re", "im"]
    assert {r["mode"] for r in rows} == {"1", "2"}


def test_indicator_json(capsys):
    code = main(["indicator", "--state", VACUUM, "--rep", "wigner,husimi"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    res = payload["results"]
    assert res["wigner"]["delta"]["value"] == pytest.approx(0.0, abs=1e-6)
    assert res["wigner"]["eta"]["value"] == pytest.approx(0.0, abs=1e-9)
    assert res["husimi"]["delta"]["value"] == pytest.approx(0.0, abs=1e-9)
    assert res["wigner"]["delta"]["valid"] is True
    assert payload["config"]["command"] == "indicator"


def test_malformed_state_exits_2(capsys):
    assert main(["indicator", "--state", "{bad json"]) == 2
    assert main(["indicator", "--state", "/nonexistent/state.json"]) == 2
    capsys.readouterr()


def test_unknown_rep_is_numerical_domain_error():
    # representation names are validated inside the library: domain error
    assert main(["indicator", "--state", VACUUM, "--rep", "glauber"]) == 3


def test_usage_errors():
    assert main(["sweep-a", "--family", "entangled01", "--steps", "0"]) == 2
    assert main(["sweep-a", "--family", "nonsense", "--steps", "5"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["sweep-r", "--family", "psi02r", "--a", "0.5", "--steps", "3"]) == 2


def test_sweep_a_csv_and_determinism(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    argv = ["sweep-a", "--family", "entangled01", "--steps", "5",
            "--reps", "wigner", "--points", "41", "--threads", "2"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = _read_csv(out1)
    assert header == ["param", "rep", "delta", "eta", "entropy",
                      "norm_check", "err_est"]
    assert len(rows) == 5
    assert [float(r["param"]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all(r["rep"] == "wigner" for r in rows)
    assert float(rows[2]["entropy"]) == pytest.approx(1.0, abs=1e-12)
    assert rows[0]["entropy"] == "0"
    assert rows[2]["delta"] != ""


def test_sweep_r_csv(tmp_path):
    out = tmp_path / "r.csv"
    code = main(["sweep-r", "--family", "psi00r", "--a", "0.5", "--rmax", "1.0",
                 "--steps", "3", "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out)
    assert header[-1] == "a"
    assert len(rows) == 3
    assert [float(r["param"]) for r in rows] == [0.0, 0.5, 1.0]
    assert all(r["delta"] == "" for r in rows)
    assert all(float(r["a"]) == 0.5 for r in rows)
    assert float(rows[0]["eta"]) == pytest.approx(0.0, abs=1e-6)


def test_sweep_r_reads_the_base_grid(tmp_path):
    out = tmp_path / "r.csv"
    code = main(["sweep-r", "--family", "psi01r", "--a", "0.4,0.6", "--rmax", "1.0",
                 "--steps", "2", "--rep", "husimi", "--points", "61",
                 "--out", str(out)])
    assert code == 0
    _, rows = _read_csv(out)
    expected = sweep_r("psi01r", [0.0, 1.0], [0.4, 0.6], "husimi", points=61)
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):
        assert float(got["a"]) == want.amplitude
        assert float(got["param"]) == want.param
        assert got["eta"] == _fmt(want.eta["husimi"])
        assert got["norm_check"] == _fmt(want.norm_check["husimi"])
        assert got["err_est"] == _fmt(want.error_estimate["husimi"])
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    assert meta["points"] == 61


def test_entropy_command(capsys):
    code = main(["entropy", "--state", BELL])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entropy"] == pytest.approx(1.0, abs=1e-12)

    squeezed_two_mode = json.dumps({
        "modes": 2,
        "terms": [{"amp_re": 1.0,
                   "mode1": {"type": "squeezed", "n": 0, "r": 1.0},
                   "mode2": {"type": "fock", "n": 0}}],
    })
    assert main(["entropy", "--state", squeezed_two_mode]) == 3


def test_numeric_failure_exits_3(tmp_path):
    # a grid too small for the state's support is a numerical error
    state_file = tmp_path / "fock2.json"
    state_file.write_text(
        '{"modes": 1, "terms": [{"amp_re": 1.0, "mode1": {"type": "fock", "n": 2}}]}')
    code = main(["dist", "--state", str(state_file), "--extent", "2",
                 "--points", "32", "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_threads_default_is_cpu_count(capsys):
    assert main(["indicator", "--state", VACUUM, "--rep", "wigner"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["threads"] == (os.cpu_count() or 1)


def test_validate_coarse_grid_fails(capsys):
    code = main(["validate", "--points", "16", "--rep", "wigner", "--threads", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out


# fold_vs_unfolded compares the Bell states' D4-folded sums with the same
# sums stating nothing: an orbit of 8 rows counted as 4 fails it.
def test_validate_fold_check_catches_a_wrong_orbit_weight(monkeypatch, capsys):
    assert main(["validate", "--rep", "rivier", "--threads", "2"]) == 0
    assert "[PASS] fold_vs_unfolded" in capsys.readouterr().out
    orbits = quadrature._orbits

    def wrong(shape, step, group):
        return tuple((4 if weight == 8 else weight, rows)
                     for weight, rows in orbits(shape, step, group))

    monkeypatch.setattr(quadrature, "_orbits", wrong)
    assert main(["validate", "--rep", "rivier", "--threads", "2"]) == 1
    assert "[FAIL] fold_vs_unfolded" in capsys.readouterr().out


def test_validate_husimi_positivity_passes(capsys):
    code = main(["validate", "--rep", "husimi", "--threads", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "husimi_positivity" in out
    assert "[FAIL]" not in out


@pytest.mark.parametrize("argv", [
    ["indicator", "--state", VACUUM, "--rep", "wigner"],
    ["entropy", "--state", BELL],
    ["validate", "--rep", "husimi", "--threads", "2"],
], ids=["indicator", "entropy", "validate"])
def test_json_outputs_get_meta_sidecar(tmp_path, argv, capsys):
    out = tmp_path / "result.json"
    assert main(argv + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    meta = json.loads((tmp_path / "result.json.meta.json").read_text())
    assert meta == payload["config"]
    assert meta["command"] == argv[0]
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["indicator", "--state", VACUUM, "--rep", "wigner"],
    ["dist", "--state", VACUUM],
    ["sweep-a", "--family", "entangled01", "--steps", "2", "--reps", "wigner"],
    ["sweep-r", "--family", "psi00r", "--a", "0.5", "--steps", "2"],
], ids=["indicator", "dist", "sweep-a", "sweep-r"])
def test_points_below_axis_minimum_exit_3(argv, capsys):
    # 8 points per axis is below the 16-point minimum of an axis; no
    # command may quietly run on a larger grid instead
    assert main(argv + ["--points", "8"]) == 3
    assert "at least 16 points" in capsys.readouterr().err


def test_sweep_a_rejects_rep(capsys):
    # sweep-a reads only --reps; --rep, which other commands take, must not
    # be ignored in silence or taken as an abbreviation of --reps
    argv = ["sweep-a", "--family", "entangled01", "--steps", "1", "--rep", "wigner"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "--reps" in captured.err
    assert captured.out == ""


# The flags each command takes; a flag outside its set is a usage error.
ACCEPTS = {
    "dist": ("--state", "--rep", "--extent", "--points", "--out"),
    "indicator": ("--state", "--rep", "--extent", "--points", "--threads", "--out"),
    "sweep-a": ("--family", "--steps", "--reps", "--extent", "--points", "--entropy-base",
                "--threads", "--out"),
    "sweep-r": ("--family", "--a", "--rmax", "--steps", "--rep", "--extent", "--points",
                "--coeff-convention", "--threads", "--out"),
    "entropy": ("--state", "--entropy-base", "--out"),
    "validate": ("--rep", "--extent", "--points", "--threads", "--out"),
}
# Every command used to take these eight; 21 of the pairs were never read.
FORMERLY_COMMON = {"--rep": "wigner", "--extent": "6", "--points": "41", "--tol": "1e-9",
                   "--coeff-convention": "printed", "--entropy-base": "e",
                   "--threads": "2", "--out": "unused.csv"}
MINIMAL_ARGV = {
    "dist": ["dist", "--state", VACUUM],
    "indicator": ["indicator", "--state", VACUUM, "--rep", "wigner"],
    "sweep-a": ["sweep-a", "--family", "entangled01", "--steps", "1", "--reps", "husimi",
                "--points", "41"],
    "sweep-r": ["sweep-r", "--family", "psi00r", "--a", "0.5", "--steps", "1"],
    "entropy": ["entropy", "--state", BELL],
    "validate": ["validate", "--rep", "husimi", "--threads", "2"],
}

# Values a sidecar records besides the flags; indicator and validate record
# their resolved --rep as reps.
DERIVED = {"dist": {"grid"}, "indicator": {"reps"}, "sweep-a": {"a_sq_values"},
           "sweep-r": {"r_values"}, "entropy": set(), "validate": {"reps"}}


@pytest.mark.parametrize("command", list(ACCEPTS))
def test_command_takes_only_its_flags(tmp_path, command, capsys):
    for flag, value in FORMERLY_COMMON.items():
        if flag not in ACCEPTS[command]:
            assert main(MINIMAL_ARGV[command] + [flag, value]) == 2, flag
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    out = tmp_path / "result"
    assert main(MINIMAL_ARGV[command] + ["--out", str(out)]) == 0
    meta = json.loads((tmp_path / "result.meta.json").read_text())
    assert meta["command"] == command
    flags = {flag[2:].replace("-", "_") for flag in ACCEPTS[command]}
    assert set(meta) - DERIVED[command] <= flags | {"command"}
    assert flags - set(meta) <= {"rep"}
    capsys.readouterr()


@pytest.mark.parametrize("argv", [MINIMAL_ARGV["dist"], MINIMAL_ARGV["entropy"]],
                         ids=["dist", "entropy"])
def test_unwritable_out_is_a_usage_error(argv, capsys):
    assert main(argv + ["--out", "/no/such/dir/x.out"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write --out")


def test_readme_flag_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = {m.group(1): tuple(m.group(2).split())
             for m in re.finditer(r"^\| `([\w-]+)` \| `([^`]*)` \|$", readme, re.M)}
    subparsers = _build_parser()._subparsers._group_actions[0].choices
    parsed = {name: tuple(opt for action in p._actions for opt in action.option_strings
                          if opt not in ("-h", "--help"))
              for name, p in subparsers.items()}
    assert table == parsed
    assert parsed == ACCEPTS


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_argv_parse():
    # The benchmark runs these argv against every version of the CLI, so
    # each must keep parsing (sweep-r keeps --threads for them). Parse only.
    workloads = _perfbench_workloads()
    parser = _build_parser()
    for workload in workloads.WORKLOADS:
        for seed in (0, 3):
            for argv in workloads.operations(workload, seed):
                assert parser.parse_args(argv).command == argv[0]


def _with_threads(argv, threads):
    i = argv.index("--threads")
    return argv[:i + 1] + [str(threads)] + argv[i + 2:]


def test_benchmark_outputs_do_not_depend_on_threads(capsys):
    # Every benchmark operation at toy size prints the same bytes (and exits
    # with the same code) for one and two worker threads, apart from the
    # threads value an indicator echoes in its config.
    workloads = _perfbench_workloads()
    for workload in workloads.WORKLOADS:
        for seed in (0, 3):
            for argv in workloads.operations(workload, seed, steps=3, points=41):
                runs = []
                for threads in (1, 2):
                    code = main(_with_threads(argv, threads))
                    out = capsys.readouterr().out
                    runs.append((code, re.sub(r'"threads": \d+', '"threads": _', out)))
                assert runs[0] == runs[1], argv


# The parser is built once per process. Successive calls in one process,
# a parse error among them, print and exit as fresh processes do.
SUCCESSIVE_ARGV = [
    ["entropy", "--state", BELL],
    ["entropy", "--state", BELL, "--rep", "wigner"],
    ["indicator", "--state", VACUUM, "--rep", "wigner", "--threads", "1"],
    ["sweep-a", "--family", "entangled01", "--steps", "0"],
    ["entropy", "--state", BELL, "--entropy-base", "e"],
    ["entropy", "--state", BELL],
]


def test_successive_main_calls_match_fresh_runs(capsys):
    env = dict(os.environ, PYTHONPATH=str(Path(psnci.__file__).resolve().parents[1]))
    for argv in SUCCESSIVE_ARGV:
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "psnci.cli"] + argv, env=env,
                               capture_output=True, text=True, timeout=120)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout,
                                                      fresh.stderr), argv
    assert _build_parser() is _build_parser()
