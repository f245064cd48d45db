"""Command-line surface: flags, exit codes, file outputs, golden sweeps.

Commands run in-process through cli.main for speed; a single subprocess
test covers the console script declared in pyproject.toml, and the installed
executable too where the package is installed.  Golden CSVs are compared
structurally (same header, same row count) with numeric cells matched to
a 1e-9 relative tolerance so that benign last-digit formatting drift does
not mask real regressions, plus a byte-identity check between repeated
runs of the same command.
"""

import csv
import importlib.metadata
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nestedsearch
from nestedsearch import __version__
from nestedsearch.cli import main

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_key_values(out):
    values = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, raw = line.partition(" = ")
            values[key] = raw
    return values


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def assert_csv_matches(actual_path, golden_path):
    actual = read_rows(actual_path)
    golden = read_rows(golden_path)
    assert len(actual) == len(golden)
    assert actual[0].keys() == golden[0].keys()
    for row_a, row_g in zip(actual, golden):
        for column, cell_g in row_g.items():
            cell_a = row_a[column]
            try:
                value_g = float(cell_g)
            except ValueError:
                assert cell_a == cell_g
                continue
            assert float(cell_a) == pytest.approx(value_g, rel=1e-9), column


def test_time_reports_composed_budget(capsys):
    code, out, _ = run_cli(
        ["time", "--n", "32", "--k", "2", "--alpha", "1", "--x", "0.5"], capsys
    )
    assert code == 0
    values = parse_key_values(out)
    assert values["log2_iterations"] == "8"
    assert values["iterations"] == "256"
    assert values["clamped"] == "false"
    assert float(values["log2_total_time"]) == pytest.approx(12.497, abs=0.01)


def test_time_alpha_zero_costs_nothing(capsys):
    code, out, _ = run_cli(
        ["time", "--n", "8", "--k", "2", "--alpha", "0", "--x", "0.5"], capsys
    )
    assert code == 0
    values = parse_key_values(out)
    assert values["total_time"] == "0"
    assert values["log2_total_time"] == "-inf"


def test_time_rejects_out_of_range_split(capsys):
    code, _, err = run_cli(
        ["time", "--n", "32", "--k", "2", "--alpha", "1", "--x", "1.5"], capsys
    )
    assert code == 2
    assert "x" in err and "(0, 1)" in err


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["time", "--n", "32", "--k", "2", "--alpha", "1"])
    assert excinfo.value.code == 2


def test_sweep_matches_golden_figure_curve(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        [
            "sweep", "--vary", "x", "--grid", "0.1:0.9:33",
            "--n", "32", "--k", "2", "--alpha", "1", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    assert_csv_matches(out_path, DATA / "sweep_x_n32_k2.csv")
    rows = read_rows(out_path)
    best = min(rows, key=lambda row: float(row["log2_total_time"]))
    assert float(best["x"]) == pytest.approx(0.5, abs=1e-9)
    best_approx = min(rows, key=lambda row: float(row["log2_total_time_approx"]))
    assert float(best_approx["x"]) == pytest.approx(0.5, abs=1e-9)


def test_sweep_output_is_byte_deterministic(tmp_path, capsys):
    args = [
        "sweep", "--vary", "x", "--grid", "0.2,0.5,0.8",
        "--n", "16", "--k", "2", "--alpha", "1",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    run_cli(args + ["--out", str(first)], capsys)
    run_cli(args + ["--out", str(second)], capsys)
    assert first.read_bytes() == second.read_bytes()


def test_sweep_alpha_grid_is_monotone(tmp_path, capsys):
    out_path = tmp_path / "alpha.csv"
    code, _, _ = run_cli(
        [
            "sweep", "--vary", "alpha", "--grid", "0.9,1.0,1.054",
            "--n", "32", "--k", "5", "--x", "0.5", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    totals = [float(row["log2_total_time"]) for row in read_rows(out_path)]
    assert totals[0] < totals[1] < totals[2]


def test_sweep_single_point_grid(tmp_path, capsys):
    out_path = tmp_path / "one.csv"
    code, _, _ = run_cli(
        [
            "sweep", "--vary", "x", "--grid", "0.5",
            "--n", "16", "--k", "2", "--alpha", "1", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    assert len(out_path.read_text().splitlines()) == 2


def test_sweep_requires_fixed_flags(tmp_path, capsys):
    code, _, err = run_cli(
        ["sweep", "--vary", "x", "--grid", "0.5", "--k", "2", "--alpha", "1",
         "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 2
    assert "--n" in err


def test_sweep_grid_must_increase(tmp_path, capsys):
    code, _, err = run_cli(
        ["sweep", "--vary", "x", "--grid", "0.5,0.4", "--n", "16", "--k", "2",
         "--alpha", "1", "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 2
    assert "increasing" in err


def test_sweep_over_full_space_size(tmp_path, capsys):
    out_path = tmp_path / "N.csv"
    code, _, _ = run_cli(
        [
            "sweep", "--vary", "N", "--grid", "65536,262144,1048576",
            "--k", "2", "--alpha", "1", "--x", "0.5", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    assert [row["n"] for row in read_rows(out_path)] == ["16", "18", "20"]

    code, _, err = run_cli(
        ["sweep", "--vary", "N", "--grid", "1000,2000", "--k", "2",
         "--alpha", "1", "--x", "0.5", "--out", str(tmp_path / "bad.csv")],
        capsys,
    )
    assert code == 2
    assert "powers of two" in err


def test_sweep_json_format(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    code, _, _ = run_cli(
        [
            "sweep", "--vary", "x", "--grid", "0.3,0.5", "--n", "16", "--k", "2",
            "--alpha", "1", "--out", str(out_path), "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    record = json.loads(out_path.read_text())
    assert record["command"] == "sweep"
    assert record["tool_version"] == __version__
    assert "timestamp" in record
    assert len(record["outputs"]["rows"]) == 2
    assert record["inputs"]["vary"] == "x"


def test_scaling_matches_golden(tmp_path, capsys):
    out_path = tmp_path / "scaling.csv"
    code, out, _ = run_cli(
        [
            "scaling", "--k", "2", "--alpha", "1", "--x", "0.5",
            "--grid", "16:40:7", "--out", str(out_path), "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    values = parse_key_values(out)
    assert abs(float(values["slope"]) - 0.375) <= 0.02
    assert float(values["slope_approx"]) == 0.375
    assert_csv_matches(out_path, DATA / "scaling_k2.csv")


def test_scaling_needs_five_points(capsys):
    code, _, err = run_cli(
        ["scaling", "--k", "2", "--alpha", "1", "--x", "0.5", "--grid", "16,20,24,28"],
        capsys,
    )
    assert code == 2
    assert "5" in err


def test_optimize_reports_balanced_split(capsys):
    code, out, _ = run_cli(["optimize", "--n", "32", "--k", "2", "--alpha", "1"], capsys)
    assert code == 0
    values = parse_key_values(out)
    assert abs(float(values["x_opt"]) - 0.5) <= 0.01


def test_generate_census_round_trip(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    code, out, _ = run_cli(
        ["generate", "--n", "12", "--k", "2", "--alpha", "1", "--x", "0.5",
         "--seed", "27", "--out", str(inst)],
        capsys,
    )
    assert code == 0
    assert parse_key_values(out)["constraints"] == "29"

    code, out, _ = run_cli(["census", str(inst)], capsys)
    assert code == 0
    values = parse_key_values(out)
    assert values["m_a"] == "9"
    assert values["m_b"] == "20"
    assert values["m_ab"] == "6"
    assert values["rectangular"] == "false"


def test_generate_is_byte_deterministic(tmp_path, capsys):
    args = ["generate", "--n", "10", "--k", "2", "--alpha", "0.8", "--x", "0.5", "--seed", "42"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    run_cli(args + ["--out", str(first)], capsys)
    run_cli(args + ["--out", str(second)], capsys)
    assert first.read_bytes() == second.read_bytes()


def test_census_scale_refusal_exit_code(tmp_path, capsys):
    inst = tmp_path / "big.json"
    run_cli(
        ["generate", "--n", "31", "--k", "2", "--alpha", "1", "--x", "0.5",
         "--seed", "1", "--out", str(inst)],
        capsys,
    )
    code, _, err = run_cli(["census", str(inst)], capsys)
    assert code == 3
    assert "30" in err


def test_census_missing_file(capsys):
    code, _, err = run_cli(["census", "/nonexistent/inst.json"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_simulate_stage1_deep_adiabatic(capsys):
    code, out, _ = run_cli(
        ["simulate", "--shapes", "1:16,1:16", "--time-factor", "100"], capsys
    )
    assert code == 0
    assert float(parse_key_values(out)["final_fidelity"]) >= 0.999


def test_simulate_stage2_at_calibration(capsys):
    code, out, _ = run_cli(["simulate", "--counts", "16:16:1"], capsys)
    assert code == 0
    values = parse_key_values(out)
    assert values["steps"] == "48"
    assert float(values["success_probability"]) >= 0.9


def test_simulate_end_to_end(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli(
        ["generate", "--n", "12", "--k", "2", "--alpha", "1", "--x", "0.5",
         "--seed", "27", "--out", str(inst)],
        capsys,
    )
    code, out, _ = run_cli(["simulate", str(inst), "--epsilon", "0.5"], capsys)
    assert code == 0
    values = parse_key_values(out)
    assert values["iterations"] == "6"
    assert float(values["stage2_success"]) >= 0.8


def test_simulate_requires_exactly_one_source(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli(
        ["generate", "--n", "8", "--k", "2", "--alpha", "0.5", "--x", "0.5",
         "--seed", "3", "--out", str(inst)],
        capsys,
    )
    code, _, err = run_cli(["simulate", str(inst), "--counts", "4:4:2"], capsys)
    assert code == 2
    assert "exactly one" in err
    code, _, err = run_cli(["simulate"], capsys)
    assert code == 2


def test_simulate_refuses_step_time_outside_counts(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli(
        ["generate", "--n", "12", "--k", "2", "--alpha", "1", "--x", "0.5",
         "--seed", "27", "--out", str(inst)],
        capsys,
    )
    code, _, err = run_cli(["simulate", str(inst), "--epsilon", "0.5", "--step-time", "1"], capsys)
    assert code == 2
    assert "--step-time applies only to --counts" in err


def test_simulate_refuses_time_factor_with_counts(capsys):
    code, _, err = run_cli(["simulate", "--counts", "16:16:1", "--time-factor", "2"], capsys)
    assert code == 2
    assert "--time-factor applies only to" in err


def test_simulate_refuses_epsilon_with_counts(capsys):
    code, _, err = run_cli(["simulate", "--counts", "16:16:1", "--epsilon", "0.5"], capsys)
    assert code == 2
    assert "--epsilon applies only to" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--shapes", "1:1e12"],
        ["simulate", "--counts", "1000000000:1000000000:1"],
        ["simulate", "--counts", "16:16:1", "--steps", "100000000"],
    ],
    ids=["shapes", "counts", "steps"],
)
def test_simulate_refuses_runs_past_the_step_guard(argv, capsys):
    start = time.perf_counter()
    code, _, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "simulation refused" in err


def test_simulate_unsatisfiable_counts(capsys):
    code, _, err = run_cli(["simulate", "--counts", "4:4:0"], capsys)
    assert code == 2
    assert "no global solution" in err


def test_json_record_echoes_inputs(tmp_path, capsys):
    out_path = tmp_path / "record.json"
    code, _, _ = run_cli(
        ["time", "--n", "32", "--k", "2", "--alpha", "1", "--x", "0.5",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    record = json.loads(out_path.read_text())
    assert record["command"] == "time"
    assert record["inputs"]["n"] == 32
    assert record["inputs"]["epsilon"] == 1.0
    assert record["outputs"]["iterations"] == 256
    assert record["tool_version"] == __version__


def test_json_record_maps_infinities_to_null(tmp_path, capsys):
    out_path = tmp_path / "record.json"
    run_cli(
        ["time", "--n", "8", "--k", "2", "--alpha", "0", "--x", "0.5",
         "--out", str(out_path)],
        capsys,
    )
    record = json.loads(out_path.read_text())
    assert record["outputs"]["log2_total_time"] is None
    assert record["outputs"]["total_time"] == 0.0


def test_plot_script_emitted_next_to_csv(tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    run_cli(
        ["sweep", "--vary", "x", "--grid", "0.3,0.5,0.7", "--n", "16", "--k", "2",
         "--alpha", "1", "--out", str(csv_path)],
        capsys,
    )
    code, _, _ = run_cli(["plot-script", "--csv", str(csv_path)], capsys)
    assert code == 0
    script = (tmp_path / "curve.py").read_text()
    assert "curve.csv" in script
    assert "log2_total_time" in script
    assert "matplotlib" in script


def test_console_script_runs():
    """The declared console script works as a separate process.

    The entry point comes from pyproject.toml and is loaded the way a
    console-script wrapper loads it, in a fresh interpreter that imports the
    same package as this test, so the check needs no install.  Where a
    nestedsearch distribution is installed, the executable it put on PATH is
    run as well.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")

    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    value = pyproject["project"]["scripts"]["nestedsearch"]
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"main = EntryPoint(name='nestedsearch', value={value!r}, group='console_scripts').load()\n"
        "sys.exit(main())\n"
    )
    package_root = str(Path(nestedsearch.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    commands = [[sys.executable, "-c", wrapper, "--version"]]

    try:
        importlib.metadata.distribution("nestedsearch")
    except importlib.metadata.PackageNotFoundError:
        pass
    else:
        exe = shutil.which("nestedsearch")
        assert exe is not None, "nestedsearch is installed but its console script is not on PATH"
        commands.append([exe, "--version"])

    for command in commands:
        result = subprocess.run(command, capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert __version__ in result.stdout
