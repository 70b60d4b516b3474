from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rosmac
from rosmac import SimConfig, State, integrate, simulate_path
from rosmac import cli, sde, verification
from rosmac.cli import main
from rosmac.ensemble import _mean_var, _reduced

from conftest import CYCLE_PARAMS, START, _reference_em, _whole_increments
from fakes import zero_noise_streams

CYCLE_FLAGS = ["-m", "3", "-c", "1", "-k", "3"]


def _read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _reference_csv(path, header, columns):
    """The writer the CLI used before block formatting: csv.writer, format(x, ".17g")."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([format(float(cell), ".17g") for cell in row])


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 3.0, -12.0,
               1.0 / 3.0, 2.0 / 3.0, 0.1, 1e-7, 123456789012345678.0, 2.5e-310]


def _edge_table(rows, width):
    rng = np.random.default_rng(rows * 10 + width)
    table = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
    # The edge values lead the first rows and close the last ones.
    flat = table.reshape(-1)
    edges = EDGE_VALUES[: flat.size]
    flat[: len(edges)] = edges
    flat[flat.size - len(edges):] = edges[::-1]
    return {f"c{i}": table[:, i] for i in range(width)}


def _assert_reference_bytes(tmp_path, columns):
    cli._write_csv(tmp_path / "block.csv", columns)
    _reference_csv(tmp_path / "reference.csv", list(columns), list(columns.values()))
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("width", [3, 4, 9])
@pytest.mark.parametrize(
    "rows",
    [1, cli._CSV_BLOCK_ROWS - 1, cli._CSV_BLOCK_ROWS, cli._CSV_BLOCK_ROWS + 1,
     4 * cli._CSV_BLOCK_ROWS - 1, 4 * cli._CSV_BLOCK_ROWS, 4 * cli._CSV_BLOCK_ROWS + 1,
     5 * cli._CSV_BLOCK_ROWS + 3],  # a partial last block
)
def test_csv_writer_matches_reference_bytes(tmp_path, width, rows):
    _assert_reference_bytes(tmp_path, _edge_table(rows, width))


@pytest.mark.parametrize(
    "rows", [cli._CSV_BLOCK_ROWS - 1, cli._CSV_BLOCK_ROWS, cli._CSV_BLOCK_ROWS + 1]
)
@pytest.mark.parametrize(
    "case", ["no-tail", "one-row", "one-block", "every-row", "negative-zero-last", "zero-times"]
)
def test_csv_writer_matches_reference_bytes_over_an_absorbed_tail(tmp_path, case, rows):
    """Trailing rows of +0.0 states take the time-cell shortcut; a -0.0 still prints -0."""
    times, *states = _edge_table(rows, 3).values()
    length = min({"no-tail": 0, "one-row": 1, "one-block": cli._CSV_BLOCK_ROWS}.get(case, rows),
                 rows)
    for column in states:
        column[rows - length :] = 0.0
    if case == "negative-zero-last":
        states[0][-1] = -0.0
    if case == "zero-times":
        times[:] = np.where(np.arange(rows) % 2, -0.0, 0.0)
    _assert_reference_bytes(tmp_path, {"t": times, "N": states[0], "P": states[1]})


def test_csv_writer_starts_no_process(tmp_path, monkeypatch):
    def fork():
        raise AssertionError("the CSV writer started a process")

    # Two usable CPUs, so a writer that forked one process per CPU would fork here.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    _assert_reference_bytes(tmp_path, _edge_table(65_537, 3))


def test_csv_writer_memory_is_one_block_not_the_table(tmp_path):
    """Each block is stacked from its slices of the columns: beyond one block's floats
    and text, the writer holds at most two booleans per row (the tail mask and a test)."""
    rows = 2**19 + 3
    states = np.random.default_rng(1).random((rows, 2)) + 0.5  # live throughout: no tail
    columns = {"t": np.arange(rows) * 1e-3, "N": states[:, 0], "P": states[:, 1]}
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "live.csv", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * rows + 100 * 3 * cli._CSV_BLOCK_ROWS  # about 6.0 MB
    header, written = _read_csv(tmp_path / "live.csv")
    assert header == ["t", "N", "P"] and len(written) == rows
    assert [float(cell) for cell in written[-1]] == [columns[name][-1] for name in header]


def test_readme_size_path_csv_formats_its_absorbed_tail_to_reference_bytes(tmp_path, capsys):
    argv = ["simulate-sde", *CYCLE_FLAGS, "--x0", "1,0.6", "-T", "50", "-M", "200000",
            "--seed", "11", "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    assert capsys.readouterr().out == "clamp events: 2\n"
    written = (tmp_path / "run" / "path.csv").read_bytes()
    assert written.count(b"\n") == 200_002
    header, rows = _read_csv(tmp_path / "run" / "path.csv")
    live = [index for index, row in enumerate(rows) if row[1:] != ["0", "0"]]
    assert len(rows) - 1 - live[-1] == 193_495  # the rows the shortcut formats
    _reference_csv(tmp_path / "reference.csv", header, zip(*rows))
    assert written == (tmp_path / "reference.csv").read_bytes()


def test_analyze_reports_structure(capsys):
    assert main(["analyze", *CYCLE_FLAGS]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"] == {"m": 3.0, "c": 1.0, "k": 3.0}
    assert payload["coexistence_exists"] is True
    assert payload["hopf_k"] == 2.0
    kinds = [entry["kind"] for entry in payload["equilibria"]]
    assert kinds == ["origin", "prey_only", "coexistence"]
    labels = [entry["classification"] for entry in payload["equilibria"]]
    assert labels == ["saddle", "saddle", "source"]
    inner = payload["equilibria"][2]
    assert inner["point"][0] == pytest.approx(0.5, abs=1e-15)
    assert inner["point"][1] == pytest.approx(5.0 / 12.0, abs=1e-15)
    identity = payload["trace_identity"]
    assert identity["lhs"] == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert identity["rhs"] == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert payload["extinction"]["outcome"] == "coexistence_possible"


def test_analyze_doomed_predator(capsys):
    assert main(["analyze", "-m", "0.5", "-c", "1", "-k", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coexistence_exists"] is False
    assert payload["extinction"]["outcome"] == "predator_extinct_low_gain"
    assert payload["hopf_k"] is None
    assert payload["trace_identity"] is None


def test_missing_parameters_exit_2(capsys):
    assert main(["analyze"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "-m" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("rosmac ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_usage_errors_exit_2(capsys, tmp_path):
    a_file = tmp_path / "afile"
    a_file.write_text("")
    a_list = tmp_path / "list.json"
    a_list.write_text("[1]")
    small = ["-T", "1", "-M", "10"]
    cases = [
        ["simulate-ode", *CYCLE_FLAGS, "--x0", "1"],
        ["simulate-ode", *CYCLE_FLAGS, "--x0=-1,0.5"],
        ["simulate-ode", *CYCLE_FLAGS, "--dt", "0"],
        ["phase-portrait", *CYCLE_FLAGS, "--grid", "0,1,2"],
        ["verify", *CYCLE_FLAGS, "--p", "0"],
        ["analyze", "-m", "-3", "-c", "1", "-k", "3"],
        ["analyze", *CYCLE_FLAGS, "--config", str(tmp_path / "missing.json")],
        # The right count of values that are not numbers, and a config that is no object.
        ["simulate-ode", *CYCLE_FLAGS, "--x0", "a,0.6"],
        ["phase-portrait", *CYCLE_FLAGS, "--grid", "0,1,a,2"],
        ["verify", *CYCLE_FLAGS, "--p", "1,x"],
        ["analyze", *CYCLE_FLAGS, "--config", str(a_list)],
        # Starts outside the closed quadrant or not finite.
        ["simulate-ode", *CYCLE_FLAGS, "--x0", "inf,1"],
        ["simulate-sde", *CYCLE_FLAGS, *small, "--x0", "nan,1"],
        ["simulate-sde", *CYCLE_FLAGS, *small, "--x0=1,-inf"],
        ["ensemble", *CYCLE_FLAGS, *small, "--runs", "4", "--x0", "nan,1",
         "--out", str(tmp_path / "d")],
        ["ensemble", *CYCLE_FLAGS, *small, "--runs", "4", "--x0=-1,0.6"],
        ["verify", *CYCLE_FLAGS, *small, "--res", "4", "--x0", "nan,1"],
        # Library errors: a bad grid, an ODE blow-up, an unusable output directory.
        ["verify", *CYCLE_FLAGS, "--res", "0"],
        ["simulate-ode", *CYCLE_FLAGS, "--x0", "1e200,1", "-T", "1"],
        ["simulate-sde", *CYCLE_FLAGS, *small, "--out", str(a_file / "sub")],
        ["ensemble", *CYCLE_FLAGS, *small, "--runs", "4", "--save-paths", "-2"],
        ["simulate-ode", *CYCLE_FLAGS, "-T", "1", "--dt", "nan"],
        # A stride of 0: both ensemble functions reject it before building a time grid.
        ["ensemble", *CYCLE_FLAGS, *small, "--runs", "4", "--stride", "0"],
        # A step t_end / m_steps that underflows to 0.
        ["ensemble", *CYCLE_FLAGS, "-T", "5e-324", "-M", "10", "--runs", "2", "--out", str(tmp_path / "d")],
        ["verify", *CYCLE_FLAGS, "-T", "2", "-M", "10", "--runs", "4", "--stride", "0"],
        # Too large for float64: grid slacks and SDE states that are not finite.
        ["verify", *CYCLE_FLAGS, "--grid", "1e-3,1e60,1e-3,1e60", "--res", "3"],
        ["verify", *CYCLE_FLAGS, "--grid", "1e-3,1e200,1e-3,1e200", "--res", "3"],
        ["simulate-sde", *CYCLE_FLAGS, *small, "--x0", "1e300,1e300",
         "--out", str(tmp_path / "d")],
        ["ensemble", *CYCLE_FLAGS, *small, "--runs", "4", "--x0", "1e300,1e300",
         "--out", str(tmp_path / "d")],
        # Finite states or parameters whose derived numbers overflow float64.
        ["ensemble", "-m", "1", "-c", "1", "-k", "1.5e308", "--x0", "1,0", "-T", "1500",
         "-M", "500", "--runs", "4", "--out", str(tmp_path / "d")],
        ["verify", *CYCLE_FLAGS, "--p", "400", "--runs", "4", "-M", "100", "--res", "3"],
        ["phase-portrait", *CYCLE_FLAGS, "--grid", "0,1e200,0,1e200", "--res", "3", "-T", "1",
         "--out", str(tmp_path / "d")],
        ["analyze", "-m", "3", "-c", "1", "-k", "1e308"],
        # A first step that overflows to -inf: a blow-up, not a projection to zero.
        ["simulate-ode", "-m", "1", "-c", "1", "-k", "1", "--x0", "1,242963560579",
         "--dt", "868726304268979", "-T", "4343631521344895", "--out", str(tmp_path / "d")],
        # Paths of streams the ensemble never ran, a box sampled at one corner.
        ["ensemble", *CYCLE_FLAGS, *small, "--runs", "2", "--save-paths", "5",
         "--out", str(tmp_path / "d")],
        ["verify", *CYCLE_FLAGS, "--res", "1", "--runs", "2", "-M", "10"],
    ]
    # Without noise: first steps that overflow to -inf, and a stream address
    # that is invalid also where no noise is drawn.
    zero_noise_cases = [
        ["simulate-sde", "-m", "1", "-c", "1", "-k", "1", "--x0", "1,1e200", "-T", "1e200",
         "-M", "1", "--out", str(tmp_path / "d")],
        ["ensemble", "-m", "1", "-c", "1", "-k", "1", "--x0", "1,1e200", "-T", "1e200",
         "-M", "1", "--runs", "2", "--out", str(tmp_path / "d")],
        ["simulate-sde", *CYCLE_FLAGS, *small, "--stream", "-1", "--out", str(tmp_path / "d")],
    ]
    # Errors that must name their cause: a box of one point has no vector field,
    # and no run count, step count or resolution whose first buffer is past 2**42
    # bytes can be allocated.
    named_cases = {
        ("phase-portrait", *CYCLE_FLAGS, "--grid", "1,1,1,1", "--res", "1"):
            "resolution must be >= 2, got 1",
        ("ensemble", *CYCLE_FLAGS, "--runs", "100000000000000", "-M", "10"): "runs",
        ("verify", *CYCLE_FLAGS, "--runs", "100000000000000", "-M", "10"): "runs",
        ("ensemble", *CYCLE_FLAGS, "--runs", "9223372036854775808", "-M", "10"): "runs",
        ("simulate-sde", *CYCLE_FLAGS, "-M", "1000000000000"):
            "cannot allocate 16000000000016 bytes for m_steps=1000000000000",
        ("simulate-ode", *CYCLE_FLAGS, "-T", "1e12", "--dt", "1e-3"):
            "cannot allocate 16000000000000016 bytes for t_end/dt=1000000000000000",
        ("phase-portrait", *CYCLE_FLAGS, "--res", "1000000000000"):
            "cannot allocate 8000000000000 bytes for res=1000000000000",
        ("verify", *CYCLE_FLAGS, "--res", "1000000000000"):
            "cannot allocate 8000000000000 bytes for res=1000000000000",
        ("phase-portrait", *CYCLE_FLAGS, "--res", "1000000"):  # the axes fit, the mesh not
            "cannot allocate 32000000000000 bytes for res=1000000",
        # A step count past the float maximum, whose step t_end / m_steps is no float.
        ("simulate-sde", *CYCLE_FLAGS, "-M", "1" + "0" * 400): "m_steps must be less than the float maximum",
        ("ensemble", *CYCLE_FLAGS, "-M", "1" + "0" * 400): "m_steps must be less than the float maximum",
        ("verify", *CYCLE_FLAGS, "-M", "1" + "0" * 400): "m_steps must be less than the float maximum",
    }
    for argv in cases + zero_noise_cases + [list(argv) for argv in named_cases]:
        with zero_noise_streams(argv in zero_noise_cases):
            assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
        assert named_cases.get(tuple(argv), "") in err, (argv, err)
    assert not (tmp_path / "d").exists()


def test_memory_error_exits_2(capsys, monkeypatch):
    def run_ensemble(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "run_ensemble", run_ensemble)
    assert main(["ensemble", *CYCLE_FLAGS, "-T", "1", "-M", "10", "--runs", "4"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


SMALL_RUNS = [
    ["analyze", *CYCLE_FLAGS],
    ["simulate-ode", *CYCLE_FLAGS, "-T", "10", "--dt", "0.01"],  # 1,001 samples: a verdict
    ["phase-portrait", *CYCLE_FLAGS, "-T", "1", "--dt", "0.1", "--res", "3"],
    ["simulate-sde", *CYCLE_FLAGS, "-T", "1", "-M", "10"],
    ["ensemble", *CYCLE_FLAGS, "-T", "1", "-M", "10", "--runs", "4"],
    ["verify", *CYCLE_FLAGS, "--res", "4", "--runs", "4", "-M", "100"],  # delta 0.1: -M 10 is too coarse
]


def test_importing_the_cli_loads_no_thread_pool():
    """The ensemble driver starts its draw threads itself: no process start pays
    for concurrent.futures and the logging it imports."""
    env = dict(os.environ, PYTHONPATH=str(Path(rosmac.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", "import rosmac.cli, sys; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('concurrent', 'logging')))"],
        capture_output=True, env=env, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _assert_one_error_line(err, argv):
    assert err.startswith("error:") and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize(  # phase-portrait is the one subcommand that prints nothing
    "argv", [argv for argv in SMALL_RUNS if argv[0] != "phase-portrait"], ids=lambda a: a[0]
)
def test_closed_stdout_exits_2(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(rosmac.__file__).resolve().parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte is written
    try:
        done = subprocess.run(
            [sys.executable, "-m", "rosmac", *argv], stdout=write_end, stderr=subprocess.PIPE,
            env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2, done.stderr
    _assert_one_error_line(done.stderr, argv)
    assert "stdout" in done.stderr


@pytest.mark.parametrize(
    "argv, blocked",
    [
        *zip(SMALL_RUNS, ["analyze.json", "trajectory.csv", "field.csv", "path.csv",
                          "ensemble.csv", "verify.json"]),
        (SMALL_RUNS[3], "manifest.json"),
    ],
    ids=lambda value: value if isinstance(value, str) else value[0],
)
def test_output_file_that_cannot_be_written_exits_2(tmp_path, capsys, argv, blocked):
    (tmp_path / blocked).mkdir()
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    _assert_one_error_line(err, argv)
    assert blocked in err


def test_ensemble_rejects_nonpositive_workers(capsys):
    for workers in ("0", "-3"):
        argv = ["ensemble", *CYCLE_FLAGS, "-M", "100", "--runs", "4", "--workers", workers]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "workers" in err and err.count("\n") == 1
    assert main(["verify", *CYCLE_FLAGS, "--res", "4", "-M", "100", "--workers", "0"]) == 2
    assert "workers" in capsys.readouterr().err


def test_simulate_ode_rejects_tail_fraction_outside_range(tmp_path, capsys):
    """simulate-ode takes no --tail-fraction; a manifest's tail_fraction key replays at 0.25 only."""
    argv = ["simulate-ode", *CYCLE_FLAGS, "-T", "300", "--dt", "0.01"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tail-fraction", "0.25"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tail-fraction" in capsys.readouterr().err
    first = tmp_path / "first"
    assert main([*argv, "--out", str(first)]) == 0
    verdict = capsys.readouterr().out
    assert verdict.startswith("long-run verdict: limit_cycle")
    manifest = json.loads((first / "manifest.json").read_text())
    assert "tail_fraction" not in manifest["options"]
    config = tmp_path / "old.json"
    manifest["options"]["tail_fraction"] = 0.1
    config.write_text(json.dumps(manifest))
    assert main(["simulate-ode", "--config", str(config), "--out", str(tmp_path / "bad")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: config key 'tail_fraction' was removed; only 0.25 is accepted, got 0.1\n"
    )
    manifest["options"]["tail_fraction"] = 0.25
    config.write_text(json.dumps(manifest))
    replay = tmp_path / "replay"
    assert main(["simulate-ode", "--config", str(config), "--out", str(replay)]) == 0
    assert capsys.readouterr().out == verdict
    assert (replay / "trajectory.csv").read_bytes() == (first / "trajectory.csv").read_bytes()


def test_flags_are_spelled_in_full(capsys):
    """No unique prefix stands for a flag: --run is not --runs, --see not --seed."""
    for argv in (["ensemble", *CYCLE_FLAGS, "--run", "3", "--save", "2"],
                 ["simulate-sde", *CYCLE_FLAGS, "--see", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, shown",
    [({"runs": "abc"}, "abc"), ({"runs": 2.7}, "2.7"), ({"svg": "false"}, "false")],
    ids=["runs-abc", "runs-2.7", "svg-false"],
)
def test_config_with_non_numeric_runs_exits_2(tmp_path, capsys, entry, shown):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(entry))
    argv = ["ensemble", *CYCLE_FLAGS, "-T", "1", "-M", "10", "--config", str(config)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and shown in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, entry, flag",
    [(["analyze", "-c", "1", "-k", "3"], {"m": 10**400}, "-m"),
     (["simulate-sde", *CYCLE_FLAGS, "-M", "10"], {"T": -(10**400)}, "-T")],
    ids=["m", "T"],
)
def test_config_number_too_large_for_a_float_exits_2(tmp_path, capsys, argv, entry, flag):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(entry))
    assert main([*argv, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} expects a finite number, got ") and err.count("\n") == 1


@pytest.mark.parametrize("through_config", [False, True], ids=["flag", "config"])
def test_runs_too_large_for_a_c_long_exits_2(tmp_path, capsys, through_config):
    runs = ["--runs", str(2**63)]
    if through_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"runs": 2**63}))
        runs = ["--config", str(config)]
    assert main(["ensemble", *CYCLE_FLAGS, "-M", "10", *runs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["simulate-sde", *CYCLE_FLAGS, "-T", "1000", "-M", "10"],
    ["ensemble", *CYCLE_FLAGS, "-T", "1000", "-M", "10", "--runs", "100"],
    ["verify", *CYCLE_FLAGS, "-T", "1000", "-M", "10", "--runs", "100"],
], ids=lambda argv: argv[0])
def test_steps_that_the_drift_decides_exit_2(tmp_path, capsys, argv):
    """delta = 100: the first step's drift alone takes the prey below 0, so no
    output is written and verify does not report a pass."""
    assert main([*argv, "--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the drift alone takes n below 0 at step 1 (t=100.0, delta=100.0); step too coarse\n"
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_config_keys_of_other_subcommands_are_ignored(tmp_path, capsys):
    # A manifest of an older version listed every option for every subcommand.
    legacy = {
        "M": 100, "T": 1.0, "alpha": 3.0, "c": 1.0, "c_override": None, "dt": 0.001,
        "grid": None, "k": 3.0, "m": 3.0, "out": None, "p_orders": "1,2,4", "res": None,
        "runs": 2000, "save_paths": 0, "seed": 3, "stream": 2, "stride": 1, "svg": False,
        "t_min": 1.0, "tail_fraction": 0.25, "workers": 1, "x0": "1,0.6", "zero_noise": False,
    }
    config = tmp_path / "manifest.json"
    config.write_text(json.dumps({"subcommand": "simulate-sde", "options": legacy}))
    out = tmp_path / "run"
    assert main(["simulate-sde", "--config", str(config), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["options"]) == sorted(
        ["M", "T", "c", "k", "m", "out", "seed", "stream", "svg", "x0"]
    )
    assert manifest["options"]["stream"] == 2 and manifest["seed"] == 3
    cfg = SimConfig(t_end=1.0, m_steps=100, seed=3)
    path = simulate_path(CYCLE_PARAMS, START, cfg, stream_index=2)
    _, rows = _read_csv(out / "path.csv")
    assert float(rows[-1][1]) == path.states[-1, 0]
    # The keys of removed options are accepted at their old defaults only.
    for key, value in [("zero_noise", True), ("zero_noise", 0), ("c_override", 3.0)]:
        config.write_text(json.dumps({"options": {**legacy, key: value}}))
        assert main(["simulate-sde", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key!r} was removed") and err.count("\n") == 1, err


def test_simulate_ode_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "simulate-ode",
            *CYCLE_FLAGS,
            "-T",
            "5",
            "--dt",
            "0.01",
            "--out",
            str(out),
            "--svg",
        ]
    )
    assert code == 0
    header, rows = _read_csv(out / "trajectory.csv")
    assert header == ["t", "N", "P"]
    assert len(rows) == 501
    # Values round-trip through the 17-significant-digit format exactly.
    traj = integrate(CYCLE_PARAMS, START, 5.0, 0.01)
    assert float(rows[0][1]) == 1.0
    assert float(rows[-1][1]) == traj.states[-1, 0]
    assert float(rows[-1][2]) == traj.states[-1, 1]
    svg = (out / "trajectory.svg").read_text()
    assert svg.startswith("<svg")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate-ode"
    assert manifest["params"] == {"m": 3.0, "c": 1.0, "k": 3.0}
    assert manifest["options"]["T"] == 5.0


def test_simulate_ode_long_run_verdict(capsys):
    code = main(["simulate-ode", *CYCLE_FLAGS, "-T", "300", "--dt", "0.01"])
    assert code == 0
    assert "long-run verdict: limit_cycle" in capsys.readouterr().out


def test_phase_portrait_outputs(tmp_path, capsys):
    out = tmp_path / "portrait"
    code = main(
        [
            "phase-portrait",
            *CYCLE_FLAGS,
            "-T",
            "20",
            "--dt",
            "0.01",
            "--res",
            "10",
            "--grid",
            "0,4,0,4",
            "--out",
            str(out),
            "--svg",
        ]
    )
    assert code == 0
    header, rows = _read_csv(out / "field.csv")
    assert header == ["N", "P", "dN", "dP"]
    assert len(rows) == 100
    assert (out / "trajectory.csv").exists()
    assert "<svg" in (out / "portrait.svg").read_text()


def test_simulate_sde_reproducible_output(tmp_path, capsys):
    args = [
        "simulate-sde",
        *CYCLE_FLAGS,
        "-T",
        "2",
        "-M",
        "200",
        "--seed",
        "42",
        "--stream",
        "3",
    ]
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main([*args, "--out", str(first)]) == 0
    assert "clamp events:" in capsys.readouterr().out
    assert main([*args, "--out", str(second)]) == 0
    assert (first / "path.csv").read_bytes() == (second / "path.csv").read_bytes()
    header, rows = _read_csv(first / "path.csv")
    assert header == ["t", "N", "P"]
    cfg = SimConfig(t_end=2.0, m_steps=200, seed=42)
    path = simulate_path(CYCLE_PARAMS, START, cfg, stream_index=3)
    assert float(rows[-1][1]) == path.states[-1, 0]
    assert float(rows[-1][2]) == path.states[-1, 1]


def test_chart_titles_name_the_noise_they_drew(tmp_path):
    """A path's chart names its seed and stream, and an ensemble's its run count and seed."""
    small = ["-T", "1", "-M", "10", "--seed", "11", "--svg"]
    assert main(["simulate-sde", *CYCLE_FLAGS, *small, "--stream", "3", "--out", str(tmp_path / "a")]) == 0
    assert "seed=11 stream=3" in (tmp_path / "a" / "path.svg").read_text()
    assert main(["ensemble", *CYCLE_FLAGS, *small, "--runs", "4", "--out", str(tmp_path / "b")]) == 0
    for tag in "np":
        assert "4 runs, seed 11" in (tmp_path / "b" / f"ensemble_{tag}.svg").read_text()


def test_ensemble_outputs_and_zero_noise_variance(tmp_path, capsys, zero_noise):
    out = tmp_path / "ens"
    code = main(
        [
            "ensemble",
            *CYCLE_FLAGS,
            "-T",
            "2",
            "-M",
            "200",
            "--runs",
            "16",
            "--save-paths",
            "2",
            "--out",
            str(out),
            "--svg",
        ]
    )
    assert code == 0
    assert "runs: 16" in capsys.readouterr().out
    header, rows = _read_csv(out / "ensemble.csv")
    assert header == [
        "t",
        "mean_N",
        "var_N",
        "band_lo_N",
        "band_hi_N",
        "mean_P",
        "var_P",
        "band_lo_P",
        "band_hi_P",
    ]
    assert len(rows) == 201
    # Identical paths with a power-of-two run count: variance exactly zero.
    assert {row[2] for row in rows} == {"0"}
    assert {row[6] for row in rows} == {"0"}
    assert (out / "path_0000.csv").exists()
    assert (out / "path_0001.csv").exists()
    assert (out / "ensemble_n.svg").exists()
    assert (out / "ensemble_p.svg").exists()
    # Every run may be saved, but no stream past the last run.
    every = tmp_path / "every"
    assert main(["ensemble", *CYCLE_FLAGS, "-T", "1", "-M", "10", "--runs", "2",
                 "--save-paths", "2", "--out", str(every)]) == 0
    assert sorted(path.name for path in every.glob("path_*.csv")) == ["path_0000.csv", "path_0001.csv"]


def test_ensemble_worker_count_invariance(tmp_path):
    base = [
        "ensemble",
        *CYCLE_FLAGS,
        "-T",
        "1",
        "-M",
        "500",
        "--runs",
        "600",
        "--seed",
        "9",
    ]
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    assert main([*base, "--out", str(serial)]) == 0
    assert main([*base, "--workers", "4", "--out", str(threaded)]) == 0
    assert (serial / "ensemble.csv").read_bytes() == (threaded / "ensemble.csv").read_bytes()


def test_ensemble_threads_follow_the_usable_cpus(tmp_path, monkeypatch):
    """--workers is capped by the affinity mask, not by the machine's CPU count:
    at 2 usable CPUs each drawn chunk starts one helper thread, at 1 none."""
    started = []

    class RecordingThread(sde.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(sde, "Thread", RecordingThread)
    argv = ["ensemble", *CYCLE_FLAGS, "-T", "1", "-M", "500", "--runs", "600", "--seed", "9",
            "--workers", "2", "--out"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert main([*argv, str(tmp_path / "two")]) == 0
    assert len(started) == 2  # 500 steps: chunks of 256 and 244
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main([*argv, str(tmp_path / "one")]) == 0
    assert len(started) == 2
    assert (tmp_path / "one" / "ensemble.csv").read_bytes() == (tmp_path / "two" / "ensemble.csv").read_bytes()


def _csv_floats(path, columns):
    """The named columns of a CSV as float rows; float("-0") keeps its sign."""
    header, rows = _read_csv(path)
    return np.array([[float(row[header.index(name)]) for name in columns] for row in rows])


def test_signed_zero_start_writes_the_dense_drivers_bytes(tmp_path):
    """A -0.0 start stays live until a step turns it into +0, so the CSVs write
    "-0" where stepping every path densely does, for any worker count."""
    flags = [*CYCLE_FLAGS, "--x0=-0,-0", "-T", "6", "-M", "600", "--seed", "11"]
    cfg = SimConfig(t_end=6.0, m_steps=600, seed=11)
    m, c, k = CYCLE_PARAMS.m, CYCLE_PARAMS.c, CYCLE_PARAMS.k
    dense = [_reference_em(m, c, k, -0.0, -0.0, cfg.delta, _whole_increments(cfg, stream))[0]
             for stream in range(4)]
    assert main(["simulate-sde", *flags, "--out", str(tmp_path / "sde")]) == 0
    assert _csv_floats(tmp_path / "sde" / "path.csv", "NP").tobytes() == dense[0].tobytes()
    assert "-0" in (tmp_path / "sde" / "path.csv").read_text().split()[1]
    outs = {}
    for workers in ("1", "2"):
        out = outs[workers] = tmp_path / f"ens{workers}"
        assert main(["ensemble", *flags, "--runs", "4", "--save-paths", "2", "--workers", workers,
                     "--out", str(out)]) == 0
    files = ["ensemble.csv", "path_0000.csv", "path_0001.csv"]
    for name in files:
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name
    for stream in range(2):
        path = outs["1"] / f"path_{stream:04d}.csv"
        assert _csv_floats(path, "NP").tobytes() == dense[stream].tobytes()
    # The bands come from the compacted driver: its means and variances are
    # those of the dense states, -0 included.
    moments = _csv_floats(outs["1"] / "ensemble.csv", ["mean_N", "var_N", "mean_P", "var_P"])
    states = np.stack(dense, axis=2)
    blocks = [(states[lo:lo + sde._BLOCK_ROWS], 0) for lo in range(0, len(states), sde._BLOCK_ROWS)]
    _, expected, _ = _reduced(blocks, 4, cfg, 1, 4, 4, _mean_var)
    assert moments.T.tobytes() == expected.tobytes()
    assert "-0" in (outs["1"] / "ensemble.csv").read_text().split()[1]


def test_manifest_replay_is_byte_identical(tmp_path):
    first = tmp_path / "first"
    replay = tmp_path / "replay"
    args = [
        "ensemble",
        *CYCLE_FLAGS,
        "-T",
        "2",
        "-M",
        "250",
        "--runs",
        "8",
        "--seed",
        "31",
        "--out",
        str(first),
    ]
    assert main(args) == 0
    code = main(
        [
            "ensemble",
            "--config",
            str(first / "manifest.json"),
            "--out",
            str(replay),
        ]
    )
    assert code == 0
    assert (first / "ensemble.csv").read_bytes() == (replay / "ensemble.csv").read_bytes()
    original = json.loads((first / "manifest.json").read_text())
    replayed = json.loads((replay / "manifest.json").read_text())
    original["options"].pop("out")
    replayed["options"].pop("out")
    del original["timestamp"], replayed["timestamp"]
    assert original == replayed


def test_seed_has_no_env_fallback(tmp_path, capsys, monkeypatch):
    """The seed is --seed, else the config's, else 0; the environment (RM_SEED) plays no part."""
    args = ["simulate-sde", *CYCLE_FLAGS, "-T", "1", "-M", "100", "--out"]
    for run, extra in [("plain", []), ("seed77", ["--seed", "77"])]:
        assert main([*args, str(tmp_path / run), *extra]) == 0
    monkeypatch.setenv("RM_SEED", "77")
    assert main([*args, str(tmp_path / "env")]) == 0
    path = (tmp_path / "env" / "path.csv").read_bytes()
    assert path == (tmp_path / "plain" / "path.csv").read_bytes()
    assert path != (tmp_path / "seed77" / "path.csv").read_bytes()
    assert json.loads((tmp_path / "env" / "manifest.json").read_text())["seed"] == 0
    assert main([*args, str(tmp_path / "explicit"), "--seed", "5"]) == 0
    assert json.loads((tmp_path / "explicit" / "manifest.json").read_text())["seed"] == 5
    # A null seed is no integer: manifests always hold one.
    config = tmp_path / "null.json"
    config.write_text(json.dumps({"seed": None}))
    capsys.readouterr()
    assert main(["simulate-sde", *CYCLE_FLAGS, "-T", "1", "-M", "100", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: --seed expects an integer, got None\n"


def test_verify_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "verify"
    code = main(
        [
            "verify",
            *CYCLE_FLAGS,
            "--res",
            "60",
            "-T",
            "5",
            "-M",
            "400",
            "--runs",
            "32",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert payload["constants"]["c_lyap"] == pytest.approx(86.0)
    assert payload["constants"]["c_mono"] == pytest.approx(37.0 / 6.0)
    names = [check["inequality_name"] for check in payload["checks"]]
    assert names[0].startswith("generator")
    assert names[1] == "monotonicity"
    assert names[2:] == ["moment_bound_p=1", "moment_bound_p=2", "moment_bound_p=4"]
    assert all(check["passed"] for check in payload["checks"])
    assert payload["growth_proxy"]["passed"] is True
    assert payload["growth_proxy"]["worst"] <= payload["growth_proxy"]["bound"]
    saved = json.loads((out / "verify.json").read_text())
    assert saved == payload


def test_verify_sabotage_fails_with_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(verification, "lyapunov_constant", lambda params, alpha: 3.0)
    monkeypatch.setattr(verification, "monotonicity_constant", lambda params: 3.0)
    code = main(
        [
            "verify",
            *CYCLE_FLAGS,
            "--res",
            "40",
            "-T",
            "2",
            "-M",
            "200",
            "--runs",
            "8",
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["all_passed"] is False
    assert "FAILED generator" in captured.err


def test_verify_rejects_boundary_grid(capsys):
    code = main(["verify", *CYCLE_FLAGS, "--grid", "0,10,0,10", "--res", "20"])
    assert code == 2
    assert "interior" in capsys.readouterr().err


def test_math_of_growth_proxy_matches_library(tmp_path, capsys):
    # The CLI's reported worst proxy must be reproducible from the library
    # with the same seed and stream addressing.
    code = main(
        [
            "verify",
            *CYCLE_FLAGS,
            "--res",
            "20",
            "-T",
            "3",
            "-M",
            "300",
            "--runs",
            "8",
            "--seed",
            "4",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    from rosmac import ensemble_moments

    cfg = SimConfig(t_end=3.0, m_steps=300, seed=4)
    _, proxies = ensemble_moments(
        CYCLE_PARAMS, START, cfg, 8, (1.0, 2.0, 4.0), t_min=1.0
    )
    assert payload["growth_proxy"]["worst"] == proxies.max()
    assert payload["growth_proxy"]["worst_stream"] == int(proxies.argmax())


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_verify_start_whose_square_overflows_gives_the_checks_verdict(tmp_path, capsys):
    # ||x0||^2 passes the float maximum, the p = 1 envelope (1 + ||x0||^2)^(1/2) does not.
    out = tmp_path / "verify"
    argv = ["verify", "-m", "3", "-c", "1", "-k", "1e300", "--x0", "1e200,0", "-T", "2", "-M", "10",
            "--runs", "2", "--p", "1", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    payload = _strict_json(captured.out)
    assert _strict_json((out / "verify.json").read_text()) == payload
    moment = next(c for c in payload["checks"] if c["inequality_name"] == "moment_bound_p=1")
    assert moment["passed"] is True and payload["growth_proxy"]["passed"] is False
    assert captured.err.startswith("FAILED growth_proxy:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, section, key",
    [
        # A finite moment under an envelope that overflows at every recorded time.
        # Without noise, so that the 4000th moment stays finite.
        (["--x0", "0.1,0.1", "--p", "4000", "-T", "0.5", "--t-min", "0.1"],
         "moment_bound_p=4000", "worst_slack"),
        # Every path at the origin: the growth proxy is log 0.
        (["--x0", "0,0", "-T", "2"], "growth_proxy", "worst"),
    ],
)
def test_verify_writes_strict_json_for_infinite_extremes(tmp_path, capsys, request, flags, section, key):
    if section != "growth_proxy":
        request.getfixturevalue("zero_noise")
    out = tmp_path / "verify"
    args = ["verify", *CYCLE_FLAGS, *flags, "--runs", "4", "-M", "100", "--res", "3"]
    assert main([*args, "--out", str(out)]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert _strict_json((out / "verify.json").read_text()) == payload
    if section == "growth_proxy":
        entry = payload["growth_proxy"]
    else:
        entry = next(c for c in payload["checks"] if c["inequality_name"] == section)
    assert entry[key] is None and entry["passed"] is True
    assert entry["note"]
    assert payload["all_passed"] is True
