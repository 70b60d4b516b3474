"""The benchmark's workloads: the rosmac command each runs and how its outputs are checked.

Why each workload is in the benchmark is recorded in BENCHMARK.json.

Every workload is one `rosmac` CLI invocation with the model parameters
`-m 3 -c 1 -k 3`.  `argv(seed, out_dir)` gives the arguments after `rosmac`;
`check(stdout, out_dir)` returns a list of problems (empty when the outputs
are right).  Data files are every file in the output directory except
`manifest.json`, whose timestamp differs from run to run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

PARAMS = ("-m", "3", "-c", "1", "-k", "3")

ENSEMBLE_HEADER = "t,mean_N,var_N,band_lo_N,band_hi_N,mean_P,var_P,band_lo_P,band_hi_P"
PATH_HEADER = "t,N,P"


def check_csv(path: Path, header: str, rows: int) -> list[str]:
    """Header, data-row count and finiteness of one CSV written by rosmac."""
    if not path.is_file():
        return [f"{path.name} missing"]
    text = path.read_text()
    first, _, body = text.partition("\n")
    problems = []
    if first.rstrip("\r") != header:
        problems.append(f"{path.name}: header {first!r}, expected {header!r}")
    lines = body.splitlines()
    if len(lines) != rows:
        problems.append(f"{path.name}: {len(lines)} data rows, expected {rows}")
    columns = header.count(",") + 1
    try:
        values = np.array(",".join(lines).split(","), dtype=np.float64)
    except ValueError as exc:
        return problems + [f"{path.name}: unparsable value ({exc})"]
    if values.size != len(lines) * columns:
        problems.append(f"{path.name}: {values.size} values, expected {len(lines) * columns}")
    if not np.isfinite(values).all():
        problems.append(f"{path.name}: {int((~np.isfinite(values)).sum())} non-finite values")
    return problems


def check_svg(path: Path) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    text = path.read_text()
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        return [f"{path.name}: not a complete SVG document"]
    return []


def data_digest(stdout: str, out_dir: Path) -> str:
    """Hash of stdout and every data file, for byte-for-byte repeat checks."""
    digest = hashlib.sha256(stdout.encode())
    for path in sorted(out_dir.iterdir()):
        if path.name != "manifest.json":
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    # Arguments after `rosmac`, given the benchmark seed and the output directory.
    argv: Callable[[int, Path], list[str]]
    # Problems found in one run's stdout and output directory.
    check: Callable[[str, Path], list[str]]
    # Work done by one run and its unit, for the work_rate metric.
    work: float
    work_unit: str
    # A different command that must write the same bytes (README reproducibility).
    equivalent_argv: Callable[[int, Path], list[str]] | None = None


def _ensemble_argv(seed: int, out: Path, workers: int = 2) -> list[str]:
    return ["ensemble", *PARAMS, "-T", "10", "-M", "4000", "--runs", "2000",
            "--seed", str(seed), "--workers", str(workers), "--out", str(out), "--svg"]


def _ensemble_check(stdout: str, out: Path) -> list[str]:
    problems = check_csv(out / "ensemble.csv", ENSEMBLE_HEADER, 4001)
    for tag in ("n", "p"):
        problems += check_svg(out / f"ensemble_{tag}.svg")
    if not stdout.startswith("runs: 2000"):
        problems.append(f"unexpected stdout {stdout[:80]!r}")
    return problems


def _verify_argv(seed: int, out: Path) -> list[str]:
    return ["verify", *PARAMS, "--alpha", "3", "--res", "400", "--runs", "200",
            "-M", "1000", "--seed", str(seed), "--out", str(out)]


def _verify_check(stdout: str, out: Path) -> list[str]:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON ({exc})"]
    problems = []
    if report.get("all_passed") is not True:
        problems.append("verify did not print \"all_passed\": true")
    saved = out / "verify.json"
    if not saved.is_file() or json.loads(saved.read_text()) != report:
        problems.append("verify.json missing or different from stdout")
    return problems


def _ode_argv(seed: int, out: Path) -> list[str]:
    del seed, out  # deterministic and writes no files; its output directory stays empty
    return ["simulate-ode", *PARAMS, "--x0", "1,0.6", "-T", "600", "--dt", "0.001"]


def _ode_check(stdout: str, out: Path) -> list[str]:
    if not stdout.startswith("long-run verdict: limit_cycle "):
        return [f"expected a limit_cycle verdict, got {stdout[:80]!r}"]
    return []


def _sde_argv(seed: int, out: Path) -> list[str]:
    return ["simulate-sde", *PARAMS, "--x0", "1,0.6", "-T", "50", "-M", "200000",
            "--seed", str(seed), "--out", str(out), "--svg"]


def _sde_check(stdout: str, out: Path) -> list[str]:
    problems = check_csv(out / "path.csv", PATH_HEADER, 200_001)
    problems += check_svg(out / "path.svg")
    if not stdout.startswith("clamp events: "):
        problems.append(f"unexpected stdout {stdout[:80]!r}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ensemble-bands",
            _ensemble_argv, _ensemble_check, work=2000 * 4000, work_unit="path-steps",
            equivalent_argv=lambda seed, out: _ensemble_argv(seed, out, workers=1),
        ),
        Workload(
            "verify-grid",
            _verify_argv, _verify_check, work=2 * 400 * 400, work_unit="grid points",
        ),
        Workload(
            "ode-cycle",
            _ode_argv, _ode_check, work=600_000, work_unit="RK4 steps",
        ),
        Workload(
            "sde-path",
            _sde_argv, _sde_check, work=200_000, work_unit="EM steps",
        ),
    )
}
