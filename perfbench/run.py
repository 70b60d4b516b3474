"""rosmac benchmark: end-to-end CLI runs, a traced per-layer run, and a compare mode.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload ensemble-bands --seed 11 --seconds 25 --trace 0

`--trace 0` measures end to end.  Each run is a real `python -m rosmac`
child, started only after the previous one exited (closed loop, one client);
wall time comes from the clock around the child, CPU time and peak RSS from
`os.wait4` on it.  `--trace 1` instead calls `rosmac.cli.main(argv)` in this
process, alternating untraced and traced calls, and reports per-layer figures
from the traced ones plus the tracing overhead.

Every run's outputs are checked, repeats of one seed must write identical
bytes, and `ensemble-bands` must write the same bytes at `--workers 1`.
The last stdout line is the result: `correct`, `attempted`, `failed`,
`metrics`.  The line before it is the full record (per-run samples,
environment, span summary); `--save FILE` appends that record to a JSON-lines
file, and `--compare PARENT CHANGE` compares two such files.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

# Children and this process keep numpy's BLAS pool to one thread, so the only
# parallelism is the `--workers 2` pool of ensemble-bands (nproc = 2).
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

from workloads import WORKLOADS, Workload, data_digest  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 11
SETUP_REPEATS = 7
MIN_RUNS = 3


def median(values: list[float]) -> float:
    return float(statistics.median(values))


# ---- environment record ----

def _steal_ticks() -> int | None:
    """Summed steal ticks of all CPUs from /proc/stat (read only)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "loadavg_before": list(os.getloadavg()),
        "steal_ticks_before": _steal_ticks(),
    }


# ---- end-to-end: one child process at a time ----

@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: str
    stderr: str


def run_child(argv: list[str], scratch: Path) -> Child:
    """Run `python -m rosmac ARGV` to completion and measure it."""
    env = dict(os.environ)
    env.pop("RM_SEED", None)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out_path, err_path = scratch / "stdout.txt", scratch / "stderr.txt"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "rosmac", *argv], stdout=out, stderr=err, env=env, cwd=ROOT
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        code=proc.returncode,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


class Ledger:
    """Counts attempted and failed operations and keeps the first problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: " + "; ".join(problems))
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure_setup(scratch: Path, ledger: Ledger) -> list[float]:
    """Wall times of `rosmac --version` children after one untimed warm-up."""
    times = []
    for repeat in range(SETUP_REPEATS + 1):
        child = run_child(["--version"], scratch)
        problems = [] if child.code == 0 and child.stdout.startswith("rosmac ") else [
            f"exit {child.code}, stdout {child.stdout[:60]!r}, stderr {child.stderr[-200:]!r}"
        ]
        ledger.record("setup", problems)
        if repeat:
            times.append(child.wall_s)
    return times


def checked_child(
    workload: Workload, argv_of, seed: int, scratch: Path, reference: str | None, label: str, ledger: Ledger
) -> tuple[Child, str]:
    """Run one workload child, check its outputs and its bytes against `reference`."""
    out = _fresh_dir(scratch / "out")
    child = run_child(argv_of(seed, out), scratch)
    problems = []
    if child.code != 0:
        problems.append(f"exit {child.code}: {child.stderr.strip()[-300:]!r}")
    else:
        problems += workload.check(child.stdout, out)
    digest = data_digest(child.stdout, out)
    if reference is not None and digest != reference:
        problems.append("data bytes differ from the reference run")
    ledger.record(label, problems)
    return child, digest


def run_end_to_end(workload: Workload, seed: int, seconds: float, scratch: Path, ledger: Ledger):
    setup = measure_setup(scratch, ledger)
    # The setup children already compiled and cached every module, so the
    # first workload child is warm; its bytes are what every repeat must write.
    children: list[Child] = []
    reference = None
    start = time.perf_counter()
    while True:
        child, digest = checked_child(
            workload, workload.argv, seed, scratch, reference, f"run {len(children)}", ledger
        )
        reference = reference or digest
        children.append(child)
        elapsed = time.perf_counter() - start
        typical = median([c.wall_s for c in children])
        if len(children) >= MIN_RUNS and elapsed + typical > seconds:
            break
    if workload.equivalent_argv is not None:
        checked_child(workload, workload.equivalent_argv, seed, scratch, reference, "equivalent argv", ledger)
    wall = median([c.wall_s for c in children])
    metrics = {
        "setup_s": median(setup),
        "wall_s": wall,
        "cpu_s": median([c.cpu_s for c in children]),
        "peak_rss_mb": median([c.peak_rss_mb for c in children]),
        "work_rate": workload.work / wall,
    }
    samples = {
        "setup_s": setup,
        "wall_s": [c.wall_s for c in children],
        "cpu_s": [c.cpu_s for c in children],
        "peak_rss_mb": [c.peak_rss_mb for c in children],
    }
    return metrics, {"samples": samples, "work": workload.work, "work_unit": workload.work_unit}


# ---- traced: rosmac.cli.main in this process ----

def run_traced(workload: Workload, seed: int, seconds: float, scratch: Path, ledger: Ledger):
    sys.path.insert(0, str(SRC))
    from rosmac import cli
    from tracing import Tracer

    def call(tracer: Tracer | None, label: str, reference: str | None) -> tuple[float, str, int]:
        out = _fresh_dir(scratch / "out")
        stdout = io.StringIO()
        argv = workload.argv(seed, out)
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    with tracer.installed(), tracer.span("cli.main"):
                        code = cli.main(argv)
            except Exception as exc:  # a crash is one failed operation, as in a child
                code = f"raised {exc!r}"
        wall = time.perf_counter() - start
        text = stdout.getvalue()
        problems = [f"exit {code}"] if code != 0 else workload.check(text, out)
        digest = data_digest(text, out)
        if reference is not None and digest != reference:
            problems.append("data bytes differ from the reference run")
        ledger.record(label, problems)
        out_bytes = len(text.encode()) + sum(p.stat().st_size for p in out.iterdir())
        return wall, digest, out_bytes

    _, reference, _ = call(None, "warm-up", None)
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        tracer = Tracer()
        # Alternate which side goes first so drift favours neither.
        first_traced = len(traced) % 2 == 1
        for traced_side in (first_traced, not first_traced):
            label = f"{'traced' if traced_side else 'untraced'} {len(traced)}"
            wall, _, out_bytes = call(tracer if traced_side else None, label, reference)
            (traced if traced_side else untraced).append(wall)
        layers.append({**tracer.layer_metrics(), "cli.out_bytes": out_bytes})
        elapsed = time.perf_counter() - start
        if len(traced) >= MIN_RUNS and elapsed + (elapsed / len(traced)) > seconds:
            break
    metrics = {name: median([layer[name] for layer in layers]) for name in layers[0]}
    metrics["trace.overhead_s"] = median([t - u for t, u in zip(traced, untraced)])
    detail = {
        "samples": {"untraced_s": untraced, "traced_s": traced},
        "span_summary": tracer.span_summary(),
        "spans": [vars(span) for span in tracer.spans],
    }
    return metrics, detail


# ---- result assembly ----

def spec_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args: argparse.Namespace) -> int:
    if not (SRC / "rosmac" / "__init__.py").is_file():
        print(f"error: no rosmac package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    units = spec_metrics(args.trace == 1)
    env = environment()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    ledger = Ledger()
    try:
        measure = run_traced if args.trace == 1 else run_end_to_end
        values, detail = measure(workload, args.seed, args.seconds, scratch, ledger)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env["loadavg_after"] = list(os.getloadavg())
    env["steal_ticks_after"] = _steal_ticks()
    if set(values) != set(units):
        print(f"error: measured {sorted(values)} but BENCHMARK.json lists {sorted(units)}", file=sys.stderr)
        return 2
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "problems": ledger.problems,
        "result": result,
        **detail,
    }
    if args.save:
        with open(args.save, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    record.pop("spans", None)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def _stop(signum: int, frame: object) -> None:
    # Unwind through the `finally` blocks that stop the child and remove scratch files.
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="noise seed S passed to rosmac")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", metavar="FILE", help="append the full record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two files written with --save, then exit")
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare

        return compare(Path(args.compare[0]), Path(args.compare[1]), SPEC)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
