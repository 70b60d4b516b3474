"""Command-line front end.

Subcommands
    analyze         equilibrium structure, stability, extinction verdict (JSON)
    simulate-ode    deterministic trajectory -> CSV (+ SVG)
    phase-portrait  vector field + trajectory -> CSV pair (+ SVG)
    simulate-sde    one noisy path -> CSV (+ SVG)
    ensemble        Monte Carlo mean/variance/bands -> CSV (+ SVG)
    verify          growth-bound certification -> JSON, exit 1 on failure

Every option is one row of OPTIONS: its config key, flag, type, default, help
and the subcommands that take it.  The row drives the argparse flag, the
--config merge (the same names, strict JSON types), the one coercion step in
_resolve_options and the manifest.  Every file-writing run drops a
manifest.json echoing the subcommand's resolved options; feeding it back
through --config replays the run byte-for-byte (the manifest itself differs
only in its timestamp).  Config keys the subcommand does not take are
ignored, but a removed option's key (_REMOVED) only at its old default.  main
resolves what every subcommand shares and writes the manifest last, so a
--out directory without one holds an incomplete run.  Exit codes: 0 success,
1 failed verification (verify only), 2 usage or validation error, a closed
stdout or an output file that cannot be written, reported as a single
"error:" line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__, ode
from .ensemble import EnsembleStats, ensemble_moments, run_ensemble
from .equilibria import (
    coexistence_exists,
    extinction_check,
    find_equilibria,
    hopf_threshold,
    trace_identity_check,
)
from .model import GridSpec, ModelParams, State, checked_state
from .ode import DEFAULT_DT, BlowupError, detect_asymptotics, integrate, vector_field_grid
from .sde import DESK_STEPS, SimConfig, simulate_path
from .svgplot import line_chart, phase_portrait
from .verification import (
    DEFAULT_GENERATOR_GRID,
    DEFAULT_MONOTONICITY_GRID,
    VerificationReport,
    bound_constants,
    check_generator_inequality,
    check_moment_bound,
    check_monotonicity,
    monotonicity_constant,
)

SEED_ENV_VAR = "RM_SEED"


@dataclass(frozen=True)
class Option:
    """One option: config key (dest), flag, type, default, help, subcommands."""

    dest: str
    flag: str
    type: type
    default: Any
    help: str
    commands: tuple[str, ...]


_ALL = ("analyze", "simulate-ode", "phase-portrait", "simulate-sde", "ensemble", "verify")
_FROM_X0 = _ALL[1:]
_CHARTS = ("simulate-ode", "phase-portrait", "simulate-sde", "ensemble")
_NOISY = ("simulate-sde", "ensemble", "verify")
_ENSEMBLE = ("ensemble", "verify")
_GRID = ("phase-portrait", "verify")

OPTIONS = (
    Option("m", "-m", float, None, "interaction strength (required)", _ALL),
    Option("c", "-c", float, None, "predator death rate (required)", _ALL),
    Option("k", "-k", float, None, "prey capacity (required)", _ALL),
    Option("out", "--out", str, None, "output directory", _ALL),
    Option("x0", "--x0", str, "1,0.6", "initial state 'N,P'", _FROM_X0),
    Option("T", "-T", float, 10.0, "end time", _FROM_X0),
    Option("dt", "--dt", float, DEFAULT_DT, "integration step", ("simulate-ode", "phase-portrait")),
    Option("tail_fraction", "--tail-fraction", float, 0.25,
           "trailing fraction inspected for the long-run verdict", ("simulate-ode",)),
    Option("grid", "--grid", str, None, "bounds 'NMIN,NMAX,PMIN,PMAX'", _GRID),
    Option("res", "--res", int, None, "grid resolution per axis (20; verify 200)", _GRID),
    Option("M", "-M", int, DESK_STEPS, "number of steps", _NOISY),
    Option("runs", "--runs", int, 2000, "number of paths", _ENSEMBLE),
    Option("seed", "--seed", int, None, f"noise seed (env {SEED_ENV_VAR}, else 0)", _NOISY),
    Option("stream", "--stream", int, 0, "noise stream index", ("simulate-sde",)),
    Option("stride", "--stride", int, 1, "record every stride-th step", _ENSEMBLE),
    Option("workers", "--workers", int, 1, "worker threads (no effect on results)", _ENSEMBLE),
    Option("save_paths", "--save-paths", int, 0, "also write the first K individual paths",
           ("ensemble",)),
    Option("alpha", "--alpha", float, 3.0, "test-function exponent (> 2)", ("verify",)),
    Option("p_orders", "--p", str, "1,2,4", "comma-separated moment orders to check", ("verify",)),
    Option("t_min", "--t-min", float, 1.0, "left end of the growth-proxy window", ("verify",)),
    Option("svg", "--svg", bool, False, "emit SVG plots", _CHARTS),
)

# Keys of removed options, which older manifests hold, and the one value each may still have.
_REMOVED = {"zero_noise": False, "c_override": None}

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _options_of(subcommand: str) -> list[Option]:
    return [option for option in OPTIONS if subcommand in option.commands]


def _coerce(option: Option, value: Any) -> Any:
    """`value` as the option's type; null only where the default is null."""
    kind = option.type
    if value is None and option.default is None:
        return None
    if kind is bool or isinstance(value, bool):  # JSON true is no number, 1 no switch
        ok = kind is bool and isinstance(value, bool)
    elif kind is int:
        ok = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    elif kind is float:
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max  # an int past it, too
    else:
        ok = isinstance(value, str)
    if not ok:
        raise ValueError(f"{option.flag} expects {_TYPE_NAMES[kind]}, got {value!r}")
    return kind(value)


def _parse_floats(flag: str, text: str, count: int) -> list[float]:
    parts = text.split(",")
    if len(parts) == count:
        try:
            return [float(part) for part in parts]
        except ValueError:
            pass
    raise ValueError(f"{flag} expects {count} comma-separated numbers, got {text!r}")


def _parse_x0(text: str) -> State:
    return checked_state(_parse_floats("--x0", text, 2), "--x0")


def _grid_option(options: dict[str, Any], default: GridSpec) -> GridSpec:
    """default with the bounds of --grid and the resolution of --res, where given."""
    grid = default
    if options["grid"] is not None:
        grid = GridSpec(*_parse_floats("--grid", options["grid"], 4), grid.resolution)
    if options["res"] is not None:
        grid = replace(grid, resolution=options["res"])
    return grid


def _parse_orders(text: str) -> list[float]:
    try:
        orders = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"--p expects comma-separated numbers, got {text!r}") from exc
    if not orders or not all(0.0 < order < math.inf for order in orders):
        raise ValueError(f"--p expects finite positive orders, got {text!r}")
    return orders


_CSV_BLOCK_ROWS = 16384  # bounds the Python floats and text held at once
_CSV_FORK_ROWS = 4 * _CSV_BLOCK_ROWS  # smallest table formatted in forked slices; see _write_csv


def _csv_blocks(table: np.ndarray, row: str):
    """The CSV bytes of table's rows, one %-operation per block of rows."""
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        block = table[start : start + _CSV_BLOCK_ROWS]
        yield (row * len(block) % tuple(block.ravel().tolist())).encode("ascii")


def _slice_count(rows: int) -> int:
    """One slice per usable CPU, at least a block each, for a table of _CSV_FORK_ROWS rows
    or more.  One slice where os.sched_getaffinity is missing: that keeps fork to Linux."""
    if rows < _CSV_FORK_ROWS or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), rows // _CSV_BLOCK_ROWS)


def _fork_slice(part: np.ndarray, row: str, siblings: list[int]) -> tuple[int, int] | None:
    """Fork a child that sends the bytes of `part` down a pipe: (pid, read end), or None
    when the OS refuses a pipe or a process.

    The child closes its siblings' read ends, so closing one in the parent breaks that
    pipe, formats the whole slice before writing, so it never waits on a full pipe while
    the parent formats, and leaves by os._exit: no parent cleanup, no flush of the
    parent's stdout buffer.  Python 3.12 warns about fork with threads alive (numpy's
    BLAS pool); the child runs no BLAS and never returns into the parent's code.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            for fd in (read_fd, *siblings):
                os.close(fd)
            blocks = list(_csv_blocks(part, row))
            with open(write_fd, "wb") as pipe:
                pipe.writelines(blocks)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _reap(pid: int, read_fd: int) -> int:
    """Close a slice child's read end, then wait for it; its exit status, 0 on success."""
    os.close(read_fd)  # first, so a child blocked on a full pipe gets EPIPE and leaves
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:  # reaped by the kernel (SIGCHLD ignored): its status is lost
        return -1


def _write_csv(path: Path, columns: dict[str, Any]) -> None:
    """Write named, equal-length columns as csv.writer would with format(x, ".17g")
    cells, formatting a block of rows at a time with one %-operation.

    A table of _CSV_FORK_ROWS (65,536) rows or more is cut into contiguous slices,
    one per usable CPU (_slice_count).  One forked child per slice after the first
    formats it while this process formats the first; the slices are then written in
    order.  A slice whose child could not start or did not exit 0 is formatted here, so
    the bytes never depend on the slice count, and every child is reaped before this
    returns or raises.  The threshold, measured on a 2-vCPU x86-64 host: formatting
    costs 0.35 us a cell (a mostly zero path) to 0.75 us (random normals), and a fork
    plus reap of a 46 MB process 2.7 ms, so at 65,536 three-column rows a second slice
    takes 35-75 ms off this process for about 3 ms.  Smaller tables stay in one
    process, where a busy second core would turn the fork into pure cost.
    """
    table = np.column_stack([np.asarray(column, dtype=float) for column in columns.values()])
    row = ",".join(["%.17g"] * len(columns)) + "\r\n"
    count = _slice_count(len(table))
    bounds = [len(table) * index // count for index in range(count + 1)]
    parts = [table[start:stop] for start, stop in zip(bounds, bounds[1:])]
    children: dict[int, tuple[int, int]] = {}  # slice index -> (pid, read end), until reaped
    try:
        with path.open("wb") as handle:
            for index in range(1, count):
                child = _fork_slice(parts[index], row, [fd for _, fd in children.values()])
                if child is not None:
                    children[index] = child
            handle.write((",".join(columns) + "\r\n").encode("ascii"))
            for index, part in enumerate(parts):
                sent = None
                if index in children:
                    with open(children[index][1], "rb", closefd=False) as pipe:
                        sent = pipe.read()
                    if _reap(*children.pop(index)) != 0:
                        sent = None
                handle.writelines(_csv_blocks(part, row) if sent is None else [sent])
    finally:
        for child in children.values():
            _reap(*child)


def _write_states(path: Path, times, states) -> None:
    _write_csv(path, {"t": times, "N": states[:, 0], "P": states[:, 1]})


def _density_chart(times, states, title: str) -> str:
    return line_chart(
        times,
        [
            {"y": states[:, 0], "label": "prey n", "color": "#1f77b4"},
            {"y": states[:, 1], "label": "predator p", "color": "#d62728"},
        ],
        title=title,
        y_label="density",
    )


def _report_dict(report: VerificationReport) -> dict[str, Any]:
    payload = asdict(report)
    if report.worst_slack == -math.inf:  # every gap -inf; JSON has no infinity
        payload["worst_slack"] = None
        payload["note"] = "the envelope overflows float64 at every recorded time"
    return payload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosmac",
        description="Predator-prey dynamics: analysis, simulation, certification.",
    )
    parser.add_argument("--version", action="version", version=f"rosmac {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", help="JSON file of option values (flags win)")
        for option in _options_of(name):
            if option.type is bool:
                sub.add_argument(option.flag, dest=option.dest, action="store_const", const=True,
                                 help=option.help)
            else:
                sub.add_argument(option.flag, dest=option.dest, type=option.type, help=option.help)
    return parser


def _read_config(path: str) -> dict[str, Any]:
    try:
        loaded = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}") from exc
    source = loaded.get("options", loaded) if isinstance(loaded, dict) else loaded
    if not isinstance(source, dict):
        raise ValueError(f"config {path!r} must hold a JSON object")
    return source


def _resolve_options(args: argparse.Namespace) -> dict[str, Any]:
    """Layer defaults < config file < explicit flags, coerce each value; resolve the seed."""
    config = _read_config(args.config) if args.config else {}
    for key, default in _REMOVED.items():
        if config.get(key, default) is not default:
            raise ValueError(f"config key {key!r} was removed; only {json.dumps(default)} "
                             f"is accepted, got {json.dumps(config[key])}")
    options = {}
    for option in _options_of(args.subcommand):
        value = getattr(args, option.dest)
        if value is None:
            value = config.get(option.dest, option.default)
        options[option.dest] = _coerce(option, value)
    if "seed" in options and options["seed"] is None:
        env_seed = os.environ.get(SEED_ENV_VAR, "0")
        try:
            options["seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from None
    return options


def _require_params(options: dict[str, Any]) -> ModelParams:
    missing = [flag for flag in ("m", "c", "k") if options[flag] is None]
    if missing:
        raise ValueError(f"missing required parameter flags: {', '.join('-' + f for f in missing)}")
    return ModelParams(m=options["m"], c=options["c"], k=options["k"])


def _sim_config(options: dict[str, Any]) -> SimConfig:
    return SimConfig(t_end=options["T"], m_steps=options["M"], seed=options["seed"])


def _prepare_out(options: dict[str, Any]) -> Path | None:
    if options["out"] is None:
        return None
    out_dir = Path(options["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_manifest(out_dir: Path, subcommand: str, options: dict[str, Any]) -> None:
    manifest = {
        "subcommand": subcommand,
        "params": {"m": options["m"], "c": options["c"], "k": options["k"]},
        "options": options,
        "seed": options.get("seed"),
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _equilibrium_payload(params: ModelParams) -> list[dict[str, Any]]:
    payload = []
    for equilibrium in find_equilibria(params):
        payload.append(
            {
                "kind": equilibrium.kind.value,
                "point": [equilibrium.point.n, equilibrium.point.p],
                "classification": equilibrium.classification.value,
                "eigenvalues": [[lam.real, lam.imag] for lam in equilibrium.eigenvalues],
            }
        )
    return payload


def _cmd_analyze(params: ModelParams, x0: None, options: dict[str, Any]) -> int:
    verdict = extinction_check(params)
    result: dict[str, Any] = {
        "params": {"m": params.m, "c": params.c, "k": params.k},
        "equilibria": _equilibrium_payload(params),
        "coexistence_exists": coexistence_exists(params),
        "extinction": {"outcome": verdict.outcome.value, "rationale": verdict.rationale},
    }
    if params.m > params.c:
        result["hopf_k"] = hopf_threshold(params.m, params.c)
    else:
        result["hopf_k"] = None
    if coexistence_exists(params):
        lhs, rhs = trace_identity_check(params)
        result["trace_identity"] = {"lhs": lhs, "rhs": rhs}
    else:
        result["trace_identity"] = None
    text = json.dumps(result, indent=2, sort_keys=True)
    print(text)
    out_dir = _prepare_out(options)
    if out_dir is not None:
        (out_dir / "analyze.json").write_text(text + "\n")
    return 0


def _cmd_simulate_ode(params: ModelParams, x0: State, options: dict[str, Any]) -> int:
    tail_fraction = options["tail_fraction"]
    if not (0.0 < tail_fraction <= 0.5):
        raise ValueError(f"--tail-fraction must lie in (0, 0.5], got {tail_fraction!r}")
    traj = integrate(params, x0, options["T"], options["dt"])
    if len(traj) >= ode._MIN_SAMPLES:
        verdict = detect_asymptotics(traj, tail_fraction)
        print(f"long-run verdict: {verdict.kind.value} {verdict.diagnostics}")
    out_dir = _prepare_out(options)
    if out_dir is not None:
        _write_states(out_dir / "trajectory.csv", traj.times, traj.states)
        if options["svg"]:
            title = f"m={params.m:g} c={params.c:g} k={params.k:g}"
            (out_dir / "trajectory.svg").write_text(_density_chart(traj.times, traj.states, title))
    return 0


def _cmd_phase_portrait(params: ModelParams, x0: State, options: dict[str, Any]) -> int:
    # The float-max cap keeps an explicit --grid usable at any finite k.
    reach = min(1.5 * max(params.k, 1.0), sys.float_info.max)
    spec = _grid_option(options, GridSpec(0.0, reach, 0.0, reach, 20))
    field = vector_field_grid(params, spec)
    traj = integrate(params, x0, options["T"], options["dt"])
    out_dir = _prepare_out(options)
    if out_dir is not None:
        _write_csv(out_dir / "field.csv", dict(zip(("N", "P", "dN", "dP"), field.T)))
        _write_states(out_dir / "trajectory.csv", traj.times, traj.states)
        if options["svg"]:
            markers = []
            glyph_by_class = {"sink": "disc", "source": "circle"}
            for equilibrium in find_equilibria(params):
                glyph = glyph_by_class.get(equilibrium.classification.value, "cross")
                markers.append((equilibrium.point.n, equilibrium.point.p, glyph))
            chart = phase_portrait(
                field,
                [(traj.states[:, 0], traj.states[:, 1])],
                markers,
                bounds=(spec.n_min, spec.n_max, spec.p_min, spec.p_max),
                title=f"m={params.m:g} c={params.c:g} k={params.k:g}",
            )
            (out_dir / "portrait.svg").write_text(chart)
    return 0


def _cmd_simulate_sde(params: ModelParams, x0: State, options: dict[str, Any]) -> int:
    cfg = _sim_config(options)
    path = simulate_path(params, x0, cfg, stream_index=options["stream"])
    print(f"clamp events: {path.clamp_events}")
    out_dir = _prepare_out(options)
    if out_dir is not None:
        _write_states(out_dir / "path.csv", path.times, path.states)
        if options["svg"]:
            title = f"seed={cfg.seed} stream={path.stream_index}"
            (out_dir / "path.svg").write_text(_density_chart(path.times, path.states, title))
    return 0


def _ensemble_charts(stats: EnsembleStats, out_dir: Path) -> None:
    for tag, mean, lower, upper in (
        ("n", stats.mean_n, stats.band_lower_n, stats.band_upper_n),
        ("p", stats.mean_p, stats.band_lower_p, stats.band_upper_p),
    ):
        color = "#1f77b4" if tag == "n" else "#d62728"
        chart = line_chart(
            stats.times,
            [
                {"y": mean, "label": f"mean {tag}", "color": color, "width": 1.9},
                {"y": lower, "label": "band low", "color": color, "width": 1.0, "dash": "5,4"},
                {"y": upper, "label": "band high", "color": color, "width": 1.0, "dash": "5,4"},
            ],
            title=f"{stats.runs} runs, seed {stats.seed}",
            y_label=f"{tag} density",
        )
        (out_dir / f"ensemble_{tag}.svg").write_text(chart)


def _cmd_ensemble(params: ModelParams, x0: State, options: dict[str, Any]) -> int:
    save_paths, runs = options["save_paths"], options["runs"]
    if save_paths < 0:
        raise ValueError(f"--save-paths must be >= 0, got {save_paths}")
    # Path j replays stream j of the ensemble; fewer than 2 runs fail in run_ensemble.
    if save_paths > runs >= 2:
        raise ValueError(f"--save-paths must be <= --runs ({runs}), got {save_paths}")
    cfg = _sim_config(options)
    stats = run_ensemble(
        params, x0, cfg, runs, stride=options["stride"], workers=options["workers"]
    )
    print(f"runs: {runs}  clamp events: {stats.clamp_events_total}")
    out_dir = _prepare_out(options)
    if out_dir is not None:
        _write_csv(out_dir / "ensemble.csv", {
            "t": stats.times, "mean_N": stats.mean_n, "var_N": stats.var_n,
            "band_lo_N": stats.band_lower_n, "band_hi_N": stats.band_upper_n,
            "mean_P": stats.mean_p, "var_P": stats.var_p,
            "band_lo_P": stats.band_lower_p, "band_hi_P": stats.band_upper_p,
        })
        for stream in range(save_paths):
            path = simulate_path(params, x0, cfg, stream_index=stream)
            _write_states(out_dir / f"path_{stream:04d}.csv", path.times, path.states)
        if options["svg"]:
            _ensemble_charts(stats, out_dir)
    return 0


def _cmd_verify(params: ModelParams, x0: State, options: dict[str, Any]) -> int:
    alpha = options["alpha"]
    orders = _parse_orders(options["p_orders"])
    generator_grid = _grid_option(options, DEFAULT_GENERATOR_GRID)
    monotonicity_grid = _grid_option(options, DEFAULT_MONOTONICITY_GRID)
    reports = [
        check_generator_inequality(params, alpha, generator_grid),
        check_monotonicity(params, monotonicity_grid),
    ]
    series_list, proxies = ensemble_moments(
        params,
        x0,
        _sim_config(options),
        options["runs"],
        orders,
        t_min=options["t_min"],
        stride=options["stride"],
        workers=options["workers"],
    )
    reports.extend(check_moment_bound(series, params, x0) for series in series_list)
    proxy_bound = monotonicity_constant(params)
    worst_proxy = float(proxies.max())
    proxy_passed = bool(worst_proxy <= proxy_bound)
    constants = bound_constants(params, p=max(max(orders), 2.0), alpha=alpha)
    result = {
        "params": {"m": params.m, "c": params.c, "k": params.k},
        "alpha": alpha,
        "constants": asdict(constants),
        "checks": [_report_dict(report) for report in reports],
        "growth_proxy": {
            "bound": proxy_bound,
            "worst": worst_proxy,
            "worst_stream": int(proxies.argmax()),
            "passed": proxy_passed,
        },
        "all_passed": proxy_passed and all(report.passed for report in reports),
    }
    if worst_proxy == -math.inf:  # log 0: every path sits at the origin from t_min on
        result["growth_proxy"].update(worst=None, note="every path is at the origin for t >= t_min")
    text = json.dumps(result, indent=2, sort_keys=True, allow_nan=False)
    print(text)
    out_dir = _prepare_out(options)
    if out_dir is not None:
        (out_dir / "verify.json").write_text(text + "\n")
    if not result["all_passed"]:
        for report in reports:
            if not report.passed:
                where = report.worst_point if report.worst_point is not None else report.worst_time
                print(
                    f"FAILED {report.inequality_name}: slack {report.worst_slack:.6g} at {where}",
                    file=sys.stderr,
                )
        if not proxy_passed:
            print(
                f"FAILED growth_proxy: {worst_proxy:.6g} > bound {proxy_bound:.6g}",
                file=sys.stderr,
            )
        return 1
    return 0


_COMMANDS = {
    "analyze": (_cmd_analyze, "equilibria, stability, extinction verdict"),
    "simulate-ode": (_cmd_simulate_ode, "deterministic trajectory"),
    "phase-portrait": (_cmd_phase_portrait, "vector field plus trajectory"),
    "simulate-sde": (_cmd_simulate_sde, "one demographic-noise path"),
    "ensemble": (_cmd_ensemble, "Monte Carlo mean/variance bands"),
    "verify": (_cmd_verify, "certify growth bounds; exit 1 on failure"),
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        options = _resolve_options(args)
        params = _require_params(options)
        x0 = _parse_x0(options["x0"]) if "x0" in options else None
        code = _COMMANDS[args.subcommand][0](params, x0, options)
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()
        if options["out"] is not None:  # last: a directory without it holds an incomplete run
            _write_manifest(Path(options["out"]), args.subcommand, options)
        return code
    except (ValueError, BlowupError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:  # a closed stdout, an unusable --out, a file that cannot be written
        broken_pipe = isinstance(exc, BrokenPipeError)
        if broken_pipe:  # the reader left: point fd 1 at devnull so the flush at exit is silent
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        where = "stdout" if broken_pipe else exc.filename or "output"
        print(f"error: cannot write {where}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
