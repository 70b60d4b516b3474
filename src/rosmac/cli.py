"""Command-line front end.

Subcommands
    analyze         equilibrium structure, stability, extinction verdict (JSON)
    simulate-ode    deterministic trajectory -> CSV (+ SVG)
    phase-portrait  vector field + trajectory -> CSV pair (+ SVG)
    simulate-sde    one noisy path -> CSV (+ SVG)
    ensemble        Monte Carlo mean/variance/bands -> CSV (+ SVG)
    verify          growth-bound certification -> JSON, exit 1 on failure

Every option is one row of OPTIONS: its config key, flag, type, default, help
and the subcommands that take it.  The row drives the argparse flag (spelled
in full: no prefix of it is taken), the --config merge (the same names, strict
JSON types), the one coercion step in _resolve_options and the manifest; no
environment variable sets an option.  Every file-writing run drops a
manifest.json echoing the subcommand's resolved options; feeding it back
through --config replays the run byte-for-byte (the manifest itself differs
only in its timestamp).  Config keys the subcommand does not take are
ignored, but a removed option's key (_REMOVED) only at its old default, of its
JSON type.  main resolves what every subcommand shares and writes the
manifest last, so a --out directory without one holds an incomplete run.
Exit codes: 0 success, 1 failed verification (verify only), 2 usage or
validation error, a closed stdout or an output file that cannot be written,
reported as a single "error:" line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
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
    check_generator_inequality,
    check_moment_bound,
    check_monotonicity,
    lyapunov_constant,
    moment_constant,
    monotonicity_constant,
)

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
    Option("grid", "--grid", str, None, "bounds 'NMIN,NMAX,PMIN,PMAX'", _GRID),
    Option("res", "--res", int, None, "grid resolution per axis (20; verify 200)", _GRID),
    Option("M", "-M", int, DESK_STEPS, "number of steps", _NOISY),
    Option("runs", "--runs", int, 2000, "number of paths", _ENSEMBLE),
    Option("seed", "--seed", int, 0, "noise seed", _NOISY),
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
_REMOVED = {"zero_noise": False, "c_override": None, "tail_fraction": 0.25}

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


def _write_csv(path: Path, columns: dict[str, Any]) -> None:
    """Write named, equal-length columns as csv.writer would with format(x, ".17g")
    cells: one %-operation per block of rows, on a stack of that block's column slices.

    The trailing rows whose cells after the first are all +0.0 (an absorbed path's
    tail) are formatted from their first cell alone: "%.17g" % 0.0 is "0".  A -0.0
    prints "-0", so a row holding one is not part of that tail.
    """
    first, *rest = [np.asarray(column, dtype=float) for column in columns.values()]
    tail = np.ones(len(first), dtype=bool)
    for column in rest:  # +0.0 is the one float whose bits are all zero
        tail &= column.view(np.uint64) == 0
    end = 0 if tail.all() else len(tail) - int(tail[::-1].argmin())
    with path.open("wb") as handle:
        handle.write((",".join(columns) + "\r\n").encode("ascii"))
        for lo, hi, cells in ((0, end, [first, *rest]), (end, len(first), [first])):
            row = ",".join(["%.17g"] * len(cells) + ["0"] * (len(columns) - len(cells))) + "\r\n"
            for start in range(lo, hi, _CSV_BLOCK_ROWS):
                block = np.column_stack([cell[start:hi][:_CSV_BLOCK_ROWS] for cell in cells])
                handle.write((row * len(block) % tuple(block.ravel().tolist())).encode("ascii"))


def _write_states(path: Path, traj: ode.Trajectory) -> None:
    _write_csv(path, {"t": traj.times, "N": traj.states[:, 0], "P": traj.states[:, 1]})


def _density_chart(traj: ode.Trajectory, title: str) -> str:
    return line_chart(
        traj.times,
        [
            {"y": traj.states[:, 0], "label": "prey n", "color": "#1f77b4"},
            {"y": traj.states[:, 1], "label": "predator p", "color": "#d62728"},
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
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"rosmac {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text, allow_abbrev=False)
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
    """Layer defaults < config file < explicit flags and coerce each value."""
    config = _read_config(args.config) if args.config else {}
    for key, default in _REMOVED.items():
        value = config.get(key, default)
        if not (type(value) is type(default) and value == default):  # JSON 0 is no false
            raise ValueError(f"config key {key!r} was removed; only {json.dumps(default)} "
                             f"is accepted, got {json.dumps(config[key])}")
    options = {}
    for option in _options_of(args.subcommand):
        value = getattr(args, option.dest)
        if value is None:
            value = config.get(option.dest, option.default)
        options[option.dest] = _coerce(option, value)
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
    result["hopf_k"] = hopf_threshold(params.m, params.c) if params.m > params.c else None
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
    traj = integrate(params, x0, options["T"], options["dt"])
    if len(traj) >= ode._MIN_SAMPLES:
        verdict = detect_asymptotics(traj)
        print(f"long-run verdict: {verdict.kind.value} {verdict.diagnostics}")
    out_dir = _prepare_out(options)
    if out_dir is not None:
        _write_states(out_dir / "trajectory.csv", traj)
        if options["svg"]:
            title = f"m={params.m:g} c={params.c:g} k={params.k:g}"
            (out_dir / "trajectory.svg").write_text(_density_chart(traj, title))
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
        _write_states(out_dir / "trajectory.csv", traj)
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
    print(f"clamp events: {path.clamp_count}")
    out_dir = _prepare_out(options)
    if out_dir is not None:
        _write_states(out_dir / "path.csv", path)
        if options["svg"]:
            title = f"seed={cfg.seed} stream={options['stream']}"
            (out_dir / "path.svg").write_text(_density_chart(path, title))
    return 0


def _ensemble_charts(stats: EnsembleStats, title: str, out_dir: Path) -> None:
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
            title=title,
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
            _write_states(out_dir / f"path_{stream:04d}.csv", simulate_path(params, x0, cfg, stream))
        if options["svg"]:
            _ensemble_charts(stats, f"{runs} runs, seed {cfg.seed}", out_dir)
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
    p = max(max(orders), 2.0)
    result = {
        "params": {"m": params.m, "c": params.c, "k": params.k},
        "alpha": alpha,
        "constants": {"c_mono": proxy_bound, "c_moment_p": moment_constant(params, p),
                      "c_lyap": lyapunov_constant(params, alpha), "p": p, "alpha": alpha},
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
