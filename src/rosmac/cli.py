"""Command-line front end.

Subcommands
    analyze         equilibrium structure, stability, extinction verdict (JSON)
    simulate-ode    deterministic trajectory -> CSV (+ SVG)
    phase-portrait  vector field + trajectory -> CSV pair (+ SVG)
    simulate-sde    one noisy path -> CSV (+ SVG)
    ensemble        Monte Carlo mean/variance/bands -> CSV (+ SVG)
    verify          growth-bound certification -> JSON, exit 1 on failure

Every file-writing run drops a manifest.json echoing the resolved options;
feeding it back through --config replays the run byte-for-byte (the manifest
itself differs only in its timestamp).  Exit codes: 0 success, 1 failed
verification, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

from . import __version__
from .ensemble import EnsembleStats, ensemble_moments, run_ensemble
from .equilibria import (
    coexistence_exists,
    extinction_check,
    find_equilibria,
    hopf_threshold,
    trace_identity_check,
)
from .model import ModelParams, State
from .ode import detect_asymptotics, integrate, vector_field_grid
from .sde import DESK_STEPS, SimConfig, simulate_path
from .svgplot import line_chart, phase_portrait
from .verification import (
    DEFAULT_GENERATOR_GRID,
    DEFAULT_MONOTONICITY_GRID,
    GridSpec,
    VerificationReport,
    bound_constants,
    check_generator_inequality,
    check_moment_bound,
    check_monotonicity,
    monotonicity_constant,
)

SEED_ENV_VAR = "RM_SEED"

_COMMON_DEFAULTS: dict[str, Any] = {
    "m": None,
    "c": None,
    "k": None,
    "x0": "1,0.6",
    "T": 10.0,
    "M": DESK_STEPS,
    "runs": 2000,
    "seed": None,
    "dt": 1e-3,
    "alpha": 3.0,
    "grid": None,
    "res": None,
    "out": None,
    "svg": False,
    "stride": 1,
    "zero_noise": False,
    "workers": 1,
    "stream": 0,
    "save_paths": 0,
    "p_orders": "1,2,4",
    "t_min": 1.0,
    "c_override": None,
    "tail_fraction": 0.25,
}


class UsageError(Exception):
    """Bad flags or invalid values; maps to exit code 2."""


def _parse_x0(text: str) -> State:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--x0 expects 'N,P', got {text!r}")
    try:
        n, p = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise UsageError(f"--x0 expects numbers, got {text!r}") from exc
    if n < 0.0 or p < 0.0:
        raise UsageError(f"--x0 must lie in the closed quadrant, got {text!r}")
    return State(n, p)


def _parse_grid(text: str, resolution: int) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--grid expects 'NMIN,NMAX,PMIN,PMAX', got {text!r}")
    try:
        n_min, n_max, p_min, p_max = (float(part) for part in parts)
    except ValueError as exc:
        raise UsageError(f"--grid expects numbers, got {text!r}") from exc
    try:
        return GridSpec(n_min, n_max, p_min, p_max, resolution)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_orders(text: str) -> list[float]:
    try:
        orders = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"--p expects comma-separated numbers, got {text!r}") from exc
    if not orders or any(order <= 0.0 for order in orders):
        raise UsageError(f"--p expects positive orders, got {text!r}")
    return orders


def _format_value(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_value(cell) for cell in row])


def _report_dict(report: VerificationReport) -> dict[str, Any]:
    payload = asdict(report)
    if report.grid is not None:
        payload["grid"] = asdict(report.grid)
    return payload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosmac",
        description="Predator-prey dynamics: analysis, simulation, certification.",
    )
    parser.add_argument("--version", action="version", version=f"rosmac {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sub: argparse.ArgumentParser, *, needs_params: bool = True) -> None:
        sub.add_argument("--config", type=str, default=None, help="JSON file of option defaults (flags win)")
        if needs_params:
            sub.add_argument("-m", type=float, default=None, help="interaction strength")
            sub.add_argument("-c", type=float, default=None, help="predator death rate")
            sub.add_argument("-k", type=float, default=None, help="prey capacity")
        sub.add_argument("--out", type=str, default=None, help="output directory")

    sub = subparsers.add_parser("analyze", help="equilibria, stability, extinction verdict")
    add_common(sub)

    sub = subparsers.add_parser("simulate-ode", help="deterministic trajectory")
    add_common(sub)
    sub.add_argument("--x0", type=str, default=None, help="initial state 'N,P'")
    sub.add_argument("--dt", type=float, default=None, help="integration step")
    sub.add_argument("-T", type=float, default=None, help="end time")
    sub.add_argument("--tail-fraction", type=float, default=None, dest="tail_fraction",
                     help="trailing fraction inspected for the long-run verdict")
    sub.add_argument("--svg", action="store_const", const=True, default=None, help="emit SVG plots")

    sub = subparsers.add_parser("phase-portrait", help="vector field plus trajectory")
    add_common(sub)
    sub.add_argument("--x0", type=str, default=None, help="initial state 'N,P'")
    sub.add_argument("--dt", type=float, default=None, help="integration step")
    sub.add_argument("-T", type=float, default=None, help="end time")
    sub.add_argument("--grid", type=str, default=None, help="bounds 'NMIN,NMAX,PMIN,PMAX'")
    sub.add_argument("--res", type=int, default=None, help="grid resolution per axis")
    sub.add_argument("--svg", action="store_const", const=True, default=None, help="emit SVG plots")

    sub = subparsers.add_parser("simulate-sde", help="one demographic-noise path")
    add_common(sub)
    sub.add_argument("--x0", type=str, default=None, help="initial state 'N,P'")
    sub.add_argument("-T", type=float, default=None, help="end time")
    sub.add_argument("-M", type=int, default=None, help="number of steps")
    sub.add_argument("--seed", type=int, default=None, help="noise seed (env RM_SEED as fallback)")
    sub.add_argument("--stream", type=int, default=None, help="noise stream index")
    sub.add_argument("--zero-noise", action="store_const", const=True, default=None,
                     dest="zero_noise", help="suppress noise (debug hook)")
    sub.add_argument("--svg", action="store_const", const=True, default=None, help="emit SVG plots")

    sub = subparsers.add_parser("ensemble", help="Monte Carlo mean/variance bands")
    add_common(sub)
    sub.add_argument("--x0", type=str, default=None, help="initial state 'N,P'")
    sub.add_argument("-T", type=float, default=None, help="end time")
    sub.add_argument("-M", type=int, default=None, help="number of steps")
    sub.add_argument("--runs", type=int, default=None, help="number of paths")
    sub.add_argument("--seed", type=int, default=None, help="noise seed (env RM_SEED as fallback)")
    sub.add_argument("--stride", type=int, default=None, help="record every stride-th step")
    sub.add_argument("--workers", type=int, default=None, help="worker threads (no effect on results)")
    sub.add_argument("--save-paths", type=int, default=None, dest="save_paths",
                     help="also write the first K individual paths")
    sub.add_argument("--zero-noise", action="store_const", const=True, default=None,
                     dest="zero_noise", help="suppress noise (debug hook)")
    sub.add_argument("--svg", action="store_const", const=True, default=None, help="emit SVG plots")

    sub = subparsers.add_parser("verify", help="certify growth bounds; exit 1 on failure")
    add_common(sub)
    sub.add_argument("--x0", type=str, default=None, help="initial state 'N,P'")
    sub.add_argument("--alpha", type=float, default=None, help="test-function exponent (> 2)")
    sub.add_argument("--grid", type=str, default=None, help="bounds 'NMIN,NMAX,PMIN,PMAX'")
    sub.add_argument("--res", type=int, default=None, help="grid resolution per axis")
    sub.add_argument("-T", type=float, default=None, help="ensemble end time")
    sub.add_argument("-M", type=int, default=None, help="ensemble steps")
    sub.add_argument("--runs", type=int, default=None, help="ensemble paths")
    sub.add_argument("--seed", type=int, default=None, help="noise seed (env RM_SEED as fallback)")
    sub.add_argument("--stride", type=int, default=None, help="record every stride-th step")
    sub.add_argument("--workers", type=int, default=None, help="worker threads (no effect on results)")
    sub.add_argument("--p", type=str, default=None, dest="p_orders",
                     help="comma-separated moment orders to check")
    sub.add_argument("--t-min", type=float, default=None, dest="t_min",
                     help="left end of the growth-proxy window")
    sub.add_argument("--c-override", type=float, default=None, dest="c_override",
                     help="substitute constant for the grid checks (testing hook)")
    return parser


def _resolve_options(args: argparse.Namespace) -> dict[str, Any]:
    """Layer defaults < config file < explicit flags; resolve the seed."""
    options = dict(_COMMON_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {config_path!r}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"config {config_path!r} must hold a JSON object")
        source = loaded.get("options", loaded)
        for key, value in source.items():
            if key in options:
                options[key] = value
    for key in options:
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    if options["seed"] is None:
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            try:
                options["seed"] = int(env_seed)
            except ValueError as exc:
                raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from exc
        else:
            options["seed"] = 0
    return options


def _require_params(options: dict[str, Any]) -> ModelParams:
    missing = [flag for flag in ("m", "c", "k") if options[flag] is None]
    if missing:
        raise UsageError(f"missing required parameter flags: {', '.join('-' + f for f in missing)}")
    try:
        return ModelParams(m=float(options["m"]), c=float(options["c"]), k=float(options["k"]))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


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
        "options": {key: options[key] for key in sorted(options)},
        "seed": options["seed"],
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


def _cmd_analyze(options: dict[str, Any]) -> int:
    params = _require_params(options)
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
        _write_manifest(out_dir, "analyze", options)
    return 0


def _cmd_simulate_ode(options: dict[str, Any]) -> int:
    params = _require_params(options)
    x0 = _parse_x0(options["x0"])
    try:
        tail_fraction = float(options["tail_fraction"])
        if not (0.0 < tail_fraction <= 0.5):
            raise ValueError(f"--tail-fraction must lie in (0, 0.5], got {tail_fraction!r}")
        traj = integrate(params, x0, float(options["T"]), float(options["dt"]))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    verdict = None
    if len(traj) >= 1000:
        verdict = detect_asymptotics(traj, tail_fraction)
        print(f"long-run verdict: {verdict.kind.value} {verdict.diagnostics}")
    out_dir = _prepare_out(options)
    if out_dir is not None:
        _write_csv(
            out_dir / "trajectory.csv",
            ("t", "N", "P"),
            zip(traj.times, traj.states[:, 0], traj.states[:, 1]),
        )
        if options["svg"]:
            chart = line_chart(
                traj.times,
                [
                    {"y": traj.states[:, 0], "label": "prey n", "color": "#1f77b4"},
                    {"y": traj.states[:, 1], "label": "predator p", "color": "#d62728"},
                ],
                title=f"m={params.m:g} c={params.c:g} k={params.k:g}",
                y_label="density",
            )
            (out_dir / "trajectory.svg").write_text(chart)
        _write_manifest(out_dir, "simulate-ode", options)
    return 0


def _cmd_phase_portrait(options: dict[str, Any]) -> int:
    params = _require_params(options)
    x0 = _parse_x0(options["x0"])
    resolution = int(options["res"]) if options["res"] is not None else 20
    if options["grid"] is not None:
        spec = _parse_grid(options["grid"], resolution)
    else:
        reach = 1.5 * max(params.k, 1.0)
        spec = GridSpec(0.0, reach, 0.0, reach, resolution)
    try:
        samples = vector_field_grid(
            params, spec.n_min, spec.n_max, spec.p_min, spec.p_max, spec.resolution
        )
        traj = integrate(params, x0, float(options["T"]), float(options["dt"]))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out_dir = _prepare_out(options)
    if out_dir is not None:
        _write_csv(
            out_dir / "field.csv",
            ("N", "P", "dN", "dP"),
            ((x.n, x.p, d.dn, d.dp) for x, d in samples),
        )
        _write_csv(
            out_dir / "trajectory.csv",
            ("t", "N", "P"),
            zip(traj.times, traj.states[:, 0], traj.states[:, 1]),
        )
        if options["svg"]:
            markers = []
            glyph_by_class = {"sink": "disc", "source": "circle"}
            for equilibrium in find_equilibria(params):
                glyph = glyph_by_class.get(equilibrium.classification.value, "cross")
                markers.append((equilibrium.point.n, equilibrium.point.p, glyph))
            chart = phase_portrait(
                [(x.n, x.p, d.dn, d.dp) for x, d in samples],
                [(traj.states[:, 0], traj.states[:, 1])],
                markers,
                bounds=(spec.n_min, spec.n_max, spec.p_min, spec.p_max),
                title=f"m={params.m:g} c={params.c:g} k={params.k:g}",
            )
            (out_dir / "portrait.svg").write_text(chart)
        _write_manifest(out_dir, "phase-portrait", options)
    return 0


def _cmd_simulate_sde(options: dict[str, Any]) -> int:
    params = _require_params(options)
    x0 = _parse_x0(options["x0"])
    try:
        cfg = SimConfig(
            t_end=float(options["T"]),
            m_steps=int(options["M"]),
            seed=int(options["seed"]),
            zero_noise=bool(options["zero_noise"]),
        )
        path = simulate_path(params, x0, cfg, stream_index=int(options["stream"]))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"clamp events: {path.clamp_events}")
    out_dir = _prepare_out(options)
    if out_dir is not None:
        _write_csv(
            out_dir / "path.csv",
            ("t", "N", "P"),
            zip(path.times, path.states[:, 0], path.states[:, 1]),
        )
        if options["svg"]:
            chart = line_chart(
                path.times,
                [
                    {"y": path.states[:, 0], "label": "prey n", "color": "#1f77b4"},
                    {"y": path.states[:, 1], "label": "predator p", "color": "#d62728"},
                ],
                title=f"seed={cfg.seed} stream={path.stream_index}",
                y_label="density",
            )
            (out_dir / "path.svg").write_text(chart)
        _write_manifest(out_dir, "simulate-sde", options)
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


def _cmd_ensemble(options: dict[str, Any]) -> int:
    params = _require_params(options)
    x0 = _parse_x0(options["x0"])
    try:
        runs = int(options["runs"])
        save_paths = int(options["save_paths"])
        cfg = SimConfig(
            t_end=float(options["T"]),
            m_steps=int(options["M"]),
            seed=int(options["seed"]),
            zero_noise=bool(options["zero_noise"]),
        )
        stats = run_ensemble(
            params,
            x0,
            cfg,
            runs,
            stride=int(options["stride"]),
            workers=int(options["workers"]),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"runs: {runs}  clamp events: {stats.clamp_events_total}")
    out_dir = _prepare_out(options)
    if out_dir is not None:
        _write_csv(
            out_dir / "ensemble.csv",
            (
                "t",
                "mean_N",
                "var_N",
                "band_lo_N",
                "band_hi_N",
                "mean_P",
                "var_P",
                "band_lo_P",
                "band_hi_P",
            ),
            zip(
                stats.times,
                stats.mean_n,
                stats.var_n,
                stats.band_lower_n,
                stats.band_upper_n,
                stats.mean_p,
                stats.var_p,
                stats.band_lower_p,
                stats.band_upper_p,
            ),
        )
        for stream in range(save_paths):
            path = simulate_path(params, x0, cfg, stream_index=stream)
            _write_csv(
                out_dir / f"path_{stream:04d}.csv",
                ("t", "N", "P"),
                zip(path.times, path.states[:, 0], path.states[:, 1]),
            )
        if options["svg"]:
            _ensemble_charts(stats, out_dir)
        _write_manifest(out_dir, "ensemble", options)
    return 0


def _cmd_verify(options: dict[str, Any]) -> int:
    params = _require_params(options)
    x0 = _parse_x0(options["x0"])
    alpha = float(options["alpha"])
    orders = _parse_orders(options["p_orders"])
    resolution = int(options["res"]) if options["res"] is not None else 200
    if options["grid"] is not None:
        generator_grid = _parse_grid(options["grid"], resolution)
        monotonicity_grid = generator_grid
    else:
        generator_grid = GridSpec(
            DEFAULT_GENERATOR_GRID.n_min,
            DEFAULT_GENERATOR_GRID.n_max,
            DEFAULT_GENERATOR_GRID.p_min,
            DEFAULT_GENERATOR_GRID.p_max,
            resolution,
        )
        monotonicity_grid = GridSpec(
            DEFAULT_MONOTONICITY_GRID.n_min,
            DEFAULT_MONOTONICITY_GRID.n_max,
            DEFAULT_MONOTONICITY_GRID.p_min,
            DEFAULT_MONOTONICITY_GRID.p_max,
            resolution,
        )
    override = options["c_override"]
    try:
        reports = [
            check_generator_inequality(params, alpha, generator_grid, c_override=override),
            check_monotonicity(params, monotonicity_grid, c_override=override),
        ]
        cfg = SimConfig(
            t_end=float(options["T"]),
            m_steps=int(options["M"]),
            seed=int(options["seed"]),
            zero_noise=bool(options["zero_noise"]),
        )
        series_list, proxies = ensemble_moments(
            params,
            x0,
            cfg,
            int(options["runs"]),
            orders,
            t_min=float(options["t_min"]),
            stride=int(options["stride"]),
            workers=int(options["workers"]),
        )
        reports.extend(check_moment_bound(series, params, x0, series.p) for series in series_list)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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
    text = json.dumps(result, indent=2, sort_keys=True)
    print(text)
    out_dir = _prepare_out(options)
    if out_dir is not None:
        (out_dir / "verify.json").write_text(text + "\n")
        _write_manifest(out_dir, "verify", options)
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
    "analyze": _cmd_analyze,
    "simulate-ode": _cmd_simulate_ode,
    "phase-portrait": _cmd_phase_portrait,
    "simulate-sde": _cmd_simulate_sde,
    "ensemble": _cmd_ensemble,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        options = _resolve_options(args)
        return _COMMANDS[args.subcommand](options)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
