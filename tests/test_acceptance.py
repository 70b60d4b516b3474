"""End-to-end acceptance checks.

Each test covers one numbered criterion, keeps its stated tolerance, and
prints a single PASS line with the measured quantities (visible with -rP or
on failure).  Wall-clock budgets are asserted so regressions in speed fail
loudly rather than silently degrading the toolkit.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from rosmac import (
    AsymptoticKind,
    ModelParams,
    SimConfig,
    Stability,
    State,
    check_generator_inequality,
    check_moment_bound,
    check_monotonicity,
    coexistence_exists,
    coexistence_point,
    detect_asymptotics,
    drift,
    ensemble_moments,
    find_equilibria,
    hopf_threshold,
    integrate,
    lyapunov_constant,
    monotonicity_constant,
    run_ensemble,
    trace_identity_check,
)
from rosmac.cli import main

from conftest import CYCLE_PARAMS, SINK_PARAMS, START

CYCLE_FLAGS = ["-m", "3", "-c", "1", "-k", "3"]


def _verdict(number: int, passed: bool, detail: str) -> None:
    line = f"criterion {number:02d}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def _elapsed_ok(number: int, seconds: float, budget: float) -> None:
    assert seconds < budget, f"criterion {number:02d} took {seconds:.1f}s, budget {budget}s"


def test_criterion_01_equilibrium_exactness():
    """Closed-form equilibria null the drift to 1e-12; K3 exact to 1e-15."""
    t0 = time.perf_counter()
    worst = 0.0
    for params in (CYCLE_PARAMS, SINK_PARAMS):
        for eq in find_equilibria(params):
            residual = drift(params, eq.point)
            worst = max(worst, abs(residual.dn), abs(residual.dp))
    inner_cycle = coexistence_point(CYCLE_PARAMS)
    inner_sink = coexistence_point(SINK_PARAMS)
    exact = (
        abs(inner_cycle.n - 0.5) < 1e-15
        and abs(inner_cycle.p - 5.0 / 12.0) < 1e-15
        and abs(inner_sink.n - 0.5) < 1e-15
        and abs(inner_sink.p - 1.0 / 3.0) < 1e-15
    )
    elapsed = time.perf_counter() - t0
    _elapsed_ok(1, elapsed, 1.0)
    _verdict(
        1,
        worst <= 1e-12 and exact,
        f"worst residual {worst:.3e} <= 1e-12, interior points exact to 1e-15",
    )


def test_criterion_02_classification_law():
    """1000 random draws: labels match the linearization sign rules."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    lo, hi = math.log(0.1), math.log(10.0)
    kept = 0
    agreements = 0
    for _ in range(1000):
        m, c, k = (float(v) for v in np.exp(rng.uniform(lo, hi, size=3)))
        params = ModelParams(m=m, c=c, k=k)
        gain_margin = m * k / (1.0 + k) - c
        if abs(gain_margin) < 1e-4:
            continue
        if m > c:
            if abs(k * (m - c) - c) < 1e-4:
                continue
            if abs(k - hopf_threshold(m, c)) < 1e-4:
                continue
        kept += 1
        equilibria = find_equilibria(params)
        ok = equilibria[0].classification is Stability.SADDLE
        expected_prey = Stability.SADDLE if gain_margin > 0.0 else Stability.SINK
        ok = ok and equilibria[1].classification is expected_prey
        if coexistence_exists(params):
            expected_inner = (
                Stability.SOURCE if k > hopf_threshold(m, c) else Stability.SINK
            )
            ok = ok and len(equilibria) == 3
            ok = ok and equilibria[2].classification is expected_inner
        else:
            ok = ok and len(equilibria) == 2
        ok = ok and all(
            eq.classification is not Stability.NON_HYPERBOLIC for eq in equilibria
        )
        agreements += ok
    elapsed = time.perf_counter() - t0
    _elapsed_ok(2, elapsed, 5.0)
    _verdict(
        2,
        kept >= 950 and agreements == kept,
        f"{agreements}/{kept} draws agree with the sign rules (100% required)",
    )


def test_criterion_03_hopf_flip_and_trace_identity():
    """Stability flips across k = 2; trace identity to 1e-12 at 1000 draws."""
    t0 = time.perf_counter()
    below = find_equilibria(ModelParams(3.0, 1.0, 2.0 - 1e-3))[2].classification
    above = find_equilibria(ModelParams(3.0, 1.0, 2.0 + 1e-3))[2].classification
    flip_ok = below is Stability.SINK and above is Stability.SOURCE
    threshold_ok = hopf_threshold(3.0, 1.0) == 2.0

    rng = np.random.default_rng(321)
    lo, hi = math.log(0.1), math.log(10.0)
    checked = 0
    worst_gap = 0.0
    while checked < 1000:
        m, c, k = (float(v) for v in np.exp(rng.uniform(lo, hi, size=3)))
        params = ModelParams(m=m, c=c, k=k)
        if not coexistence_exists(params):
            continue
        lhs, rhs = trace_identity_check(params)
        worst_gap = max(worst_gap, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        checked += 1
    elapsed = time.perf_counter() - t0
    _elapsed_ok(3, elapsed, 5.0)
    _verdict(
        3,
        flip_ok and threshold_ok and worst_gap <= 1e-12,
        f"sink/source flip at k=2+-1e-3, worst identity gap {worst_gap:.3e} <= 1e-12",
    )


def test_criterion_04_long_run_verdicts():
    """Subcritical orbit reaches K3 within 1e-6; supercritical one cycles."""
    t0 = time.perf_counter()
    settle = integrate(SINK_PARAMS, START, 500.0, dt=1e-3)
    sink_verdict = detect_asymptotics(settle)
    target = coexistence_point(SINK_PARAMS)
    sink_ok = (
        sink_verdict.kind is AsymptoticKind.EQUILIBRIUM
        and abs(sink_verdict.point.n - target.n) < 1e-6
        and abs(sink_verdict.point.p - target.p) < 1e-6
    )

    orbit = integrate(CYCLE_PARAMS, START, 300.0, dt=1e-3)
    cycle_verdict = detect_asymptotics(orbit)
    # LIMIT_CYCLE already enforces interval spread <= 1e-3 relative; the
    # period itself is pinned as a regression constant.
    cycle_ok = (
        cycle_verdict.kind is AsymptoticKind.LIMIT_CYCLE
        and abs(cycle_verdict.period - 12.051969816454516) < 1e-6
    )
    elapsed = time.perf_counter() - t0
    _elapsed_ok(4, elapsed, 30.0)
    _verdict(
        4,
        sink_ok and cycle_ok,
        (
            f"equilibrium verdict within 1e-6 of K3; "
            f"cycle period {cycle_verdict.period!r} stable to 1e-3"
        ),
    )


def test_criterion_05_fourth_order_convergence():
    """Richardson ratio of endpoint errors at t = 10 sits in [12, 20]."""
    t0 = time.perf_counter()
    ref = integrate(CYCLE_PARAMS, START, 10.0, dt=0.01 / 32.0).states[-1]
    errs = []
    for dt in (0.01, 0.005):
        end = integrate(CYCLE_PARAMS, START, 10.0, dt=dt).states[-1]
        errs.append(math.hypot(*(end - ref)))
    ratio = errs[0] / errs[1]
    elapsed = time.perf_counter() - t0
    _elapsed_ok(5, elapsed, 10.0)
    _verdict(5, 12.0 <= ratio <= 20.0, f"error ratio {ratio:.2f} in [12, 20] at t=10")


def test_criterion_06_positivity_and_confinement():
    """100 random interior starts over t in [0, 100]: no clamps, bounded."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    starts = rng.uniform(0.05, 3.0, size=(100, 2))
    bound = 10.0 * max(CYCLE_PARAMS.k, 1.0)
    clamps_ok = confined_ok = finite_ok = True
    max_total = 0.0
    for start in starts.tolist():
        traj = integrate(CYCLE_PARAMS, State(*start), 100.0, dt=1e-3)
        total = float(traj.states.sum(axis=1).max())
        max_total = max(max_total, total)
        clamps_ok &= traj.clamp_count == 0
        confined_ok &= total <= bound
        finite_ok &= bool(np.isfinite(traj.states).all())
    elapsed = time.perf_counter() - t0
    _elapsed_ok(6, elapsed, 60.0)
    _verdict(
        6,
        clamps_ok and confined_ok and finite_ok,
        f"0 clamp events, max n+p {max_total:.3f} <= {bound:g} across 100 starts",
    )


def test_criterion_07_grid_certification():
    """Both bound inequalities certify on the default grids; constants match."""
    t0 = time.perf_counter()
    checks_ok = True
    for params in (CYCLE_PARAMS, SINK_PARAMS):
        gen = check_generator_inequality(params)
        mono = check_monotonicity(params)
        checks_ok = checks_ok and gen.passed and mono.passed
    constants_ok = (
        lyapunov_constant(CYCLE_PARAMS, 3.0) == pytest.approx(86.0, rel=1e-12)
        and monotonicity_constant(CYCLE_PARAMS) == pytest.approx(37.0 / 6.0, rel=1e-12)
        and monotonicity_constant(SINK_PARAMS) == pytest.approx(19.0 / 3.0, rel=1e-12)
    )
    elapsed = time.perf_counter() - t0
    _elapsed_ok(7, elapsed, 30.0)
    _verdict(
        7,
        checks_ok and constants_ok,
        "generator and one-sided growth inequalities hold on 200x200 grids; "
        "constants 86, 37/6, 19/3 confirmed",
    )


def test_criterion_08_moment_bounds_and_growth_proxy():
    """Desk-scale ensembles respect the p in {1,2,4} envelopes and proxy bound."""
    t0 = time.perf_counter()
    all_ok = True
    details = []
    for params in (CYCLE_PARAMS, SINK_PARAMS):
        cfg = SimConfig(t_end=5.0, m_steps=4000, seed=11)
        series_list, proxies = ensemble_moments(
            params, START, cfg, 2000, (1.0, 2.0, 4.0)
        )
        for series in series_list:
            report = check_moment_bound(series, params, START)
            all_ok = all_ok and report.passed
        bound = monotonicity_constant(params)
        worst = float(proxies.max())
        all_ok = all_ok and worst <= bound
        details.append(f"k={params.k:g}: worst proxy {worst:.3f} <= {bound:.3f}")
    elapsed = time.perf_counter() - t0
    _elapsed_ok(8, elapsed, 300.0)
    _verdict(8, all_ok, "; ".join(details))


def test_criterion_09_noise_induced_deviation(tmp_path):
    """Demographic noise departs from the deterministic mean by > 3 SE."""
    t0 = time.perf_counter()
    cfg = SimConfig(t_end=10.0, m_steps=4000, seed=2024)
    stats = run_ensemble(CYCLE_PARAMS, START, cfg, runs=2000)
    reference = integrate(CYCLE_PARAMS, START, 10.0, dt=cfg.delta)

    variance_ok = bool((stats.var_n[1:] > 0.0).all())
    width = stats.band_upper_n - stats.band_lower_n
    bands_ok = width[0] == 0.0 and width[1] > 0.0 and float(width.max()) > 0.1

    dev_n = float(np.abs(stats.mean_n - reference.states[:, 0]).max())
    dev_p = float(np.abs(stats.mean_p - reference.states[:, 1]).max())
    # Regression constants from the frozen seed-2024 run.
    dev_ok = dev_n == pytest.approx(0.9877444618663901, rel=1e-9) and dev_p == pytest.approx(
        0.949559208803824, rel=1e-9
    )

    se_n = np.sqrt(stats.var_n / 2000)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(stats.mean_n - reference.states[:, 0]) / se_n
    max_z = float(z[np.isfinite(z)].max())
    z_ok = max_z > 3.0

    out = tmp_path / "artifacts"
    cli_code = main(
        [
            "ensemble",
            *CYCLE_FLAGS,
            "-T",
            "10",
            "-M",
            "1000",
            "--runs",
            "200",
            "--seed",
            "2024",
            "--out",
            str(out),
            "--svg",
        ]
    )
    artifacts_ok = (
        cli_code == 0
        and (out / "ensemble.csv").exists()
        and (out / "ensemble_n.svg").exists()
        and (out / "ensemble_p.svg").exists()
    )
    elapsed = time.perf_counter() - t0
    _elapsed_ok(9, elapsed, 300.0)
    _verdict(
        9,
        variance_ok and bands_ok and dev_ok and z_ok and artifacts_ok,
        (
            f"var_N > 0 for all t > 0; bands widen from 0; deviation "
            f"({dev_n:.4f}, {dev_p:.4f}) at z={max_z:.1f} > 3; CSV+SVG emitted"
        ),
    )


def test_criterion_10_cli_reproducibility(tmp_path):
    """Worker count cannot change CLI output; manifests replay exactly."""
    t0 = time.perf_counter()
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
    replay = tmp_path / "replay"
    assert main([*base, "--out", str(serial)]) == 0
    assert main([*base, "--workers", "4", "--out", str(threaded)]) == 0
    workers_ok = (serial / "ensemble.csv").read_bytes() == (
        threaded / "ensemble.csv"
    ).read_bytes()

    assert (
        main(["ensemble", "--config", str(serial / "manifest.json"), "--out", str(replay)])
        == 0
    )
    replay_ok = (serial / "ensemble.csv").read_bytes() == (
        replay / "ensemble.csv"
    ).read_bytes()
    manifest = json.loads((replay / "manifest.json").read_text())
    manifest_ok = manifest["seed"] == 9 and manifest["subcommand"] == "ensemble"
    elapsed = time.perf_counter() - t0
    _elapsed_ok(10, elapsed, 60.0)
    _verdict(
        10,
        workers_ok and replay_ok and manifest_ok,
        "4-worker run and manifest replay byte-identical to the serial run",
    )
