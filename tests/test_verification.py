from __future__ import annotations

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from rosmac import (
    DEFAULT_GENERATOR_GRID,
    DEFAULT_MONOTONICITY_GRID,
    GridSpec,
    MomentSeries,
    SimConfig,
    State,
    check_generator_inequality,
    check_moment_bound,
    check_monotonicity,
    ensemble_moments,
    lyapunov_constant,
    moment_constant,
    monotonicity_constant,
)
from rosmac.model import _rates
from rosmac import verification
from rosmac.verification import _grid_report

from conftest import CYCLE_PARAMS, SINK_PARAMS, START


def test_constant_reference_values():
    assert monotonicity_constant(CYCLE_PARAMS) == pytest.approx(37.0 / 6.0, rel=1e-15)
    assert monotonicity_constant(SINK_PARAMS) == pytest.approx(19.0 / 3.0, rel=1e-15)
    assert moment_constant(CYCLE_PARAMS, 2.0) == pytest.approx(37.0 / 6.0, rel=1e-15)
    assert moment_constant(CYCLE_PARAMS, 4.0) == pytest.approx(10.5, rel=1e-15)
    assert lyapunov_constant(CYCLE_PARAMS, 3.0) == pytest.approx(86.0, rel=1e-15)
    assert lyapunov_constant(SINK_PARAMS, 3.0) == pytest.approx(91.0, rel=1e-15)


def test_constant_domain_errors():
    with pytest.raises(ValueError):
        moment_constant(CYCLE_PARAMS, 1.5)
    with pytest.raises(ValueError):
        lyapunov_constant(CYCLE_PARAMS, 2.0)


def test_lyapunov_constant_that_overflows_names_alpha():
    # alpha (alpha - 1) overflows: the constant, not the grid, is at fault.
    with pytest.raises(ValueError, match=r"lyapunov constant is not finite at alpha=1e\+308"):
        lyapunov_constant(CYCLE_PARAMS, 1e308)
    with pytest.raises(ValueError, match="lyapunov constant is not finite at alpha=1e"):
        check_generator_inequality(CYCLE_PARAMS, 1e308)
    # At alpha = 150 the constant is finite and u ** alpha overflows at the grid's far corner.
    assert math.isfinite(lyapunov_constant(CYCLE_PARAMS, 150.0))
    with pytest.raises(ValueError, match="grid too large"):
        check_generator_inequality(CYCLE_PARAMS, 150.0)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 0.0, 1.0, 0)
    for resolution in (2.5, "3", True):
        with pytest.raises(ValueError, match="resolution must be an integer"):
            GridSpec(0.0, 1.0, 0.0, 1.0, resolution)
    assert [axis.tolist() for axis in GridSpec(0.0, 1.0, 0.0, 1.0, np.int64(3)).axes()] == [
        [0.0, 0.5, 1.0], [0.0, 0.5, 1.0]]
    # One sample covers a point, not a box: each axis needs both endpoints.
    for bounds in ((0.0, 1.0, 0.0, 1.0), (1.0, 1.0, 0.0, 1.0), (0.0, 1.0, 2.0, 2.0)):
        with pytest.raises(ValueError, match="resolution 1"):
            GridSpec(*bounds, 1)
    assert [axis.tolist() for axis in GridSpec(1.0, 1.0, 2.0, 2.0, 1).axes()] == [[1.0], [2.0]]
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.0, 0.0, 1.0, 10)
    for bounds in ((-1.0, 1.0, 0.0, 1.0), (0.0, 1.0, -1e-300, 1.0), (-2.0, -1.0, -2.0, -1.0)):
        with pytest.raises(ValueError, match=">= 0"):
            GridSpec(*bounds, 10)
    ns, ps = GridSpec(0.0, 1.0, 0.0, 2.0, 3).axes()
    assert np.array_equal(ns, [0.0, 0.5, 1.0])
    assert np.array_equal(ps, [0.0, 1.0, 2.0])


def test_certification_passes_for_both_parameter_sets():
    for params in (CYCLE_PARAMS, SINK_PARAMS):
        mono = check_monotonicity(params)
        assert mono.passed
        assert mono.worst_slack <= 0.0
        assert mono.grid is DEFAULT_MONOTONICITY_GRID
        gen = check_generator_inequality(params)
        assert gen.passed
        assert gen.worst_slack <= 0.0
        assert gen.grid is DEFAULT_GENERATOR_GRID


def test_monotonicity_sabotage_fails_at_interior_point(monkeypatch):
    """An undersized constant must be caught, and not merely at a corner."""
    monkeypatch.setattr(verification, "monotonicity_constant", lambda params: 0.25)
    report = check_monotonicity(CYCLE_PARAMS)
    assert not report.passed
    assert report.worst_slack > 0.0
    n, p = report.worst_point
    assert report.worst_point == (pytest.approx(2.412060301507538), 10.0)
    assert 0.0 < n < 10.0
    # Independent recomputation of the slack at the reported point.
    dn, dp, v1, v2 = _rates(CYCLE_PARAMS.m, CYCLE_PARAMS.c, CYCLE_PARAMS.k, n, p)
    slack = n * dn + p * dp + 0.5 * (v1 + v2) - 0.25 * (1.0 + n * n + p * p)
    assert report.worst_slack == pytest.approx(slack, rel=1e-12)


def test_generator_sabotage_fails(monkeypatch):
    monkeypatch.setattr(verification, "lyapunov_constant", lambda params, alpha: 3.0)
    report = check_generator_inequality(CYCLE_PARAMS)
    assert not report.passed
    assert report.worst_slack > 0.0


def test_generator_single_point_grid_value(monkeypatch):
    # At (1, 1) the generator applied to the radial candidate is 318 and
    # V = 27, so the slack against the certified constant 86 is -2004.
    point = GridSpec(1.0, 1.0, 1.0, 1.0, 1)
    report = check_generator_inequality(CYCLE_PARAMS, grid=point)
    assert report.passed
    assert report.worst_point == (1.0, 1.0)
    assert report.worst_slack == pytest.approx(-2004.0, rel=1e-12)
    # Against a constant of 0 the slack is L V itself.
    monkeypatch.setattr(verification, "lyapunov_constant", lambda params, alpha: 0.0)
    report = check_generator_inequality(CYCLE_PARAMS, grid=point)
    assert report.worst_slack == pytest.approx(318.0, rel=1e-13)


def test_generator_check_rejects_boundary_grid():
    with pytest.raises(ValueError):
        check_generator_inequality(CYCLE_PARAMS, grid=GridSpec(0.0, 10.0, 1e-3, 10.0, 10))
    with pytest.raises(ValueError):
        check_monotonicity(CYCLE_PARAMS, grid=GridSpec(-1.0, 10.0, 0.0, 10.0, 10))


def _generator_slack(params, alpha, bound, n, p):
    """L V - bound V at one point in Python floats, V = (1 + n^2 + p^2)**alpha:
    the module docstring's formula, V's derivatives in the check's operand order."""
    dn, dp, v1, v2 = _rates(params.m, params.c, params.k, n, p)
    u = 1.0 + n * n + p * p
    first = 2.0 * alpha * u ** (alpha - 1.0)
    v_n, v_p = first * n, first * p
    v_nn = first + 4.0 * alpha * (alpha - 1.0) * u ** (alpha - 2.0) * n * n
    v_pp = first + 4.0 * alpha * (alpha - 1.0) * u ** (alpha - 2.0) * p * p
    return dn * v_n + dp * v_p + 0.5 * (v1 * v_nn + v2 * v_pp) - bound * u ** alpha


def test_worst_point_recomputes_for_default_generator_check():
    report = check_generator_inequality(CYCLE_PARAMS)
    n, p = report.worst_point
    bound = lyapunov_constant(CYCLE_PARAMS, 3.0)
    assert report.worst_slack == _generator_slack(CYCLE_PARAMS, 3.0, bound, n, p)


def test_degenerate_grid_reports_its_only_point():
    report = check_monotonicity(CYCLE_PARAMS, grid=GridSpec(2.0, 2.0, 3.0, 3.0, 3))
    assert report.worst_point == (2.0, 3.0)


def _reference_worst(grid, slack_at):
    """The per-point loop: largest slack in row-major order, first one on ties."""
    ns, ps = grid.axes()
    worst_slack, worst_point = -math.inf, None
    for n in ns.tolist():
        for p in ps.tolist():
            slack = slack_at(n, p)
            if slack > worst_slack:
                worst_slack, worst_point = slack, (n, p)
    return worst_slack, worst_point


def _at_resolution(grid, resolution):
    """grid at `resolution`; at 1, which no box takes, the corner (n_min, p_min) alone."""
    if resolution > 1:
        return dataclasses.replace(grid, resolution=resolution)
    with pytest.raises(ValueError, match="resolution 1"):
        dataclasses.replace(grid, resolution=resolution)
    return GridSpec(grid.n_min, grid.n_min, grid.p_min, grid.p_min, resolution)


@pytest.mark.parametrize("params", [CYCLE_PARAMS, SINK_PARAMS], ids=["cycle", "sink"])
@pytest.mark.parametrize("alpha", [3.0, 2.5, 4.7])
@pytest.mark.parametrize(
    "resolution, constant", [(1, None), (7, None), (7, 0.25), (200, None), (200, 3.0)]
)
def test_grid_checks_match_per_point_reference(monkeypatch, params, alpha, resolution, constant):
    """Also with a deliberate constant in place of c_lyap and c_mono."""
    m, c, k = params.m, params.c, params.k
    c_lyap = lyapunov_constant(params, alpha) if constant is None else constant
    c_mono = monotonicity_constant(params) if constant is None else constant
    monkeypatch.setattr(verification, "lyapunov_constant", lambda params, alpha: c_lyap)
    monkeypatch.setattr(verification, "monotonicity_constant", lambda params: c_mono)

    def generator_slack(n, p):
        return _generator_slack(params, alpha, c_lyap, n, p)

    def monotonicity_slack(n, p):
        dn, dp, v1, v2 = _rates(m, c, k, n, p)
        return n * dn + p * dp + 0.5 * (v1 + v2) - c_mono * (1.0 + n * n + p * p)

    # numpy's array power may differ from libm's pow by one ulp at non-integer alpha.
    rel = 0.0 if alpha == 3.0 else 1e-15
    gen_grid = _at_resolution(DEFAULT_GENERATOR_GRID, resolution)
    mono_grid = _at_resolution(DEFAULT_MONOTONICITY_GRID, resolution)
    for report, slack_at in (
        (check_generator_inequality(params, alpha, gen_grid), generator_slack),
        (check_monotonicity(params, mono_grid), monotonicity_slack),
    ):
        worst_slack, worst_point = _reference_worst(report.grid, slack_at)
        assert report.worst_point == worst_point
        assert report.worst_slack == pytest.approx(worst_slack, rel=rel, abs=0.0)
        assert report.passed == (worst_slack <= 0.0)


def test_grid_ties_go_to_the_first_point_in_row_major_order():
    # Every row peaks at p = 1 with slack 0, and each row holds it once.
    report = _grid_report("tie", GridSpec(0.0, 2.0, 0.0, 2.0, 3), lambda n, ps: -abs(ps - 1.0))
    assert report.worst_point == (0.0, 1.0)
    assert report.worst_slack == 0.0 and report.passed


def test_grid_ties_across_blocks_go_to_the_first_block(monkeypatch):
    monkeypatch.setattr(verification, "_GRID_BLOCK_CELLS", 1)  # one row per block
    report = _grid_report("tie", GridSpec(0.0, 2.0, 0.0, 2.0, 3), lambda n, ps: -abs(ps - 1.0))
    assert report.worst_point == (0.0, 1.0)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.7])
def test_grid_blocks_report_the_row_wise_result(monkeypatch, alpha):
    """Blocks of 64 rows at the default resolution give the bits of one row at a time."""
    monkeypatch.setattr(verification, "monotonicity_constant", lambda params: alpha)

    def reports():
        return (check_generator_inequality(CYCLE_PARAMS, alpha), check_monotonicity(CYCLE_PARAMS))

    blocked = reports()
    monkeypatch.setattr(verification, "_GRID_BLOCK_CELLS", 1)
    assert reports() == blocked


@pytest.mark.parametrize("top", [1e60, 1e200])
def test_grid_checks_reject_non_finite_slack(top):
    """V overflows float64 on these grids; a NaN slack must not read as a pass."""
    grid = GridSpec(1e-3, top, 1e-3, top, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"not finite at \(n, p\) = \(0\.001, 5e\+"):
            check_generator_inequality(CYCLE_PARAMS, grid=grid)
        if top == 1e60:
            assert check_monotonicity(CYCLE_PARAMS, grid=grid).passed
        else:
            with pytest.raises(ValueError, match="monotonicity: slack is not finite"):
                check_monotonicity(CYCLE_PARAMS, grid=grid)


def test_moment_bound_established_ensemble():
    cfg = SimConfig(t_end=2.0, m_steps=400, seed=21)
    series, _ = ensemble_moments(CYCLE_PARAMS, START, cfg, runs=64, p_values=(1.0, 2.0, 4.0))
    for entry in series:
        report = check_moment_bound(entry, CYCLE_PARAMS, START)
        assert report.passed, (entry.p, report.worst_slack)
        assert report.worst_time is not None
        assert report.grid is None


def test_moment_bound_worst_time_is_zero_for_exploding_envelope(zero_noise):
    # The envelope grows like exp(p c t) while paths stay bounded, so the
    # tightest point is the initial instant.
    cfg = SimConfig(t_end=2.0, m_steps=200, seed=2)
    series, _ = ensemble_moments(CYCLE_PARAMS, START, cfg, runs=4, p_values=(2.0,))
    report = check_moment_bound(series[0], CYCLE_PARAMS, START)
    assert report.passed
    assert report.worst_time == 0.0
    assert report.worst_slack == pytest.approx(-1.0, rel=1e-12)


def test_moment_bound_small_order_branch(zero_noise):
    cfg = SimConfig(t_end=2.0, m_steps=200, seed=2)
    series, _ = ensemble_moments(CYCLE_PARAMS, START, cfg, runs=4, p_values=(1.0,))
    report = check_moment_bound(series[0], CYCLE_PARAMS, START)
    assert report.passed
    norm0 = np.hypot(START.n, START.p)
    expected_gap = norm0 - (1.0 + norm0**2) ** 0.5
    assert report.worst_time == 0.0
    assert report.worst_slack == pytest.approx(expected_gap, rel=1e-12)


def test_moment_bound_detects_fabricated_violation():
    times = np.array([0.0, 1.0, 2.0])
    fake = MomentSeries(p=2.0, times=times, values=np.array([1.0, 1.0, 1e30]))
    report = check_moment_bound(fake, CYCLE_PARAMS, START)
    assert not report.passed
    assert report.worst_time == 2.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_moment_bound_rejects_nan_and_inf_gaps_only():
    times = np.array([0.0, 1.0, 100.0])
    for bad in (math.inf, math.nan):
        series = MomentSeries(p=2.0, times=times, values=np.array([1.0, bad, 1.0]))
        with pytest.raises(ValueError, match="t=1.0"):
            check_moment_bound(series, CYCLE_PARAMS, START)
    # The envelope overflows at t = 100: a -inf gap there still passes.
    finite = MomentSeries(p=200.0, times=times, values=np.ones(3))
    report = check_moment_bound(finite, CYCLE_PARAMS, START)
    assert report.passed and report.worst_time == 0.0 and math.isfinite(report.worst_slack)
    with pytest.raises(ValueError, match="t=100.0"):
        overflowing = MomentSeries(p=200.0, times=times, values=np.array([1.0, 1.0, math.inf]))
        check_moment_bound(overflowing, CYCLE_PARAMS, START)
    # 2 ** 1999 passes float64's range as a Python float: the envelope is inf.
    report = check_moment_bound(MomentSeries(4000.0, times, np.ones(3)), CYCLE_PARAMS, START)
    assert report.passed and report.worst_slack == -math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_moment_bound_start_whose_square_overflows():
    # ||x0||^2 = 1e400 passes float64's range as a Python float.
    x0 = State(1e200, 0.0)
    times = np.array([0.0, 1.0])
    # For p < 2 the envelope (1 + ||x0||^2)^(p/2) is finite: ||x0||^p at t = 0.
    for p, value in [(1.0, 1e200), (0.5, 1e100)]:
        report = check_moment_bound(MomentSeries(p, times, np.full(2, value)), CYCLE_PARAMS, x0)
        assert report.passed and report.worst_time == 0.0 and report.worst_slack == 0.0
    report = check_moment_bound(MomentSeries(1.0, times, np.array([1e200, 1e205])), CYCLE_PARAMS, x0)
    assert not report.passed and report.worst_time == 1.0
    # For p >= 2 it overflows: a finite moment passes with a slack of -inf.
    report = check_moment_bound(MomentSeries(2.0, times, np.ones(2)), CYCLE_PARAMS, x0)
    assert report.passed and report.worst_slack == -math.inf


def test_moment_bound_validation():
    for p in (0.0, -1.0, math.nan, math.inf):
        series = MomentSeries(p=p, times=np.array([0.0]), values=np.array([1.0]))
        with pytest.raises(ValueError, match="moment order must be finite and > 0"):
            check_moment_bound(series, CYCLE_PARAMS, START)
    series = MomentSeries(p=2.0, times=np.array([0.0]), values=np.array([1.0]))
    for x0 in ((-1.0, 0.6), (math.inf, 0.0), (1.0,), None):
        with pytest.raises(ValueError, match="x0 must be a finite point of the closed quadrant"):
            check_moment_bound(series, CYCLE_PARAMS, x0)


def test_moment_series_needs_one_equal_nonzero_length_of_1d_arrays():
    """A single value would broadcast against every time and pass the bound;
    empty arrays and lists would fail later with numpy's or Python's text."""
    one = np.array([1.0])
    for times, values, got in [
        (np.array([0.0, 1.0]), one, "(2,) and (1,)"),
        (np.array([]), np.array([]), "(0,) and (0,)"),
        ([0.0], [1.0], "list and list"),
        (np.array([[0.0]]), np.array([[1.0]]), "(1, 1) and (1, 1)"),
        (np.array([0.0]), 1.0, "(1,) and float"),
    ]:
        with pytest.raises(ValueError, match=rf"^times and values must be 1-D arrays of one equal, "
                                             rf"nonzero length, got {re.escape(got)}$"):
            MomentSeries(p=2.0, times=times, values=values)
    series = MomentSeries(p=2.0, times=np.array([0.0, 1.0]), values=np.array([1.0, 1.0]))
    assert check_moment_bound(series, CYCLE_PARAMS, START).passed
