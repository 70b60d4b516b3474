from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rosmac import (
    AsymptoticKind,
    BlowupError,
    GridSpec,
    ModelParams,
    SimConfig,
    State,
    Trajectory,
    coexistence_point,
    detect_asymptotics,
    drift,
    integrate,
    simulate_path,
    vector_field_grid,
)
from rosmac.model import _rates

from conftest import COMPONENTS, CYCLE_PARAMS, RATES, SINK_PARAMS, START


def test_integrate_grid_and_validation():
    traj = integrate(CYCLE_PARAMS, START, 0.5, dt=1e-3)
    assert len(traj) == 501
    assert traj.times[-1] == pytest.approx(0.5, abs=1e-12)
    assert traj.states.shape == (501, 2)
    assert not traj.states.flags.writeable
    for x0 in (State(-0.1, 1.0), State(math.nan, 1.0), State(1.0, math.inf)):
        with pytest.raises(ValueError):
            integrate(CYCLE_PARAMS, x0, 1.0)
    with pytest.raises(ValueError):
        integrate(CYCLE_PARAMS, START, 1.0, dt=0.0)
    with pytest.raises(ValueError):
        integrate(CYCLE_PARAMS, START, 1e-4, dt=1e-3)


def test_prey_axis_matches_logistic_closed_form():
    """With no predator the prey follows the logistic solution exactly."""
    k = CYCLE_PARAMS.k
    n0 = 0.2
    traj = integrate(CYCLE_PARAMS, State(n0, 0.0), 5.0, dt=1e-3)
    expected = k * n0 * np.exp(traj.times) / (k + n0 * (np.exp(traj.times) - 1.0))
    assert np.abs(traj.states[:, 0] - expected).max() < 1e-10
    # The axis is invariant bit-for-bit, not just approximately.
    assert (traj.states[:, 1] == 0.0).all()


def test_predator_axis_matches_exponential_decay():
    traj = integrate(CYCLE_PARAMS, State(0.0, 2.0), 5.0, dt=1e-3)
    expected = 2.0 * np.exp(-CYCLE_PARAMS.c * traj.times)
    assert np.abs(traj.states[:, 1] - expected).max() < 1e-10
    assert (traj.states[:, 0] == 0.0).all()


def test_fourth_order_error_scaling():
    """Halving the step divides the endpoint error by about 16."""
    ref = integrate(CYCLE_PARAMS, START, 1.0, dt=0.01 / 32.0).states[-1]
    errors = []
    for dt in (0.01, 0.005):
        end = integrate(CYCLE_PARAMS, START, 1.0, dt=dt).states[-1]
        errors.append(math.hypot(*(end - ref)))
    ratio = errors[0] / errors[1]
    assert 12.0 < ratio < 20.0


def test_interior_orbit_never_clamps():
    traj = integrate(CYCLE_PARAMS, START, 100.0, dt=1e-3)
    assert traj.clamp_count == 0
    assert (traj.states >= 0.0).all()


def test_overshoot_is_clamped_and_counted():
    # One huge step from far above capacity lands the prey below zero;
    # the integrator pins it to the axis and the origin absorbs the rest.
    traj = integrate(CYCLE_PARAMS, State(9.0, 0.0), 10.0, dt=2.0)
    assert traj.clamp_count == 1
    assert tuple(traj.states[-1]) == (0.0, 0.0)


def test_blowup_raises_with_last_good_index():
    with pytest.raises(BlowupError) as exc:
        integrate(CYCLE_PARAMS, State(1e154, 1.0), 5.0, dt=1.0)
    assert exc.value.last_good_index == 0


def _classical_rk4(m, c, k, n, p, h):
    """Textbook RK4 stages on the drift of model._rates."""
    k1n, k1p, _, _ = _rates(m, c, k, n, p)
    k2n, k2p, _, _ = _rates(m, c, k, n + 0.5 * h * k1n, p + 0.5 * h * k1p)
    k3n, k3p, _, _ = _rates(m, c, k, n + 0.5 * h * k2n, p + 0.5 * h * k2p)
    k4n, k4p, _, _ = _rates(m, c, k, n + h * k3n, p + h * k3p)
    return (
        n + h / 6.0 * (k1n + 2.0 * k2n + 2.0 * k3n + k4n),
        p + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
    )


def _reference_integrate(params, x0, t_end, dt):
    """integrate as a plain loop over _classical_rk4: finiteness first, then the projection."""
    n, p = x0
    states, clamps = [(n, p)], 0
    for i in range(1, max(1, round(t_end / dt)) + 1):
        n, p = _classical_rk4(params.m, params.c, params.k, n, p, dt)
        if not (math.isfinite(n) and math.isfinite(p)):
            raise BlowupError(i, dt)
        if n < 0.0:
            n, clamps = 0.0, clamps + 1
        if p < 0.0:
            p, clamps = 0.0, clamps + 1
        states.append((n, p))
    return np.array(states), clamps


def _outcome(run, *args):
    """(state bytes, clamp count), or ("blowup", last good index)."""
    try:
        result = run(*args)
    except BlowupError as exc:
        return "blowup", exc.last_good_index
    if isinstance(result, tuple):
        return result[0].tobytes(), result[1]
    return result.states.tobytes(), result.clamp_count


def test_inlined_rk4_loop_matches_the_rk4_update_reference():
    """The loop in integrate is a kept fast path: classical RK4 on _rates written out
    operand for operand, one guard a step."""
    # One projection; -inf, a first step past the float maximum, and +inf (finite
    # stages whose sum overflows) at the first step; finite states whose sum
    # n + p overflows (the guard's slow path).
    cases = [
        (CYCLE_PARAMS, State(1.0, 0.6), 90.0, 1.5),
        (ModelParams(1.0, 1.0, 1.0), State(1.0, 242963560579.0), 4343631521344895.0,
         868726304268979.0),
        (CYCLE_PARAMS, State(1e154, 1.0), 5.0, 1.0),
        (ModelParams(1.0, 1.0, 1.7e308), State(0.85e308, 0.0), 0.2, 0.1),
        (ModelParams(1e-320, 1e-320, 9e307), State(9e307, 9e307), 1e-3, 1e-4),
    ]
    rng = np.random.default_rng(9)
    for _ in range(60):
        m, c, k = np.exp(rng.uniform(-2.0, 2.0, size=3)).tolist()
        n, p = rng.uniform(0.0, 5.0, size=2).tolist()
        dt = float(10.0 ** rng.uniform(-3.0, 0.7))
        cases.append((ModelParams(m, c, k), State(n, p), dt * int(rng.integers(1, 300)), dt))
    outcomes = []
    for case in cases:
        got = _outcome(integrate, *case)
        assert got == _outcome(_reference_integrate, *case), case
        outcomes.append(got)
    assert outcomes[0][1] == 1
    assert outcomes[1] == outcomes[2] == outcomes[3] == ("blowup", 0)
    assert outcomes[4][1] == 0 and len(outcomes[4][0]) == 11 * 16
    assert any(clamps > 0 for _, clamps in outcomes[5:]), "no random case projects"


def test_integrate_memory_is_its_states():
    # The (steps + 1, 2) states are all that integrate allocates: the times
    # are derived from dt when read, and storing each state as Python floats
    # first would add 64 bytes a step.
    steps = 200_000
    integrate(CYCLE_PARAMS, START, 1.0, dt=1e-3)
    tracemalloc.start()
    try:
        traj = integrate(CYCLE_PARAMS, START, steps * 1e-3, dt=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == steps + 1
    assert peak <= traj.states.nbytes + 65_536


def test_long_run_verdict_allocates_about_its_window():
    # The verdict reads the trailing quarter: its times (8 bytes a sample) and
    # three boolean masks for its crossings make 11 bytes a window sample.  The
    # whole time axis, 8 bytes a step, would not fit.
    traj = integrate(CYCLE_PARAMS, START, 600.0, dt=1e-3)
    tracemalloc.start()
    try:
        verdict = detect_asymptotics(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.kind is AsymptoticKind.LIMIT_CYCLE
    assert peak <= 11 * (len(traj) // 4) + 65_536
    assert "times" not in vars(traj)  # the full axis was never built


@pytest.mark.parametrize("driver", ["integrate", "simulate_path"])
def test_times_are_the_grid_derived_from_dt(driver):
    # The bits each driver built before its times were derived.
    if driver == "integrate":
        t_end, dt = 2.0, 3e-3
        traj = integrate(CYCLE_PARAMS, START, t_end, dt=dt)
        built = np.arange(round(t_end / dt) + 1) * dt
    else:
        cfg = SimConfig(t_end=3.0, m_steps=777, seed=2)
        traj = simulate_path(CYCLE_PARAMS, START, cfg)
        built = np.arange(cfg.m_steps + 1) * cfg.delta
    times = traj.times
    assert times.tobytes() == built.tobytes() == (np.arange(len(traj)) * traj.dt).tobytes()
    assert not times.flags.writeable and traj.times is times


def test_vector_field_grid_layout():
    field = vector_field_grid(CYCLE_PARAMS, GridSpec(0.0, 1.0, 0.0, 2.0, 2))
    assert field.shape == (4, 4)
    assert [tuple(row[:2]) for row in field.tolist()] == [
        (0.0, 0.0),
        (0.0, 2.0),
        (1.0, 0.0),
        (1.0, 2.0),
    ]
    # Bit for bit, signed zeros included: float.hex tells 0.0 from -0.0.
    for grid in (GridSpec(0.0, 1.0, 0.0, 2.0, 2), GridSpec(0.0, 7.3, 0.1, 5.9, 9)):
        for n, p, dn, dp in vector_field_grid(CYCLE_PARAMS, grid).tolist():
            assert (dn.hex(), dp.hex()) == tuple(v.hex() for v in drift(CYCLE_PARAMS, State(n, p)))
    with pytest.raises(ValueError):
        vector_field_grid(CYCLE_PARAMS, GridSpec(0.0, 1.0, 0.0, 2.0, 1))
    with pytest.raises(ValueError):
        vector_field_grid(CYCLE_PARAMS, GridSpec(1.0, 0.0, 0.0, 2.0, 3))
    with pytest.raises(ValueError):
        vector_field_grid(CYCLE_PARAMS, GridSpec(-1.0, 1.0, 0.0, 2.0, 3))
    with pytest.raises(ValueError, match=r"\(5e\+199, 0\.0\)"):
        vector_field_grid(CYCLE_PARAMS, GridSpec(0.0, 1e200, 0.0, 1e200, 3))


def test_detect_equilibrium_for_subcritical_capacity():
    traj = integrate(SINK_PARAMS, START, 500.0, dt=1e-2)
    verdict = detect_asymptotics(traj)
    assert verdict.kind is AsymptoticKind.EQUILIBRIUM
    target = coexistence_point(SINK_PARAMS)
    assert verdict.point.n == pytest.approx(target.n, abs=1e-6)
    assert verdict.point.p == pytest.approx(target.p, abs=1e-6)


def test_detect_limit_cycle_for_supercritical_capacity():
    # The tail window must hold six mean-crossings, i.e. five full periods.
    traj = integrate(CYCLE_PARAMS, START, 300.0, dt=1e-2)
    verdict = detect_asymptotics(traj)
    assert verdict.kind is AsymptoticKind.LIMIT_CYCLE
    assert verdict.period == pytest.approx(12.052, rel=1e-3)
    n_lo, n_hi, p_lo, p_hi = verdict.box
    assert 0.0 <= n_lo < n_hi <= CYCLE_PARAMS.k
    assert 0.0 <= p_lo < p_hi
    # The repelling interior point sits inside the cycle's box.
    inner = coexistence_point(CYCLE_PARAMS)
    assert n_lo < inner.n < n_hi
    assert p_lo < inner.p < p_hi


@pytest.mark.parametrize("dt, t_end", [(0.75, 3000.0), (0.001, 600.0)])
def test_a_period_locked_to_the_step_is_noted(dt, t_end):
    # At dt = 0.75 the RK4 map holds a period-15 orbit: every crossing interval
    # is 11.25 = 15 dt, where the flow's period is 12.05.  At dt = 0.001 the
    # period is 3.0e-5 off a whole number of steps, against a spread of 7.6e-9.
    verdict = detect_asymptotics(integrate(CYCLE_PARAMS, START, t_end, dt))
    assert verdict.kind is AsymptoticKind.LIMIT_CYCLE
    if dt == 0.75:
        assert verdict.period == 11.25
        assert verdict.diagnostics.endswith("; the period is 15 steps, locked to dt=0.75")
    else:
        assert verdict.period == pytest.approx(12.052, rel=1e-3)
        assert "locked" not in verdict.diagnostics


def test_detect_undecided_for_slow_monotone_decay():
    # Pure predator decay looks flat by t = 20 but the drift residual
    # betrays that it has not actually stopped moving.
    traj = integrate(CYCLE_PARAMS, State(0.0, 1.0), 20.0, dt=1e-3)
    verdict = detect_asymptotics(traj)
    assert verdict.kind is AsymptoticKind.UNDECIDED
    assert "residual" in verdict.diagnostics


def test_detect_undecided_during_transient():
    traj = integrate(CYCLE_PARAMS, START, 15.0, dt=1e-2)
    verdict = detect_asymptotics(traj)
    assert verdict.kind is AsymptoticKind.UNDECIDED


def test_detect_undecided_for_unstable_crossing_intervals():
    # A chirp: n oscillates with a period that shrinks from about 0.27 to
    # 0.2 over the tail t in [15, 20], so its many crossings are unevenly spaced.
    times = np.arange(2000) * 0.01
    states = np.column_stack([1.0 + 0.5 * np.sin(np.pi * times**2 / 4.0), np.ones_like(times)])
    traj = Trajectory(states=states, params=CYCLE_PARAMS, dt=0.01, clamp_count=0)
    verdict = detect_asymptotics(traj)
    assert verdict.kind is AsymptoticKind.UNDECIDED
    assert verdict.diagnostics.startswith("crossing intervals unstable")


def test_detect_asymptotics_validation():
    short = integrate(CYCLE_PARAMS, START, 0.5, dt=1e-3)
    with pytest.raises(ValueError):
        detect_asymptotics(short)
    long_enough = integrate(CYCLE_PARAMS, START, 2.0, dt=1e-3)
    with pytest.raises(ValueError):
        detect_asymptotics(long_enough, tail_fraction=0.0)
    with pytest.raises(ValueError):
        detect_asymptotics(long_enough, tail_fraction=0.75)


@pytest.mark.parametrize("dt", [0.25, 0.5, 1.25, 1.5, 2.25, 2.5])
def test_a_verdict_the_step_decided_is_undecided(dt):
    # The flow from START cycles with period 12.05.  From dt = 1.25 on, the
    # RK4 map comes to rest instead: after one projection at the origin or at
    # (k, 0), both saddles, or without one at the coexistence point, a source.
    traj = integrate(CYCLE_PARAMS, START, 3000.0, dt)
    verdict = detect_asymptotics(traj)
    if dt <= 0.5:
        assert verdict.kind is AsymptoticKind.LIMIT_CYCLE
        return
    assert verdict.kind is AsymptoticKind.UNDECIDED
    assert np.ptp(traj.states[-len(traj) // 4:], axis=0).max() < 1e-6  # a stationary window
    assert f"dt={dt}" in verdict.diagnostics
    if dt == 2.5:
        assert traj.clamp_count == 0
        assert "source (eigenvalues 0.0555556-" in verdict.diagnostics
    else:
        assert traj.clamp_count == 1
        assert verdict.diagnostics.startswith("1 projection(s)")


@pytest.mark.parametrize("x0, target", [
    (State(0.0, 0.6), State(0.0, 0.0)),  # the origin along its stable manifold, the p axis
    (State(3.0, 0.0), State(3.0, 0.0)),  # a start at the saddle (k, 0)
    (coexistence_point(CYCLE_PARAMS), coexistence_point(CYCLE_PARAMS)),  # a start at the source
])
def test_equilibrium_verdicts_the_flow_reaches_stay(x0, target):
    traj = integrate(CYCLE_PARAMS, x0, 100.0, dt=1e-2)
    verdict = detect_asymptotics(traj)
    assert verdict.kind is AsymptoticKind.EQUILIBRIUM
    assert verdict.point == pytest.approx(target, abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(m=RATES, c=RATES, k=RATES, n0=COMPONENTS, p0=COMPONENTS,
       dt=st.one_of(st.floats(1e-4, 1.0), st.floats(1e-4, 1e300)), steps=st.integers(1, 20))
# The first update is (-inf, -1.76e25): an overflow, not an extinction.
@example(m=1.0, c=1.0, k=1.0, n0=1.0, p0=242963560579.0, dt=868726304268979.0, steps=5)
def test_rk4_update_gives_finite_states_or_blowup(m, c, k, n0, p0, dt, steps):
    update = _classical_rk4(m, c, k, n0, p0, dt)
    first_finite = all(math.isfinite(value) for value in update)
    first = [0.0 if value < 0.0 else value for value in update]
    try:
        traj = integrate(ModelParams(m, c, k), State(n0, p0), steps * dt, dt)
    except BlowupError as exc:
        assert (exc.last_good_index == 0) is not first_finite
        return
    assert first_finite
    assert np.isfinite(traj.states).all() and (traj.states >= 0.0).all()
    assert traj.states[1].tolist() == first
