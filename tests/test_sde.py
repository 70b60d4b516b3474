from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rosmac import (
    DESK_STEPS,
    BlowupError,
    ModelParams,
    NoiseStream,
    SimConfig,
    State,
    simulate_path,
)
from rosmac.model import _rates
from rosmac.sde import _CHUNK_STEPS, _em_path, _ensemble_chunks

from conftest import (
    COMPONENTS,
    CYCLE_PARAMS,
    RATES,
    START,
    ChunkReader,
    _em_on,
    _reference_em,
    _whole_increments,
)
from fakes import zero_noise_streams


def test_simconfig_validation_and_delta():
    cfg = SimConfig(t_end=10.0, m_steps=4000)
    assert cfg.delta == 10.0 / 4000.0
    assert cfg.m_steps == DESK_STEPS
    with pytest.raises(ValueError):
        SimConfig(t_end=0.0)
    with pytest.raises(ValueError):
        SimConfig(t_end=1.0, m_steps=0)
    with pytest.raises(ValueError):
        SimConfig(t_end=1.0, seed=-1)


def _em_step(x, delta, dw1, dw2):
    """One EM step of CYCLE_PARAMS from x: the new state and its projection count."""
    m, c, k = CYCLE_PARAMS.m, CYCLE_PARAMS.c, CYCLE_PARAMS.k
    states, clamps = _em_on(m, c, k, *x, delta, np.array([[dw1, dw2]]))
    return State(*states[1].tolist()), clamps


def test_em_step_pencil_values():
    """One step worked out by hand from the drift and noise amplitudes."""
    new, clamps = _em_step(START, 0.01, 0.05, -0.02)
    assert clamps == 0
    assert new.n == pytest.approx(1.072388372571533, abs=1e-15)
    assert new.p == pytest.approx(0.5785051025721683, abs=1e-15)


def test_em_step_clamps_to_zero():
    new, clamps = _em_step(State(0.01, 0.5), 0.01, -5.0, 0.0)
    assert clamps == 1
    assert new.n == 0.0
    assert new.p > 0.0


def _em_outcome(run, *args):
    """(state bytes, projection count), or ("blowup", last good index)."""
    try:
        states, clamps = run(*args)
    except BlowupError as exc:
        return "blowup", exc.last_good_index
    return states.tobytes(), clamps


def _em_args(params, x0, cfg, zero_noise=False):
    with zero_noise_streams(zero_noise):
        increments = _whole_increments(cfg, stream_index=1)
    return (params.m, params.c, params.k, *x0, cfg.delta, increments)


def test_inlined_em_loop_matches_the_rates_reference():
    """The loop in _em_path is a kept fast path: _rates inlined, one guard a step."""
    # Philox and zero noise; coarse steps that project; a start whose first
    # step is not finite; a path absorbed at the origin in the middle of a
    # chunk; a (-0.0, -0.0) start, which reaches +0 without a projection.
    cases = [
        _em_args(CYCLE_PARAMS, START, SimConfig(t_end=2.0, m_steps=500, seed=7)),
        _em_args(CYCLE_PARAMS, START, SimConfig(t_end=2.0, m_steps=500), zero_noise=True),
        _em_args(CYCLE_PARAMS, State(0.05, 0.05), SimConfig(t_end=40.0, m_steps=20, seed=3)),
        _em_args(ModelParams(3.0, 1.0, 3.0), State(9.0, 2.0), SimConfig(t_end=20.0, m_steps=8), zero_noise=True),
        _em_args(CYCLE_PARAMS, State(1e300, 1e300), SimConfig(t_end=1.0, m_steps=10)),
        _em_args(CYCLE_PARAMS, START, SimConfig(t_end=20.0, m_steps=8000, seed=7)),
        _em_args(CYCLE_PARAMS, State(-0.0, -0.0), SimConfig(t_end=10.0, m_steps=600, seed=3)),
    ]
    # Paths driven to the origin by one large negative increment on the last
    # row of the first chunk and on the first row of the second.
    for row in (_CHUNK_STEPS - 1, _CHUNK_STEPS):
        *head, increments = _em_args(CYCLE_PARAMS, START, SimConfig(t_end=2.0, m_steps=3 * _CHUNK_STEPS, seed=2))
        increments[row] = -1e3
        cases.append((*head, increments))
    # Starts at the origin, +0 and -0, over three chunks.
    for x0 in (State(0.0, 0.0), State(-0.0, -0.0)):
        cases.append(_em_args(CYCLE_PARAMS, x0, SimConfig(t_end=10.0, m_steps=3 * _CHUNK_STEPS, seed=3)))
    rng = np.random.default_rng(4)
    for seed in range(30):
        m, c, k = np.exp(rng.uniform(-2.0, 2.0, size=3)).tolist()
        n, p = rng.uniform(0.0, 5.0, size=2).tolist()
        cfg = SimConfig(t_end=float(10.0 ** rng.uniform(-1.0, 1.5)), m_steps=int(rng.integers(1, 400)),
                        seed=seed)
        cases.append(_em_args(ModelParams(m, c, k), State(n, p), cfg, zero_noise=seed % 3 == 0))
    outcomes = []
    for args in cases:
        got = _em_outcome(_em_on, *args)
        assert got == _em_outcome(_reference_em, *args), args[:6]
        outcomes.append(got)
    assert outcomes[2][1] > 0 and outcomes[3][1] > 0
    assert any(clamps for _, clamps in outcomes[11:]), "no random case projects"
    # The (1e300, 1e300) start overflows to -inf at its first step: a blow-up, not an extinction.
    assert outcomes[4] == ("blowup", 0)
    # Each absorbed path's states are +0.0 from its absorption step on.
    for index, step in [(5, 5517), (7, _CHUNK_STEPS), (8, _CHUNK_STEPS + 1)]:
        states = np.frombuffer(outcomes[index][0]).reshape(-1, 2)
        assert states[step - 1].any()
        assert states[step:].tobytes() == np.zeros_like(states[step:]).tobytes()
    assert outcomes[9] == (np.zeros((3 * _CHUNK_STEPS + 1, 2)).tobytes(), 0)
    # The loop stops at the first chunk start that finds the origin: increments
    # from there on are neither requested nor read.  5632 is the first chunk
    # start after step 5517; (0, 0) stops at once, and (-0.0, -0.0), whose
    # components turn +0 within its first chunk, at the second chunk start.
    for index, stop in [(5, 5632), (7, _CHUNK_STEPS), (8, 2 * _CHUNK_STEPS), (9, 0), (10, _CHUNK_STEPS)]:
        *head, increments = cases[index]
        poisoned = increments.copy()
        poisoned[stop:] = math.nan
        draw = ChunkReader(poisoned)
        assert _em_outcome(_em_path, *head, len(poisoned), draw) == outcomes[index], index
        assert draw.sizes == [_CHUNK_STEPS] * (stop // _CHUNK_STEPS), index
    signed = np.frombuffer(outcomes[6][0]).reshape(-1, 2)
    assert np.signbit(signed[1:]).any() and not np.signbit(signed[-1]).any()


def test_noise_stream_is_a_pure_function_of_its_address():
    a = NoiseStream(7, 3).increments(100, 0.01)
    b = NoiseStream(7, 3).increments(100, 0.01)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, NoiseStream(7, 4).increments(100, 0.01))
    assert not np.array_equal(a, NoiseStream(8, 3).increments(100, 0.01))


def test_noise_stream_prefix_stability():
    # Asking for a longer run must extend the sequence, not reshuffle it.
    long = NoiseStream(11, 0).increments(200, 0.01)
    short = NoiseStream(11, 0).increments(80, 0.01)
    assert np.array_equal(long[:80], short)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1),
       sizes=st.lists(st.integers(1, 3 * _CHUNK_STEPS), min_size=1, max_size=8))
def test_successive_increments_calls_equal_one_call(seed, stream, sizes):
    whole = NoiseStream(seed, stream).increments(sum(sizes), 0.01)
    split = NoiseStream(seed, stream)
    parts = [split.increments(size, 0.01) for size in sizes]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_noise_stream_increment_statistics():
    draws = NoiseStream(5, 1).increments(50_000, 0.01)
    flat = draws.ravel()  # 1e5 scalar increments
    assert abs(flat.mean()) < 4.0 * math.sqrt(0.01 / len(flat))
    assert abs(flat.var() - 0.01) < 0.05 * 0.01
    # The two components are independent draws, not copies.
    corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
    assert abs(corr) < 0.02


def test_noise_stream_validation():
    with pytest.raises(ValueError):
        NoiseStream(-1, 0)
    with pytest.raises(ValueError):
        NoiseStream(0, 2**64)
    with pytest.raises(ValueError):
        NoiseStream(0, 0).increments(0, 0.01)
    with pytest.raises(ValueError):
        NoiseStream(0, 0).increments(10, 0.0)


def test_simulate_path_reproducibility():
    cfg = SimConfig(t_end=2.0, m_steps=500, seed=42)
    a = simulate_path(CYCLE_PARAMS, START, cfg, stream_index=9)
    b = simulate_path(CYCLE_PARAMS, START, cfg, stream_index=9)
    assert np.array_equal(a.states, b.states)
    assert a.clamp_events == b.clamp_events
    c = simulate_path(CYCLE_PARAMS, START, cfg, stream_index=10)
    assert not np.array_equal(a.states, c.states)
    assert a.seed == 42 and a.stream_index == 9
    assert len(a) == 501
    assert (a.states >= 0.0).all()
    with pytest.raises(ValueError):
        simulate_path(CYCLE_PARAMS, State(1.0, -0.5), cfg)


def test_an_absorbed_path_draws_only_the_chunks_it_steps(monkeypatch):
    """The benchmark's path, absorbed at step 6506, asks its stream for 26
    chunks, and its states are those of one whole draw."""
    sizes = []
    increments = NoiseStream.increments

    def counted(stream, m_steps, delta):
        sizes.append(m_steps)
        return increments(stream, m_steps, delta)

    monkeypatch.setattr(NoiseStream, "increments", counted)
    cfg = SimConfig(t_end=50.0, m_steps=200_000, seed=11)
    path = simulate_path(CYCLE_PARAMS, START, cfg)
    assert sizes == [_CHUNK_STEPS] * 26
    assert path.states[6505].any() and not path.states[6506:].any()
    monkeypatch.undo()
    whole = _em_on(CYCLE_PARAMS.m, CYCLE_PARAMS.c, CYCLE_PARAMS.k, *START, cfg.delta,
                   _whole_increments(cfg, 0))
    assert path.states.tobytes() == whole[0].tobytes() and path.clamp_events == whole[1]


def test_simulate_path_memory_is_its_two_arrays():
    # The (steps + 1, 2) states and the times, half their size, are all that
    # simulate_path holds: the noise is drawn a chunk at a time, and the
    # times' integer temporary is gone before the states exist.
    steps = 200_000
    simulate_path(CYCLE_PARAMS, START, SimConfig(t_end=1.0, m_steps=10))
    tracemalloc.start()
    try:
        path = simulate_path(CYCLE_PARAMS, START, SimConfig(t_end=2.0, m_steps=steps, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Never at the origin, so every chunk is drawn.
    assert len(path) == steps + 1 and path.states[-1].any()
    assert peak <= 1.5 * path.states.nbytes + 65_536


def test_zero_noise_path_is_plain_euler(zero_noise):
    """With increments forced to zero the scheme is the Euler polygon."""
    cfg = SimConfig(t_end=2.0, m_steps=400, seed=123)
    path = simulate_path(CYCLE_PARAMS, START, cfg)
    m, c, k = CYCLE_PARAMS.m, CYCLE_PARAMS.c, CYCLE_PARAMS.k
    delta = cfg.delta
    n, p = START
    for i in range(cfg.m_steps):
        inter = m * n * p / (1.0 + n)
        n, p = n + (n * (1.0 - n / k) - inter) * delta, p + (-c * p + inter) * delta
        assert path.states[i + 1, 0] == n
        assert path.states[i + 1, 1] == p
    assert path.clamp_events == 0


def _driver_states(cfg, runs, stride):
    """Concatenate the driver's chunks into (runs, recorded, 2) plus clamps."""
    chunks = [(rows.copy(), clamps.copy()) for rows, clamps in
              _ensemble_chunks(CYCLE_PARAMS, START, cfg, runs, stride, workers=1)]
    return np.concatenate([rows for rows, _ in chunks]).transpose(2, 0, 1), chunks[-1][1]


def test_block_simulation_matches_scalar_bitwise():
    cfg = SimConfig(t_end=2.0, m_steps=500, seed=7)
    states, clamps = _driver_states(cfg, runs=6, stride=1)
    for stream in range(3, 6):
        single = simulate_path(CYCLE_PARAMS, START, cfg, stream_index=stream)
        assert np.array_equal(states[stream], single.states)
        assert clamps[stream] == single.clamp_events


def test_block_simulation_stride_subsamples_the_same_path():
    cfg = SimConfig(t_end=2.0, m_steps=500, seed=7)
    full, _ = _driver_states(cfg, runs=2, stride=1)
    coarse, _ = _driver_states(cfg, runs=2, stride=10)
    assert coarse.shape == (2, 51, 2)
    assert np.array_equal(coarse, full[:, ::10])


def _drain_chunks(params, x0, cfg, runs, stride):
    for _ in _ensemble_chunks(params, x0, cfg, runs, stride, workers=1):
        pass


def test_non_finite_states_raise_blowup_at_the_first_bad_step():
    # Without predators and with k near the float64 limit, delta = 3 makes the
    # prey grow about fourfold per step until a step overshoots past the
    # largest float, in a later chunk of the ensemble driver.
    params = ModelParams(m=1.0, c=1.0, k=1.5e308)
    cfg = SimConfig(t_end=3000.0, m_steps=1000, seed=0)
    firsts = []
    for stream in range(3):
        with pytest.raises(BlowupError) as info:
            simulate_path(params, State(1.0, 0.0), cfg, stream_index=stream)
        firsts.append(info.value.last_good_index + 1)
    first = min(firsts)
    assert first > _CHUNK_STEPS
    for stride in (1, 10):
        with pytest.raises(BlowupError, match=f"at step {first} ") as info:
            _drain_chunks(params, State(1.0, 0.0), cfg, 3, stride)
        assert info.value.last_good_index == first - 1
    # A start too large for float64 fails at its first step, without warnings.
    huge = State(1e300, 1e300)
    cfg = SimConfig(t_end=1.0, m_steps=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowupError, match="at step 1 "):
            simulate_path(CYCLE_PARAMS, huge, cfg)
        with pytest.raises(BlowupError, match="at step 1 "):
            _drain_chunks(CYCLE_PARAMS, huge, cfg, 4, 1)


def _check_against_dense(params, x0, cfg, runs, stride, workers):
    """Assert that every chunk's rows and clamp counts equal the dense reference's,
    stream by stream and sign bits included; return the runs at (+0, +0) after each chunk."""
    assert cfg.m_steps > 2 * _CHUNK_STEPS, "fewer than three chunks"
    increments = [_whole_increments(cfg, stream) for stream in range(runs)]
    absorbed, first, end = [], 0, 0
    for rows, clamps in _ensemble_chunks(params, x0, cfg, runs, stride, workers):
        end = min(end + _CHUNK_STEPS, cfg.m_steps)
        for stream in range(runs):
            states, count = _reference_em(params.m, params.c, params.k, *x0, cfg.delta,
                                          increments[stream][:end])
            assert rows[:, :, stream].tobytes() == states[::stride][first:].tobytes(), (stream, end)
            assert clamps[stream] == count, (stream, end)
        first += len(rows)
        absorbed.append(int(((rows[-1] == 0.0) & ~np.signbit(rows[-1])).all(axis=0).sum()))
    return absorbed


# Runs that reach the origin in different chunks, and steps coarse enough that
# every run projects both components.
_ABSORBING = (CYCLE_PARAMS, SimConfig(t_end=6.3, m_steps=840, seed=5))
_COARSE = (ModelParams(3.0, 1.0, 1.5), SimConfig(t_end=84.0, m_steps=840, seed=5))


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("x0", [START, State(0.0, 0.0), State(-0.0, -0.0), State(-0.0, 0.5)])
def test_compacted_ensemble_matches_dense_reference_across_chunks(x0, stride):
    runs = 6
    for workers in (1, 2):
        params, cfg = _ABSORBING
        absorbed = _check_against_dense(params, x0, cfg, runs, stride, workers)
        if x0 == START:
            assert len(set(absorbed)) >= 3, absorbed
        if x0 == (0.0, 0.0):  # also (-0.0, -0.0), which turns +0 within two steps
            assert absorbed == [runs] * len(absorbed)
        params, cfg = _COARSE
        _check_against_dense(params, x0, cfg, runs, stride, workers)
    if x0 == START:  # the coarse steps project both components of every run
        clamps = list(_ensemble_chunks(params, x0, cfg, runs, stride, 1))[-1][1]
        assert clamps.tolist() == [2] * runs


@settings(max_examples=25, deadline=None)
@given(m=st.floats(1e-3, 10.0), c=st.floats(1e-3, 10.0), k=st.floats(1e-3, 10.0),
       x0=st.sampled_from([State(0.0, 0.0), State(-0.0, -0.0), State(-0.0, 0.5)])
       | st.builds(State, st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
       t_end=st.floats(0.1, 200.0), steps=st.integers(2 * _CHUNK_STEPS + 1, 3 * _CHUNK_STEPS + 64),
       seed=st.integers(0, 2**64 - 1), runs=st.integers(2, 4), stride=st.sampled_from([1, 7]),
       workers=st.integers(1, 2))
def test_compacted_ensemble_matches_dense_reference_property(
    m, c, k, x0, t_end, steps, seed, runs, stride, workers
):
    cfg = SimConfig(t_end=t_end, m_steps=steps + -steps % stride, seed=seed)
    _check_against_dense(ModelParams(m, c, k), x0, cfg, runs, stride, workers)


def _self_convergence_gaps(seed, zero_noise=False):
    """Terminal-state gaps |Y_T(delta) - Y_T(delta/2)| from START at T = 1 on grids of
    256, 512, 1024 and 2048 steps that share one Brownian path, coarsest first: the
    finest grid's increments drawn whole, summed in consecutive groups for each
    coarser grid and stepped by _em_path."""
    cfg = SimConfig(t_end=1.0, m_steps=2048, seed=seed)
    with zero_noise_streams(zero_noise):
        fine = _whole_increments(cfg, 0)
    finals = []
    for steps in (256, 512, 1024, 2048):
        states, _ = _em_on(CYCLE_PARAMS.m, CYCLE_PARAMS.c, CYCLE_PARAMS.k, *START, 1.0 / steps,
                           fine.reshape(steps, -1, 2).sum(axis=1))
        finals.append(states[-1])
    return [math.hypot(*(coarse - finer)) for coarse, finer in zip(finals, finals[1:])]


def test_strong_self_convergence_zero_noise_is_first_order():
    gaps = _self_convergence_gaps(seed=0, zero_noise=True)
    assert len(gaps) == 3
    for coarse, fine in zip(gaps, gaps[1:]):
        assert coarse / fine == pytest.approx(2.0, rel=5e-3)


def test_strong_self_convergence_aggregate_trend():
    """Refinement shrinks the terminal gap on average over a seed panel.

    Individual paths are noisy near the absorbing boundary (the square-root
    diffusion is not Lipschitz at zero), so the per-seed gap chain is not
    reliably monotone; the mean, RMS, and median over 100 fixed seeds are.
    """
    gaps = np.array([_self_convergence_gaps(seed) for seed in range(100)])
    for aggregate in (
        gaps.mean(axis=0),
        np.sqrt((gaps**2).mean(axis=0)),
        np.median(gaps, axis=0),
    ):
        assert aggregate[0] > aggregate[1] > aggregate[2]
    # Calibration guard: aggregates should not drift from the frozen run.
    assert gaps.mean(axis=0)[0] == pytest.approx(0.02520853, rel=1e-5)
    assert gaps.mean(axis=0)[2] == pytest.approx(0.01292680, rel=1e-5)


_CONFIG = st.builds(
    SimConfig,
    t_end=st.floats(1e-3, 1e3),
    m_steps=st.integers(1, 24),
    seed=st.integers(0, 2**64 - 1),
)


# A first step whose drift overflows both components to -inf, without noise.
_OVERFLOW_TO_MINUS_INF = dict(m=1.0, c=1.0, k=1.0, n0=1.0, p0=1e200,
                              cfg=SimConfig(t_end=1e200, m_steps=1), zero_noise=True)


@settings(max_examples=150, deadline=None)
@given(m=RATES, c=RATES, k=RATES, n0=COMPONENTS, p0=COMPONENTS, cfg=_CONFIG,
       stream=st.integers(0, 3), zero_noise=st.booleans())
@example(**_OVERFLOW_TO_MINUS_INF, stream=0)
def test_em_path_gives_finite_states_or_blowup(m, c, k, n0, p0, cfg, stream, zero_noise):
    with zero_noise_streams(zero_noise):
        _check_em_path_finite_or_blowup(m, c, k, n0, p0, cfg, stream)


def _check_em_path_finite_or_blowup(m, c, k, n0, p0, cfg, stream):
    increments = _whole_increments(cfg, stream)
    dn, dp, v1, v2 = _rates(m, c, k, n0, p0)
    dw1, dw2 = increments[0].tolist()
    # The first step before the projection: -inf there is a blow-up, not an extinction.
    first = (n0 + dn * cfg.delta + math.sqrt(v1) * dw1, p0 + dp * cfg.delta + math.sqrt(v2) * dw2)
    first_finite = all(math.isfinite(value) for value in first)
    try:
        states, _ = _em_on(m, c, k, n0, p0, cfg.delta, increments)
    except BlowupError as exc:
        assert (exc.last_good_index == 0) is not first_finite
        with pytest.raises(BlowupError) as again:
            simulate_path(ModelParams(m, c, k), State(n0, p0), cfg, stream_index=stream)
        assert again.value.last_good_index == exc.last_good_index
        return
    assert first_finite
    assert np.isfinite(states).all() and (states >= 0.0).all()
    assert states[1].tolist() == [0.0 if value < 0.0 else value for value in first]
    path = simulate_path(ModelParams(m, c, k), State(n0, p0), cfg, stream_index=stream)
    np.testing.assert_array_equal(path.states, states)


@settings(max_examples=80, deadline=None)
@given(m=RATES, c=RATES, k=RATES, n0=COMPONENTS, p0=COMPONENTS, cfg=_CONFIG,
       runs=st.integers(2, 4), workers=st.integers(1, 2), zero_noise=st.booleans())
@example(**_OVERFLOW_TO_MINUS_INF, runs=2, workers=1)
def test_ensemble_chunks_give_finite_rows_or_blowup_like_single_paths(
    m, c, k, n0, p0, cfg, runs, workers, zero_noise
):
    with zero_noise_streams(zero_noise):
        _check_ensemble_chunks_like_single_paths(m, c, k, n0, p0, cfg, runs, workers)


def _check_ensemble_chunks_like_single_paths(m, c, k, n0, p0, cfg, runs, workers):
    params, x0 = ModelParams(m, c, k), State(n0, p0)
    first_bad = []
    paths = []
    for stream in range(runs):
        try:
            paths.append(simulate_path(params, x0, cfg, stream_index=stream).states)
        except BlowupError as exc:
            first_bad.append(exc.last_good_index + 1)
    rows = []
    try:
        for chunk, _ in _ensemble_chunks(params, x0, cfg, runs, 1, workers):
            rows.append(chunk.copy())
    except BlowupError as exc:
        # The ensemble stops at the first step where any of its paths blows up.
        assert exc.last_good_index + 1 == min(first_bad)
        return
    assert not first_bad
    states = np.concatenate(rows)
    assert np.isfinite(states).all() and (states >= 0.0).all()
    np.testing.assert_array_equal(states, np.stack(paths, axis=2))
