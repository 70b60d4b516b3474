from __future__ import annotations

import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rosmac import (
    DESK_STEPS,
    AsymptoticKind,
    BlowupError,
    ModelParams,
    NoiseStream,
    SimConfig,
    State,
    Trajectory,
    detect_asymptotics,
    ensemble_moments,
    simulate_path,
)
from rosmac import sde
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
    _rejection,
    _whole_increments,
    driver_blocks,
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
    with pytest.raises(ValueError, match="t_end / m_steps must be > 0, got 5e-324 / 10"):
        SimConfig(t_end=5e-324, m_steps=10)
    with pytest.raises(ValueError, match="^m_steps must be less than the float maximum$"):
        SimConfig(1.0, 10**400)
    with pytest.raises(ValueError):
        SimConfig(t_end=1.0, seed=-1)


@pytest.mark.parametrize("make", [
    lambda: SimConfig(1.0, 100, seed=1.9),
    lambda: SimConfig(1.0, 100, seed=True),
    lambda: SimConfig(1.0, 10.5),
    lambda: SimConfig(1.0, 10.0),
    lambda: SimConfig(1.0, True),
    lambda: NoiseStream(3.7, 0),
    lambda: NoiseStream(0, False),
    lambda: NoiseStream(0, 0).increments(2.5, 0.01),
    lambda: simulate_path(CYCLE_PARAMS, START, SimConfig(1.0, 10), stream_index=1.5),
    lambda: _ensemble_chunks(CYCLE_PARAMS, START, SimConfig(1.0, 12), 4, 1.5, 1),
    lambda: _ensemble_chunks(CYCLE_PARAMS, START, SimConfig(1.0, 12), 4.0, 1, 1),
    lambda: _ensemble_chunks(CYCLE_PARAMS, START, SimConfig(1.0, 12), 4, 1, 1.5),
    lambda: ensemble_moments(CYCLE_PARAMS, START, SimConfig(1.0, 12), 1.5, (2.0,), t_min=0.5),
], ids=["seed", "bool seed", "steps", "float steps", "bool steps", "stream seed", "bool stream",
        "increments", "path stream", "ensemble stride", "ensemble runs", "ensemble workers",
        "moments runs"])
def test_seeds_streams_and_step_counts_must_be_integers(make):
    """A float would draw the noise of its integer part and report itself, and
    a stride of 1.5 that divides m_steps = 12 records 5 of the 9 rows that its
    time grid has; a bool is no count."""
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_ensemble_chunks_checks_its_arguments_at_the_call():
    """Not when first iterated: the callers allocate for `runs` before they iterate."""
    with pytest.raises(ValueError, match="need at least 2 runs"):
        _ensemble_chunks(CYCLE_PARAMS, START, SimConfig(1.0, 12), 1, 1, 1)


def test_numpy_integer_seeds_streams_and_step_counts_are_accepted():
    cfg = SimConfig(1.0, np.int64(300), seed=np.uint64(11))
    path = simulate_path(CYCLE_PARAMS, START, cfg, stream_index=np.int32(2))
    plain = simulate_path(CYCLE_PARAMS, START, SimConfig(1.0, 300, seed=11), stream_index=2)
    assert path.states.tobytes() == plain.states.tobytes()
    assert NoiseStream(np.uint64(2**64 - 1), np.int8(1)).increments(np.int16(3), 0.01).shape == (3, 2)


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
    except ValueError as exc:
        return "rejected", _rejection(exc)
    return states.tobytes(), clamps


def _em_args(params, x0, cfg, zero_noise=False):
    with zero_noise_streams(zero_noise):
        increments = _whole_increments(cfg, stream_index=1)
    return (params.m, params.c, params.k, *x0, cfg.delta, increments)


def test_inlined_em_loop_matches_the_rates_reference():
    """The loop in _em_path is a kept fast path: _rates inlined, one guard a step."""
    # Philox and zero noise; coarse steps whose drift part leaves the quadrant;
    # a start whose first step is not finite; a path absorbed at the origin in
    # the middle of a chunk; a (-0.0, -0.0) start, which reaches +0 without a
    # projection.
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
    # Both coarse cases take a component below 0 with its drift part: rejected, not projected.
    assert outcomes[2] == ("rejected", ("p", 2)) and outcomes[3] == ("rejected", ("n", 1))
    assert any(isinstance(states, bytes) and clamps for states, clamps in outcomes[11:]), "no random case projects"
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
    for delta in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="delta must be finite and > 0"):
            NoiseStream(0, 0).increments(10, delta)


def test_simulate_path_reproducibility():
    cfg = SimConfig(t_end=2.0, m_steps=500, seed=42)
    a = simulate_path(CYCLE_PARAMS, START, cfg, stream_index=9)
    b = simulate_path(CYCLE_PARAMS, START, cfg, stream_index=9)
    assert np.array_equal(a.states, b.states)
    assert a.clamp_count == b.clamp_count
    c = simulate_path(CYCLE_PARAMS, START, cfg, stream_index=10)
    assert not np.array_equal(a.states, c.states)
    assert isinstance(a, Trajectory) and a.params == CYCLE_PARAMS and a.dt == cfg.delta
    assert len(a) == 501
    assert (a.states >= 0.0).all()
    with pytest.raises(ValueError):
        simulate_path(CYCLE_PARAMS, State(1.0, -0.5), cfg)


def test_detect_asymptotics_reads_an_em_path():
    """A path of either driver is a Trajectory: the zero-noise EM path at
    delta = 0.01 settles on Euler's cycle (period 12.26, against RK4's 12.05),
    and a noisy path that was projected reads undecided at its EM step."""
    with zero_noise_streams():
        euler = simulate_path(CYCLE_PARAMS, START, SimConfig(t_end=300.0, m_steps=30_000))
    verdict = detect_asymptotics(euler)
    assert verdict.kind is AsymptoticKind.LIMIT_CYCLE and abs(verdict.period - 12.26) < 0.01
    noisy = simulate_path(CYCLE_PARAMS, START, SimConfig(t_end=10.0, m_steps=1_000, seed=42))
    assert noisy.clamp_count == 1
    assert detect_asymptotics(noisy).diagnostics.startswith("1 projection(s) to an axis at dt=0.01:")


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
    assert path.states.tobytes() == whole[0].tobytes() and path.clamp_count == whole[1]


def test_simulate_path_memory_is_its_states():
    # The (steps + 1, 2) states are all that simulate_path holds: the noise is
    # drawn a chunk at a time, and the times are derived from dt when read.
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
    assert peak <= path.states.nbytes + 65_536


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
    assert path.clamp_count == 0


def _driver_states(cfg, runs, stride):
    """Concatenate the driver's blocks into (runs, recorded, 2) plus the projection total."""
    blocks = [(rows.copy(), clamps)
              for rows, clamps in driver_blocks(CYCLE_PARAMS, START, cfg, runs, stride, 1)]
    return np.concatenate([rows for rows, _ in blocks]).transpose(2, 0, 1), blocks[-1][1]


def test_block_simulation_matches_scalar_bitwise():
    cfg = SimConfig(t_end=2.0, m_steps=500, seed=7)
    states, clamps = _driver_states(cfg, runs=6, stride=1)
    singles = [simulate_path(CYCLE_PARAMS, START, cfg, stream_index=stream) for stream in range(6)]
    for stream in range(3, 6):
        assert np.array_equal(states[stream], singles[stream].states)
    assert clamps == sum(single.clamp_count for single in singles)


def test_block_simulation_stride_subsamples_the_same_path():
    cfg = SimConfig(t_end=2.0, m_steps=500, seed=7)
    full, _ = _driver_states(cfg, runs=2, stride=1)
    coarse, _ = _driver_states(cfg, runs=2, stride=10)
    assert coarse.shape == (2, 51, 2)
    assert np.array_equal(coarse, full[:, ::10])


# Steps of delta = 100 from START: the first step's drift part alone takes the prey
# below 0 (delta (n/k + m p/(1+n)) = 123 > 1 + delta).
_DRIFT_DECIDED = (ModelParams(3.0, 1.0, 3.0), START, SimConfig(t_end=1000.0, m_steps=10))
_DRIFT_DECIDED_MESSAGE = r"^the drift alone takes n below 0 at step 1 \(t=100\.0, delta=100\.0\); step too coarse$"


def test_simulate_path_rejects_a_step_that_its_drift_decides():
    with pytest.raises(ValueError, match=_DRIFT_DECIDED_MESSAGE):
        simulate_path(*_DRIFT_DECIDED)


def test_ensemble_driver_rejects_a_step_that_its_drift_decides():
    # The steps fit one chunk, which raises before it is yielded.
    for runs, workers in ((4, 1), (100, 2)):
        with pytest.raises(ValueError, match=_DRIFT_DECIDED_MESSAGE):
            next(_ensemble_chunks(*_DRIFT_DECIDED, runs, 1, workers))


class _NormalsWithNanPredator:
    """The standard_normal of a numpy Generator: zeros, and NaN for every predator
    normal where `nan` is set."""

    def __init__(self, nan):
        self.nan = nan

    def standard_normal(self, size=None, out=None):
        out = np.zeros(size) if out is None else out
        out[...] = 0.0
        if self.nan:
            out[..., 1] = math.nan
        return out


def test_a_blowup_in_a_step_that_its_drift_decides_is_a_blowup(monkeypatch):
    """Both runs' prey drift part is -22.33 at step 1, and stream 1's predator
    increment is NaN.  Alone, stream 0 is rejected as too coarse and stream 1
    blows up; together, the ensemble driver reports the blow-up as the scalar
    loop of stream 1 does, not the coarse step."""

    class NanPredatorStream(sde.NoiseStream):
        def __init__(self, seed, stream_index):
            super().__init__(seed, stream_index)
            self._rng = _NormalsWithNanPredator(stream_index == 1)

    monkeypatch.setattr(sde, "NoiseStream", NanPredatorStream)
    params, x0, cfg = _DRIFT_DECIDED
    with pytest.raises(ValueError, match=_DRIFT_DECIDED_MESSAGE):
        simulate_path(params, x0, cfg, stream_index=0)
    with pytest.raises(BlowupError, match="at step 1 "):
        simulate_path(params, x0, cfg, stream_index=1)
    with pytest.raises(BlowupError, match="at step 1 "):
        next(_ensemble_chunks(params, x0, cfg, 2, 1, 1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_integer_step_count_of_numpy_blows_up_as_its_python_twin():
    """An np.int64 m_steps gives a Python-float delta, so the scalar loop raises
    BlowupError, not numpy's overflow RuntimeWarning."""
    params = ModelParams(1.0, 1.0, 1e300)
    for m_steps in (10, np.int64(10)):
        with pytest.raises(BlowupError, match="at step 1 "):
            simulate_path(params, (1e300, 1e300), SimConfig(2.0, m_steps))


def test_projections_that_noise_forces_are_counted():
    """A component that only its noise term takes below 0 is projected and counted,
    by both drivers: the README ensemble's runs project 3,666 times at seed 11."""
    params, cfg = CYCLE_PARAMS, SimConfig(t_end=10.0, m_steps=4_000, seed=11)
    for _, clamps in driver_blocks(params, START, cfg, 2_000, 1, 2):
        pass
    assert clamps == 3_666
    counts = [simulate_path(params, START, cfg, stream_index=j).clamp_count for j in range(20)]
    assert sum(counts) > 0
    assert sum(counts) == list(driver_blocks(params, START, cfg, 20, 1, 1))[-1][1]


def test_coarse_step_rule_is_not_vacuous_on_the_readme_path():
    """The README simulate-sde run's projections all have a drift part >= 0, so
    the rule passes them.  Re-stepped from the state before the smallest such
    part, with that step's own increment, _em_path projects at delta and
    rejects at the smallest larger step whose drift part is below 0.  This
    shows the rule is reached on the common path and decides on the sign of
    the drift part that the step holds."""
    params, cfg = CYCLE_PARAMS, SimConfig(t_end=10.0, m_steps=4_000, seed=11)
    m, c, k, delta = params.m, params.c, params.k, cfg.delta
    paths, parts = [simulate_path(params, START, cfg, stream) for stream in range(5)], []
    for stream, path in enumerate(paths):
        assert path.clamp_count == 2
        increments = _whole_increments(cfg, stream).tolist()
        # Each step's drift part and noise, from _rates at the recorded state; an
        # absorbed tail stays at the origin, where both are 0.
        for step, ((n, p), (dw1, dw2)) in enumerate(zip(path.states[:-1].tolist(), increments), 1):
            dn, dp, v1, v2 = _rates(m, c, k, n, p)
            for component, part, noise in (("n", n + dn * delta, math.sqrt(v1) * dw1),
                                           ("p", p + dp * delta, math.sqrt(v2) * dw2)):
                if part + noise < 0.0:
                    parts.append((part, stream, step, component))
    assert len(parts) == 10 and all(part >= 0.0 for part, *_ in parts)
    smallest, stream, step, component = min(parts)
    assert (stream, step, f"{smallest:.2e}") == (3, 119, "3.70e-04")

    path = paths[stream]
    n, p = path.states[step - 1].tolist()
    increment = _whole_increments(cfg, stream)[step - 1:step]

    def restep(h):
        return _em_path(m, c, k, n, p, h, 1, ChunkReader(increment))

    def step_of(bits):
        return float(np.int64(bits).view(np.float64))

    states, clamps = restep(delta)
    assert clamps == 1 and states[1].tobytes() == path.states[step].tobytes()
    # The drift part x + d h falls with h in floats too: bisect the bits of the
    # positive steps for the smallest h above delta where it is below 0.
    dn, dp, _, _ = _rates(m, c, k, n, p)
    x, d = (n, dn) if component == "n" else (p, dp)
    lo, hi = (int(np.float64(h).view(np.int64)) for h in (delta, 2.0 * x / -d))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if x + d * step_of(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    passed, coarse = step_of(lo), step_of(hi)
    assert x + d * passed >= 0.0 > x + d * coarse and delta < coarse
    assert restep(passed)[1] == 1
    with pytest.raises(ValueError, match=rf"takes {component} below 0 at step 1 \("):
        restep(coarse)


def _drain_chunks(params, x0, cfg, runs, stride):
    for _ in driver_blocks(params, x0, cfg, runs, stride, 1):
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
    """Assert that the rows of every block of every chunk equal the dense
    reference's, stream by stream and sign bits included, and its projection
    total the sum of the reference's counts up to that chunk; return the runs at
    (+0, +0) after each chunk.  Where the reference rejects a step of some
    stream, because its drift part leaves the quadrant, the chunk's first block
    must raise that ValueError at the first such step; return None then."""
    assert cfg.m_steps > 2 * _CHUNK_STEPS, "fewer than three chunks"
    increments = [_whole_increments(cfg, stream) for stream in range(runs)]
    blocks = driver_blocks(params, x0, cfg, runs, stride, workers)
    absorbed, first = [], 0
    for end in range(_CHUNK_STEPS, cfg.m_steps + _CHUNK_STEPS, _CHUNK_STEPS):
        expected, rejected = [], []
        for stream in range(runs):
            try:
                expected.append(_reference_em(params.m, params.c, params.k, *x0, cfg.delta,
                                              increments[stream][:end]))
            except ValueError as exc:
                rejected.append(_rejection(exc))
        if rejected:
            step = min(step for _, step in rejected)
            with pytest.raises(ValueError) as info:
                next(blocks)
            assert _rejection(info.value) == (min(c for c, s in rejected if s == step), step)
            return None
        # The rows recorded up to the chunk's end, x0 included.
        recorded = len(expected[0][0][::stride])
        while first < recorded:
            rows, clamps = next(blocks)
            for stream, (states, count) in enumerate(expected):
                want = states[::stride][first:first + len(rows)]
                assert rows[:, :, stream].tobytes() == want.tobytes(), (stream, end)
            assert clamps == sum(count for _, count in expected), end
            first += len(rows)
        assert first == recorded, end
        absorbed.append(int(((rows[-1] == 0.0) & ~np.signbit(rows[-1])).all(axis=0).sum()))
    assert next(blocks, None) is None
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
        clamps = list(driver_blocks(params, x0, cfg, runs, stride, 1))[-1][1]
        assert clamps == 2 * runs


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


class _NormalsThatKill:
    """The standard_normal of a numpy Generator: zeros, except -1e6 for both
    components of the last step of the `kill`-th draw (counted from 0), which
    takes a path whose prey is +0 to the origin."""

    def __init__(self, kill):
        self.kill, self.draws = kill, 0

    def standard_normal(self, size=None, out=None):
        out = np.zeros(size) if out is None else out
        out[...] = 0.0
        if self.draws == self.kill:
            out[-1] = -1e6
        self.draws += 1
        return out


@pytest.mark.parametrize("x0", [State(-0.0, 0.6), State(0.0, 0.0)], ids=["shrinking", "origin"])
def test_driver_blocks_hold_every_run_in_its_place(monkeypatch, x0):
    """From (-0, 0.6) runs 0, 2 and 4 reach the origin at the last step of the
    first chunk and runs 1 and 3 at that of the second, so the live set shrinks
    to a subset and then to none; from the origin no run is live from the start.
    Stride 7 over 770 steps records 37, 37, 36 and 1 rows per chunk, counts
    that are not multiples of 32.  Every block holds every run in its place, in
    the bytes of that stream's single path: dead runs' columns +0.0, and the
    -0.0 of x0 kept."""

    class KillingStream(sde.NoiseStream):
        def __init__(self, seed, stream_index):
            super().__init__(seed, stream_index)
            self._rng = _NormalsThatKill(stream_index % 2)

    monkeypatch.setattr(sde, "NoiseStream", KillingStream)
    runs, stride, cfg = 5, 7, SimConfig(1.0, 770)
    blocks = [(rows.copy(), clamps) for rows, clamps in driver_blocks(CYCLE_PARAMS, x0, cfg, runs, stride, 1)]
    assert [len(rows) for rows, _ in blocks] == [32, 5, 32, 5, 32, 4, 1]
    states = np.concatenate([rows for rows, _ in blocks])
    for stream in range(runs):
        path = simulate_path(CYCLE_PARAMS, x0, cfg, stream_index=stream)
        assert states[:, :, stream].tobytes() == path.states[::stride].tobytes(), stream
    live = ~((states == 0.0) & ~np.signbit(states)).all(axis=1)  # (rows, runs): not at +0.0
    if x0 == State(0.0, 0.0):
        assert not live.any() and blocks[-1][1] == 0
        return
    assert np.signbit(states[0, 0]).all() and live[:37].all()
    assert (live[37:74] == [False, True, False, True, False]).all()
    assert not live[74:].any()
    assert blocks[-1][1] == runs  # one predator projection per run


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
    drift = (n0 + dn * cfg.delta, p0 + dp * cfg.delta)
    first = (drift[0] + math.sqrt(v1) * dw1, drift[1] + math.sqrt(v2) * dw2)
    first_finite = all(math.isfinite(value) for value in first)
    # A finite first step that a drift part takes below 0 is rejected.
    first_rejected = first_finite and any(value < 0.0 and part < 0.0 for value, part in zip(first, drift))
    try:
        states, _ = _em_on(m, c, k, n0, p0, cfg.delta, increments)
    except BlowupError as exc:
        assert (exc.last_good_index == 0) is not first_finite
        with pytest.raises(BlowupError) as again:
            simulate_path(ModelParams(m, c, k), State(n0, p0), cfg, stream_index=stream)
        assert again.value.last_good_index == exc.last_good_index
        return
    except ValueError as exc:
        assert first_finite
        assert (_rejection(exc)[1] == 1) is first_rejected
        with pytest.raises(ValueError) as again:
            simulate_path(ModelParams(m, c, k), State(n0, p0), cfg, stream_index=stream)
        assert str(again.value) == str(exc)
        with pytest.raises(ValueError) as reference:
            _reference_em(m, c, k, n0, p0, cfg.delta, increments)
        assert _rejection(reference.value) == _rejection(exc)
        return
    assert first_finite and not first_rejected
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
    # (step, kind) of each path's failure: a blow-up sorts before a rejection at the same step.
    first_bad = []
    paths = []
    for stream in range(runs):
        try:
            paths.append(simulate_path(params, x0, cfg, stream_index=stream).states)
        except BlowupError as exc:
            first_bad.append((exc.last_good_index + 1, "blowup"))
        except ValueError as exc:
            first_bad.append((_rejection(exc)[1], "rejected"))
    rows = []
    try:
        for block, _ in driver_blocks(params, x0, cfg, runs, 1, workers):
            rows.append(block.copy())
    except BlowupError as exc:
        # The ensemble stops at the first step where any of its paths fails, and
        # there a blow-up of one path wins over a rejected step of another.
        assert (exc.last_good_index + 1, "blowup") == min(first_bad)
        return
    except ValueError as exc:
        assert (_rejection(exc)[1], "rejected") == min(first_bad)
        return
    assert not first_bad
    states = np.concatenate(rows)
    assert np.isfinite(states).all() and (states >= 0.0).all()
    np.testing.assert_array_equal(states, np.stack(paths, axis=2))


class _FailingNormals:
    """The standard_normal of a numpy Generator, raising; records the thread it ran on."""

    def __init__(self):
        self.threads = []

    def standard_normal(self, size=None, out=None):
        self.threads.append(threading.current_thread())
        raise RuntimeError("draw failed")


def test_an_error_on_a_draw_thread_reaches_the_caller(monkeypatch):
    """At two parts the last of 4 streams is drawn on a helper thread: its error
    is raised by the driver once every helper is joined."""
    failing = _FailingNormals()

    class FailingStream(sde.NoiseStream):
        def __init__(self, seed, stream_index):
            super().__init__(seed, stream_index)
            if stream_index == 3:
                self._rng = failing

    monkeypatch.setattr(sde, "NoiseStream", FailingStream)
    monkeypatch.setattr(sde, "_usable_cpus", lambda: 2)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="draw failed"):
        next(_ensemble_chunks(CYCLE_PARAMS, START, SimConfig(1.0, 10), 4, 1, 2))
    assert failing.threads and threading.main_thread() not in failing.threads
    assert threading.active_count() == threads


def test_no_draw_thread_outlives_its_chunk(monkeypatch):
    """Between chunks and after the driver is closed mid-run, the thread count
    is what it was before the driver started."""
    monkeypatch.setattr(sde, "_usable_cpus", lambda: 2)
    threads = threading.active_count()
    chunks = _ensemble_chunks(CYCLE_PARAMS, START, SimConfig(1.0, 3 * _CHUNK_STEPS), 4, 1, 2)
    next(chunks)
    assert threading.active_count() == threads
    chunks.close()
    assert threading.active_count() == threads
