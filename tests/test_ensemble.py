from __future__ import annotations

import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from rosmac import (
    MomentSeries,
    SamplePath,
    SimConfig,
    State,
    ensemble_moments,
    run_ensemble,
    simulate_path,
)
from rosmac.ensemble import _ensemble_stats, _mean_var, _pairwise_sum

from conftest import CYCLE_PARAMS, START


# References that reduce whole (runs, times, 2) tensors or lists of paths, where
# the library streams the same reductions chunk by chunk.

def _stats_from_states(times, states, seed, clamp_events_total=0):
    """Ensemble statistics of a (runs, times, 2) tensor."""
    moments = _mean_var(states.transpose(1, 2, 0))
    return _ensemble_stats(times, moments, states.shape[0], seed, clamp_events_total)


def _moment_series(paths, p):
    """E||X_t||^p over sample paths that share one time grid."""
    norms = np.stack([np.hypot(path.states[:, 0], path.states[:, 1]) for path in paths])
    values = _pairwise_sum(norms**p) / len(paths)
    return MomentSeries(p=float(p), times=paths[0].times.copy(), values=values)


def _lyapunov_exponent_proxy(path, t_min=1.0):
    """max over recorded t >= t_min of log||X_t|| / t; -inf for a path dead throughout."""
    mask = path.times >= t_min
    norms = np.hypot(path.states[mask, 0], path.states[mask, 1])
    with np.errstate(divide="ignore"):
        return float((np.log(norms) / path.times[mask]).max())


def _constant_path(n, p, samples=5, spacing=0.5, stream_index=0):
    times = np.arange(samples) * spacing
    states = np.tile([float(n), float(p)], (samples, 1))
    return SamplePath(
        times=times, states=states, clamp_events=0, seed=0, stream_index=stream_index
    )


def test_pairwise_sum_agrees_with_flat_sum():
    rng = np.random.default_rng(1)
    for count in (1, 2, 3, 7, 16, 100):
        block = rng.normal(size=(count, 4))
        assert np.abs(_pairwise_sum(block) - block.sum(axis=0)).max() < 1e-12
    ints = np.arange(10, dtype=float).reshape(10, 1)
    assert _pairwise_sum(ints)[0] == 45.0


def test_stats_from_states_two_path_exactness():
    times = np.array([0.0, 1.0])
    states = np.array(
        [
            [[1.0, 2.0], [3.0, 4.0]],
            [[5.0, 6.0], [7.0, 8.0]],
        ]
    )
    stats = _stats_from_states(times, states, seed=9, clamp_events_total=3)
    assert np.array_equal(stats.mean_n, [3.0, 5.0])
    assert np.array_equal(stats.mean_p, [4.0, 6.0])
    assert np.array_equal(stats.var_n, [4.0, 4.0])
    assert np.array_equal(stats.var_p, [4.0, 4.0])
    assert np.array_equal(stats.band_lower_n, [2.0, 4.0])
    assert np.array_equal(stats.band_upper_n, [4.0, 6.0])
    assert stats.runs == 2
    assert stats.seed == 9
    assert stats.clamp_events_total == 3
    assert not stats.mean_n.flags.writeable


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stats_reject_finite_states_whose_squares_overflow():
    times = np.array([0.0, 0.5])
    states = np.array([[[1.0, 1.0], [1.5e308, 1.0]], [[1.0, 1.0], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="t=0.5"):
        _stats_from_states(times, states, seed=0)
    stats = _stats_from_states(times, states[:, :1], seed=0)
    assert stats.var_n.tolist() == [0.0]


def test_band_arrays_recompute_from_mean_and_variance():
    cfg = SimConfig(t_end=5.0, m_steps=500, seed=3)
    stats = run_ensemble(CYCLE_PARAMS, START, cfg, runs=32)
    assert np.array_equal(stats.band_lower_n, stats.mean_n - 0.5 * np.sqrt(stats.var_n))
    assert np.array_equal(stats.band_upper_n, stats.mean_n + 0.5 * np.sqrt(stats.var_n))
    assert np.array_equal(stats.band_lower_p, stats.mean_p - 0.5 * np.sqrt(stats.var_p))
    assert np.array_equal(stats.band_upper_p, stats.mean_p + 0.5 * np.sqrt(stats.var_p))
    assert (stats.var_n >= 0.0).all() and (stats.var_p >= 0.0).all()


def test_zero_noise_ensemble_collapses_to_euler_path(zero_noise):
    # A power-of-two run count keeps the pairwise mean bit-exact, so the
    # variance of identical paths is exactly zero, not merely tiny.
    cfg = SimConfig(t_end=2.0, m_steps=250, seed=5)
    stats = run_ensemble(CYCLE_PARAMS, START, cfg, runs=16)
    reference = simulate_path(CYCLE_PARAMS, START, cfg)
    assert np.array_equal(stats.mean_n, reference.states[:, 0])
    assert np.array_equal(stats.mean_p, reference.states[:, 1])
    assert stats.var_n.max() == 0.0
    assert stats.var_p.max() == 0.0
    assert np.array_equal(stats.band_lower_n, stats.band_upper_n)


def test_two_run_ensemble_is_the_average_of_its_streams():
    cfg = SimConfig(t_end=3.0, m_steps=300, seed=11)
    stats = run_ensemble(CYCLE_PARAMS, START, cfg, runs=2)
    path0 = simulate_path(CYCLE_PARAMS, START, cfg, stream_index=0)
    path1 = simulate_path(CYCLE_PARAMS, START, cfg, stream_index=1)
    assert np.array_equal(stats.mean_n, (path0.states[:, 0] + path1.states[:, 0]) / 2)
    assert np.array_equal(stats.mean_p, (path0.states[:, 1] + path1.states[:, 1]) / 2)
    assert stats.clamp_events_total == path0.clamp_events + path1.clamp_events


def test_stride_thins_the_same_ensemble():
    cfg = SimConfig(t_end=2.0, m_steps=400, seed=13)
    full = run_ensemble(CYCLE_PARAMS, START, cfg, runs=8)
    thin = run_ensemble(CYCLE_PARAMS, START, cfg, runs=8, stride=20)
    # Grid times are rebuilt from the strided spacing and may differ by an
    # ulp; the recorded states themselves must agree bit for bit.
    assert np.abs(thin.times - full.times[::20]).max() < 1e-12
    assert np.array_equal(thin.mean_n, full.mean_n[::20])
    assert np.array_equal(thin.var_p, full.var_p[::20])
    with pytest.raises(ValueError):
        run_ensemble(CYCLE_PARAMS, START, cfg, runs=8, stride=7)


def test_worker_count_does_not_change_results():
    # Worker threads split each chunk's noise draws by stream; a short switch
    # interval makes them interleave, and stream-addressed noise keeps it exact.
    cfg = SimConfig(t_end=1.0, m_steps=500, seed=17)
    serial = run_ensemble(CYCLE_PARAMS, START, cfg, runs=600)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_ensemble(CYCLE_PARAMS, START, cfg, runs=600, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(serial.mean_n, threaded.mean_n)
    assert np.array_equal(serial.var_n, threaded.var_n)
    assert np.array_equal(serial.mean_p, threaded.mean_p)
    assert np.array_equal(serial.var_p, threaded.var_p)
    assert serial.clamp_events_total == threaded.clamp_events_total


BAD_STARTS = (State(-1.0, 0.6), State(math.nan, 0.6), State(1.0, math.inf))


def test_ensemble_validation():
    cfg = SimConfig(t_end=1.0, m_steps=100, seed=0)
    with pytest.raises(ValueError):
        run_ensemble(CYCLE_PARAMS, START, cfg, runs=1)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            run_ensemble(CYCLE_PARAMS, START, cfg, runs=4, workers=workers)
    for x0 in BAD_STARTS:
        with pytest.raises(ValueError, match="x0"):
            run_ensemble(CYCLE_PARAMS, x0, cfg, runs=4)


def test_ensemble_memory_does_not_grow_with_steps():
    # Chunks are reduced as they are produced, so only the O(m_steps) outputs
    # grow with the grid; a (runs, recorded, 2) tensor would add 16 bytes per
    # run per step.
    runs, grids = 256, (1_000, 10_000)
    peaks = []
    for m_steps in grids:
        cfg = SimConfig(t_end=10.0, m_steps=m_steps, seed=3)
        tracemalloc.start()
        try:
            run_ensemble(CYCLE_PARAMS, START, cfg, runs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    states_growth = runs * (grids[1] - grids[0]) * 2 * 8
    assert peaks[1] - peaks[0] < states_growth / 10


def test_noisy_ensemble_records_boundary_hits():
    cfg = SimConfig(t_end=10.0, m_steps=400, seed=1)
    stats = run_ensemble(CYCLE_PARAMS, START, cfg, runs=16)
    assert stats.clamp_events_total > 0
    assert stats.runs == 16
    assert stats.seed == 1


def test_moment_series_constant_path_values():
    path = _constant_path(3.0, 4.0)
    series = _moment_series([path], 2.0)
    assert series.p == 2.0
    assert np.array_equal(series.values, np.full(5, 25.0))
    mixed = _moment_series([path, _constant_path(0.0, 0.0, stream_index=1)], 2.0)
    assert np.array_equal(mixed.values, np.full(5, 12.5))


def test_lyapunov_proxy_reference_values():
    path = _constant_path(3.0, 4.0, samples=5, spacing=0.5)
    # Rates log(5)/t over t in {1.0, 1.5, 2.0}; the earliest time wins.
    assert _lyapunov_exponent_proxy(path) == pytest.approx(math.log(5.0), rel=1e-15)
    dead = _constant_path(0.0, 0.0)
    assert _lyapunov_exponent_proxy(dead) == -math.inf


def test_ensemble_moments_zero_noise_reference(zero_noise):
    cfg = SimConfig(t_end=2.0, m_steps=200, seed=0)
    series, proxies = ensemble_moments(CYCLE_PARAMS, START, cfg, runs=4, p_values=(1.0, 2.0))
    reference = simulate_path(CYCLE_PARAMS, START, cfg)
    norms = np.hypot(reference.states[:, 0], reference.states[:, 1])
    assert np.array_equal(series[0].values, norms)
    assert np.array_equal(series[1].values, norms**2)
    mask = reference.times >= 1.0
    expected = (np.log(norms[mask]) / reference.times[mask]).max()
    assert np.array_equal(proxies, np.full(4, expected))


def test_ensemble_moments_validation():
    cfg = SimConfig(t_end=2.0, m_steps=200, seed=0)
    with pytest.raises(ValueError):
        ensemble_moments(CYCLE_PARAMS, START, cfg, runs=4, p_values=(2.0, -1.0))
    with pytest.raises(ValueError):
        ensemble_moments(CYCLE_PARAMS, START, cfg, runs=4, p_values=(2.0,), t_min=5.0)
    with pytest.raises(ValueError, match="workers"):
        ensemble_moments(CYCLE_PARAMS, START, cfg, runs=4, p_values=(2.0,), workers=0)
    for x0 in BAD_STARTS:
        with pytest.raises(ValueError, match="x0"):
            ensemble_moments(CYCLE_PARAMS, x0, cfg, runs=4, p_values=(2.0,))


# Both grids span several chunks of the driver, and stride 7 divides neither
# chunk.  The coarse one clamps more than once per path on average; the
# "zero_noise" one runs under the zero_noise fixture.
STREAMING_CONFIGS = {
    "zero_noise": SimConfig(t_end=10.0, m_steps=700, seed=21),
    "high_clamp": SimConfig(t_end=100.0, m_steps=1001, seed=21),
}


@functools.lru_cache(maxsize=len(STREAMING_CONFIGS))
def _materialised(name):
    """simulate_path states of streams 0..1024 as (1025, m_steps + 1, 2), and clamps."""
    cfg = STREAMING_CONFIGS[name]
    paths = [simulate_path(CYCLE_PARAMS, START, cfg, stream_index=j) for j in range(1025)]
    return np.stack([path.states for path in paths]), np.array([path.clamp_events for path in paths])


def _reference(name, runs, stride):
    cfg = STREAMING_CONFIGS[name]
    states, clamps = _materialised(name)
    times = np.arange(cfg.m_steps // stride + 1) * (cfg.delta * stride)
    return times, states[:runs, ::stride], int(clamps[:runs].sum())


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("runs", [2, 3, 17, 1025])
@pytest.mark.parametrize("name", sorted(STREAMING_CONFIGS))
def test_streaming_ensemble_matches_materialised_states(request, name, runs, stride, workers):
    if name == "zero_noise":
        request.getfixturevalue("zero_noise")
    cfg = STREAMING_CONFIGS[name]
    times, states, clamps = _reference(name, runs, stride)
    expected = _stats_from_states(times, states, cfg.seed, clamps)
    stats = run_ensemble(CYCLE_PARAMS, START, cfg, runs, stride=stride, workers=workers)
    for field in ("times", "mean_n", "var_n", "band_lower_n", "band_upper_n",
                  "mean_p", "var_p", "band_lower_p", "band_upper_p"):
        assert np.array_equal(getattr(stats, field), getattr(expected, field)), field
    assert stats.clamp_events_total == clamps
    if name == "high_clamp":
        assert clamps > runs


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("runs", [2, 3, 17, 1025])
@pytest.mark.parametrize("name", sorted(STREAMING_CONFIGS))
def test_streaming_moments_match_materialised_paths(request, name, runs, stride, workers):
    if name == "zero_noise":
        request.getfixturevalue("zero_noise")
    cfg = STREAMING_CONFIGS[name]
    times, states, _ = _reference(name, runs, stride)
    paths = [SamplePath(times=times, states=states[j], clamp_events=0, seed=cfg.seed, stream_index=j)
             for j in range(runs)]
    orders = (1.0, 2.5)
    series, proxies = ensemble_moments(
        CYCLE_PARAMS, START, cfg, runs, orders, t_min=3.0, stride=stride, workers=workers
    )
    for got, p in zip(series, orders):
        expected = _moment_series(paths, p)
        assert got.p == p
        assert np.array_equal(got.times, expected.times)
        assert np.array_equal(got.values, expected.values)
    assert np.array_equal(proxies, [_lyapunov_exponent_proxy(path, t_min=3.0) for path in paths])
