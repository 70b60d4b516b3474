from __future__ import annotations

import functools
import math
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from rosmac import (
    MomentSeries,
    SimConfig,
    State,
    Trajectory,
    ensemble_moments,
    run_ensemble,
    simulate_path,
)
from rosmac.ensemble import _ensemble_stats, _mean_var, _pairwise_sum, _reduced
from rosmac import sde
from rosmac.sde import _BLOCK_ROWS, _CHUNK_STEPS

from conftest import CYCLE_PARAMS, START


# References that reduce whole (runs, times, 2) tensors or lists of paths, where
# the library streams the same reductions chunk by chunk, in blocks of rows.

def _reference_pairwise_sum(values):
    """Sum over axis 0 with a fixed halving tree (shape-determined order): the
    library's tree as it was written before its blocked, in-place form."""
    acc = values
    while acc.shape[0] > 1:
        count = acc.shape[0]
        paired = count - (count % 2)
        folded = acc[0:paired:2] + acc[1:paired:2]
        if count % 2:
            folded = np.concatenate([folded, acc[-1:]], axis=0)
        acc = folded
    return acc[0]


def _reference_mean_var(rows):
    """(times, 2, runs) states -> (4, times), whole components at a time."""
    runs = rows.shape[2]
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for component in (rows[:, 0].T, rows[:, 1].T):
            mean = _reference_pairwise_sum(component) / runs
            out += [mean, _reference_pairwise_sum((component - mean) ** 2) / runs]
    return np.array(out)


def _stats_from_states(times, states, clamp_events_total=0):
    """Ensemble statistics of a (runs, times, 2) tensor."""
    moments = _reference_mean_var(states.transpose(1, 2, 0))
    return _ensemble_stats(times, moments, clamp_events_total)


def _moment_series(paths, p):
    """E||X_t||^p over sample paths that share one time grid."""
    norms = np.stack([np.hypot(path.states[:, 0], path.states[:, 1]) for path in paths])
    values = _reference_pairwise_sum(norms**p) / len(paths)
    return MomentSeries(p=float(p), times=paths[0].times.copy(), values=values)


def _lyapunov_exponent_proxy(path, t_min=1.0):
    """max over recorded t >= t_min of log||X_t|| / t; -inf for a path dead throughout."""
    mask = path.times >= t_min
    norms = np.hypot(path.states[mask, 0], path.states[mask, 1])
    with np.errstate(divide="ignore"):
        return float((np.log(norms) / path.times[mask]).max())


def _constant_path(n, p, samples=5, spacing=0.5):
    states = np.tile([float(n), float(p)], (samples, 1))
    return Trajectory(states, CYCLE_PARAMS, dt=spacing, clamp_count=0)


def test_pairwise_sum_agrees_with_flat_sum():
    rng = np.random.default_rng(1)
    for count in (1, 2, 3, 7, 16, 100):
        block = rng.normal(size=(4, count))
        summed = _pairwise_sum(block)
        assert np.abs(summed - block.sum(axis=1)).max() < 1e-12
    ints = np.arange(10, dtype=float).reshape(1, 10)
    assert _pairwise_sum(ints)[0] == 45.0


def _oracle_states(times, runs, rng):
    """(times, 2, runs) states with -0.0 entries, all-zero columns, runs whose
    components differ by orders of magnitude, and a run near 1e154."""
    shape = (times, 2, runs)
    rows = rng.lognormal(0.0, 3.0, size=shape) * rng.choice([1.0, -0.0, 0.0], size=shape, p=[0.8, 0.1, 0.1])
    rows[:, :, rng.integers(runs)] = 0.0
    rows[:, 1, rng.integers(runs)] = -0.0
    rows[times // 2, 0, rng.integers(runs)] = 3e154
    return rows


@pytest.mark.parametrize("times", [1, 31, 32, 33, 257])
@pytest.mark.parametrize("runs", [2, 3, 5, 125, 2000, 2001])
def test_blocked_reduction_equals_the_whole_array_tree_bit_for_bit(runs, times):
    rng = np.random.default_rng(runs * 1000 + times)
    rows = _oracle_states(times, runs, rng)
    # The library's block loop over the rows in the driver's blocks, on the grid t = 0, 1, ...
    grid = SimpleNamespace(m_steps=times - 1, delta=1.0)
    blocks = [(rows[lo:lo + _BLOCK_ROWS], 0) for lo in range(0, times, _BLOCK_ROWS)]
    _, got, _ = _reduced(blocks, grid, 1, 4, _mean_var)
    expected = _reference_mean_var(rows)
    assert got.tobytes() == expected.tobytes()
    # The run near 1e154 squares past the float maximum at its time: the
    # variance overflows as it did, and the bands reject it.
    assert math.isinf(got[1, times // 2])
    with pytest.raises(ValueError, match=f"t={float(times // 2)}"):
        _ensemble_stats(np.arange(times, dtype=float), got, 0)
    # The moment sums of ensemble_moments, over the same tree.
    norms = np.hypot(rows[:, 0], rows[:, 1])
    with np.errstate(over="ignore"):
        for p in (1.0, 2.5):
            moments = _pairwise_sum(norms ** p) / runs
            assert moments.tobytes() == (_reference_pairwise_sum(norms.T ** p) / runs).tobytes()


def test_stats_from_states_two_path_exactness():
    times = np.array([0.0, 1.0])
    states = np.array(
        [
            [[1.0, 2.0], [3.0, 4.0]],
            [[5.0, 6.0], [7.0, 8.0]],
        ]
    )
    stats = _stats_from_states(times, states, clamp_events_total=3)
    assert np.array_equal(stats.mean_n, [3.0, 5.0])
    assert np.array_equal(stats.mean_p, [4.0, 6.0])
    assert np.array_equal(stats.var_n, [4.0, 4.0])
    assert np.array_equal(stats.var_p, [4.0, 4.0])
    assert np.array_equal(stats.band_lower_n, [2.0, 4.0])
    assert np.array_equal(stats.band_upper_n, [4.0, 6.0])
    assert stats.clamp_events_total == 3
    assert not stats.mean_n.flags.writeable


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stats_reject_finite_states_whose_squares_overflow():
    times = np.array([0.0, 0.5])
    states = np.array([[[1.0, 1.0], [1.5e308, 1.0]], [[1.0, 1.0], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="t=0.5"):
        _stats_from_states(times, states)
    stats = _stats_from_states(times, states[:, :1])
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
    assert stats.clamp_events_total == path0.clamp_count + path1.clamp_count


def test_stride_thins_the_same_ensemble():
    cfg = SimConfig(t_end=2.0, m_steps=400, seed=13)
    full = run_ensemble(CYCLE_PARAMS, START, cfg, runs=8)
    # 20 keeps rows of every driver block; 80 and 400 keep none of most blocks.
    for stride in (20, 80, 400):
        thin = run_ensemble(CYCLE_PARAMS, START, cfg, runs=8, stride=stride)
        # Grid times are rebuilt from the strided spacing and may differ by an
        # ulp; the recorded states themselves must agree bit for bit.
        assert len(thin.times) == 400 // stride + 1
        assert np.abs(thin.times - full.times[::stride]).max() < 1e-12
        assert np.array_equal(thin.mean_n, full.mean_n[::stride])
        assert np.array_equal(thin.var_p, full.var_p[::stride])
    with pytest.raises(ValueError):
        run_ensemble(CYCLE_PARAMS, START, cfg, runs=8, stride=7)


@pytest.mark.parametrize("stride", [0, -4, 5, 1.5])
def test_a_bad_stride_raises_before_any_noise_is_drawn(monkeypatch, stride):
    """A stride that is not an integer, or not a positive divisor of m_steps =
    12, is named by both ensembles before the driver opens a noise stream."""

    def no_noise(seed, stream_index):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(sde, "NoiseStream", no_noise)
    cfg = SimConfig(1.0, 12)
    message = (f"^stride must be an integer, got {stride}$" if stride == 1.5
               else f"^stride must divide m_steps, got stride={stride}, m_steps=12$")
    with pytest.raises(ValueError, match=message):
        run_ensemble(CYCLE_PARAMS, START, cfg, 4, stride=stride)
    with pytest.raises(ValueError, match=message):
        ensemble_moments(CYCLE_PARAMS, START, cfg, 4, (2.0,), t_min=0.5, stride=stride)


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


def test_unallocatable_numpy_run_count_names_runs_without_overflow():
    # A run count in numpy's int64 whose work size would wrap: Python ints keep
    # the size exact, so the error names runs and no overflow warning comes first.
    cfg = SimConfig(t_end=2.0, m_steps=10)
    runs = np.int64(2**61)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ensemble in (
            lambda: run_ensemble(CYCLE_PARAMS, START, cfg, runs),
            lambda: ensemble_moments(CYCLE_PARAMS, START, cfg, runs, (2.0,)),
        ):
            with pytest.raises(MemoryError, match=f"bytes for runs={2**61}$"):
                ensemble()


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


def test_ensemble_memory_is_one_chunk_buffer():
    # The driver holds one 256 x 2 x runs float buffer: row i holds step i's
    # noise until step i has read it and writes the live runs' states over it,
    # so the states add no second buffer: it is the only one, shared with the
    # noise.  The driver adds one (rows, 2, runs) block into which it scatters
    # the live runs' rows by stream, and each block step allocates its own
    # temporaries for one such block: the squares and tree levels of the
    # bands, the norms, powers, tree levels and rates of the moments.  A second
    # chunk-sized buffer, for the noise, the states, a staging area for the
    # draws or whole-chunk norms and powers for the moments, would exceed the
    # bound.
    runs, m_steps = 2_000, 512
    cfg = SimConfig(t_end=10.0 * m_steps / 4_000, m_steps=m_steps, seed=11)
    # numpy.random imports modules on its first Philox key (about 0.7 MB traced):
    # pay that before tracing, so the peak is the ensemble's own.
    run_ensemble(CYCLE_PARAMS, START, SimConfig(t_end=1.0, m_steps=10), 2)
    for ensemble in (
        lambda: run_ensemble(CYCLE_PARAMS, START, cfg, runs, workers=2),
        lambda: ensemble_moments(CYCLE_PARAMS, START, cfg, runs, (1.0, 2.0, 4.0), t_min=0.5, workers=2),
    ):
        tracemalloc.start()
        try:
            ensemble()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * 257 * 2 * runs * 8


def test_noisy_ensemble_records_boundary_hits():
    cfg = SimConfig(t_end=10.0, m_steps=400, seed=1)
    stats = run_ensemble(CYCLE_PARAMS, START, cfg, runs=16)
    assert stats.clamp_events_total > 0


def test_moment_series_constant_path_values():
    path = _constant_path(3.0, 4.0)
    series = _moment_series([path], 2.0)
    assert series.p == 2.0
    assert np.array_equal(series.values, np.full(5, 25.0))
    mixed = _moment_series([path, _constant_path(0.0, 0.0)], 2.0)
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
    for p in (-1.0, math.inf):
        with pytest.raises(ValueError, match=f"moment orders must be finite and > 0, got {p!r}"):
            ensemble_moments(CYCLE_PARAMS, START, cfg, runs=4, p_values=(2.0, p))
    with pytest.raises(ValueError):
        ensemble_moments(CYCLE_PARAMS, START, cfg, runs=4, p_values=(2.0,), t_min=5.0)
    with pytest.raises(ValueError, match="workers"):
        ensemble_moments(CYCLE_PARAMS, START, cfg, runs=4, p_values=(2.0,), workers=0)
    with pytest.raises(ValueError, match="stride"):
        ensemble_moments(CYCLE_PARAMS, START, cfg, runs=4, p_values=(2.0,), stride=0)
    for runs in (-5, 1):
        with pytest.raises(ValueError, match="need at least 2 runs"):
            ensemble_moments(CYCLE_PARAMS, START, cfg, runs=runs, p_values=(2.0,))
    for x0 in BAD_STARTS:
        with pytest.raises(ValueError, match="x0"):
            ensemble_moments(CYCLE_PARAMS, x0, cfg, runs=4, p_values=(2.0,))


# Both grids span several chunks of the driver, and stride 7 divides neither
# chunk.  The coarse one clamps more than once per path on average; the
# "zero_noise" one runs under the zero_noise fixture.
STREAMING_CONFIGS = {
    "zero_noise": SimConfig(t_end=10.0, m_steps=700, seed=21),
    "high_clamp": SimConfig(t_end=50.0, m_steps=1001, seed=21),
}


@functools.lru_cache(maxsize=len(STREAMING_CONFIGS))
def _materialised(name):
    """simulate_path states of streams 0..1024 as (1025, m_steps + 1, 2), and clamps."""
    cfg = STREAMING_CONFIGS[name]
    paths = [simulate_path(CYCLE_PARAMS, START, cfg, stream_index=j) for j in range(1025)]
    return np.stack([path.states for path in paths]), np.array([path.clamp_count for path in paths])


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
    expected = _stats_from_states(times, states, clamps)
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
    paths = [Trajectory(states[j], CYCLE_PARAMS, dt=cfg.delta * stride, clamp_count=0)
             for j in range(runs)]
    orders = (1.0, 2.5)
    # 3.0, and the recorded times that start the second block of rows and the
    # driver's second chunk: the growth proxy's rows start there.
    for t_min in (3.0, times[_BLOCK_ROWS], times[1 + _CHUNK_STEPS // stride]):
        series, proxies = ensemble_moments(
            CYCLE_PARAMS, START, cfg, runs, orders, t_min=t_min, stride=stride, workers=workers
        )
        for got, p in zip(series, orders):
            expected = _moment_series(paths, p)
            assert got.p == p
            assert np.array_equal(got.times, expected.times)
            assert np.array_equal(got.values, expected.values)
        assert np.array_equal(proxies, [_lyapunov_exponent_proxy(path, t_min=t_min) for path in paths])
