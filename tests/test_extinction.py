"""The ensemble driver's prey-extinction time on the predator-free axis p = 0,
against the exact mean of the diffusion it discretises (extinction_reference)."""

from __future__ import annotations

import math

import numpy as np

from rosmac import ModelParams, SimConfig, State
from rosmac.sde import _ensemble_chunks

from extinction_reference import ctmc_mean_extinction_time, sde_mean_extinction_time

K = 3.0


def test_exact_references_on_the_axis():
    """The quadrature has converged at its default grid, and both means are the
    values that the axis test and the birth-death check below rest on."""
    exact = sde_mean_extinction_time(1.0, K, 1.0)
    assert abs(exact - sde_mean_extinction_time(1.0, K, 1.0, points=400_000)) < 1e-6
    assert round(exact, 4) == 9.8312
    assert round(ctmc_mean_extinction_time(1, K, 1.0), 4) == 8.2580


def _first_zero_prey_times(params, x0, cfg, runs, workers):
    """Per stream, the time of the first recorded row whose prey is +0, read from
    the driver's compact chunks at stride 1; NaN for a run alive at t_end."""
    times, offset = np.full(runs, math.nan), 0
    for rows, live, _ in _ensemble_chunks(params, x0, cfg, runs, 1, workers):
        prey = rows[:, 0]
        zero = (prey == 0.0) & ~np.signbit(prey)
        new = zero.any(axis=0) & np.isnan(times[live])
        times[live[new]] = (offset + zero.argmax(axis=0)[new]) * cfg.delta
        offset += len(rows)  # the first chunk also holds the x0 row
    return times


def test_ensemble_prey_extinction_time_on_the_axis_matches_the_exact_mean():
    """From (1, 0) the mean over 20,000 runs must lie within 3 SE of the exact
    9.8312, plus sqrt(delta): the stated allowance for the bias of a killed
    Euler scheme (Gobet, Stoch. Proc. Appl. 87, 2000), not a fit to the gap.
    The exact means with the prey variance scaled by 2, 1.25 and 0.8 (omega
    1/2, 4/5 and 5/4) must fall outside that band, so the test has the power to
    see a wrong noise amplitude."""
    cfg = SimConfig(t_end=400.0, m_steps=40_000, seed=11)
    times = _first_zero_prey_times(ModelParams(3.0, 1.0, K), State(1.0, 0.0), cfg, 20_000, 2)
    assert not np.isnan(times).any()  # no run is alive at t_end
    mean, se = times.mean(), times.std() / math.sqrt(len(times))
    allowance = 3 * se + math.sqrt(cfg.delta)
    assert abs(mean - sde_mean_extinction_time(1.0, K, 1.0)) <= allowance
    for omega in (0.5, 0.8, 1.25):
        assert abs(mean - sde_mean_extinction_time(1.0, K, omega)) > allowance, omega


def _ssa_extinction_times(n_start, k, omega, runs, seed):
    """Gillespie's direct method for the birth-death chain (birth N, death
    N^2/(omega k)), vectorised over the runs that are alive: each run's time of
    reaching N = 0."""
    rng = np.random.Generator(np.random.Philox(seed))
    count, times = np.full(runs, n_start), np.zeros(runs)
    alive = np.arange(runs)
    while alive.size:
        n = count[alive].astype(float)
        total = n + n * n / (omega * k)
        times[alive] += rng.standard_exponential(alive.size) / total
        count[alive] += np.where(rng.random(alive.size) * total < n, 1, -1)
        alive = alive[count[alive] > 0]
    return times


def test_birth_death_sum_matches_a_direct_simulation():
    times = _ssa_extinction_times(1, K, 1.0, 40_000, seed=11)
    se = times.std() / math.sqrt(len(times))
    assert abs(times.mean() - ctmc_mean_extinction_time(1, K, 1.0)) <= 3 * se
