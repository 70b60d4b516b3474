from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import strategies as st

from rosmac import BlowupError, ModelParams, State, sde
from rosmac.model import _rates
from rosmac.sde import _BLOCK_ROWS, _em_path, _ensemble_chunks

from fakes import zero_noise_streams

# The two reference parameter sets used throughout: same interaction and
# mortality, capacities on either side of the stability switch at k = 2.
CYCLE_PARAMS = ModelParams(m=3.0, c=1.0, k=3.0)
SINK_PARAMS = ModelParams(m=3.0, c=1.0, k=1.5)

START = State(1.0, 0.6)

# Rates and start components for property tests: the unit scale, and scales up
# to where the first step overflows.
RATES = st.one_of(st.floats(1e-3, 10.0), st.floats(1e-3, 1e300))
COMPONENTS = st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e300))


def _reference_em(m, c, k, n, p, delta, increments):
    """EM from model._rates one step at a time, projected and checked as _em_path does:
    BlowupError at a state that is not finite, else ValueError where a component
    ends below 0 and so does its drift part n + delta dn (or p + delta dp).
    Dense: it steps every row, also after the path has reached the origin."""
    states, clamps = [(n, p)], 0
    for dw1, dw2 in increments.tolist():
        dn, dp, v1, v2 = _rates(m, c, k, n, p)
        drift = n + dn * delta, p + dp * delta
        n = drift[0] + math.sqrt(v1) * dw1
        p = drift[1] + math.sqrt(v2) * dw2
        below = n < 0.0, p < 0.0
        if n < 0.0:
            n, clamps = (0.0 if n > -math.inf else math.nan), clamps + 1
        if p < 0.0:
            p, clamps = (0.0 if p > -math.inf else math.nan), clamps + 1
        if not (math.isfinite(n) and math.isfinite(p)):
            raise BlowupError(len(states), delta)
        for component, negative, part in zip("np", below, drift):
            if negative and part < 0.0:
                raise ValueError(f"the drift alone takes {component} below 0 at step {len(states)} ")
        states.append((n, p))
    return np.array(states), clamps


def _rejection(exc):
    """(component, step) of the ValueError that rejects a step whose drift part decides it."""
    found = re.search(r"the drift alone takes ([np]) below 0 at step (\d+) ", str(exc))
    assert found, exc
    return found[1], int(found[2])


def _whole_increments(cfg, stream_index):
    """All (m_steps, 2) increments of one path in one draw, from the stream class
    that sde draws through: zeros under the zero_noise fixture."""
    return sde.NoiseStream(cfg.seed, stream_index).increments(cfg.m_steps, cfg.delta)


class ChunkReader:
    """draw(size) for _em_path over a whole increment array: each call returns
    the next `size` rows, and `sizes` records what each call asked for."""

    def __init__(self, increments):
        self.increments, self.sizes = increments, []

    def __call__(self, size):
        start = sum(self.sizes)
        self.sizes.append(size)
        return self.increments[start:start + size]


def driver_blocks(params, x0, cfg, runs, workers):
    """The ensemble driver's (rows, clamps) blocks, each checked to hold every
    run and at most _BLOCK_ROWS rows."""
    for rows, clamps in _ensemble_chunks(params, x0, cfg, runs, workers):
        assert rows.shape[1:] == (2, runs) and len(rows) <= _BLOCK_ROWS, rows.shape
        yield rows, clamps


def _em_on(m, c, k, n, p, delta, increments):
    """_em_path called like _reference_em: its steps and chunks read from one array."""
    return _em_path(m, c, k, n, p, delta, len(increments), ChunkReader(increments))


@pytest.fixture
def zero_noise():
    """sde draws zeros for the test: fakes.ZeroNoiseStream replaces NoiseStream."""
    with zero_noise_streams():
        yield


@pytest.fixture
def cycle_params() -> ModelParams:
    return CYCLE_PARAMS


@pytest.fixture
def sink_params() -> ModelParams:
    return SINK_PARAMS


@pytest.fixture
def start() -> State:
    return START
