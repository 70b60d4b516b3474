from __future__ import annotations

import pytest
from hypothesis import strategies as st

from rosmac import ModelParams, State

# The two reference parameter sets used throughout: same interaction and
# mortality, capacities on either side of the stability switch at k = 2.
CYCLE_PARAMS = ModelParams(m=3.0, c=1.0, k=3.0)
SINK_PARAMS = ModelParams(m=3.0, c=1.0, k=1.5)

START = State(1.0, 0.6)

# Rates and start components for property tests: the unit scale, and scales up
# to where the first step overflows.
RATES = st.one_of(st.floats(1e-3, 10.0), st.floats(1e-3, 1e300))
COMPONENTS = st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e300))


@pytest.fixture
def cycle_params() -> ModelParams:
    return CYCLE_PARAMS


@pytest.fixture
def sink_params() -> ModelParams:
    return SINK_PARAMS


@pytest.fixture
def start() -> State:
    return START
