"""A noise stream that draws zeros, for tests of the EM drivers without noise.

It keeps NoiseStream's (seed, stream_index) checks and its increments(); only
the standard normals behind them are zeros, so an EM step reduces to an Euler
step of the drift.  Install it with zero_noise_streams(), or in a fresh process
by assigning it to rosmac.sde.NoiseStream; pytest tests use conftest's
zero_noise fixture.  It imports nothing from pytest.
"""

from __future__ import annotations

import contextlib

import numpy as np

from rosmac import sde


class _ZeroNormals:
    """The standard_normal of a numpy Generator, returning zeros."""

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out[...] = 0.0
        return out


class ZeroNoiseStream(sde.NoiseStream):
    """NoiseStream with its address checks, whose increments are all +0.0."""

    def __init__(self, seed: int, stream_index: int):
        super().__init__(seed, stream_index)
        self._rng = _ZeroNormals()


@contextlib.contextmanager
def zero_noise_streams(active: bool = True):
    """Within the block, simulate_path and the ensembles draw from ZeroNoiseStream
    (from NoiseStream itself when not active)."""
    saved = sde.NoiseStream
    if active:
        sde.NoiseStream = ZeroNoiseStream
    try:
        yield
    finally:
        sde.NoiseStream = saved
