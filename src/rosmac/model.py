"""Core definitions of the predator-prey model and its noisy extension.

The dimensional system tracks a prey density ``N`` growing logistically and a
predator density ``P`` feeding on it through a saturating (Holling type II)
response:

    dN/dt = r N (1 - N/K) - s N P / (1 + s tau N)
    dP/dt = -c P + d s N P / (1 + s tau N)

Rescaling prey by ``X = 1/(s tau)``, predator by ``Y = d X`` and time by
``1/r`` collapses the six raw parameters to three:

    dN/dt = N (1 - N/k) - m N P / (1 + N)
    dP/dt = -c P + m N P / (1 + N)

All downstream analysis works with the reduced triple ``(m, c, k)``.  The
demographic-noise extension keeps the same drift and adds one independent
Brownian motion per component with diagonal diffusion

    g11 = sqrt(N (1 + N/k) + m N P / (1 + N))
    g22 = sqrt(c P + m N P / (1 + N))

so the noise variance matches the total event rate (births plus deaths plus
conversions) of each species.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Drift",
    "GridSpec",
    "ModelParams",
    "RawParams",
    "Scales",
    "State",
    "checked_state",
    "drift",
    "nondimensionalize",
]


class State(NamedTuple):
    """A point (n, p) in the closed positive quadrant."""

    n: float
    p: float


def _integer(name: str, value) -> int:
    """value as an int; ValueError unless it is an integer (numpy's are) and no bool."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _sized(name: str, value: int, make, shape: tuple[int, ...], *fill) -> np.ndarray:
    """make(shape, *fill, dtype=float), make being np.empty, np.zeros, np.full or a
    linspace, for a float array whose size grows with the input `name`; one
    MemoryError naming name=value and the bytes where numpy cannot allocate it."""
    try:
        return make(shape, *fill, dtype=float)
    except (MemoryError, ValueError, OverflowError):
        size = math.prod(map(int, shape)) * 8
        raise MemoryError(f"cannot allocate {size} bytes for {name}={value}") from None


def checked_state(x, what: str = "x0") -> State:
    """x as a float State; ValueError unless it is exactly two finite components >= 0."""
    try:
        shape = np.shape(x)
    except ValueError:  # a ragged sequence
        shape = None
    n, p = (float(x[0]), float(x[1])) if shape == (2,) else (math.nan, math.nan)
    if not (0.0 <= n < math.inf and 0.0 <= p < math.inf):
        raise ValueError(f"{what} must be a finite point of the closed quadrant, got {x!r}")
    return State(n, p)


@dataclass(frozen=True)
class GridSpec:
    """A uniform grid over a box of the closed quadrant, endpoints included on both axes."""

    n_min: float
    n_max: float
    p_min: float
    p_max: float
    resolution: int

    def __post_init__(self) -> None:
        if not (
            0.0 <= self.n_min <= self.n_max < math.inf
            and 0.0 <= self.p_min <= self.p_max < math.inf
        ):
            raise ValueError("grid bounds must be finite, ordered and >= 0")
        if _integer("resolution", self.resolution) < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")
        # One sample would stand for the whole box: its corner (n_min, p_min).
        box = self.n_min < self.n_max or self.p_min < self.p_max
        if self.resolution == 1 and box:
            raise ValueError("resolution 1 samples one corner; a box needs resolution >= 2")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """np.linspace over each axis, allocated through _sized, which names res."""
        res = self.resolution
        return tuple(
            _sized("res", res, lambda shape, dtype: np.linspace(lo, hi, *shape, dtype=dtype), (res,))
            for lo, hi in ((self.n_min, self.n_max), (self.p_min, self.p_max))
        )


class Drift(NamedTuple):
    dn: float
    dp: float


class Scales(NamedTuple):
    """Conversion factors from reduced to dimensional coordinates.

    prey:     dimensional prey units per reduced unit (X)
    predator: dimensional predator units per reduced unit (Y)
    time:     dimensional time units per reduced unit (1/r)
    """

    prey: float
    predator: float
    time: float


@dataclass(frozen=True)
class RawParams:
    """Dimensional parameters, all strictly positive.

    r:   prey intrinsic growth rate
    K:   prey carrying capacity
    s:   predator search rate
    tau: handling time per captured prey
    c:   predator per-capita death rate
    d:   prey-to-predator conversion efficiency
    """

    r: float
    K: float
    s: float
    tau: float
    c: float
    d: float

    def __post_init__(self) -> None:
        for name in ("r", "K", "s", "tau", "c", "d"):
            value = getattr(self, name)
            if not (value > 0.0) or not np.isfinite(value):
                raise ValueError(f"RawParams.{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Reduced parameters: interaction strength m, death rate c, capacity k."""

    m: float
    c: float
    k: float

    def __post_init__(self) -> None:
        for name in ("m", "c", "k"):
            value = getattr(self, name)
            if not (value > 0.0) or not np.isfinite(value):
                raise ValueError(f"ModelParams.{name} must be finite and > 0, got {value!r}")
            # A Python float: a numpy scalar would run the scalar loops in its own precision.
            object.__setattr__(self, name, float(value))


def nondimensionalize(raw: RawParams) -> tuple[ModelParams, Scales]:
    """Reduce dimensional parameters to (m, c, k) plus the scale factors.

    The map is fixed: prey scale X = 1/(s*tau), predator scale Y = d*X,
    time scale 1/r, then m = d/(tau*r), c = c_raw/r, k = K/X; ValueError names
    the first scale that is 0 or not finite.  Only the forward direction is
    provided; the scales suffice to undo it by hand.
    """
    s_tau, tau_r = raw.s * raw.tau, raw.tau * raw.r
    x_scale = 1.0 / s_tau if s_tau else math.inf  # a product that underflows to 0 gives inf
    scales = Scales(prey=x_scale, predator=raw.d * x_scale, time=1.0 / raw.r)
    for name, value in zip(Scales._fields, scales):
        if not (0.0 < value < math.inf):
            raise ValueError(f"the {name} scale must be finite and > 0, got {value!r}")
    return ModelParams(m=raw.d / tau_r if tau_r else math.inf, c=raw.c / raw.r, k=raw.K / x_scale), scales


def _rates(m, c, k, n, p):
    """Drift (dn, dp) and squared noise amplitudes (v1, v2); floats or arrays."""
    interaction = m * n * p / (1.0 + n)
    n_k = n / k
    dn, dp = n * (1.0 - n_k) - interaction, -c * p + interaction
    return dn, dp, n * (1.0 + n_k) + interaction, c * p + interaction


def drift(params: ModelParams, x: State) -> Drift:
    """Deterministic vector field at x; total on the closed quadrant."""
    n, p = x
    dn, dp, _, _ = _rates(params.m, params.c, params.k, n, p)
    return Drift(float(dn), float(dp))

