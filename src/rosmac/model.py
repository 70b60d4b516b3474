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
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Drift",
    "GridSpec",
    "ModelParams",
    "RawParams",
    "Scales",
    "ScalarField",
    "State",
    "checked_state",
    "drift",
    "generator_apply",
    "lyapunov_candidate",
    "nondimensionalize",
]


class State(NamedTuple):
    """A point (n, p) in the closed positive quadrant."""

    n: float
    p: float


def checked_state(x, what: str = "x0") -> State:
    """x as a float State; ValueError unless both components are finite and >= 0."""
    n, p = float(x[0]), float(x[1])
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
        if self.resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")
        # One sample would stand for the whole box: its corner (n_min, p_min).
        box = self.n_min < self.n_max or self.p_min < self.p_max
        if self.resolution == 1 and box:
            raise ValueError("resolution 1 samples one corner; a box needs resolution >= 2")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.n_min, self.n_max, self.resolution),
            np.linspace(self.p_min, self.p_max, self.resolution),
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


@dataclass(frozen=True)
class ScalarField:
    """A twice-differentiable scalar function on the quadrant.

    value:        (n, p) -> f
    gradient:     (n, p) -> (f_n, f_p)
    hessian_diag: (n, p) -> (f_nn, f_pp); the diffusion is diagonal, so L
                  never needs the mixed derivative
    n and p may be floats or broadcastable arrays.
    """

    value: Callable
    gradient: Callable
    hessian_diag: Callable


def nondimensionalize(raw: RawParams) -> tuple[ModelParams, Scales]:
    """Reduce dimensional parameters to (m, c, k) plus the scale factors.

    The map is fixed: prey scale X = 1/(s*tau), predator scale Y = d*X,
    time scale 1/r, then m = d/(tau*r), c = c_raw/r, k = K/X.  Only the
    forward direction is provided; the scales suffice to undo it by hand.
    """
    x_scale = 1.0 / (raw.s * raw.tau)
    y_scale = raw.d * x_scale
    params = ModelParams(
        m=raw.d / (raw.tau * raw.r),
        c=raw.c / raw.r,
        k=raw.K / x_scale,
    )
    return params, Scales(prey=x_scale, predator=y_scale, time=1.0 / raw.r)


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


def generator_apply(params: ModelParams, field: ScalarField, x):
    """Apply the diffusion generator L to a scalar field at interior points.

    L f = mu . grad f + (1/2) (g11^2 f_nn + g22^2 f_pp).  x = (n, p) holds
    floats or broadcastable arrays; the result has their broadcast shape.
    """
    n, p = x
    if not (np.all(n > 0.0) and np.all(p > 0.0)):
        raise ValueError(f"generator_apply requires interior points, got {x!r}")
    dn, dp, v1, v2 = _rates(params.m, params.c, params.k, n, p)
    grad_n, grad_p = field.gradient(n, p)
    f_nn, f_pp = field.hessian_diag(n, p)
    return dn * grad_n + dp * grad_p + 0.5 * (v1 * f_nn + v2 * f_pp)


def lyapunov_candidate(alpha: float) -> ScalarField:
    """The radial test function V(n, p) = (1 + n^2 + p^2)**alpha, alpha > 2.

    Closed-form derivatives, with u = 1 + n^2 + p^2:

        dV/dn    = 2 alpha n u**(alpha-1)
        d2V/dn2  = 2 alpha u**(alpha-1) + 4 alpha (alpha-1) n^2 u**(alpha-2)

    and symmetrically in p.  n and p may be floats or arrays.
    """
    if not (alpha > 2.0):
        raise ValueError(f"lyapunov_candidate requires alpha > 2, got {alpha!r}")
    a = float(alpha)

    def value(n, p):
        return (1.0 + n * n + p * p) ** a

    def gradient(n, p):
        scale = 2.0 * a * (1.0 + n * n + p * p) ** (a - 1.0)
        return (scale * n, scale * p)

    def hessian_diag(n, p):
        u = 1.0 + n * n + p * p
        diag = 2.0 * a * u ** (a - 1.0)
        cross = 4.0 * a * (a - 1.0) * u ** (a - 2.0)
        return (diag + cross * n * n, diag + cross * p * p)

    return ScalarField(value=value, gradient=gradient, hessian_diag=hessian_diag)
