from __future__ import annotations

import math

import numpy as np
import pytest

from rosmac import (
    GridSpec,
    ModelParams,
    RawParams,
    SimConfig,
    State,
    check_generator_inequality,
    drift,
    integrate,
    nondimensionalize,
    simulate_path,
    verification,
)
from rosmac.model import _rates, checked_state

from conftest import CYCLE_PARAMS


def test_param_validation_rejects_nonpositive():
    with pytest.raises(ValueError):
        ModelParams(m=0.0, c=1.0, k=1.0)
    with pytest.raises(ValueError):
        ModelParams(m=1.0, c=-2.0, k=1.0)
    with pytest.raises(ValueError):
        RawParams(r=1.0, K=1.0, s=1.0, tau=0.0, c=1.0, d=1.0)


def test_checked_state_accepts_finite_points_of_the_closed_quadrant_only():
    assert checked_state((0, 2)) == State(0.0, 2.0)
    for good in (State(1.0, 0.6), [1, 0.6], np.array([1.0, 0.6])):
        assert checked_state(good) == State(1.0, 0.6)
    # Exactly two components: a third is not dropped, a missing one is no traceback.
    for bad in ((-1.0, 0.5), (math.nan, 0.5), (0.5, math.inf), (-math.inf, 1.0),
                (1, 0.6, 5), 5, [1], None, "10", np.array([[1.0, 0.6]]), [1, [2, 3]]):
        with pytest.raises(ValueError, match="finite point of the closed quadrant"):
            checked_state(bad)
    with pytest.raises(ValueError, match="finite point of the closed quadrant"):
        integrate(CYCLE_PARAMS, (1, 0.6, 5), 1.0, 0.01)
    with pytest.raises(ValueError, match="finite point of the closed quadrant"):
        simulate_path(CYCLE_PARAMS, (1, 0.6, 7), SimConfig(t_end=1.0, m_steps=10))


def test_nondimensionalize_reference_point():
    params, scales = nondimensionalize(RawParams(r=1.0, K=3.0, s=1.0, tau=1.0, c=1.0, d=3.0))
    assert params == ModelParams(m=3.0, c=1.0, k=3.0)
    assert scales == (1.0, 3.0, 1.0)


def test_nondimensionalize_rejects_scales_outside_float64():
    # s tau underflows to 0, so 1/(s tau) is no float; d/(s tau) overflows.
    with pytest.raises(ValueError, match="^the prey scale must be finite and > 0, got inf$"):
        nondimensionalize(RawParams(r=1, K=1, s=1e-200, tau=1e-200, c=1, d=1))
    with pytest.raises(ValueError, match="^the predator scale must be finite and > 0, got inf$"):
        nondimensionalize(RawParams(r=1, K=1, s=1e-150, tau=1e-150, c=1, d=1e10))
    # Finite scales, but tau r underflows to 0: m = d/(tau r) is no float.
    with pytest.raises(ValueError, match="^ModelParams.m must be finite and > 0, got inf$"):
        nondimensionalize(RawParams(r=1e-200, K=1, s=1e200, tau=1e-200, c=1, d=1))


def test_nondimensionalize_identity_scaling_keeps_capacity():
    for capacity in (0.5, 1.0, 7.25):
        params, scales = nondimensionalize(
            RawParams(r=1.0, K=capacity, s=1.0, tau=1.0, c=0.3, d=1.0)
        )
        assert params.k == capacity
        assert scales.prey == 1.0


def test_nondimensionalize_consistency_with_dimensional_flow():
    """Integrating the raw system and rescaling matches the reduced flow."""
    raw = RawParams(r=2.0, K=5.0, s=0.8, tau=0.7, c=1.2, d=1.4)
    params, scales = nondimensionalize(raw)

    def raw_rhs(n, p):
        saturation = 1.0 + raw.s * raw.tau * n
        return (
            raw.r * n * (1.0 - n / raw.K) - raw.s * n * p / saturation,
            -raw.c * p + raw.d * raw.s * n * p / saturation,
        )

    # Reduced start (1, 0.6) corresponds to the dimensional start below.
    x0_raw = (1.0 * scales.prey, 0.6 * scales.predator)
    ds = 1e-3
    steps = 10_000
    dt_raw = ds * scales.time
    n, p = x0_raw
    raw_samples = [(n, p)]
    for _ in range(steps):
        k1 = raw_rhs(n, p)
        k2 = raw_rhs(n + 0.5 * dt_raw * k1[0], p + 0.5 * dt_raw * k1[1])
        k3 = raw_rhs(n + 0.5 * dt_raw * k2[0], p + 0.5 * dt_raw * k2[1])
        k4 = raw_rhs(n + dt_raw * k3[0], p + dt_raw * k3[1])
        n += dt_raw / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        p += dt_raw / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        raw_samples.append((n, p))
    raw_samples = np.asarray(raw_samples)

    reduced = integrate(params, State(1.0, 0.6), steps * ds, ds)
    rescaled = raw_samples / np.array([scales.prey, scales.predator])
    assert np.abs(reduced.states - rescaled).max() < 1e-8


def test_drift_reference_values():
    x = State(1.0, 0.6)
    d = drift(CYCLE_PARAMS, x)
    assert d.dn == pytest.approx(1.0 * (1.0 - 1.0 / 3.0) - 3.0 * 0.6 / 2.0, abs=1e-15)
    assert d.dp == pytest.approx(-0.6 + 0.9, abs=1e-15)
    assert drift(CYCLE_PARAMS, State(0.0, 0.0)) == (0.0, 0.0)
    # Prey-only equilibrium nulls the field exactly.
    assert drift(CYCLE_PARAMS, State(3.0, 0.0)) == (0.0, 0.0)


def test_diffusion_reference_values():
    """The squared noise amplitudes v1 = g11**2 and v2 = g22**2 of _rates."""
    m, c, k = CYCLE_PARAMS.m, CYCLE_PARAMS.c, CYCLE_PARAMS.k
    _, _, v1, v2 = _rates(m, c, k, 1.0, 0.0)
    assert v1 == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert v2 == 0.0
    _, _, v1, v2 = _rates(m, c, k, 0.0, 1.0)
    assert v1 == 0.0
    assert v2 == 1.0


# Central-difference steps scale with the point: the test function grows like
# a polynomial of degree 2 alpha, so a fixed step drowns in roundoff far from
# the origin.
def _central_gradient(value, n, p, h=1e-5):
    h = h * (1.0 + max(abs(n), abs(p)))
    return (
        (value(n + h, p) - value(n - h, p)) / (2.0 * h),
        (value(n, p + h) - value(n, p - h)) / (2.0 * h),
    )


def _central_hessian_diag(value, n, p, h=1e-4):
    h = h * (1.0 + max(abs(n), abs(p)))
    vnn = (value(n + h, p) - 2.0 * value(n, p) + value(n - h, p)) / (h * h)
    vpp = (value(n, p + h) - 2.0 * value(n, p) + value(n, p - h)) / (h * h)
    return (vnn, vpp)


def _relative_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _lyapunov_candidate(monkeypatch, alpha):
    """V = (1 + n^2 + p^2)**alpha, its gradient and Hessian diagonal, as the
    generator check computes them: with unit rates in place of the model's
    and c_lyap patched, a single-point grid's slack is one of these parts."""

    def part(rates, bound, n, p):
        monkeypatch.setattr(verification, "_rates", lambda m, c, k, ns, ps: rates)
        monkeypatch.setattr(verification, "lyapunov_constant", lambda params, a: bound)
        grid = GridSpec(n, n, p, p, 1)
        return check_generator_inequality(CYCLE_PARAMS, alpha, grid).worst_slack

    def value(n, p):
        return part((0.0, 0.0, 0.0, 0.0), -1.0, n, p)

    def gradient(n, p):
        return (part((1.0, 0.0, 0.0, 0.0), 0.0, n, p), part((0.0, 1.0, 0.0, 0.0), 0.0, n, p))

    def hessian_diag(n, p):
        return (part((0.0, 0.0, 2.0, 0.0), 0.0, n, p), part((0.0, 0.0, 0.0, 2.0), 0.0, n, p))

    return value, gradient, hessian_diag


def test_lyapunov_candidate_reference_values(monkeypatch):
    value, gradient, hessian_diag = _lyapunov_candidate(monkeypatch, 3.0)
    # u = 3: V = u^3, V_n = 6 u^2 n, V_nn = 6 u^2 + 24 n^2 u = 54 + 72.
    assert value(1.0, 1.0) == 27.0
    assert gradient(1.0, 1.0) == (54.0, 54.0)
    assert gradient(2.0, 0.5) == (6.0 * 5.25**2 * 2.0, 6.0 * 5.25**2 * 0.5)
    assert hessian_diag(1.0, 1.0) == (126.0, 126.0)
    monkeypatch.undo()
    with pytest.raises(ValueError):
        check_generator_inequality(CYCLE_PARAMS, 2.0)
    # Any exponent above 2 is legal, not just integers.
    value, _, _ = _lyapunov_candidate(monkeypatch, 2.5)
    assert value(1.0, 1.0) == pytest.approx(3.0**2.5, rel=1e-15)


def test_lyapunov_candidate_derivatives_match_finite_differences(monkeypatch):
    value, gradient, hessian_diag = _lyapunov_candidate(monkeypatch, 3.0)
    grid = np.linspace(0.2, 4.0, 10)
    for n in grid:
        for p in grid:
            grad = gradient(n, p)
            fd_grad = _central_gradient(value, n, p)
            assert _relative_gap(grad[0], fd_grad[0]) < 1e-6
            assert _relative_gap(grad[1], fd_grad[1]) < 1e-6
            hess = hessian_diag(n, p)
            fd_hess = _central_hessian_diag(value, n, p)
            for i in range(2):
                assert _relative_gap(hess[i], fd_hess[i]) < 1e-6


def test_generator_matches_finite_difference_oracle(monkeypatch):
    """The generator check's L V at single points against numerical derivatives
    of V = (1 + n^2 + p^2)**alpha; with c_lyap patched to 0 its slack is L V."""
    monkeypatch.setattr(verification, "lyapunov_constant", lambda params, alpha: 0.0)
    params = CYCLE_PARAMS
    rng = np.random.default_rng(1905)
    points = [(1.0, 1.0)] + [
        (float(rng.uniform(1e-3, 10.0)), float(rng.uniform(1e-3, 10.0))) for _ in range(100)
    ]
    for alpha in (3.0, 2.5):

        def value(n, p):
            return (1.0 + n * n + p * p) ** alpha

        for n, p in points:
            # The four contributions can cancel by two orders of magnitude, so
            # the comparison is relative to their magnitudes, not to the total.
            dn, dp, v1, v2 = _rates(params.m, params.c, params.k, n, p)
            grad = _central_gradient(value, n, p)
            hess = _central_hessian_diag(value, n, p)
            terms = (dn * grad[0], dp * grad[1], 0.5 * v1 * hess[0], 0.5 * v2 * hess[1])
            scale = max(sum(abs(t) for t in terms), 1.0)
            report = check_generator_inequality(params, alpha, GridSpec(n, n, p, p, 1))
            assert abs(report.worst_slack - sum(terms)) < 1e-6 * scale, (alpha, n, p)
