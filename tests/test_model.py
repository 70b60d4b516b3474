from __future__ import annotations

import math

import numpy as np
import pytest

from rosmac import (
    ModelParams,
    RawParams,
    ScalarField,
    State,
    drift,
    generator_apply,
    integrate,
    lyapunov_candidate,
    nondimensionalize,
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
    for bad in ((-1.0, 0.5), (math.nan, 0.5), (0.5, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite point of the closed quadrant"):
            checked_state(bad)


def test_nondimensionalize_reference_point():
    params, scales = nondimensionalize(RawParams(r=1.0, K=3.0, s=1.0, tau=1.0, c=1.0, d=3.0))
    assert params == ModelParams(m=3.0, c=1.0, k=3.0)
    assert scales == (1.0, 3.0, 1.0)


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
# a degree-6 polynomial, so a fixed step drowns in roundoff far from the origin.
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


def test_lyapunov_candidate_reference_values():
    field = lyapunov_candidate(3.0)
    assert field.value(1.0, 0.0) == 8.0
    assert field.gradient(1.0, 0.0) == (24.0, 0.0)
    # u = 3: f_nn = 6 u^2 + 24 n^2 u = 54 + 72.
    assert field.hessian_diag(1.0, 1.0) == (126.0, 126.0)
    with pytest.raises(ValueError):
        lyapunov_candidate(2.0)
    # Any exponent above 2 is legal, not just integers.
    assert lyapunov_candidate(2.5).value(0.0, 0.0) == 1.0


def test_lyapunov_candidate_derivatives_match_finite_differences():
    field = lyapunov_candidate(3.0)
    grid = np.linspace(0.2, 4.0, 10)
    for n in grid:
        for p in grid:
            grad = field.gradient(n, p)
            fd_grad = _central_gradient(field.value, n, p)
            assert _relative_gap(grad[0], fd_grad[0]) < 1e-6
            assert _relative_gap(grad[1], fd_grad[1]) < 1e-6
            hess = field.hessian_diag(n, p)
            fd_hess = _central_hessian_diag(field.value, n, p)
            for i in range(2):
                assert _relative_gap(hess[i], fd_hess[i]) < 1e-6


def test_generator_kills_coordinate_at_equilibrium():
    coordinate = ScalarField(
        value=lambda n, p: n,
        gradient=lambda n, p: (1.0, 0.0),
        hessian_diag=lambda n, p: (0.0, 0.0),
    )
    # At the coexistence point the prey coordinate has zero drift and the
    # second-derivative term vanishes, so L applied to it is exactly 0.
    assert generator_apply(CYCLE_PARAMS, coordinate, State(0.5, 5.0 / 12.0)) == 0.0


def test_generator_matches_finite_difference_oracle():
    field = lyapunov_candidate(3.0)
    params = CYCLE_PARAMS

    def oracle(n, p):
        """Assemble L V from numerical derivatives; also return the term scale.

        The four contributions can cancel by two orders of magnitude, so the
        comparison must be relative to their magnitudes, not to the total.
        """
        dn, dp = drift(params, State(n, p))
        _, _, v1, v2 = _rates(params.m, params.c, params.k, n, p)
        grad = _central_gradient(field.value, n, p)
        hess = _central_hessian_diag(field.value, n, p)
        terms = (
            dn * grad[0],
            dp * grad[1],
            0.5 * v1 * hess[0],
            0.5 * v2 * hess[1],
        )
        return sum(terms), max(sum(abs(t) for t in terms), 1.0)

    value, scale = oracle(1.0, 1.0)
    assert abs(generator_apply(params, field, State(1.0, 1.0)) - value) < 1e-6 * scale

    rng = np.random.default_rng(1905)
    for _ in range(100):
        n = float(rng.uniform(1e-3, 10.0))
        p = float(rng.uniform(1e-3, 10.0))
        value, scale = oracle(n, p)
        assert abs(generator_apply(params, field, State(n, p)) - value) < 1e-6 * scale


def test_generator_rejects_boundary_points():
    field = lyapunov_candidate(3.0)
    with pytest.raises(ValueError):
        generator_apply(CYCLE_PARAMS, field, State(0.0, 1.0))
    with pytest.raises(ValueError):
        generator_apply(CYCLE_PARAMS, field, (1.0, np.array([0.5, 0.0, 2.0])))


def test_scalar_field_and_generator_take_arrays():
    """A row of points gives the per-point values.

    numpy's array power may differ from libm's pow by one ulp, hence the
    tolerances; the generator's terms partly cancel, so its bound is looser.
    """
    field = lyapunov_candidate(2.5)
    n, ps = 0.7, np.linspace(0.1, 9.0, 13)
    points = ps.tolist()
    close = dict(rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(field.value(n, ps), [field.value(n, p) for p in points], **close)
    for row, per_point in (
        (field.gradient(n, ps), [field.gradient(n, p) for p in points]),
        (field.hessian_diag(n, ps), [field.hessian_diag(n, p) for p in points]),
    ):
        np.testing.assert_allclose(np.transpose(row), per_point, **close)
    np.testing.assert_allclose(
        generator_apply(CYCLE_PARAMS, field, (n, ps)),
        [generator_apply(CYCLE_PARAMS, field, State(n, p)) for p in points],
        rtol=1e-12,
        atol=0.0,
    )
