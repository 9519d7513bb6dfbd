"""The grid search is the oracle: the closed form, the fitted exponent, and
every structural claim about the error model are checked against it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2moe.theory import (
    GRID_STEP,
    ScalingParams,
    fit_scaling_exponent,
    generalization_error,
    optimal_k_bruteforce,
    optimal_k_closed_form,
    scaling_rows,
)


def test_params_validation():
    ScalingParams(beta=0.1, mu=1.0, alpha=1.0, phi=1.0, rho=0.0, eps=0.0)
    with pytest.raises(ValueError):
        ScalingParams(beta=0.0, mu=1.0, alpha=1.0, phi=1.0)
    with pytest.raises(ValueError):
        ScalingParams(beta=0.1, mu=-1.0, alpha=1.0, phi=1.0)
    with pytest.raises(ValueError):
        ScalingParams(beta=0.1, mu=1.0, alpha=1.0, phi=1.0, rho=1.0)
    with pytest.raises(ValueError):
        ScalingParams(beta=0.1, mu=1.0, alpha=1.0, phi=1.0, rho=-0.1)
    with pytest.raises(ValueError):
        ScalingParams(beta=0.1, mu=1.0, alpha=1.0, phi=1.0, eps=-0.5)


@pytest.mark.parametrize("field,value", [
    (field, value) for field in ("beta", "mu", "alpha", "phi", "eps")
    for value in (float("nan"), float("inf"))
])
def test_params_reject_non_finite(field, value):
    kw = dict(beta=0.1, mu=1.0, alpha=1.0, phi=1.0, rho=0.0, eps=0.0)
    with pytest.raises(ValueError, match=field):
        ScalingParams(**{**kw, field: value})


@pytest.mark.parametrize("optimizer", [optimal_k_bruteforce, optimal_k_closed_form])
@pytest.mark.parametrize("k_max", [float("nan"), float("inf")])
def test_k_max_must_be_finite(optimizer, k_max):
    sp = ScalingParams(beta=0.1, mu=1.0, alpha=1.0, phi=1.0)
    with pytest.raises(ValueError, match="k_max"):
        optimizer(sp, 0.5, k_max)


def test_error_hand_value():
    sp = ScalingParams(beta=0.25, mu=1.0, alpha=1.0, phi=1.0, rho=0.0, eps=0.0)
    assert generalization_error(sp, u=1.0, k=2.0) == 1.0  # 0.25*2 + 1/2


def test_error_zero_uncertainty_is_pure_capacity_cost():
    sp = ScalingParams(beta=0.3, mu=1.5, alpha=2.0, phi=1.0, rho=0.4, eps=0.07)
    for k in (1.0, 2.0, 5.0):
        assert generalization_error(sp, 0.0, k) == pytest.approx(
            0.3 * k ** 1.5 + 0.07, rel=1e-14)
    assert optimal_k_bruteforce(sp, 0.0, k_max=8.0) == 1.0


def test_error_rho_near_one_flattens_variance():
    # With almost everything irreducible, the variance contribution is a
    # k-independent alpha*U.
    sp = ScalingParams(beta=0.1, mu=1.0, alpha=2.0, phi=1.0, rho=1.0 - 1e-12)
    for k in (1.0, 3.0, 9.0):
        variance = generalization_error(sp, 0.5, k) - 0.1 * k
        assert variance == pytest.approx(2.0 * 0.5, rel=1e-9)


def test_error_vectorized_matches_scalar():
    sp = ScalingParams(beta=0.2, mu=2.0, alpha=1.0, phi=1.5, rho=0.3, eps=0.01)
    ks = np.array([1.0, 2.5, 7.0])
    vec = generalization_error(sp, 0.7, ks)
    assert vec.shape == (3,)
    for k, v in zip(ks, vec):
        assert v == generalization_error(sp, 0.7, float(k))


def test_error_input_validation():
    sp = ScalingParams(beta=0.1, mu=1.0, alpha=1.0, phi=1.0)
    with pytest.raises(ValueError):
        generalization_error(sp, 1.5, 2.0)
    with pytest.raises(ValueError):
        generalization_error(sp, -0.1, 2.0)
    with pytest.raises(ValueError):
        generalization_error(sp, 0.5, 0.5)
    with pytest.raises(ValueError):
        optimal_k_bruteforce(sp, 0.5, k_max=0.9)


def test_bruteforce_matches_hand_closed_form():
    sp = ScalingParams(beta=0.25, mu=1.0, alpha=1.0, phi=1.0, rho=0.0)
    assert optimal_k_bruteforce(sp, 1.0, k_max=8.0) == pytest.approx(2.0, abs=1e-2)
    assert optimal_k_closed_form(sp, 1.0, k_max=8.0) == 2.0


def test_doubling_uncertainty_scales_k_by_sqrt2():
    sp = ScalingParams(beta=0.01, mu=1.0, alpha=1.0, phi=1.0)
    k1 = optimal_k_bruteforce(sp, 0.4, k_max=16.0)
    k2 = optimal_k_bruteforce(sp, 0.8, k_max=16.0)
    assert k2 / k1 == pytest.approx(np.sqrt(2.0), rel=0.01)


def test_closed_form_clamps_to_bounds():
    strong = ScalingParams(beta=1e-4, mu=1.0, alpha=1.0, phi=1.0)
    assert optimal_k_closed_form(strong, 1.0, k_max=4.0) == 4.0
    weak = ScalingParams(beta=100.0, mu=1.0, alpha=1.0, phi=1.0)
    assert optimal_k_closed_form(weak, 0.5, k_max=4.0) == 1.0
    assert optimal_k_closed_form(strong, 0.0, k_max=4.0) == 1.0


def test_bruteforce_invariant_to_eps_exactly():
    base = dict(beta=0.05, mu=1.2, alpha=1.5, phi=0.8, rho=0.2)
    a = ScalingParams(**base, eps=0.0)
    b = ScalingParams(**base, eps=3.7)
    for u in (0.1, 0.5, 1.0):
        assert optimal_k_bruteforce(a, u, 16.0) == optimal_k_bruteforce(b, u, 16.0)


def test_rho_rescales_optimum_as_power_law():
    # Only the reducible share (1-rho)*alpha drives the optimum, so
    # k*(rho) = k*(0) * (1-rho)^(1/(mu+phi)).
    base = ScalingParams(beta=0.01, mu=1.0, alpha=1.0, phi=1.0, rho=0.0)
    half = ScalingParams(beta=0.01, mu=1.0, alpha=1.0, phi=1.0, rho=0.5)
    k0 = optimal_k_bruteforce(base, 0.8, 16.0)
    kh = optimal_k_bruteforce(half, 0.8, 16.0)
    assert kh / k0 == pytest.approx(np.sqrt(0.5), rel=1e-3)


@given(
    beta=st.floats(0.01, 1.0),
    mu=st.floats(0.5, 3.0),
    alpha=st.floats(0.1, 5.0),
    phi=st.floats(0.5, 3.0),
    rho=st.floats(0.0, 0.9),
    u_lo=st.floats(0.01, 1.0),
    u_hi=st.floats(0.01, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_optimum_nondecreasing_in_uncertainty(beta, mu, alpha, phi, rho, u_lo, u_hi):
    sp = ScalingParams(beta=beta, mu=mu, alpha=alpha, phi=phi, rho=rho)
    lo, hi = min(u_lo, u_hi), max(u_lo, u_hi)
    k_lo = optimal_k_bruteforce(sp, lo, 32.0)
    k_hi = optimal_k_bruteforce(sp, hi, 32.0)
    # Grid quantization can move each argmin by one step.
    assert k_hi >= k_lo - 2.0 * GRID_STEP - 1e-12


@given(
    beta=st.floats(0.01, 1.0),
    mu=st.floats(0.5, 3.0),
    alpha=st.floats(0.1, 5.0),
    phi=st.floats(0.5, 3.0),
    rho=st.floats(0.0, 0.9),
    u=st.floats(0.01, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_error_is_unimodal_on_grid(beta, mu, alpha, phi, rho, u):
    sp = ScalingParams(beta=beta, mu=mu, alpha=alpha, phi=phi, rho=rho)
    grid = np.arange(1.0, 32.0 + GRID_STEP / 2, GRID_STEP)
    errors = generalization_error(sp, u, grid)
    i = int(np.argmin(errors))
    assert np.all(np.diff(errors[: i + 1]) <= 1e-9)
    assert np.all(np.diff(errors[i:]) >= -1e-9)


def test_closed_form_agrees_with_grid_over_random_draws():
    rng = np.random.default_rng(0)
    for _ in range(100):
        sp = ScalingParams(
            beta=float(rng.uniform(0.01, 1.0)),
            mu=float(rng.uniform(0.5, 3.0)),
            alpha=float(rng.uniform(0.1, 5.0)),
            phi=float(rng.uniform(0.5, 3.0)),
            rho=float(rng.uniform(0.0, 0.9)),
            eps=float(rng.uniform(0.0, 0.5)),
        )
        u = float(rng.uniform(0.01, 1.0))
        brute = optimal_k_bruteforce(sp, u, 32.0)
        closed = optimal_k_closed_form(sp, u, 32.0)
        assert abs(brute - closed) <= 1e-2, (sp, u)


def test_fitted_slope_is_inverse_mu_plus_phi():
    u_grid = np.geomspace(0.05, 1.0, 24)
    for mu in (1.0, 2.0):
        for phi in (1.0, 2.0):
            sp = ScalingParams(beta=0.01, mu=mu, alpha=1.0, phi=phi, rho=0.0)
            slope = fit_scaling_exponent(sp, u_grid, k_max=16.0)
            assert slope == pytest.approx(1.0 / (mu + phi), abs=0.02), (mu, phi)


def test_fitted_slope_ignores_eps_exactly_and_rho_nearly():
    u_grid = np.geomspace(0.05, 1.0, 24)
    plain = fit_scaling_exponent(
        ScalingParams(beta=0.01, mu=1.0, alpha=1.0, phi=1.0), u_grid, k_max=16.0)
    with_eps = fit_scaling_exponent(
        ScalingParams(beta=0.01, mu=1.0, alpha=1.0, phi=1.0, eps=0.4), u_grid, k_max=16.0)
    with_rho = fit_scaling_exponent(
        ScalingParams(beta=0.01, mu=1.0, alpha=1.0, phi=1.0, rho=0.5), u_grid, k_max=16.0)
    assert with_eps == plain
    assert with_rho == pytest.approx(plain, abs=0.01)


def test_fit_scaling_exponent_validates_grid():
    sp = ScalingParams(beta=0.01, mu=1.0, alpha=1.0, phi=1.0)
    with pytest.raises(ValueError):
        fit_scaling_exponent(sp, np.geomspace(0.1, 1.0, 9), k_max=16.0)
    with pytest.raises(ValueError):
        fit_scaling_exponent(sp, np.linspace(0.5, 1.0, 12), k_max=16.0)
    with pytest.raises(ValueError):
        fit_scaling_exponent(sp, np.linspace(0.0, 1.0, 12), k_max=16.0)


def test_scaling_rows_structure():
    sp = ScalingParams(beta=0.01, mu=1.0, alpha=1.0, phi=1.0)
    u_grid = np.geomspace(0.05, 1.0, 12)
    rows = scaling_rows(sp, u_grid, k_max=16.0)
    assert len(rows) == 12
    slopes = {r.fitted_slope for r in rows}
    assert len(slopes) == 1
    for row, u in zip(rows, u_grid):
        assert row.mu == 1.0 and row.phi == 1.0 and row.rho == 0.0
        assert row.u == pytest.approx(float(u))
        assert abs(row.k_bruteforce - row.k_closed_form) <= 1e-2
    assert rows[0].k_bruteforce < rows[-1].k_bruteforce
