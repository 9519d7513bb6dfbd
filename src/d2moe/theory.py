"""Bias-variance model of expert-count scaling and its optimum.

The error model is L(k) = beta*k^mu + rho*alpha*U + (1-rho)*alpha*U/k^phi
+ eps: a capacity cost growing in the number of active experts k, an
irreducible share of the uncertainty-driven variance, a share that averages
out like an effective ensemble, and a noise floor. Minimizing over
continuous k gives k* = kappa * U^(1/(mu+phi)), a power law in the node's
uncertainty. The brute-force grid minimizer is the oracle here; the closed
form is checked against it, never trusted alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRID_STEP = 1e-3


@dataclass(frozen=True)
class ScalingParams:
    """Coefficients of the error model; ``rho`` is the share of variance no
    amount of ensembling removes."""

    beta: float
    mu: float
    alpha: float
    phi: float
    rho: float = 0.0
    eps: float = 0.0

    def __post_init__(self):
        for name in ("beta", "mu", "alpha", "phi"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if not 0.0 <= self.eps < np.inf:
            raise ValueError(f"eps must be finite and nonnegative, got {self.eps}")


def _check_u(u: float) -> float:
    u = float(u)
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"uncertainty must lie in [0, 1], got {u}")
    return u


def _check_k_max(k_max: float) -> None:
    if not 1.0 <= k_max < np.inf:
        raise ValueError(f"k_max must be finite and >= 1, got {k_max}")


def generalization_error(sp: ScalingParams, u: float, k) -> float | np.ndarray:
    """Evaluate the error model at expert count ``k`` (scalar or array)."""
    u = _check_u(u)
    k = np.asarray(k, dtype=np.float64)
    if np.any(k < 1.0):
        raise ValueError("expert count must be >= 1")
    out = (sp.beta * k ** sp.mu + sp.rho * sp.alpha * u
           + (1.0 - sp.rho) * sp.alpha * u / k ** sp.phi + sp.eps)
    return float(out) if out.ndim == 0 else out


def optimal_k_bruteforce(sp: ScalingParams, u: float, k_max: float) -> float:
    """Argmin of the error model over the dense grid [1, k_max] with step
    GRID_STEP; ties resolve to the smallest k."""
    _check_k_max(k_max)
    grid = np.arange(1.0, k_max + GRID_STEP / 2.0, GRID_STEP)
    return float(grid[int(np.argmin(generalization_error(sp, u, grid)))])


def _stationary_k(sp: ScalingParams, u: float) -> float:
    """Unclamped stationary point kappa * U^(1/(mu+phi)) of the continuous model."""
    kappa = (sp.phi * (1.0 - sp.rho) * sp.alpha / (sp.mu * sp.beta)) ** (1.0 / (sp.mu + sp.phi))
    return kappa * u ** (1.0 / (sp.mu + sp.phi))


def optimal_k_closed_form(sp: ScalingParams, u: float, k_max: float) -> float:
    """Stationary point kappa * U^(1/(mu+phi)) of the continuous model,
    clamped to [1, k_max]; at U=0 the model is increasing in k, so 1."""
    u = _check_u(u)
    _check_k_max(k_max)
    if u == 0.0:
        return 1.0
    return float(np.clip(_stationary_k(sp, u), 1.0, k_max))


def _fit(sp: ScalingParams, u_grid: np.ndarray, k_max: float) -> tuple[float, np.ndarray]:
    """The fitted slope and the grid-search optimum at each value of the
    validated ``u_grid``."""
    if u_grid.size < 10:
        raise ValueError(f"need at least 10 uncertainty values, got {u_grid.size}")
    if np.any(u_grid <= 0.0):
        raise ValueError("uncertainty grid must be strictly positive")
    if u_grid.max() / u_grid.min() < 10.0:
        raise ValueError("uncertainty grid must span at least one decade")
    ks = np.array([optimal_k_bruteforce(sp, u, k_max) for u in u_grid])
    slope, _ = np.polyfit(np.log(u_grid), np.log(ks), 1)
    return float(slope), ks


def fit_scaling_exponent(sp: ScalingParams, u_grid, k_max: float) -> float:
    """Least-squares slope of log k* against log U, with k* from the grid
    search over [1, k_max]. The grid must hold at least 10 strictly positive
    values spanning a decade. For the model this slope is 1/(mu+phi),
    independent of beta, alpha, rho, and eps."""
    return _fit(sp, np.asarray(u_grid, dtype=np.float64), k_max)[0]


@dataclass(frozen=True)
class ScalingRow:
    mu: float
    phi: float
    rho: float
    u: float
    k_bruteforce: float
    k_closed_form: float
    fitted_slope: float


def scaling_rows(sp: ScalingParams, u_grid, k_max: float) -> list[ScalingRow]:
    """One row per uncertainty value: both optimizers plus the common fitted
    exponent for this parameter set; the grid search runs once per value."""
    u_grid = np.asarray(u_grid, dtype=np.float64)
    slope, ks = _fit(sp, u_grid, k_max)
    return [
        ScalingRow(mu=sp.mu, phi=sp.phi, rho=sp.rho, u=float(u), k_bruteforce=float(k),
                   k_closed_form=optimal_k_closed_form(sp, u, k_max), fitted_slope=slope)
        for u, k in zip(u_grid, ks)
    ]
