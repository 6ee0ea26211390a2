"""Comparator-estimator tests.

Oracles: ``np.linalg.lstsq`` for ordinary least squares, explicit
per-subject loops for sandwich pieces, explicit whitened normal
equations via ``np.linalg.inv`` for generalized least squares, and the
moment identities recomputed from scratch on the final residuals.
"""

from __future__ import annotations

import numpy as np
import pytest

from dimm.baselines import gee_fit, gls_oracle
from dimm.errors import FitError
from dimm.model import PanelDataset


def _panel(seed: int = 30, n: int = 80, m: int = 5, p: int = 3) -> PanelDataset:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = rng.standard_normal((n, m, p))
    beta0 = np.linspace(1.0, -1.0, p)
    shared = rng.standard_normal((n, 1))
    y = np.einsum("nmp,p->nm", x, beta0) + 0.7 * shared + rng.standard_normal((n, m))
    return PanelDataset(responses=y, covariates=x)


def _ols(data: PanelDataset) -> np.ndarray:
    rows = data.covariates.reshape(-1, data.n_covariates)
    target = data.responses.reshape(-1)
    sol, *_ = np.linalg.lstsq(rows, target, rcond=None)
    return sol


# ---------------------------------------------------------------------------
# Independence working correlation
# ---------------------------------------------------------------------------


def test_gee_independence_point_estimate_is_ols() -> None:
    data = _panel()
    fit = gee_fit(data, working="independence")
    assert fit.method == "gee_independence"
    assert fit.rho_hat is None
    np.testing.assert_allclose(fit.beta_hat, _ols(data), rtol=0.0, atol=1e-10)
    assert fit.converged


def test_gee_independence_sandwich_matches_loops() -> None:
    data = _panel(seed=31)
    fit = gee_fit(data, working="independence")
    n, m = data.responses.shape
    p = data.n_covariates
    resid = data.responses - np.einsum("nmp,p->nm", data.covariates, fit.beta_hat)
    bread = np.zeros((p, p))
    meat = np.zeros((p, p))
    for i in range(n):
        xi = data.covariates[i]
        bread += xi.T @ xi
        u = xi.T @ resid[i]
        meat += np.outer(u, u)
    want = np.linalg.inv(bread) @ meat @ np.linalg.inv(bread)
    np.testing.assert_allclose(fit.covariance, want, rtol=1e-10, atol=1e-14)


# ---------------------------------------------------------------------------
# Exchangeable working correlation
# ---------------------------------------------------------------------------


def test_gee_exchangeable_equals_independence_for_subject_constant_design() -> None:
    # When every covariate is constant within subject, X_i' R^-1 reduces
    # to a scalar multiple of X_i' row-wise, so the weighted normal
    # equations coincide with the unweighted ones.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(32)))
    n, m, p = 60, 4, 2
    x_subject = rng.standard_normal((n, p))
    x = np.repeat(x_subject[:, None, :], m, axis=1)
    shared = rng.standard_normal((n, 1))
    y = np.einsum("nmp,p->nm", x, np.array([0.5, -1.5])) + shared + 0.5 * rng.standard_normal((n, m))
    data = PanelDataset(responses=y, covariates=x)
    ind = gee_fit(data, working="independence")
    exch = gee_fit(data, working="exchangeable")
    np.testing.assert_allclose(exch.beta_hat, ind.beta_hat, rtol=0.0, atol=1e-10)
    assert exch.rho_hat is not None
    assert 0.1 < exch.rho_hat < 0.95  # strong shared component


def test_gee_exchangeable_moment_identity_at_convergence() -> None:
    data = _panel(seed=33)
    fit = gee_fit(data, working="exchangeable")
    n, m = data.responses.shape
    p = data.n_covariates
    resid = data.responses - np.einsum("nmp,p->nm", data.covariates, fit.beta_hat)
    # Recompute the moment estimates from scratch on the converged
    # residuals; the fixed point must reproduce the reported rho.
    phi = float(np.sum(resid**2)) / (n * m - p)
    pair_sum = 0.0
    for i in range(n):
        for r in range(m):
            for t in range(r + 1, m):
                pair_sum += resid[i, r] * resid[i, t]
    rho = pair_sum / (phi * (n * m * (m - 1) / 2.0 - p))
    assert fit.rho_hat == pytest.approx(rho, rel=1e-8)
    assert fit.converged
    assert fit.n_iter <= 100


def test_gee_exchangeable_weighted_equations_hold() -> None:
    # At the fixed point the working-correlation estimating equation
    # sum_i X_i' R^-1 (y_i - X_i beta) = 0 holds; verify against a
    # literal R^-1 built with np.linalg.inv.
    data = _panel(seed=34)
    fit = gee_fit(data, working="exchangeable")
    m = data.n_coordinates
    r_mat = (1.0 - fit.rho_hat) * np.eye(m) + fit.rho_hat * np.ones((m, m))
    r_inv = np.linalg.inv(r_mat)
    resid = data.responses - np.einsum("nmp,p->nm", data.covariates, fit.beta_hat)
    total = np.zeros(data.n_covariates)
    for i in range(data.n_subjects):
        total += data.covariates[i].T @ r_inv @ resid[i]
    np.testing.assert_allclose(total, 0.0, atol=1e-6)


def test_gee_exchangeable_clamps_impossible_negative_correlation() -> None:
    # Exactly antisymmetric residual pairs push the moment estimate of
    # the exchangeable correlation below its lower bound -1/(M-1).
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(35)))
    n, p = 50, 2
    x_subject = rng.standard_normal((n, p))
    x = np.repeat(x_subject[:, None, :], 2, axis=1)
    z = rng.standard_normal(n)
    beta0 = np.array([1.0, 2.0])
    mu = x_subject @ beta0
    y = np.stack([mu + z, mu - z], axis=1)
    data = PanelDataset(responses=y, covariates=x)
    with pytest.warns(UserWarning, match="clamped"):
        fit = gee_fit(data, working="exchangeable")
    assert fit.rho_hat == pytest.approx(-1.0, abs=1e-5)
    np.testing.assert_allclose(fit.beta_hat, beta0, atol=1e-8)


def test_gee_rejects_unknown_working_structure() -> None:
    with pytest.raises(FitError, match="working"):
        gee_fit(_panel(), working="toeplitz")


# ---------------------------------------------------------------------------
# Oracle generalized least squares
# ---------------------------------------------------------------------------


def test_gls_identity_covariance_is_ols() -> None:
    data = _panel(seed=36)
    fit = gls_oracle(data, 2.5 * np.eye(data.n_coordinates))
    np.testing.assert_allclose(fit.beta_hat, _ols(data), rtol=0.0, atol=1e-10)
    assert fit.method == "gls_oracle"


def test_gls_matches_explicit_normal_equations() -> None:
    data = _panel(seed=37)
    m = data.n_coordinates
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(38)))
    a = rng.standard_normal((m, m))
    sigma = a @ a.T + m * np.eye(m)
    fit = gls_oracle(data, sigma)
    sigma_inv = np.linalg.inv(sigma)
    info = np.zeros((data.n_covariates, data.n_covariates))
    rhs = np.zeros(data.n_covariates)
    for i in range(data.n_subjects):
        xi = data.covariates[i]
        info += xi.T @ sigma_inv @ xi
        rhs += xi.T @ sigma_inv @ data.responses[i]
    np.testing.assert_allclose(fit.beta_hat, np.linalg.solve(info, rhs), rtol=1e-10)
    np.testing.assert_allclose(fit.covariance, np.linalg.inv(info), rtol=1e-8)


def test_gls_point_estimate_invariant_to_covariance_scale() -> None:
    data = _panel(seed=39)
    m = data.n_coordinates
    sigma = 0.5 * np.eye(m) + 0.5 * np.ones((m, m))
    f1 = gls_oracle(data, sigma)
    f2 = gls_oracle(data, 7.0 * sigma)
    np.testing.assert_allclose(f1.beta_hat, f2.beta_hat, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(7.0 * f1.covariance, f2.covariance, rtol=1e-12)


def test_gls_validates_covariance() -> None:
    data = _panel(seed=40)
    m = data.n_coordinates
    with pytest.raises(FitError, match="shape"):
        gls_oracle(data, np.eye(m + 1))
    bad = np.eye(m)
    bad[0, 1] = 0.5  # asymmetric
    with pytest.raises(FitError, match="symmetric"):
        gls_oracle(data, bad)
    with pytest.raises(FitError, match="positive definite"):
        gls_oracle(data, -np.eye(m))
    for bad in (np.inf, -np.inf):
        # Symmetric, so only the factorization can refuse it.
        cov = np.eye(m)
        cov[0, 0] = bad
        with pytest.raises(FitError, match="covariance is not positive definite"):
            gls_oracle(data, cov)


def test_spd_solve_refusals_are_fit_errors() -> None:
    from dimm.baselines import _spd_solve

    for mat in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[1.0, np.nan], [0.0, 1.0]])):
        with pytest.raises(FitError, match="pooled design matrix is not positive definite"):
            _spd_solve(mat, np.ones(2), "pooled design matrix")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(41)))
    a = rng.standard_normal((4, 9))
    mat, rhs = a @ a.T, rng.standard_normal(4)
    np.testing.assert_allclose(mat @ _spd_solve(mat, rhs, "m"), rhs, rtol=0.0, atol=1e-12)


def test_baseline_std_errors_property() -> None:
    data = _panel(seed=41)
    fit = gee_fit(data, working="independence")
    np.testing.assert_allclose(
        fit.std_errors, np.sqrt(np.diag(fit.covariance)), rtol=0.0, atol=0.0
    )
