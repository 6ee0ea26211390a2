"""Comparator-estimator tests.

Oracles: ``np.linalg.lstsq`` for ordinary least squares, the
per-subject loops of ``tests.oracles`` (GLS normal equations with a
literal ``inv(Sigma)``, GEE bread and meat with a literal ``inv(R)``),
and the moment identities recomputed from scratch on the final
residuals.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest

from dimm import baselines
from dimm._util import inv_cholesky, spd_solve
from dimm.baselines import gee_fit, gls_oracle
from dimm.errors import FitError
from dimm.model import PanelDataset
from dimm.simulate import bundled_scenario, generate_replicate
from tests.oracles import gee_sandwich, gls_normal_equations


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
    _, want = gee_sandwich(data, 0.0)
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


def test_gee_exchangeable_sandwich_matches_loops() -> None:
    # Every covariate varies within subject, so the exchangeable fit
    # iterates away from OLS; given the reported rho, the estimate and
    # the sandwich must match the literal inv(R) loops.
    data = _panel(seed=42)
    fit = gee_fit(data, working="exchangeable")
    assert fit.n_iter >= 2
    beta, cov = gee_sandwich(data, fit.rho_hat)
    np.testing.assert_allclose(fit.beta_hat, beta, rtol=1e-10)
    np.testing.assert_allclose(fit.covariance, cov, rtol=1e-10, atol=1e-14)


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


def test_gee_exchangeable_non_convergence_is_a_fit_error(monkeypatch: pytest.MonkeyPatch) -> None:
    # The row-varying panel needs several beta updates; one is not enough.
    assert gee_fit(_panel(), working="exchangeable").n_iter > 1
    monkeypatch.setattr(baselines, "_MAX_ITER", 1)
    with pytest.raises(FitError, match="did not converge in 1 iterations"):
        gee_fit(_panel(), working="exchangeable")


@pytest.mark.parametrize("working", ["independence", "exchangeable"])
@pytest.mark.parametrize("level", [0.0, 1.0])
def test_gee_refuses_an_exact_fit(working: str, level: float) -> None:
    # A constant response with an intercept leaves no residual: the scale
    # (and so rho) is 0/0, and the sandwich would report zero SEs.
    x = _panel(seed=43).covariates.copy()
    x[..., 0] = 1.0
    data = PanelDataset(responses=np.full(x.shape[:2], level), covariates=x)
    with pytest.raises(FitError, match="exact fit"):
        gee_fit(data, working=working)


def test_gee_exact_fit_refuses_every_call_and_is_not_cached() -> None:
    x = _panel(seed=43).covariates.copy()
    x[..., 0] = 1.0
    data = PanelDataset(responses=np.full(x.shape[:2], 1.0), covariates=x)
    messages = []
    for working in ("independence", "exchangeable", "independence"):
        with pytest.raises(FitError, match="exact fit") as info:
            gee_fit(data, working=working)
        messages.append(str(info.value))
    assert len(set(messages)) == 1
    assert not data._derived


def _same_fit(a: baselines.BaselineFit, b: baselines.BaselineFit) -> None:
    np.testing.assert_array_equal(a.beta_hat, b.beta_hat)
    np.testing.assert_array_equal(a.covariance, b.covariance)
    assert (a.rho_hat, a.n_iter) == (b.rho_hat, b.n_iter)


def test_gee_fits_sharing_the_pooled_start_match_fits_on_fresh_panels() -> None:
    ref = generate_replicate(bundled_scenario("table1_scaled"), 0)

    def fresh() -> PanelDataset:
        return PanelDataset(ref.responses, ref.covariates)

    alone = {w: gee_fit(fresh(), w) for w in ("independence", "exchangeable")}
    for order in (("independence", "exchangeable"), ("exchangeable", "independence")):
        panel = fresh()
        for working in order:
            _same_fit(gee_fit(panel, working), alone[working])
        assert set(panel._derived) == {baselines._pooled_start}


def test_gee_pooled_start_is_dropped_with_the_panel() -> None:
    data = _panel(seed=44)
    gee_fit(data, "exchangeable")
    panel, resid = weakref.ref(data), weakref.ref(baselines._pooled_start(data)[-1])
    del data
    gc.collect()
    assert panel() is None
    assert resid() is None


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
    beta, cov = gls_normal_equations(data, sigma)
    np.testing.assert_allclose(fit.beta_hat, beta, rtol=1e-10)
    np.testing.assert_allclose(fit.covariance, cov, rtol=1e-8)


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


def test_gls_symmetry_rule_is_free_of_scale() -> None:
    # The point estimate does not depend on the covariance's scale, and
    # neither does the refusal: roundoff asymmetry passes at every scale
    # and a 1e-3 relative one fails at every scale.
    data = _panel(seed=46)
    m = data.n_coordinates
    lags = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    sigma = 0.6**lags + 0.2 * np.eye(m)
    rounded = sigma.copy()
    rounded[0, 1] *= 1.0 + 1e-15
    asymmetric = sigma.copy()
    asymmetric[0, 1] += 1e-3 * np.abs(sigma).max()
    reference = gls_oracle(data, sigma).beta_hat
    for scale in (1e-12, 1e-6, 1.0, 1e6):
        fit = gls_oracle(data, scale * rounded)
        np.testing.assert_allclose(fit.beta_hat, reference, rtol=1e-10, atol=0.0)
        with pytest.raises(FitError, match="^covariance must be symmetric$"):
            gls_oracle(data, scale * asymmetric)


# ---------------------------------------------------------------------------
# Bundled designs
# ---------------------------------------------------------------------------


def test_comparators_match_loop_oracles_on_table1_scaled() -> None:
    # p = 6 with an intercept, subject-level columns and an interaction.
    scn = bundled_scenario("table1_scaled")
    data = generate_replicate(scn, 0)
    gls = gls_oracle(data, scn.covariance_matrix)
    ind = gee_fit(data, "independence")
    exch = gee_fit(data, "exchangeable")
    for fit, (beta, cov) in (
        (gls, gls_normal_equations(data, scn.covariance_matrix)),
        (ind, gee_sandwich(data, 0.0)),
        (exch, gee_sandwich(data, exch.rho_hat)),
    ):
        np.testing.assert_allclose(fit.beta_hat, beta, rtol=1e-10, err_msg=fit.method)
        np.testing.assert_allclose(fit.covariance, cov, rtol=1e-10, err_msg=fit.method)


def test_inverse_factor_has_no_subnormal_entry_on_table1_full() -> None:
    # The raw inverse Cholesky factor of this covariance holds a few
    # dozen subnormal entries (how many depends on the LAPACK build),
    # which stall the oracle's whitening GEMM.
    sigma = bundled_scenario("table1_full").covariance_matrix
    tiny = np.finfo(np.float64).tiny
    raw = np.linalg.inv(np.linalg.cholesky(sigma))
    assert np.count_nonzero((raw != 0.0) & (np.abs(raw) < tiny)) > 0
    inv_factor = inv_cholesky(sigma, "covariance", FitError)
    assert not np.any((inv_factor != 0.0) & (np.abs(inv_factor) < tiny))
    np.testing.assert_array_equal(inv_factor[np.abs(raw) >= tiny], raw[np.abs(raw) >= tiny])


def test_gls_oracle_matches_normal_equations_on_table1_full() -> None:
    scn = bundled_scenario("table1_full")
    data = generate_replicate(scn, 0)
    fit = gls_oracle(data, scn.covariance_matrix)
    beta, cov = gls_normal_equations(data, scn.covariance_matrix)
    np.testing.assert_allclose(fit.beta_hat, beta, rtol=1e-10)
    np.testing.assert_allclose(fit.covariance, cov, rtol=1e-10)


def test_gls_oracle_factors_each_covariance_content_once(monkeypatch: pytest.MonkeyPatch) -> None:
    scn = bundled_scenario("table1_scaled")
    data = generate_replicate(scn, 0)
    calls = []

    def counted(*args):
        calls.append(args[1])
        return inv_cholesky(*args)

    monkeypatch.setattr(baselines, "inv_cholesky", counted)
    baselines._whitening.cache_clear()
    sigma = scn.covariance_matrix
    first = gls_oracle(data, sigma)
    beta, cov = gls_normal_equations(data, sigma)
    np.testing.assert_allclose(first.beta_hat, beta, rtol=1e-10)
    np.testing.assert_allclose(first.covariance, cov, rtol=1e-10)
    # Equal content is factored once: the same array, a writeable copy,
    # and the scenario after a pickle round trip, as a pool worker gets it.
    writeable = np.array(sigma)
    shipped = pickle.loads(pickle.dumps(scn)).covariance_matrix
    for same in (sigma, writeable, shipped):
        _same_fit(gls_oracle(data, same), first)
    second = gls_oracle(generate_replicate(scn, 1), sigma)
    assert not np.array_equal(first.beta_hat, second.beta_hat)
    assert calls == ["covariance"]
    # An in-place change is new content, factored again.
    writeable[0, 0] *= 2.0
    changed = gls_oracle(data, writeable)
    assert calls == ["covariance"] * 2
    beta, cov = gls_normal_equations(data, writeable)
    np.testing.assert_allclose(changed.beta_hat, beta, rtol=1e-10)
    np.testing.assert_allclose(changed.covariance, cov, rtol=1e-10)
    # A refusal is never kept: it is raised again on every call.
    asymmetric = np.array(sigma)
    asymmetric[0, 1] += 0.5
    for bad, match in ((asymmetric, "symmetric"), (-sigma, "covariance is not positive definite")):
        for _ in range(2):
            with pytest.raises(FitError, match=match):
                gls_oracle(data, bad)
    assert calls == ["covariance"] * 4  # the indefinite one reached the factorization twice
    _same_fit(gls_oracle(data, writeable), changed)
    assert calls == ["covariance"] * 4


def test_gee_exchangeable_equals_independence_on_eeg_mimic() -> None:
    # Every column of X_i on the bundled designs is subject-level,
    # alternating or the intercept; the exchangeable R maps that column
    # space into itself, so both working structures give one estimate
    # and one sandwich.
    data = generate_replicate(bundled_scenario("eeg_mimic"), 0)
    ind = gee_fit(data, "independence")
    exch = gee_fit(data, "exchangeable")
    np.testing.assert_allclose(exch.beta_hat, ind.beta_hat, rtol=1e-10)
    np.testing.assert_allclose(exch.covariance, ind.covariance, rtol=1e-10)


def test_spd_solve_refusals_are_fit_errors() -> None:
    # The baselines' solves go through the shared rule with FitError.
    for mat in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[1.0, np.nan], [0.0, 1.0]])):
        with pytest.raises(FitError, match="pooled design matrix is not positive definite"):
            spd_solve(mat, np.ones(2), "pooled design matrix", FitError)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(41)))
    a = rng.standard_normal((4, 9))
    mat, rhs = a @ a.T, rng.standard_normal(4)
    np.testing.assert_allclose(
        mat @ spd_solve(mat, rhs, "m", FitError), rhs, rtol=0.0, atol=1e-12
    )


def test_baseline_std_errors_property() -> None:
    data = _panel(seed=41)
    fit = gee_fit(data, working="independence")
    np.testing.assert_allclose(
        fit.std_errors, np.sqrt(np.diag(fit.covariance)), rtol=0.0, atol=0.0
    )
