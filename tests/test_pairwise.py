"""Pairwise composite-likelihood tests.

Oracles used here, all independent of the code under test:

* bivariate log density via ``np.linalg`` (explicit inverse + slogdet);
* block objective via brute-force enumeration of subjects and pairs;
* beta-score via central finite differences of the objective;
* sensitivity via explicit per-pair ``X' Omega^-1 X`` loops;
* an exactly solvable sign-symmetric dataset with a closed-form optimum;
* ``scipy.optimize.brentq`` for the root step on the rho-score.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from dimm import pairwise
from dimm.errors import DataError, FitError
from dimm.model import (
    BlockPartition,
    Dependence,
    PanelDataset,
    pair_covariance,
    partition_dataset,
)
from dimm.pairwise import (
    bivariate_normal_logpdf,
    block_logcl,
    block_score_beta,
    block_score_gamma,
    block_sensitivity,
    fit_block,
    fit_blocks,
)
from dimm.simulate import bundled_scenario, bundled_scenario_names, generate_replicate


def _random_block(
    seed: int, n: int = 25, m: int = 4, p: int = 2
) -> PanelDataset:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = rng.standard_normal((n, m, p))
    y = rng.standard_normal((n, m))
    return PanelDataset(responses=y, covariates=x)


def _oracle_logpdf(y: np.ndarray, mu: np.ndarray, cov_mat: np.ndarray) -> float:
    """Bivariate normal log density via generic linear algebra."""
    e = np.asarray(y, dtype=float) - np.asarray(mu, dtype=float)
    sign, logdet = np.linalg.slogdet(cov_mat)
    assert sign > 0
    quad = e @ np.linalg.inv(cov_mat) @ e
    return float(-math.log(2.0 * math.pi) - 0.5 * logdet - 0.5 * quad)


def _oracle_block_logcl(
    beta: np.ndarray, gamma: Dependence, block: PanelDataset
) -> float:
    """Brute-force total log composite likelihood: every subject, every pair."""
    n, m = block.responses.shape
    total = 0.0
    for i in range(n):
        mu = block.covariates[i] @ beta
        for r in range(m):
            for t in range(r + 1, m):
                cov = pair_covariance(gamma, t - r)
                total += _oracle_logpdf(
                    [block.responses[i, r], block.responses[i, t]],
                    [mu[r], mu[t]],
                    cov.matrix,
                )
    return total


# ---------------------------------------------------------------------------
# Density and objective
# ---------------------------------------------------------------------------


def test_bivariate_logpdf_matches_linear_algebra_oracle() -> None:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
    for _ in range(50):
        sigma = float(rng.uniform(0.3, 3.0))
        corr = float(rng.uniform(-0.95, 0.95))
        cov = pair_covariance(Dependence("ar1", sigma, corr), 1)
        y = rng.standard_normal(2) * 3.0
        mu = rng.standard_normal(2)
        got = bivariate_normal_logpdf(y, mu, cov)
        want = _oracle_logpdf(y, mu, cov.matrix)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_bivariate_logpdf_rejects_bad_shapes() -> None:
    cov = pair_covariance(Dependence("ar1", 1.0, 0.5), 1)
    with pytest.raises(ValueError):
        bivariate_normal_logpdf([1.0, 2.0, 3.0], [0.0, 0.0], cov)
    with pytest.raises(ValueError):
        bivariate_normal_logpdf([np.nan, 2.0], [0.0, 0.0], cov)


@pytest.mark.parametrize("structure,rho", [("ar1", 0.55), ("ar1", -0.3), ("cs", 0.4)])
def test_block_logcl_matches_enumeration(structure: str, rho: float) -> None:
    block = _random_block(seed=42, n=8, m=5, p=2)
    beta = np.array([0.7, -0.3])
    gamma = Dependence(structure, 1.3, rho)
    got = block_logcl(beta, gamma, block)
    want = _oracle_block_logcl(beta, gamma, block)
    assert got == pytest.approx(want, rel=1e-11)


# ---------------------------------------------------------------------------
# Scores and sensitivity
# ---------------------------------------------------------------------------


def test_beta_score_matches_central_differences() -> None:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2)))
    for case in range(10):
        n, m, p = 10, int(rng.integers(3, 6)), int(rng.integers(1, 4))
        block = _random_block(seed=100 + case, n=n, m=m, p=p)
        structure = "ar1" if case % 2 == 0 else "cs"
        gamma = Dependence(structure, float(rng.uniform(0.5, 2.0)), float(rng.uniform(-0.2, 0.6)))
        beta = rng.standard_normal(p)
        score = block_score_beta(beta, gamma, block)
        assert score.shape == (n, p)
        mean_score = score.mean(axis=0)
        h = 1e-6
        for q in range(p):
            bp, bm = beta.copy(), beta.copy()
            bp[q] += h
            bm[q] -= h
            fd = (
                _oracle_block_logcl(bp, gamma, block)
                - _oracle_block_logcl(bm, gamma, block)
            ) / (2.0 * h * n)
            denom = max(1.0, abs(fd))
            assert abs(mean_score[q] - fd) / denom < 1e-6


def test_gamma_score_sigma_component_closed_form_at_zero_corr() -> None:
    # With corr = 0 the per-pair sigma-derivative is -2/sigma + (e_r^2 +
    # e_t^2)/sigma^3; summed over pairs, averaged over subjects.
    block = _random_block(seed=7, n=12, m=4, p=2)
    beta = np.array([0.4, -1.1])
    sigma = 1.7
    gamma = Dependence("ar1", sigma, 0.0)
    n, m = block.responses.shape
    total = 0.0
    for i in range(n):
        e = block.responses[i] - block.covariates[i] @ beta
        for r in range(m):
            for t in range(r + 1, m):
                total += -2.0 / sigma + (e[r] ** 2 + e[t] ** 2) / sigma**3
    want = total / n
    got = block_score_gamma(beta, gamma, block)
    assert got.shape == (2,)
    assert got[0] == pytest.approx(want, rel=1e-6, abs=1e-8)


def test_gamma_score_rho_component_matches_objective_differences() -> None:
    block = _random_block(seed=8, n=10, m=4, p=2)
    beta = np.array([0.2, 0.9])
    for structure, rho in [("ar1", 0.35), ("cs", -0.15)]:
        gamma = Dependence(structure, 1.2, rho)
        got = block_score_gamma(beta, gamma, block)
        h = 1e-5
        up = _oracle_block_logcl(beta, Dependence(structure, 1.2, rho + h), block)
        dn = _oracle_block_logcl(beta, Dependence(structure, 1.2, rho - h), block)
        fd = (up - dn) / (2.0 * h * block.n_subjects)
        assert got[1] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_sensitivity_matches_explicit_pair_loops() -> None:
    block = _random_block(seed=9, n=6, m=5, p=3)
    gamma = Dependence("ar1", 1.4, 0.45)
    n, m = block.responses.shape
    p = block.n_covariates
    acc = np.zeros((p, p))
    for i in range(n):
        for r in range(m):
            for t in range(r + 1, m):
                xp = block.covariates[i, [r, t], :]  # (2, p)
                omega_inv = np.linalg.inv(pair_covariance(gamma, t - r).matrix)
                acc += xp.T @ omega_inv @ xp
    want = acc / n
    got = block_sensitivity(np.zeros(p), gamma, block)
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)


def test_sensitivity_scales_inversely_with_variance() -> None:
    block = _random_block(seed=10, n=5, m=4, p=2)
    base = block_sensitivity(np.zeros(2), Dependence("cs", 1.0, 0.3), block)
    doubled = block_sensitivity(np.zeros(2), Dependence("cs", 2.0, 0.3), block)
    np.testing.assert_allclose(base / doubled, np.full((2, 2), 4.0), rtol=1e-12)


def test_beta_score_is_linear_in_beta() -> None:
    # Identity link: the mean beta-score is affine in beta with slope
    # -sensitivity, so a wide finite difference recovers it exactly.
    block = _random_block(seed=11, n=7, m=4, p=2)
    gamma = Dependence("ar1", 1.1, 0.5)
    sens = block_sensitivity(np.zeros(2), gamma, block)
    beta = np.array([0.5, -0.25])
    h = 0.5  # linearity makes the step size irrelevant
    for q in range(2):
        bp, bm = beta.copy(), beta.copy()
        bp[q] += h
        bm[q] -= h
        sp = block_score_beta(bp, gamma, block).mean(axis=0)
        sm = block_score_beta(bm, gamma, block).mean(axis=0)
        np.testing.assert_allclose((sp - sm) / (2 * h), -sens[:, q], rtol=1e-9, atol=1e-12)


def test_score_unbiased_at_truth() -> None:
    # At the data-generating parameters the mean score is a mean of iid
    # mean-zero terms; with N subjects it should sit within a few
    # standard errors of zero.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(12)))
    n, m, p = 4000, 4, 2
    beta0 = np.array([1.0, -0.5])
    gamma0 = Dependence("ar1", 1.5, 0.6)
    lagmat = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    cov = gamma0.sigma**2 * gamma0.rho**lagmat
    x = rng.standard_normal((n, m, p))
    y = np.einsum("nmp,p->nm", x, beta0) + rng.standard_normal((n, m)) @ np.linalg.cholesky(cov).T
    block = PanelDataset(responses=y, covariates=x)
    scores = block_score_beta(beta0, gamma0, block)
    mean = scores.mean(axis=0)
    se = scores.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(mean) <= 4.0 * se)
    gs = block_score_gamma(beta0, gamma0, block)
    # gamma components lack a per-subject breakdown here; use a loose
    # O(1/sqrt(N)) envelope.
    assert np.all(np.abs(gs) <= 1.0)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def test_fit_block_exact_on_sign_symmetric_data() -> None:
    # Four subjects share one design; residuals run through all four
    # sign combinations of (d1, d2). Cross-products cancel exactly, so
    # the optimum has beta = beta*, corr = 0, and sigma^2 = (d1^2 +
    # d2^2)/2 in closed form.
    x1 = np.array([[1.0, 0.5], [0.3, -1.2]])
    beta_star = np.array([0.8, -0.4])
    d1, d2 = 0.9, 0.4
    mu = x1 @ beta_star
    ys, xs = [], []
    for s1 in (+1.0, -1.0):
        for s2 in (+1.0, -1.0):
            ys.append(mu + np.array([s1 * d1, s2 * d2]))
            xs.append(x1)
    block = PanelDataset(responses=np.array(ys), covariates=np.array(xs))
    fit = fit_block(block, "ar1", name="sym")
    sigma_star = math.sqrt((d1**2 + d2**2) / 2.0)
    np.testing.assert_allclose(fit.beta_hat, beta_star, rtol=0.0, atol=1e-6)
    assert fit.gamma_hat.sigma == pytest.approx(sigma_star, abs=1e-6)
    assert fit.gamma_hat.rho == pytest.approx(0.0, abs=1e-4)
    assert fit.trace.converged


def test_fit_block_recovers_truth_at_large_n() -> None:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(13)))
    n, m = 3000, 4
    beta0 = np.array([1.2, -0.7])
    gamma0 = Dependence("ar1", 2.0, 0.5)
    lagmat = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    cov = gamma0.sigma**2 * gamma0.rho**lagmat
    x = rng.standard_normal((n, m, 2))
    y = np.einsum("nmp,p->nm", x, beta0) + rng.standard_normal((n, m)) @ np.linalg.cholesky(cov).T
    fit = fit_block(PanelDataset(responses=y, covariates=x), "ar1")
    assert np.all(np.abs(fit.beta_hat - beta0) < 0.08)
    assert abs(fit.gamma_hat.sigma - 2.0) < 0.08
    assert abs(fit.gamma_hat.rho - 0.5) < 0.05
    # Acceptance gates always hold on a returned fit.
    assert fit.trace.converged
    assert fit.trace.rel_beta_score <= 1e-6


def test_fit_block_gates_and_reported_objective() -> None:
    block = _random_block(seed=14, n=40, m=4, p=2)
    fit = fit_block(block, "cs", name="gates")
    # The reported optimum must satisfy the acceptance gates...
    mean_score = block_score_beta(fit.beta_hat, fit.gamma_hat, block).mean(axis=0)
    assert np.max(np.abs(mean_score)) <= 1e-6
    gscore = block_score_gamma(fit.beta_hat, fit.gamma_hat, block)
    assert np.max(np.abs(gscore)) <= 1e-3
    # ...and the stored log composite likelihood must be the real one.
    assert fit.logcl == pytest.approx(block_logcl(fit.beta_hat, fit.gamma_hat, block), rel=1e-12)
    assert fit.n_pairs == 6
    # Perturbing beta can only lower the objective.
    for bump in (1e-3, -1e-3):
        worse = fit.beta_hat + np.array([bump, 0.0])
        assert block_logcl(worse, fit.gamma_hat, block) <= fit.logcl + 1e-9


def test_fit_block_structure_argument_is_family_only() -> None:
    # Passing a parameterized Dependence must give the same fit as the
    # bare family name: its parameter values never seed the search.
    block = _random_block(seed=15, n=30, m=4, p=2)
    by_name = fit_block(block, "ar1")
    by_spec = fit_block(block, Dependence("ar1", 5.0, 0.7))
    np.testing.assert_array_equal(by_name.beta_hat, by_spec.beta_hat)
    assert by_name.gamma_hat == by_spec.gamma_hat
    assert by_name.logcl == by_spec.logcl


def test_fit_block_subject_scores_consistent() -> None:
    block = _random_block(seed=16, n=25, m=4, p=2)
    fit = fit_block(block, "ar1")
    recomputed = block_score_beta(fit.beta_hat, fit.gamma_hat, block)
    np.testing.assert_allclose(fit.subject_scores, recomputed, rtol=1e-12, atol=1e-14)
    sens = block_sensitivity(fit.beta_hat, fit.gamma_hat, block)
    np.testing.assert_allclose(fit.sensitivity, sens, rtol=1e-12, atol=1e-14)
    np.linalg.cholesky(fit.sensitivity)  # positive definite


def test_fit_blocks_rejects_block_with_degenerate_design() -> None:
    # A column that is constant inside the first block collides with the
    # intercept there, even though the full panel is full-rank.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(18)))
    n, m = 20, 4
    x = np.empty((n, m, 2))
    x[:, :, 0] = 1.0  # intercept
    x[:, :, 1] = rng.standard_normal((n, m))
    x[:, :2, 1] = 3.0  # constant within block 1 => collinear there
    y = rng.standard_normal((n, m)) + x[:, :, 1]
    data = PanelDataset(responses=y, covariates=x)
    part = BlockPartition.from_sizes([2, 2])
    with pytest.raises(DataError, match="rank"):
        fit_blocks(data, part)


def test_grid_size_picks_the_bracket_not_the_answer(monkeypatch: pytest.MonkeyPatch) -> None:
    block = _random_block(seed=19, n=15, m=3, p=1)
    default = fit_block(block, "ar1")
    monkeypatch.setattr(pairwise, "_GRID_POINTS", 5)
    coarse = fit_block(block, "ar1")
    assert coarse.trace.simplex_iterations in (5, 6)
    assert default.trace.simplex_iterations in (41, 42)
    assert coarse.trace.converged
    np.testing.assert_allclose(coarse.beta_hat, default.beta_hat, rtol=1e-10, atol=1e-13)
    assert coarse.gamma_hat.rho == pytest.approx(default.gamma_hat.rho, rel=1e-10, abs=1e-13)


def test_fit_above_the_acceptance_tolerance_is_refused(monkeypatch: pytest.MonkeyPatch) -> None:
    # No real fit has scores this small, so the gate must refuse it.
    monkeypatch.setattr(pairwise, "_ACCEPT_TOL", 1e-300)
    block = _random_block(seed=20, n=15, m=3, p=1)
    with pytest.raises(FitError) as info:
        fit_block(block, "ar1", name="tight")
    trace = info.value.trace
    assert trace is not None and not trace.converged
    msg = str(info.value)
    assert msg.startswith("block 'tight' did not converge")
    assert f"relative beta-score sup-norm {trace.rel_beta_score:.3e}" in msg
    assert f"relative gamma-score sup-norm {trace.rel_gamma_score:.3e}" in msg
    assert "(tol 1.0e-300)" in msg


def _eeg_block() -> PanelDataset:
    scn = bundled_scenario("eeg_mimic")
    data = generate_replicate(scn, 0)
    return partition_dataset(data, scn.partition_for("dimm"))[0]


def test_fit_block_is_equivariant_in_response_scale_and_shift() -> None:
    block = _eeg_block()
    x = block.covariates
    base = fit_block(block, "cs")
    for k in range(-9, 10, 3):
        scale = 10.0**k
        fit = fit_block(PanelDataset(block.responses * scale, x), "cs")
        np.testing.assert_allclose(fit.beta_hat / scale, base.beta_hat, rtol=1e-9, atol=0.0)
        assert fit.gamma_hat.rho == pytest.approx(base.gamma_hat.rho, rel=1e-9)
        assert fit.gamma_hat.sigma / scale == pytest.approx(base.gamma_hat.sigma, rel=1e-9)
    # y + X c moves beta by c and leaves sigma and rho alone.
    c = np.array([3.0, -2.0, 0.5, 1.5])[: x.shape[2]]
    shifted = fit_block(PanelDataset(block.responses + x @ c, x), "cs")
    np.testing.assert_allclose(shifted.beta_hat - c, base.beta_hat, rtol=1e-9, atol=1e-12)
    assert shifted.gamma_hat.rho == pytest.approx(base.gamma_hat.rho, rel=1e-9)
    assert shifted.gamma_hat.sigma == pytest.approx(base.gamma_hat.sigma, rel=1e-9)


def test_refined_maximum_is_at_least_the_grid_maximum_on_bundled_scenarios() -> None:
    checked = 0
    for name in bundled_scenario_names():
        scn = bundled_scenario(name)
        data = generate_replicate(scn, 0)
        for method in scn.methods:
            if not method.startswith("dimm"):
                continue
            for fit in fit_blocks(data, scn.partition_for(method)):
                assert fit.trace.logcl >= fit.trace.grid_logcl, (name, method, fit.name)
                checked += 1
    assert checked > 0


def test_constant_response_is_named() -> None:
    block = _random_block(seed=20, n=12, m=4, p=2)
    flat = PanelDataset(np.full_like(block.responses, 3.0), block.covariates)
    with pytest.raises(FitError, match="response is constant"):
        fit_block(flat, "ar1")


def test_exact_fit_is_named() -> None:
    block = _random_block(seed=21, n=12, m=4, p=2)
    exact = PanelDataset(block.covariates @ np.array([0.7, -1.3]), block.covariates)
    with pytest.raises(FitError, match="exact fit"):
        fit_block(exact, "cs")


def test_duplicated_coordinates_put_rho_at_its_bound() -> None:
    block = _random_block(seed=22, n=12, m=4, p=2)
    y = np.repeat(block.responses[:, :1], 3, axis=1)
    x = np.repeat(block.covariates[:, :1, :], 3, axis=1)
    for structure in ("ar1", "cs"):
        with pytest.raises(FitError, match="rho is at its bound 1"):
            fit_block(PanelDataset(y, x), structure)


def test_score_root_matches_scipy_brentq_on_bundled_scenarios(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Every block of replicate 0 of every bundled scenario: the root step
    # finds brentq's rho on the same bracket, at no more evaluations.
    from scipy import optimize

    calls: list[tuple[float, float, int, int]] = []
    root_step = pairwise._score_root

    def both(score, lo, hi, f_lo, f_hi, name):
        rho, n_evals = root_step(score, lo, hi, f_lo, f_hi, name)
        _, result = optimize.brentq(
            score, lo, hi, xtol=pairwise._RHO_XTOL, full_output=True
        )
        calls.append((rho, result.root, n_evals, result.function_calls))
        return rho, n_evals

    monkeypatch.setattr(pairwise, "_score_root", both)
    for name in bundled_scenario_names():
        scn = bundled_scenario(name)
        data = generate_replicate(scn, 0)
        calls.clear()
        for method in scn.methods:
            if method.startswith("dimm"):
                fits = fit_blocks(data, scn.partition_for(method))
                assert [f.trace.newton_iterations for f in fits] == [
                    c[2] for c in calls[-len(fits):]
                ]
        assert calls, name
        got = np.array(calls)
        np.testing.assert_allclose(got[:, 0], got[:, 1], rtol=0.0, atol=1e-12, err_msg=name)
        assert got[:, 2].mean() <= got[:, 3].mean() + 1.0, name


def test_score_root_on_known_functions() -> None:
    def cubic(x: float) -> float:
        return x**3 - 0.2

    root, n_evals = pairwise._score_root(cubic, 0.0, 1.0, cubic(0.0), cubic(1.0), "b")
    assert root == pytest.approx(0.2 ** (1.0 / 3.0), abs=1e-13)
    assert 0 < n_evals < 20
    # A zero score at either end is the root, with no evaluation.
    assert pairwise._score_root(cubic, -0.5, 0.5, 0.0, 1.0, "b") == (-0.5, 0)
    assert pairwise._score_root(cubic, -0.5, 0.5, -1.0, 0.0, "b") == (0.5, 0)


def test_score_root_that_does_not_converge_names_the_block(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setattr(pairwise, "_ROOT_MAX_EVALS", 1)
    with pytest.raises(FitError, match=r"block 'slow': the rho-score root step did not converge"):
        fit_block(_random_block(seed=23, n=30, m=4, p=2), "ar1", name="slow")
