"""Pairwise composite-likelihood tests.

Oracles used here, all independent of the code under test:

* bivariate log density via ``np.linalg`` (explicit inverse + slogdet);
* block objective via brute-force enumeration of subjects and pairs;
* beta-score via central finite differences of the objective;
* sensitivity via explicit per-pair ``X' Omega^-1 X`` loops;
* an exactly solvable sign-symmetric dataset with a closed-form optimum;
* ``scipy.optimize.brentq`` for the root step on the rho-score;
* ``hypothesis`` permutations of the subjects, which must not move a fit.
"""

from __future__ import annotations

import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import seed as hypothesis_seed
from hypothesis import strategies as st

from dimm import model, pairwise
from dimm.errors import DataError, FitError, PartitionError
from dimm.integrate import integrate_fits
from dimm.model import (
    BlockPartition,
    Dependence,
    PanelDataset,
    partition_dataset,
)
from dimm.pairwise import (
    block_logcl,
    block_score_beta,
    block_score_gamma,
    block_sensitivity,
    fit_block,
    fit_blocks,
)
from dimm.simulate import SimScenario, bundled_scenario, bundled_scenario_names, generate_replicate
from tests.oracles import bivariate_normal_logpdf, pair_covariance


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


# ---------------------------------------------------------------------------
# The profile: beta_hat(rho), sigma_hat(rho) and the rho-score from two Grams
# ---------------------------------------------------------------------------


def _pair_logcl(beta: np.ndarray, sigma: float, rho: float, structure: str, block) -> float:
    """The block's log-CL summed one pair at a time from the oracle densities."""
    gamma = Dependence(structure, sigma, rho)
    n, m = block.responses.shape
    covs = {lag: pair_covariance(gamma, lag) for lag in range(1, m)}
    total = 0.0
    for i in range(n):
        mu = block.covariates[i] @ beta
        for r in range(m):
            for t in range(r + 1, m):
                pair = [r, t]
                total += bivariate_normal_logpdf(block.responses[i, pair], mu[pair], covs[t - r])
    return total


@pytest.mark.parametrize("structure", ["ar1", "cs"])
def test_profile_from_two_grams_matches_the_pair_oracle(structure: str) -> None:
    block = _random_block(seed=31, n=7, m=4, p=2)
    # A batch of one block: its rho interval and profile lead with the block axis.
    moments, dependence = pairwise._block_moments(block), Dependence(structure)
    lo = np.array([[dependence.rho_lower(moments.block_size)]])
    rhos = lo + (1.0 - lo) * np.array([0.08, 0.2, 0.35, 0.5, 0.65, 0.8, 0.92])
    prof = pairwise._profile([moments], dependence, rhos)
    for k, rho in enumerate(rhos[0]):
        beta, sigma = prof.beta[0, k], math.sqrt(prof.sigma2[0, k])
        logcl = _pair_logcl(beta, sigma, rho, structure, block)
        assert prof.logcl[0, k] == pytest.approx(logcl, rel=1e-11)
        # beta_hat(rho) and sigma_hat(rho) zero the oracle's beta- and
        # sigma-scores. Central differences are exact for the quadratic
        # beta-part and leave O(h^2) in sigma; at h = 1e-5 both stay far
        # below the tolerance, a score that a 1e-6 move of beta exceeds.
        h = 1e-5
        for q in range(beta.size):
            step = np.eye(beta.size)[q] * h
            fd = (
                _pair_logcl(beta + step, sigma, rho, structure, block)
                - _pair_logcl(beta - step, sigma, rho, structure, block)
            ) / (2.0 * h)
            assert abs(fd) < 1e-7 * abs(logcl)
        fd = (
            _pair_logcl(beta, sigma * (1 + h), rho, structure, block)
            - _pair_logcl(beta, sigma * (1 - h), rho, structure, block)
        ) / (2.0 * h * sigma)
        assert abs(fd) < 1e-7 * abs(logcl)
    # The rho-score is the derivative of the profile log-CL: a five-point
    # central difference, whose O(h^4) error is negligible at h = 1e-4.
    h = 1e-4
    shifted = [pairwise._profile([moments], dependence, rhos + j * h).logcl for j in (-2, -1, 1, 2)]
    fd = (shifted[0] - 8.0 * shifted[1] + 8.0 * shifted[2] - shifted[3]) / (12.0 * h)
    np.testing.assert_allclose(prof.score, fd, rtol=1e-6)


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


@pytest.mark.parametrize("structure", ["toeplitz", Dependence("ar1", 1.0, 0.5), "AR1"])
def test_fit_block_takes_a_family_name(structure) -> None:
    block = _random_block(seed=15, n=30, m=4, p=2)
    with pytest.raises(PartitionError, match="structure must be one of"):
        fit_block(block, structure)


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


def _table1_full_with_seventh_column(block: str, column) -> tuple[PanelDataset, BlockPartition]:
    """Replicate 0 of table1_full with a seventh covariate that is
    ``column(x)`` inside the named block and standard normal elsewhere."""
    scn = bundled_scenario("table1_full")
    data = generate_replicate(scn, 0)
    part = scn.partition_for("dimm")
    sl = part.slices[part.names.index(block)]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(24)))
    extra = rng.standard_normal(data.responses.shape)
    extra[:, sl] = column(data.covariates[:, sl, :])
    x = np.concatenate([data.covariates, extra[:, :, None]], axis=2)
    return PanelDataset(data.responses, x), part


@pytest.mark.parametrize(
    "column",
    [
        lambda x: 3.0 * x[..., 1],
        lambda x: x[..., 1] + x[..., 2],
        lambda x: 0.1 * x[..., 1] - 0.7 * x[..., 2],
        lambda x: 0.0 * x[..., 1],
    ],
    ids=["3x1", "x1+x2", "0.1x1-0.7x2", "zero"],
)
def test_fit_blocks_rejects_block_with_collinear_design(column) -> None:
    # The seventh column is collinear only inside block3, so the panel
    # passes entry validation and the block's own check must refuse it.
    data, part = _table1_full_with_seventh_column("block3", column)
    with pytest.raises(DataError, match=r"block 'block3'.*rank"):
        fit_blocks(data, part)


def test_block_rank_check_ignores_covariate_scale() -> None:
    scn = bundled_scenario("table1_full")
    data = generate_replicate(scn, 0)
    x = data.covariates.copy()
    x[..., 1] *= 1e6
    part = scn.partition_for("dimm")
    base = fit_blocks(data, part)
    scaled = fit_blocks(PanelDataset(data.responses, x), part)
    for b, s in zip(base, scaled):
        assert s.trace.converged
        np.testing.assert_allclose(s.beta_hat[1] * 1e6, b.beta_hat[1], rtol=1e-8)
        assert s.gamma_hat.rho == pytest.approx(b.gamma_hat.rho, rel=1e-8)


def _assert_same_fits(got, want) -> None:
    assert [f.name for f in got] == [f.name for f in want]
    for g, w in zip(got, want):
        assert (g.structure, g.gamma_hat, g.logcl, g.n_pairs) == (
            w.structure, w.gamma_hat, w.logcl, w.n_pairs
        )
        for field in ("beta_hat", "subject_scores", "sensitivity", "subject_sensitivities"):
            assert np.array_equal(getattr(g, field), getattr(w, field)), (g.name, field)
        assert g.trace == w.trace, g.name


def test_fit_blocks_from_slices_equals_fit_block_on_copies() -> None:
    # The block views and the cached moments give the same bits as a
    # fit of each block's own copied panel, for either family and in
    # either order on one panel.
    scn = bundled_scenario("table1_scaled")
    data = generate_replicate(scn, 0)
    for method in ("dimm:ar1", "dimm:cs"):
        part = scn.partition_for(method)
        copies = [
            fit_block(block, b.structure, name=b.name)
            for block, b in zip(partition_dataset(data, part), part.blocks)
        ]
        _assert_same_fits(fit_blocks(data, part), copies)
    fresh = PanelDataset(data.responses, data.covariates)
    part = scn.partition_for("dimm:cs")
    _assert_same_fits(fit_blocks(data, part), fit_blocks(fresh, part))


_ORDER_PANEL = _random_block(seed=41, n=30, m=7, p=2)


@hypothesis_seed(18)
@settings(max_examples=25, deadline=None)
@given(st.permutations(range(_ORDER_PANEL.n_subjects)))
def test_subject_order_only_permutes_the_subject_terms(order: list[int]) -> None:
    # The fit is a function of the set of subjects: reordering them moves
    # the estimates by roundoff only and permutes the per-subject rows.
    part = BlockPartition.from_sizes(
        [3, _ORDER_PANEL.n_coordinates - 3], structure=["ar1", "cs"]
    )
    order = np.array(order)
    data = _ORDER_PANEL
    shuffled = PanelDataset(data.responses[order], data.covariates[order])
    for got, want in zip(fit_blocks(shuffled, part), fit_blocks(data, part)):
        np.testing.assert_allclose(got.beta_hat, want.beta_hat, rtol=1e-10)
        assert got.gamma_hat.sigma == pytest.approx(want.gamma_hat.sigma, rel=1e-10)
        assert got.gamma_hat.rho == pytest.approx(want.gamma_hat.rho, rel=1e-10)
        assert got.logcl == pytest.approx(want.logcl, rel=1e-10)
        for field in ("subject_scores", "subject_sensitivities"):
            want_rows = getattr(want, field)[order]
            np.testing.assert_allclose(
                getattr(got, field), want_rows, rtol=1e-10, atol=1e-10 * np.abs(want_rows).max()
            )


def _fit_each(data: PanelDataset, part: BlockPartition) -> list:
    """The blocks of ``part`` fitted one at a time, each a batch of one."""
    return [
        fit_block(pairwise._moments_for(data, sl.start, sl.stop, b.name), b.structure, name=b.name)
        for sl, b in zip(part.slices, part.blocks)
    ]


@pytest.mark.parametrize("structure", ["ar1", "cs"])
def test_fit_blocks_matches_a_loop_of_fit_block_on_bundled_scenarios(structure: str) -> None:
    # Fitting a family's blocks together gives each block the fit it gets
    # alone, and the steps it takes alone. The relative scores are left out:
    # the score at the root is roundoff, and numpy sums equal inputs to
    # another 1e-16 where they sit elsewhere in memory.
    for name in bundled_scenario_names():
        scn = bundled_scenario(name)
        part = scn.partition_for(f"dimm:{structure}")
        for rep in range(1 if name == "table1_full" else 2):
            data = generate_replicate(scn, rep)
            together, alone = fit_blocks(data, part), _fit_each(data, part)
            for got, want in zip(together, alone):
                assert got.name == want.name
                assert (got.gamma_hat, got.logcl) == (want.gamma_hat, want.logcl), (name, rep, got.name)
                for field in ("beta_hat", "subject_scores", "subject_sensitivities"):
                    np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
                counts = [(f.trace.profile_evaluations, f.trace.root_evaluations) for f in (got, want)]
                assert counts[0] == counts[1], (name, rep, got.name)
            got, want = integrate_fits(together), integrate_fits(alone)
            for attr in ("beta_dimm", "std_errors", "asymptotic_std_errors"):
                np.testing.assert_allclose(getattr(got, attr), getattr(want, attr), rtol=1e-10, atol=0.0)
            assert got.q_stat == pytest.approx(want.q_stat, rel=1e-10)


def _mixed_panel() -> tuple[PanelDataset, BlockPartition]:
    """Five blocks of three sizes under both families, interleaved."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(41)))
    n, sizes = 60, [3, 5, 4, 3, 6]
    corr = 0.5 ** np.abs(np.subtract.outer(np.arange(21), np.arange(21)))
    y = rng.standard_normal((n, 21)) @ np.linalg.cholesky(corr).T
    x = np.concatenate([np.ones((n, 21, 1)), rng.standard_normal((n, 21, 1))], axis=2)
    part = BlockPartition.from_sizes(
        sizes, structure=["cs", "ar1", "cs", "ar1", "ar1"], names=["e", "d", "c", "b", "a"]
    )
    return PanelDataset(y + x @ np.array([0.4, -0.3]), x), part


def test_fit_blocks_returns_a_mixed_partition_in_block_order() -> None:
    data, part = _mixed_panel()
    fits = fit_blocks(data, part)
    assert [(f.name, f.structure, f.subject_sensitivities.shape[0]) for f in fits] == [
        (b.name, b.structure, 60) for b in part.blocks
    ]
    for got, want in zip(fits, _fit_each(data, part)):
        np.testing.assert_array_equal(got.beta_hat, want.beta_hat)
        assert (got.gamma_hat, got.trace) == (want.gamma_hat, want.trace)


def _spoilt(data: PanelDataset, part: BlockPartition, how: dict[str, str]) -> PanelDataset:
    """``data`` with the blocks named in ``how`` made unfit: a constant
    response, an exact fit, duplicated coordinates (rho at its bound) or a
    design that does not identify beta."""
    y, x = np.array(data.responses), np.array(data.covariates)
    for sl, b in zip(part.slices, part.blocks):
        kind = how.get(b.name)
        if kind == "constant":
            y[:, sl] = 3.0
        elif kind == "exact":
            y[:, sl] = x[:, sl] @ np.array([0.7, -1.3])
        elif kind == "bound":
            y[:, sl], x[:, sl] = y[:, sl.start, None], x[:, sl.start, None]
        elif kind == "rank":
            x[:, sl, 1] = 2.0 * x[:, sl, 0]
    return PanelDataset(y, x)


@pytest.mark.parametrize(
    ("how", "culprit"),
    [
        ({"c": "constant"}, "c"),
        ({"b": "exact"}, "b"),
        ({"d": "bound"}, "d"),
        ({"a": "rank"}, "a"),
        # The first bad block in block order, whatever stage the others fail at.
        ({"e": "exact", "c": "constant"}, "e"),
        ({"d": "bound", "b": "rank"}, "d"),
        ({"c": "rank", "a": "constant"}, "c"),
    ],
)
def test_a_bad_block_in_a_batch_raises_what_it_raises_alone(how: dict[str, str], culprit: str) -> None:
    data, part = _mixed_panel()
    data = _spoilt(data, part, how)
    j = part.names.index(culprit)
    sl, block = part.slices[j], part.blocks[j]
    with pytest.raises((FitError, DataError)) as alone:
        fit_block(pairwise._moments_for(data, sl.start, sl.stop, culprit), block.structure, name=culprit)
    with pytest.raises(type(alone.value)) as together:
        fit_blocks(data, part)
    assert str(together.value) == str(alone.value)
    assert str(together.value).startswith(f"block {culprit!r}")


def test_fit_blocks_reads_slices_and_its_cache_dies_with_the_panel(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    def copies_refused(*_args):
        raise AssertionError("fit_blocks must not copy blocks")

    monkeypatch.setattr(pairwise, "partition_dataset", copies_refused)
    monkeypatch.setattr(model, "partition_dataset", copies_refused)
    data = _random_block(seed=25, n=30, m=7, p=2)
    part = BlockPartition.from_sizes([3, 4])
    assert [f.name for f in fit_blocks(data, part)] == ["block1", "block2"]
    assert set(data._derived) == {(pairwise._BlockMoments, 0, 3), (pairwise._BlockMoments, 3, 7)}
    kept = data._derived[pairwise._BlockMoments, 3, 7]
    assert np.shares_memory(kept.y, data.responses)
    assert np.shares_memory(kept.split.u, data.split.u)
    with pytest.raises(PartitionError, match="partition covers 6 coordinates but the panel has M=7"):
        fit_blocks(data, BlockPartition.from_sizes([3, 3]))
    alive, moments = weakref.ref(data), weakref.ref(kept)
    del data, kept
    gc.collect()
    assert alive() is None
    assert moments() is None


def test_grid_size_picks_the_bracket_not_the_answer(monkeypatch: pytest.MonkeyPatch) -> None:
    block = _random_block(seed=19, n=15, m=3, p=1)
    default = fit_block(block, "ar1")
    monkeypatch.setattr(pairwise, "_GRID_POINTS", 5)
    coarse = fit_block(block, "ar1")
    assert coarse.trace.profile_evaluations in (5, 6)
    assert default.trace.profile_evaluations in (41, 42)
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


def _grid_beats_the_fit(data: PanelDataset, part: BlockPartition) -> list[str]:
    """Block fits whose profile on a 4,001-point rho grid beats the refined
    maximum by more than the fit's own certificate allows."""
    beaten = []
    for fit, sl in zip(fit_blocks(data, part), part.slices):
        moments = pairwise._moments_for(data, sl.start, sl.stop)
        dependence = Dependence(fit.structure)
        lo = dependence.rho_lower(moments.block_size)
        grid = lo + (1.0 - lo) * np.arange(1, 4002) / 4002
        best = float(np.max(pairwise._profile([moments], dependence, grid[None]).logcl))
        if best > fit.logcl + pairwise._CERT_RTOL * abs(fit.logcl):
            beaten.append(f"{fit.name} ({fit.structure}): grid {best!r} > refined {fit.logcl!r}")
    return beaten


def _edge_scenario(n: int, blocks: list[tuple[str, int, str, str, float]]) -> SimScenario:
    return SimScenario.from_dict(
        {
            "name": "edge",
            "n_subjects": n,
            "beta0": [0.3, -0.2],
            "blocks": [
                {"name": name, "size": size, "structure_fit": fit, "structure_true": true, "sigma": 1.0, "rho": rho}
                for name, size, fit, true, rho in blocks
            ],
            "between": {"kind": "identity"},
            "n_replicates": 2,
            "seed": 7,
            "methods": ["dimm"],
            "covariates": [{"kind": "standard_normal"}],
            "intercept": True,
        }
    )


def test_every_block_maximum_is_global_on_a_fine_rho_grid() -> None:
    # Every block fit of every bundled scenario, under each family it is
    # fitted with, then misspecified families, blocks of 2 and 3, rho near
    # both bounds and few subjects, each fitted with both families.
    beaten: list[str] = []
    for name in bundled_scenario_names():
        scn = bundled_scenario(name)
        for rep in range(1 if name == "table1_full" else 3):
            data = generate_replicate(scn, rep)
            for method in (m for m in scn.methods if m.startswith("dimm")):
                beaten += _grid_beats_the_fit(data, scn.partition_for(method))
    edges = (
        (200, [("cs_on_ar1", 6, "cs", "ar1", 0.7), ("ar1_on_cs", 6, "ar1", "cs", 0.5),
               ("m2", 2, "ar1", "ar1", 0.3), ("m3", 3, "cs", "cs", 0.2)]),
        (300, [("ar1_high", 5, "ar1", "ar1", 0.97), ("cs_low", 3, "cs", "cs", -0.45),
               ("ar1_low", 4, "ar1", "ar1", -0.95), ("cs_high", 4, "cs", "cs", 0.95)]),
        (8, [("n8_m2", 2, "cs", "cs", 0.3), ("n8_m3", 3, "ar1", "ar1", 0.5),
             ("n8_m5", 5, "cs", "ar1", 0.6)]),
    )
    for n, blocks in edges:
        scn = _edge_scenario(n, blocks)
        for rep in range(3):
            data = generate_replicate(scn, rep)
            for method in ("dimm:ar1", "dimm:cs"):
                beaten += _grid_beats_the_fit(data, scn.partition_for(method))
    # AR(1) fitted to zero lag-1 and 0.5 lag-2 correlation.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(13)))
    corr = np.array([1.0, 0.0, 0.5, 0.0, 0.25, 0.0])[np.abs(np.subtract.outer(range(6), range(6)))]
    y = rng.standard_normal((200, 6)) @ np.linalg.cholesky(corr).T
    data = PanelDataset(y, np.ones((200, 6, 1)))
    beaten += _grid_beats_the_fit(data, BlockPartition.from_sizes([6], structure="ar1"))
    assert not beaten


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
    # Every block of replicate 0 of every bundled scenario: the root step,
    # run in lock-step with the other blocks of its family, finds brentq's
    # rho on the same bracket, at no more evaluations.
    from scipy import optimize

    calls: list[tuple[float, float, int, int]] = []
    steps: dict[str, tuple[float, float, float, int]] = {}
    root_step = pairwise._score_root

    def recorded(lo, hi, f_lo, f_hi, name):
        rho, n_evals = yield from root_step(lo, hi, f_lo, f_hi, name)
        steps[name] = (lo, hi, rho, n_evals)
        return rho, n_evals

    monkeypatch.setattr(pairwise, "_score_root", recorded)
    for name in bundled_scenario_names():
        scn = bundled_scenario(name)
        data = generate_replicate(scn, 0)
        calls.clear()
        for method in scn.methods:
            if method.startswith("dimm"):
                steps.clear()
                part = scn.partition_for(method)
                for fit, sl in zip(fit_blocks(data, part), part.slices):
                    moments = pairwise._moments_for(data, sl.start, sl.stop)
                    dependence = Dependence(fit.structure)
                    lo, hi, rho, n_evals = steps[fit.name]
                    _, result = optimize.brentq(
                        lambda x, moments=moments, dependence=dependence: float(
                            pairwise._profile([moments], dependence, np.array([[x]])).score[0, 0]
                        ),
                        lo, hi, xtol=pairwise._RHO_XTOL, full_output=True,
                    )
                    assert fit.trace.root_evaluations == n_evals
                    calls.append((rho, result.root, n_evals, result.function_calls))
        assert calls, name
        got = np.array(calls)
        np.testing.assert_allclose(got[:, 0], got[:, 1], rtol=0.0, atol=1e-12, err_msg=name)
        assert got[:, 2].mean() <= got[:, 3].mean() + 1.0, name


def test_score_root_on_known_functions() -> None:
    def cubic(x: float) -> float:
        return x**3 - 0.2

    def solve(lo: float, hi: float, f_lo: float, f_hi: float) -> tuple[float, int]:
        step = pairwise._score_root(lo, hi, f_lo, f_hi, "b")
        try:
            rho = next(step)
            while True:
                rho = step.send(cubic(rho))
        except StopIteration as stop:
            return stop.value

    root, n_evals = solve(0.0, 1.0, cubic(0.0), cubic(1.0))
    assert root == pytest.approx(0.2 ** (1.0 / 3.0), abs=1e-13)
    assert 0 < n_evals < 20
    # A zero score at either end is the root, with no evaluation.
    assert solve(-0.5, 0.5, 0.0, 1.0) == (-0.5, 0)
    assert solve(-0.5, 0.5, -1.0, 0.0) == (0.5, 0)


def test_score_root_that_does_not_converge_names_the_block(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setattr(pairwise, "_ROOT_MAX_EVALS", 1)
    with pytest.raises(FitError, match=r"block 'slow': the rho-score root step did not converge"):
        fit_block(_random_block(seed=23, n=30, m=4, p=2), "ar1", name="slow")


def test_two_turning_points_between_grid_neighbours_are_refused(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # The score at the best grid point's neighbour is given the best point's
    # sign, so no sign change brackets a maximum between them.
    profile = pairwise._profile

    def bent(moments, dependence, rhos: np.ndarray) -> pairwise._Profile:
        prof = profile(moments, dependence, rhos)
        if rhos.shape[-1] != pairwise._GRID_POINTS:
            return prof
        score = prof.score.copy()
        best = int(np.argmax(prof.logcl[0]))
        neighbour = best + 1 if score[0, best] >= 0.0 else best - 1
        assert 0 <= neighbour < rhos.shape[-1]
        score[0, neighbour] = score[0, best]
        return replace(prof, score=score)

    monkeypatch.setattr(pairwise, "_profile", bent)
    expected = (
        r"^block 'bent': the profile log-CL has more than one turning point between "
        r"rho = \S+ and \S+, neighbours on the 41-point rho grid$"
    )
    with pytest.raises(FitError, match=expected):
        fit_block(_random_block(seed=24, n=30, m=4, p=2), "ar1", name="bent")


def test_refined_maximum_below_the_grid_maximum_is_refused(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # A root step that lands 0.5 from the root in rho, where the profile
    # is well below its best grid point.
    root_step = pairwise._score_root

    def astray(lo, hi, f_lo, f_hi, name):
        rho, n_evals = yield from root_step(lo, hi, f_lo, f_hi, name)
        return (rho - 0.5 if rho > 0.0 else rho + 0.5), n_evals

    monkeypatch.setattr(pairwise, "_score_root", astray)
    expected = (
        r"^block 'astray': the refined profile log-CL \S+ is below the maximum \S+ "
        r"on the 41-point rho grid$"
    )
    with pytest.raises(FitError, match=expected):
        fit_block(_random_block(seed=25, n=30, m=4, p=2), "ar1", name="astray")
