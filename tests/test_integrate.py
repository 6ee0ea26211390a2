"""Integration-step tests: weighting, one-step combination, inference.

Independent oracles: scipy's Cholesky solve for the SPD routine and the
ridge ladder, explicit per-subject outer-product loops for the
weight matrix, ``np.linalg.inv`` compositions for the estimator and its
covariance, a brute-force leave-one-out loop for the jackknife,
``math.erfc`` for the Wald p-values, and closed forms on hand-built
inputs for the quadratic form.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from dimm._util import spd_solve
from dimm.errors import IntegrationError
from dimm.integrate import (
    IntegratedFit,
    WeightMatrix,
    cef_log_density,
    dimm_covariance,
    gof_test,
    integrate_fits,
    jackknife_covariance,
    one_step_estimator,
    q_from_mean_scores,
    q_statistic,
    stack_scores,
    wald_tests,
    weight_matrix,
)
from dimm.model import BlockPartition, Dependence, PanelDataset, partition_dataset
from dimm.pairwise import BlockFit, block_score_beta, fit_blocks
from dimm.special import chi2_cdf


def _three_block_panel(
    seed: int = 21, n: int = 120
) -> tuple[PanelDataset, BlockPartition, list[PanelDataset]]:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    sizes = [3, 2, 3]
    m = sum(sizes)
    beta0 = np.array([1.0, -0.6])
    x = rng.standard_normal((n, m, 2))
    # Correlated noise so the blocks genuinely share signal.
    base = rng.standard_normal((n, 1))
    noise = 0.6 * base + 0.8 * rng.standard_normal((n, m))
    y = np.einsum("nmp,p->nm", x, beta0) + noise
    data = PanelDataset(responses=y, covariates=x)
    part = BlockPartition.from_sizes(sizes, structure="cs", names=["a", "b", "c"])
    return data, part, partition_dataset(data, part)


@pytest.fixture(scope="module")
def fitted():
    data, part, blocks = _three_block_panel()
    fits = fit_blocks(data, part)
    return data, part, blocks, fits


# ---------------------------------------------------------------------------
# Score stacking and the weight matrix
# ---------------------------------------------------------------------------


def test_stack_scores_layout(fitted) -> None:
    _, _, _, fits = fitted
    stacked = stack_scores(fits)
    n = fits[0].n_subjects
    p = fits[0].n_params
    assert stacked.matrix.shape == (n, 3 * p)
    assert stacked.block_names == ("a", "b", "c")
    assert stacked.n_params == p
    for j, fit in enumerate(fits):
        np.testing.assert_array_equal(
            stacked.matrix[:, j * p : (j + 1) * p], fit.subject_scores
        )


def test_weight_matrix_matches_outer_product_loop(fitted) -> None:
    _, _, _, fits = fitted
    stacked = stack_scores(fits)
    weights = weight_matrix(stacked)
    n, d = stacked.matrix.shape
    acc = np.zeros((d, d))
    for i in range(n):
        psi = stacked.matrix[i]
        acc += np.outer(psi, psi)  # uncentered second moment
    want = acc / n
    np.testing.assert_allclose(weights.v_hat, want, rtol=1e-12, atol=1e-14)
    assert weights.ridge_used == 0.0
    np.testing.assert_allclose(
        weights.v_inv @ weights.v_hat, np.eye(d), rtol=0.0, atol=1e-8
    )
    np.testing.assert_allclose(weights.v_hat, weights.v_hat.T, rtol=0.0, atol=0.0)


def test_weight_matrix_ridge_on_degenerate_scores(fitted) -> None:
    _, _, _, fits = fitted
    # Duplicate block names are rejected upstream, so fabricate a
    # singular stacked-score container directly: two identical copies of
    # one block's scores give an exactly rank-deficient second moment.
    from dimm.integrate import StackedScores

    stacked = StackedScores(
        matrix=np.hstack([fits[0].subject_scores, fits[0].subject_scores]),
        block_names=("a", "a2"),
        n_params=fits[0].n_params,
    )
    weights = weight_matrix(stacked)
    assert weights.ridge_used > 0.0
    np.linalg.cholesky(weights.v_hat + weights.ridge_used * np.eye(weights.dim))


def test_spd_solve_matches_scipy_cho_solve() -> None:
    from scipy import linalg as sla

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(24)))
    for dim in (1, 4, 30, 72):
        a = rng.standard_normal((dim, 2 * dim))
        mat = a @ a.T / dim
        for rhs in (rng.standard_normal(dim), rng.standard_normal((dim, 7)), np.eye(dim)):
            want = sla.cho_solve(sla.cho_factor(mat, lower=True), rhs)
            got = spd_solve(mat, rhs)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), dim
    with pytest.raises(np.linalg.LinAlgError):
        spd_solve(-np.eye(3), np.ones(3))
    for bad in (np.nan, np.inf):
        # Placed in the upper triangle, which a lower Cholesky never reads.
        mat = np.eye(3)
        mat[0, 2] = bad
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            spd_solve(mat, np.ones(3))


def test_weight_matrix_ridge_matches_a_scipy_cholesky_ladder(fitted) -> None:
    from scipy import linalg as sla

    from dimm.integrate import StackedScores

    _, _, _, fits = fitted
    stacked = StackedScores(
        matrix=np.hstack([fits[1].subject_scores, fits[1].subject_scores]),
        block_names=("b", "b2"),
        n_params=fits[1].n_params,
    )
    weights = weight_matrix(stacked)
    scale = float(np.trace(weights.v_hat)) / weights.dim
    lam = 0.0
    while True:
        try:
            sla.cho_factor(weights.v_hat + lam * np.eye(weights.dim), lower=True)
        except sla.LinAlgError:
            lam = 1e-8 * scale if lam == 0.0 else lam * 10.0
            continue
        break
    assert lam > 0.0
    assert weights.ridge_used == lam


def test_non_pd_or_non_finite_bread_is_an_integration_error(fitted) -> None:
    _, _, _, fits = fitted
    weights = weight_matrix(stack_scores(fits))
    for v_inv in (-weights.v_inv, np.full_like(weights.v_inv, np.nan)):
        bad = WeightMatrix(v_hat=weights.v_hat, v_inv=v_inv, ridge_used=0.0)
        with pytest.raises(IntegrationError, match="bread matrix"):
            one_step_estimator(fits, bad)
        with pytest.raises(IntegrationError, match="bread matrix"):
            dimm_covariance(fits, bad)


def test_weight_matrix_warns_when_sample_too_small(fitted) -> None:
    _, _, _, fits = fitted
    from dimm.integrate import StackedScores

    small = StackedScores(
        matrix=np.vstack([f.subject_scores[:4] for f in fits[:1]]),
        block_names=("a",),
        n_params=fits[0].n_params,
    )
    # 4 subjects vs 2 score dimensions is fine; shrink to trigger.
    tiny = StackedScores(
        matrix=fits[0].subject_scores[:2],
        block_names=("a",),
        n_params=fits[0].n_params,
    )
    with pytest.warns(UserWarning, match="subjects"):
        weight_matrix(tiny)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weight_matrix(small)


def test_stack_scores_rejects_mismatched_fits(fitted) -> None:
    _, _, _, fits = fitted
    from dataclasses import replace as dc_replace

    smaller = dc_replace(
        fits[1],
        subject_scores=fits[1].subject_scores[:-1],
    )
    with pytest.raises(IntegrationError):
        stack_scores([fits[0], smaller])


# ---------------------------------------------------------------------------
# One-step estimator, covariance, quadratic form
# ---------------------------------------------------------------------------


def test_one_step_matches_explicit_inverse_composition(fitted) -> None:
    _, _, _, fits = fitted
    weights = weight_matrix(stack_scores(fits))
    got = one_step_estimator(fits, weights)

    # Independent composition with plain inverses.
    s_stack = np.vstack([f.sensitivity for f in fits])
    target = np.concatenate([f.sensitivity @ f.beta_hat for f in fits])
    v_inv = np.linalg.inv(weights.v_hat)
    bread = s_stack.T @ v_inv @ s_stack
    want = np.linalg.solve(bread, s_stack.T @ v_inv @ target)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_dimm_covariance_matches_explicit_inverse(fitted) -> None:
    _, _, _, fits = fitted
    weights = weight_matrix(stack_scores(fits))
    got = dimm_covariance(fits, weights)
    n = fits[0].n_subjects
    s_stack = np.vstack([f.sensitivity for f in fits])
    bread = s_stack.T @ np.linalg.inv(weights.v_hat) @ s_stack
    want = np.linalg.inv(bread) / n
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)
    np.linalg.cholesky(got)


def _leave_one_out_loop(fits) -> np.ndarray:
    """Jackknife by brute force: rebuild V, S and every block estimate
    from the other N - 1 subjects, then combine by explicit inverses."""
    n = fits[0].n_subjects
    psi = np.hstack([f.subject_scores for f in fits])
    loo = []
    for i in range(n):
        keep = np.arange(n) != i
        w = np.linalg.inv(psi[keep].T @ psi[keep] / (n - 1))
        s_rows, targets = [], []
        for f in fits:
            s = f.subject_sensitivities[keep].mean(axis=0)
            # Leave-one-out root of the affine score at the fitted gamma.
            b = f.beta_hat + np.linalg.solve(s, f.subject_scores[keep].mean(axis=0))
            s_rows.append(s)
            targets.append(s @ b)
        s_all = np.vstack(s_rows)
        loo.append(np.linalg.inv(s_all.T @ w @ s_all) @ (s_all.T @ w @ np.concatenate(targets)))
    dev = np.array(loo) - np.mean(loo, axis=0)
    return (n - 1) / n * dev.T @ dev


def test_jackknife_covariance_matches_leave_one_out_loop(fitted) -> None:
    _, _, blocks, fits = fitted
    for f, block in zip(fits, blocks):
        assert f.subject_sensitivities.shape == (f.n_subjects, 2, 2)
        np.testing.assert_allclose(
            f.subject_sensitivities.mean(axis=0), f.sensitivity, rtol=1e-12, atol=1e-14
        )
    weights = weight_matrix(stack_scores(fits))
    assert weights.ridge_used == 0.0
    got = jackknife_covariance(fits, weights)
    np.testing.assert_allclose(got, _leave_one_out_loop(fits), rtol=1e-10, atol=0.0)
    result = integrate_fits(fits)
    np.testing.assert_array_equal(result.covariance, got)
    np.testing.assert_array_equal(result.covariance_asymptotic, dimm_covariance(fits, weights))
    np.testing.assert_array_equal(result.std_errors, np.sqrt(np.diag(got)))


def test_jackknife_refuses_singular_leave_one_out_weight(fitted) -> None:
    _, _, _, fits = fitted
    # With N = J*p subjects and no ridge every leverage h_i equals N, so
    # dropping any subject leaves a singular weight matrix.
    few = fits[0].n_subjects - 6
    cut = [
        BlockFit(
            name=f.name,
            structure=f.structure,
            beta_hat=f.beta_hat,
            gamma_hat=f.gamma_hat,
            subject_scores=f.subject_scores[few:],
            sensitivity=f.subject_sensitivities[few:].mean(axis=0),
            subject_sensitivities=f.subject_sensitivities[few:],
            logcl=f.logcl,
            n_pairs=f.n_pairs,
            trace=f.trace,
        )
        for f in fits
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        weights = weight_matrix(stack_scores(cut))
    assert weights.ridge_used == 0.0
    with pytest.raises(IntegrationError, match="singular"):
        jackknife_covariance(cut, weights)


def test_q_from_mean_scores_closed_form() -> None:
    # With an identity weight the quadratic form is just N * ||g||^2.
    weights = WeightMatrix(v_hat=np.eye(2), v_inv=np.eye(2), ridge_used=0.0)
    g = np.array([0.3, -0.4])
    got = q_from_mean_scores(g, weights, 100)
    assert got == pytest.approx(100 * 0.25, rel=1e-14)


def test_q_statistic_second_pass_consistency(fitted) -> None:
    _, _, blocks, fits = fitted
    weights = weight_matrix(stack_scores(fits))
    beta = one_step_estimator(fits, weights)
    q_here = q_statistic(beta, fits, weights)
    assert q_here >= 0.0
    # Far from the optimum the quadratic form must blow up.
    q_far = q_statistic(beta + 5.0, fits, weights)
    assert q_far > 10.0 * max(q_here, 1.0)
    # Q from the stored fits equals a second pass over the block data:
    # every block's beta-score re-evaluated at a common beta.
    for b in (beta, beta + 5.0, np.array([-2.0, 3.0])):
        parts = [
            block_score_beta(b, f.gamma_hat, block).mean(axis=0)
            for f, block in zip(fits, blocks)
        ]
        data_pass = q_from_mean_scores(np.concatenate(parts), weights, fits[0].n_subjects)
        assert q_statistic(b, fits, weights) == pytest.approx(data_pass, rel=1e-10, abs=1e-12)


def test_cef_log_density_is_half_negative_q(fitted) -> None:
    _, _, _, fits = fitted
    weights = weight_matrix(stack_scores(fits))
    beta_star = one_step_estimator(fits, weights)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(31)))
    for _ in range(5):
        beta = beta_star + rng.standard_normal(beta_star.size)
        q = q_statistic(beta, fits, weights)
        assert cef_log_density(beta, fits, weights) == pytest.approx(
            -0.5 * q, rel=1e-12
        )
        # The combined estimate is the mode of the log-density.
        assert cef_log_density(beta, fits, weights) <= cef_log_density(
            beta_star, fits, weights
        )


def test_gof_test_properties() -> None:
    df, p = gof_test(9.487729036781154, 3, 2)  # frozen: chi2(4) upper tail at its 95th pct
    assert df == 4
    assert p == pytest.approx(0.05, abs=1e-12)
    assert gof_test(0.0, 2, 1) == (1, pytest.approx(1.0))
    with pytest.raises(IntegrationError, match="single block"):
        gof_test(1.0, 1, 3)
    with pytest.raises(IntegrationError):
        gof_test(-0.5, 2, 1)
    with pytest.raises(IntegrationError):
        gof_test(math.nan, 2, 1)


# ---------------------------------------------------------------------------
# Full integration and inference
# ---------------------------------------------------------------------------


def test_integrate_fits_full_pipeline(fitted) -> None:
    data, _, _, fits = fitted
    result = integrate_fits(fits)
    assert isinstance(result, IntegratedFit)
    assert result.block_names == ("a", "b", "c")
    assert result.n_blocks == 3
    assert result.n_subjects == data.n_subjects
    assert result.gof_df == (3 - 1) * 2
    assert 0.0 <= result.gof_pvalue <= 1.0
    assert result.gof_pvalue == pytest.approx(
        1.0 - chi2_cdf(result.q_stat, result.gof_df), abs=1e-12
    )
    # The integrated estimate should sit between the block estimates'
    # bounding box (it is a weighted combination in the exact-identified
    # directions) and close to the truth used to build the panel.
    assert np.all(np.abs(result.beta_dimm - np.array([1.0, -0.6])) < 0.2)
    np.testing.assert_allclose(result.covariance, result.covariance.T, atol=0.0)


def test_wald_tests_consistent_with_reported_covariance(fitted) -> None:
    _, _, _, fits = fitted
    result = integrate_fits(fits)
    tests = wald_tests(result)
    assert tests == result.wald
    for q, test in enumerate(tests):
        se = math.sqrt(result.covariance[q, q])
        assert test.estimate == pytest.approx(result.beta_dimm[q], rel=1e-15)
        assert test.std_error == pytest.approx(se, rel=1e-12)
        assert test.z_value == pytest.approx(result.beta_dimm[q] / se, rel=1e-12)
        # Independent two-sided normal p-value via erfc.
        want_p = math.erfc(abs(test.z_value) / math.sqrt(2.0))
        assert test.p_value == pytest.approx(want_p, rel=1e-10, abs=1e-300)
        assert test.ci_lower == pytest.approx(test.estimate - 1.96 * se, rel=1e-12)
        assert test.ci_upper == pytest.approx(test.estimate + 1.96 * se, rel=1e-12)


def test_integrate_single_block_collapses_to_block_fit(fitted) -> None:
    _, _, _, fits = fitted
    result = integrate_fits([fits[0]])
    np.testing.assert_allclose(result.beta_dimm, fits[0].beta_hat, rtol=0.0, atol=1e-10)
    assert result.gof_df == 0
    assert result.gof_pvalue is None
    assert result.q_stat == pytest.approx(0.0, abs=1e-16)
    # Sandwich covariance for one block: inv(S V^-1 S) / N with V the
    # block's own score second moment.
    n = fits[0].n_subjects
    v = fits[0].subject_scores.T @ fits[0].subject_scores / n
    s = fits[0].sensitivity
    want = np.linalg.inv(s @ np.linalg.inv(v) @ s) / n
    np.testing.assert_allclose(result.covariance_asymptotic, want, rtol=1e-8, atol=1e-12)


def test_integrate_subset_equals_direct_subset_run(fitted) -> None:
    _, _, _, fits = fitted
    via_subset = integrate_fits(fits, subset=["a", "c"])
    direct = integrate_fits([fits[0], fits[2]])
    np.testing.assert_array_equal(via_subset.beta_dimm, direct.beta_dimm)
    np.testing.assert_array_equal(via_subset.covariance, direct.covariance)
    assert via_subset.q_stat == direct.q_stat
    assert via_subset.gof_df == direct.gof_df == 2
    assert via_subset.block_names == ("a", "c")


def test_integrate_subset_validation(fitted) -> None:
    _, _, _, fits = fitted
    with pytest.raises(IntegrationError, match="not found"):
        integrate_fits(fits, subset=["a", "nope"])
    with pytest.raises(IntegrationError, match="duplicate"):
        integrate_fits(fits, subset=["a", "a"])
    with pytest.raises(IntegrationError):
        integrate_fits([])


def test_q_statistic_validates_beta_length(fitted) -> None:
    _, _, _, fits = fitted
    weights = weight_matrix(stack_scores(fits))
    with pytest.raises(IntegrationError, match="length"):
        q_statistic(np.array([1.0, 2.0, 3.0]), fits, weights)
