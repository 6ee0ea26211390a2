"""Integration-step tests: weighting, one-step combination, inference.

Independent oracles: scipy's Cholesky solve for the SPD routine and the
ridge ladder, explicit per-subject outer-product loops for the
weight matrix, ``np.linalg.inv`` compositions for the estimator and its
covariance, a brute-force leave-one-out loop for the jackknife,
``math.erfc`` for the Wald p-values, and a second pass over the block
data for the quadratic form. The jackknife is also checked against its
dense form over the stacked (N, J p, p) sensitivities
(``tests.oracles.dense_jackknife``).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import seed as hypothesis_seed
from hypothesis import strategies as st

from dimm import pairwise
from dimm._util import cholesky, spd_solve
from dimm.errors import CovarianceError, FitError, IntegrationError
from dimm.integrate import (
    IntegratedFit,
    dimm_covariance,
    gof_test,
    integrate_fits,
    jackknife_covariance,
    one_step_estimator,
    q_statistic,
    weight_matrix,
)
from dimm.io import bundled_scenario_names
from dimm.model import BlockPartition, ColumnSplit, PanelDataset, partition_dataset
from dimm.pairwise import BlockFit, fit_blocks
from dimm.simulate import bundled_scenario, generate_replicate
from dimm.special import chi2_cdf
from tests.oracles import dense_jackknife, joined_sensitivities


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


def _subjects(fits, rows: slice) -> list[BlockFit]:
    """The fits of the three-block panel cut to a slice of subjects, with the
    sensitivity re-averaged: no column of that panel is subject-level, so
    each subject's core is its sensitivity."""
    return [
        replace(
            f,
            subject_scores=f.subject_scores[rows],
            sensitivity=f.subject_cores[rows].mean(axis=0),
            subject_cores=f.subject_cores[rows],
            split=ColumnSplit(f.split.a[rows], f.split.u[rows], f.split.s, f.split.c),
        )
        for f in fits
    ]


# ---------------------------------------------------------------------------
# Score stacking and the weight matrix
# ---------------------------------------------------------------------------


def test_stack_scores_layout(fitted) -> None:
    _, _, _, fits = fitted
    m = weight_matrix(fits)
    n = fits[0].n_subjects
    p = fits[0].n_params
    assert m.psi.shape == (n, 3 * p)
    assert m.cores.shape == (n, 3, p, p)  # no subject-level column: the cores are H_ij
    assert m.split is fits[0].split
    assert m.block_names == ("a", "b", "c")
    assert m.n_subjects == n
    for j, fit in enumerate(fits):
        rows = slice(j * p, (j + 1) * p)
        np.testing.assert_array_equal(m.psi[:, rows], fit.subject_scores)
        np.testing.assert_array_equal(m.cores[:, j], fit.subject_cores)
        np.testing.assert_array_equal(m.s[rows], fit.sensitivity)
        np.testing.assert_array_equal(m.sb[rows], fit.sensitivity @ fit.beta_hat)
        np.testing.assert_array_equal(m.beta_hats[j], fit.beta_hat)
    np.testing.assert_allclose(
        m.mean_scores, sum(m.psi) / n, rtol=0.0, atol=1e-14 * np.abs(m.psi).max()
    )
    assert not (m.psi.flags.writeable or m.v_inv.flags.writeable)


def test_weight_matrix_matches_outer_product_loop(fitted) -> None:
    _, _, _, fits = fitted
    m = weight_matrix(fits)
    n, d = m.psi.shape
    acc = np.zeros((d, d))
    for i in range(n):
        psi = m.psi[i]
        acc += np.outer(psi, psi)  # uncentered second moment
    want = acc / n
    assert m.ridge_used == 0.0
    np.testing.assert_allclose(m.v_inv @ want, np.eye(d), rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(m.v_inv, np.linalg.inv(want), rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(m.v_inv, m.v_inv.T, rtol=0.0, atol=0.0)


def test_weight_matrix_ridge_on_degenerate_scores(fitted) -> None:
    _, _, _, fits = fitted
    # Two blocks with identical scores give an exactly rank-deficient
    # second moment.
    m = weight_matrix([fits[0], replace(fits[0], name="a2")])
    assert m.ridge_used > 0.0
    v_hat = m.psi.T @ m.psi / m.n_subjects
    np.linalg.cholesky(v_hat + m.ridge_used * np.eye(v_hat.shape[0]))


def test_spd_solve_matches_scipy_cho_solve() -> None:
    # The package's one positive-definiteness rule: every refusal is the
    # caller's typed error, whatever the caller.
    from scipy import linalg as sla

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(24)))
    for dim in (1, 4, 30, 72):
        a = rng.standard_normal((dim, 2 * dim))
        mat = a @ a.T / dim
        for rhs in (rng.standard_normal(dim), rng.standard_normal((dim, 7)), np.eye(dim)):
            want = sla.cho_solve(sla.cho_factor(mat, lower=True), rhs)
            got = spd_solve(mat, rhs, "m", IntegrationError)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), dim
    refused = [-np.eye(3), np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])]
    for bad in (np.nan, np.inf, -np.inf):
        # Placed in the upper triangle, which a lower Cholesky never reads.
        mat = np.eye(3)
        mat[0, 2] = bad
        refused.append(mat)
    for bad in (np.inf, -np.inf):
        # On the diagonal, where np.linalg.cholesky factors +inf without complaint.
        mat = np.eye(3)
        mat[1, 1] = bad
        refused.append(mat)
    for mat in refused:
        for error in (IntegrationError, FitError, CovarianceError):
            with pytest.raises(error, match="^pooled design matrix is not positive definite$"):
                spd_solve(mat, np.ones(3), "pooled design matrix", error)
            with pytest.raises(error, match="^covariance is not positive definite$"):
                cholesky(mat, "covariance", error)


def test_weight_matrix_ridge_matches_a_scipy_cholesky_ladder(fitted) -> None:
    from scipy import linalg as sla

    _, _, _, fits = fitted
    m = weight_matrix([fits[1], replace(fits[1], name="b2")])
    v_hat = m.psi.T @ m.psi / m.n_subjects
    dim = v_hat.shape[0]
    scale = float(np.trace(v_hat)) / dim
    lam = 0.0
    while True:
        try:
            sla.cho_factor(v_hat + lam * np.eye(dim), lower=True)
        except sla.LinAlgError:
            lam = 1e-8 * scale if lam == 0.0 else lam * 10.0
            continue
        break
    assert lam > 0.0
    assert m.ridge_used == lam


def test_non_pd_or_non_finite_bread_is_an_integration_error(fitted) -> None:
    _, _, _, fits = fitted
    m = weight_matrix(fits)
    _, bread = one_step_estimator(m)
    for v_inv in (-m.v_inv, np.full_like(m.v_inv, np.nan)):
        with pytest.raises(IntegrationError, match="bread matrix"):
            one_step_estimator(replace(m, v_inv=v_inv))
    for bad in (-bread, np.full_like(bread, np.nan)):
        with pytest.raises(IntegrationError, match="bread matrix"):
            dimm_covariance(bad, m.n_subjects)


def test_weight_matrix_warns_when_sample_too_small(fitted) -> None:
    _, _, _, fits = fitted
    # 4 subjects vs 2 score dimensions is fine; shrink to 2 to trigger.
    with pytest.warns(UserWarning, match="subjects"):
        weight_matrix(_subjects(fits[:1], slice(0, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weight_matrix(_subjects(fits[:1], slice(0, 4)))


def test_stack_scores_rejects_mismatched_fits(fitted) -> None:
    _, _, _, fits = fitted
    smaller = replace(fits[1], subject_scores=fits[1].subject_scores[:-1])
    with pytest.raises(IntegrationError):
        weight_matrix([fits[0], smaller])


# ---------------------------------------------------------------------------
# One-step estimator, covariance, quadratic form
# ---------------------------------------------------------------------------


def test_one_step_matches_explicit_inverse_composition(fitted) -> None:
    _, _, _, fits = fitted
    m = weight_matrix(fits)
    got, got_bread = one_step_estimator(m)

    # Independent composition with plain inverses.
    s_stack = np.vstack([f.sensitivity for f in fits])
    target = np.concatenate([f.sensitivity @ f.beta_hat for f in fits])
    v_inv = np.linalg.inv(m.psi.T @ m.psi / m.n_subjects)
    bread = s_stack.T @ v_inv @ s_stack
    want = np.linalg.solve(bread, s_stack.T @ v_inv @ target)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(got_bread, bread, rtol=1e-10, atol=0.0)


def test_dimm_covariance_matches_explicit_inverse(fitted) -> None:
    _, _, _, fits = fitted
    m = weight_matrix(fits)
    n = fits[0].n_subjects
    got = dimm_covariance(one_step_estimator(m)[1], n)
    s_stack = np.vstack([f.sensitivity for f in fits])
    bread = s_stack.T @ np.linalg.inv(m.psi.T @ m.psi / n) @ s_stack
    want = np.linalg.inv(bread) / n
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)
    np.linalg.cholesky(got)


def _leave_one_out_loop(fits, data: PanelDataset, part: BlockPartition) -> np.ndarray:
    """Jackknife by brute force: rebuild V, S and every block estimate
    from the other N - 1 subjects, then combine by explicit inverses."""
    n = fits[0].n_subjects
    psi = np.hstack([f.subject_scores for f in fits])
    h = [
        joined_sensitivities(pairwise._moments_for(data, sl.start, sl.stop), f.gamma_hat)
        for f, sl in zip(fits, part.slices)
    ]
    loo = []
    for i in range(n):
        keep = np.arange(n) != i
        w = np.linalg.inv(psi[keep].T @ psi[keep] / (n - 1))
        s_rows, targets = [], []
        for f, h_f in zip(fits, h):
            s = h_f[keep].mean(axis=0)
            # Leave-one-out root of the affine score at the fitted gamma.
            b = f.beta_hat + np.linalg.solve(s, f.subject_scores[keep].mean(axis=0))
            s_rows.append(s)
            targets.append(s @ b)
        s_all = np.vstack(s_rows)
        loo.append(np.linalg.inv(s_all.T @ w @ s_all) @ (s_all.T @ w @ np.concatenate(targets)))
    dev = np.array(loo) - np.mean(loo, axis=0)
    return (n - 1) / n * dev.T @ dev


def test_jackknife_covariance_matches_leave_one_out_loop(fitted) -> None:
    data, part, _, fits = fitted
    for f, sl in zip(fits, part.slices):
        h = joined_sensitivities(pairwise._moments_for(data, sl.start, sl.stop), f.gamma_hat)
        assert h.shape == (f.n_subjects, 2, 2)
        np.testing.assert_allclose(h.mean(axis=0), f.sensitivity, rtol=1e-12, atol=1e-14)
    m = weight_matrix(fits)
    assert m.ridge_used == 0.0
    beta, bread = one_step_estimator(m)
    got = jackknife_covariance(m, beta)
    np.testing.assert_allclose(got, _leave_one_out_loop(fits, data, part), rtol=1e-10, atol=0.0)
    result = integrate_fits(fits)
    np.testing.assert_array_equal(result.covariance, got)
    np.testing.assert_array_equal(
        result.covariance_asymptotic, dimm_covariance(bread, m.n_subjects)
    )
    np.testing.assert_array_equal(result.std_errors, np.sqrt(np.diag(got)))


def _eeg_shaped_panel(coordinate: str, seed: int = 26, n: int = 120) -> PanelDataset:
    """An intercept and two subject-level columns around a coordinate-level
    one, as in eeg_mimic: ``"alternating01"`` (0, 1, 0, 1, ... at every
    subject) or ``"mv_normal_rows"`` (a normal draw at every coordinate)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    m = 9
    x = np.empty((n, m, 4))
    x[:, :, 0] = 1.0
    x[:, :, 1] = rng.uniform(size=(n, 1))
    if coordinate == "alternating01":
        x[:, :, 2] = np.arange(m) % 2
    else:
        x[:, :, 2] = rng.standard_normal((n, m))
    x[:, :, 3] = rng.uniform(size=(n, 1)) < 0.32
    noise = 0.6 * rng.standard_normal((n, 1)) + 0.8 * rng.standard_normal((n, m))
    return PanelDataset(x @ np.array([0.2, 0.5, -0.3, 0.4]) + noise, x)


def _eeg_shaped_fits(coordinate: str) -> tuple[PanelDataset, BlockPartition, list[BlockFit]]:
    data = _eeg_shaped_panel(coordinate)
    np.testing.assert_array_equal(data.subject_level, [True, True, False, True])
    part = BlockPartition.from_sizes([3, 4, 2], structure=["cs", "ar1", "cs"])
    return data, part, fit_blocks(data, part)


def test_jackknife_matches_leave_one_out_loop_with_subject_level_columns() -> None:
    # Here each subject's L_i has its row of subject-level values, which the
    # three-block panel, all of whose columns vary by coordinate, never reads.
    data, part, fits = _eeg_shaped_fits("alternating01")
    assert fits[0].subject_cores.shape == (fits[0].n_subjects, 2, 2)
    m = weight_matrix(fits)
    assert m.ridge_used == 0.0
    got = jackknife_covariance(m, one_step_estimator(m)[0])
    np.testing.assert_allclose(got, _leave_one_out_loop(fits, data, part), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize(
    "case",
    [f"{name}:{rep}" for name in bundled_scenario_names() for rep in (0, 1)]
    + ["mv_normal_rows", "three_block"],
)
def test_factored_jackknife_matches_the_dense_one(case: str) -> None:
    # The dense oracle forms N S - H_i for every subject from the stacked
    # (N, J p, p) sensitivities; the package works on the q x q cores.
    if case == "three_block":
        data, part, _ = _three_block_panel()
    elif case == "mv_normal_rows":
        data = _eeg_shaped_panel("mv_normal_rows")
        part = BlockPartition.from_sizes([3, 4, 2], structure=["cs", "ar1", "cs"])
    else:
        name, rep = case.split(":")
        scn = bundled_scenario(name)
        data, part = generate_replicate(scn, int(rep)), scn.partition_for("dimm")
    fits = fit_blocks(data, part)
    h = [
        joined_sensitivities(pairwise._moments_for(data, sl.start, sl.stop), fit.gamma_hat)
        for fit, sl in zip(fits, part.slices)
    ]
    m = weight_matrix(fits)
    beta, _ = one_step_estimator(m)
    want = dense_jackknife(m, beta, np.concatenate(h, axis=1))
    got = jackknife_covariance(m, beta)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())


def test_weight_matrix_refuses_blocks_of_another_panel() -> None:
    # Blocks share each subject's L_i, so fits whose subject-level values
    # differ cannot be integrated, even with one N and one p.
    *_, fits = _eeg_shaped_fits("alternating01")
    other = fit_blocks(_eeg_shaped_panel("alternating01", seed=27), BlockPartition.from_sizes([9]))
    with pytest.raises(IntegrationError, match="same panel"):
        weight_matrix([fits[0], replace(other[0], name="elsewhere")])


def test_jackknife_is_unmoved_by_a_common_shift_of_the_block_estimates(fitted) -> None:
    # Shifting every block estimate by c shifts the combination and every
    # leave-one-out combination by c, so no covariance may move. Forming
    # the leave-one-out estimates themselves and differencing them would
    # cancel digits in proportion to c.
    _, _, _, fits = fitted
    base = integrate_fits(fits)
    shifted = integrate_fits([replace(f, beta_hat=f.beta_hat + 1e3) for f in fits])
    np.testing.assert_allclose(shifted.beta_dimm, base.beta_dimm + 1e3, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(shifted.covariance, base.covariance, rtol=2e-12, atol=0.0)
    np.testing.assert_array_equal(shifted.covariance_asymptotic, base.covariance_asymptotic)


def test_jackknife_refuses_singular_leave_one_out_weight(fitted) -> None:
    _, _, _, fits = fitted
    # With N = J*p subjects and no ridge every leverage h_i equals N, so
    # dropping any subject leaves a singular weight matrix.
    cut = _subjects(fits, slice(fits[0].n_subjects - 6, None))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m = weight_matrix(cut)
    assert m.ridge_used == 0.0
    with pytest.raises(IntegrationError, match="singular"):
        jackknife_covariance(m, one_step_estimator(m)[0])


def test_q_statistic_second_pass_consistency(fitted) -> None:
    _, _, blocks, fits = fitted
    m = weight_matrix(fits)
    beta, _ = one_step_estimator(m)
    q_here = q_statistic(beta, m)
    assert q_here >= 0.0
    # The combined estimate minimizes the quadratic form ...
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(31)))
    for _ in range(5):
        assert q_statistic(beta + rng.standard_normal(beta.size), m) >= q_here
    # ... and far from it the quadratic form must blow up.
    q_far = q_statistic(beta + 5.0, m)
    assert q_far > 10.0 * max(q_here, 1.0)
    # Q from the stored fits equals a second pass over the block data:
    # every block's beta-score re-evaluated at a common beta.
    n = fits[0].n_subjects
    v_inv = np.linalg.inv(m.psi.T @ m.psi / n)
    moments = [pairwise._moments_for(block, 0, block.n_coordinates) for block in blocks]
    for b in (beta, beta + 5.0, np.array([-2.0, 3.0])):
        g = np.concatenate(
            [mb.subject_terms(b, f.gamma_hat)[0].mean(axis=0) for f, mb in zip(fits, moments)]
        )
        data_pass = n * g @ v_inv @ g
        assert q_statistic(b, m) == pytest.approx(data_pass, rel=1e-10, abs=1e-12)


def test_gof_test_properties() -> None:
    df, p = gof_test(9.487729036781154, 3, 2)  # frozen: chi2(4) upper tail at its 95th pct
    assert df == 4
    assert p == pytest.approx(0.05, abs=1e-12)
    assert gof_test(0.0, 2, 1) == (1, pytest.approx(1.0))
    # 18 blocks of 4: df 68, where 1 - chi2_cdf would give exactly 0.
    assert gof_test(300.0, 18, 4) == (68, pytest.approx(6.839673212954920e-31, rel=1e-10))
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
    for q, test in enumerate(result.wald):
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
    # The sub-group keeps fit order, whatever the order of its names.
    assert weight_matrix(fits, subset=["c", "a"]).block_names == ("a", "c")


def test_integrate_subset_validation(fitted) -> None:
    # integrate_fits forwards its subset to weight_matrix, the one place a
    # sub-group is chosen, so both refuse the same three ways.
    _, _, _, fits = fitted
    for select in (integrate_fits, weight_matrix):
        with pytest.raises(IntegrationError, match="not found"):
            select(fits, subset=["a", "nope"])
        with pytest.raises(IntegrationError, match="duplicate"):
            select(fits, subset=["a", "a"])
        with pytest.raises(IntegrationError, match="at least one block"):
            select(fits, subset=[])
        with pytest.raises(IntegrationError):
            select([])


def test_q_statistic_validates_beta_length(fitted) -> None:
    _, _, _, fits = fitted
    with pytest.raises(IntegrationError, match="length"):
        q_statistic(np.array([1.0, 2.0, 3.0]), weight_matrix(fits))
    # Q_N grows with the square of beta's distance from the block
    # estimates, so a finite beta of 1e308 overflows it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused with a typed error, not warned about
        with pytest.raises(IntegrationError, match="not finite"):
            q_statistic(np.full(2, 1e308), weight_matrix(fits))


@functools.cache
def _in_block_order(
    name: str,
) -> tuple[PanelDataset, BlockPartition, dict[str, BlockFit], IntegratedFit]:
    scn = bundled_scenario(name)
    data = generate_replicate(scn, 0)
    part = scn.partition_for("dimm")
    fits = fit_blocks(data, part)
    return data, part, {f.name: f for f in fits}, integrate_fits(fits)


@pytest.mark.parametrize("name", ["gof_chi2", "eeg_mimic"])
@hypothesis_seed(25)
@settings(max_examples=20, deadline=None)
@given(draw=st.data())
def test_block_order_only_moves_the_integration_by_roundoff(name: str, draw) -> None:
    # Moving whole coordinate blocks, with the partition, leaves every block
    # fit bit-identical; the combination sums the blocks in another order.
    data, part, want, combined = _in_block_order(name)
    order = draw.draw(st.permutations(range(len(part.blocks))))
    cols = np.concatenate([np.arange(part.slices[j].start, part.slices[j].stop) for j in order])
    moved = PanelDataset(data.responses[:, cols], data.covariates[:, cols])
    fits = fit_blocks(moved, BlockPartition(tuple(part.blocks[j] for j in order)))
    for got in fits:
        w = want[got.name]
        assert got.gamma_hat == w.gamma_hat, got.name
        for field in ("beta_hat", "subject_scores", "sensitivity", "subject_cores"):
            assert np.array_equal(getattr(got, field), getattr(w, field)), (got.name, field)
    got = integrate_fits(fits)
    for attr in ("beta_dimm", "std_errors", "asymptotic_std_errors"):
        np.testing.assert_allclose(getattr(got, attr), getattr(combined, attr), rtol=1e-10, atol=0.0)
    assert got.q_stat == pytest.approx(combined.q_stat, rel=1e-10, abs=0.0)
