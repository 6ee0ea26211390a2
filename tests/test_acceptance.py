"""End-to-end acceptance suite.

Each test checks one published behavioral guarantee of the package at
its stated tolerance and prints a single PASS/FAIL line into the
terminal summary (see ``conftest.record_acceptance``). The two
simulation studies are shared across criteria through module-scoped
fixtures, so the whole file stays inside its time budgets on one CPU.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from dimm.baselines import gee_fit, gls_oracle
from dimm.integrate import integrate_fits, weight_matrix
from dimm.model import BlockPartition, Dependence, PanelDataset, partition_dataset
from dimm import pairwise
from dimm.pairwise import fit_blocks
from dimm.simulate import bundled_scenario, report_fingerprint, run_scenario
from dimm.special import chi2_cdf, normal_cdf

from tests.conftest import record_acceptance
from tests.oracles import grams_logcl
from tests.test_special import CHI2_ORACLE, NORMAL_ORACLE

# ---------------------------------------------------------------------------
# Shared simulation studies
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def calibration_study():
    """The scaled five-block study: 200 replicates, N=500, p=6."""
    start = time.perf_counter()
    report = run_scenario(bundled_scenario("table1_scaled"), workers=1)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def null_study():
    """Null study for test calibration: beta0 = 0, 5 blocks, 500 replicates."""
    start = time.perf_counter()
    report = run_scenario(bundled_scenario("gof_chi2"), workers=1)
    return report, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Criterion 1: analytic mean-parameter score vs finite differences
# ---------------------------------------------------------------------------


def test_acceptance_01_beta_score_vs_finite_differences() -> None:
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1001)))
    worst = 0.0
    n_instances = 100
    for case in range(n_instances):
        n = int(rng.integers(6, 12))
        m = int(rng.integers(3, 6))
        p = int(rng.integers(1, 4))
        x = rng.standard_normal((n, m, p))
        y = rng.standard_normal((n, m)) * 2.0
        block = PanelDataset(responses=y, covariates=x)
        structure = "ar1" if case % 2 == 0 else "cs"
        lo = -0.8 if structure == "ar1" else -1.0 / (m - 1) + 0.1
        gamma = Dependence(
            structure, float(rng.uniform(0.4, 2.5)), float(rng.uniform(lo, 0.8))
        )
        beta = rng.standard_normal(p)
        moments = pairwise._moments_for(block, 0, m)
        mean_score = moments.subject_terms(beta, gamma)[0].mean(axis=0)
        h = 1e-6
        for q in range(p):
            bp, bm = beta.copy(), beta.copy()
            bp[q] += h
            bm[q] -= h
            fd = (grams_logcl(moments, bp, gamma) - grams_logcl(moments, bm, gamma)) / (
                2.0 * h * n
            )
            rel = abs(mean_score[q] - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    record_acceptance(
        "criterion 1 (score vs finite differences)",
        ok,
        f"{n_instances} instances, worst rel err {worst:.2e} (tol 1e-6), {elapsed:.1f}s (budget 10s)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: one-step combination tracks the full quadratic-form argmin
# ---------------------------------------------------------------------------


def _one_gap(rng: np.random.Generator, n: int) -> float:
    m_half, p = 5, 2
    rho, sigma = 0.5, 1.0
    lagmat = np.abs(np.subtract.outer(np.arange(m_half), np.arange(m_half)))
    within = sigma**2 * rho**lagmat
    cov = np.block(
        [[within, 0.3 * within], [0.3 * within, within]]
    )
    x = rng.standard_normal((n, 2 * m_half, p))
    beta0 = np.array([1.0, -0.5])
    y = np.einsum("nmp,p->nm", x, beta0) + rng.standard_normal(
        (n, 2 * m_half)
    ) @ np.linalg.cholesky(cov).T
    data = PanelDataset(responses=y, covariates=x)
    part = BlockPartition.from_sizes([m_half, m_half], structure="ar1")
    blocks = [pairwise._moments_for(block, 0, m_half) for block in partition_dataset(data, part)]
    fits = fit_blocks(data, part)
    combined = integrate_fits(fits)
    # v_inv = L L', so Q_N(b) = N g' v_inv g is the squared norm of sqrt(N) L' g.
    whiten = math.sqrt(n) * np.linalg.cholesky(weight_matrix(fits).v_inv).T

    def data_pass_moments(b: np.ndarray) -> np.ndarray:
        # The whitened moments of Q_N(b) from a second pass over the block
        # data, independent of the stored-fit shortcut that integrate_fits uses.
        parts = [
            block.subject_terms(b, f.gamma_hat)[0].mean(axis=0)
            for f, block in zip(fits, blocks)
        ]
        return whiten @ np.concatenate(parts)

    rows = x.reshape(-1, p)
    ols, *_ = np.linalg.lstsq(rows, y.reshape(-1), rcond=None)
    # Levenberg-Marquardt on finite-difference Jacobians: it assumes nothing
    # of the moments' form, and needs few evaluations when they are affine.
    res = scipy.optimize.least_squares(data_pass_moments, ols, method="lm", jac="3-point")
    return float(np.max(np.abs(combined.beta_dimm - res.x)))


# With an identity link the stacked block score is exactly affine in the
# mean coefficients, so the one-step combination solves the very linear
# system whose solution minimizes the quadratic form: the gap to the
# numerically located argmin is optimizer-termination noise at every
# sample size (observed ~1e-14 at both N=400 and N=1600).  The shrinkage
# comparison of two medians is therefore only informative when a genuine
# linearization gap exists; agreement below this floor — six orders of
# magnitude inside the 0.02 tolerance — is the strongest possible form of
# the equivalence being verified, and any real regression in the
# combination step would blow straight past it.
EXACT_AGREEMENT_FLOOR = 1e-8


def test_acceptance_02_one_step_matches_quadratic_argmin() -> None:
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1002)))
    n_reps = 50
    gaps_small = np.array([_one_gap(rng, 400) for _ in range(n_reps)])
    gaps_large = np.array([_one_gap(rng, 1600) for _ in range(n_reps)])
    med_small = float(np.median(gaps_small))
    med_large = float(np.median(gaps_large))
    elapsed = time.perf_counter() - start
    exact = max(med_small, med_large) <= EXACT_AGREEMENT_FLOOR
    shrinks = med_large <= 0.5 * med_small
    ok = float(gaps_small.max()) <= 0.02 and (shrinks or exact) and elapsed < 300.0
    detail = (
        f"max gap N=400: {gaps_small.max():.2e} (tol 0.02); median gap "
        f"{med_small:.2e} -> {med_large:.2e} at N=1600 "
    )
    if exact:
        detail += f"(both at noise floor <= {EXACT_AGREEMENT_FLOOR:.0e}: exact agreement)"
    else:
        detail += f"(need <= {0.5 * med_small:.2e})"
    detail += f"; {elapsed:.0f}s (budget 300s)"
    record_acceptance("criterion 2 (one-step vs full argmin)", ok, detail)
    assert ok


# ---------------------------------------------------------------------------
# Criteria 3, 4, 7: calibration of the five-block study
# ---------------------------------------------------------------------------


def test_acceptance_03_bias_efficiency_calibration(calibration_study) -> None:
    report, elapsed = calibration_study
    combined = report.method("dimm")
    gls = report.method("gls_oracle")
    ind = report.method("gee_independence")

    bias_ok = bool(np.all(np.abs(combined.bias) <= 0.01))
    ratio = combined.ese / combined.ase
    ratio_ok = bool(np.all((ratio >= 0.85) & (ratio <= 1.15)))
    eff_vs_ind = bool(np.all(combined.ese <= 1.05 * ind.ese))
    gls_vs_dimm = bool(np.all(gls.ese <= 1.05 * combined.ese))
    time_ok = elapsed < 900.0
    ok = bias_ok and ratio_ok and eff_vs_ind and gls_vs_dimm and time_ok
    record_acceptance(
        "criterion 3 (bias/efficiency calibration)",
        ok,
        f"max |bias| {np.abs(combined.bias).max():.4f} (tol 0.01); ESE/ASE in "
        f"[{ratio.min():.3f}, {ratio.max():.3f}] (need [0.85, 1.15]); "
        f"ESE <= 1.05 x independence: {eff_vs_ind}; oracle <= 1.05 x combined: {gls_vs_dimm}; "
        f"{elapsed:.0f}s (budget 900s)",
    )
    assert ok


def test_acceptance_04_misspecified_working_structure_stays_unbiased(
    calibration_study,
) -> None:
    report, _ = calibration_study
    # Working family forced to exchangeable while the truth is serial.
    forced = report.method("dimm:cs")
    worst = float(np.abs(forced.bias).max())
    ok = worst <= 0.015
    record_acceptance(
        "criterion 4 (misspecified working family bias)",
        ok,
        f"max |bias| {worst:.4f} (tol 0.015)",
    )
    assert ok


def test_acceptance_07_confidence_interval_coverage(calibration_study) -> None:
    report, _ = calibration_study
    combined = report.method("dimm")
    cov = combined.coverage
    ok = bool(np.all((cov >= 0.92) & (cov <= 0.975)))
    record_acceptance(
        "criterion 7 (95% interval coverage)",
        ok,
        f"coverage per coefficient in [{cov.min():.3f}, {cov.max():.3f}] (need [0.92, 0.975])",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criteria 5, 6: null calibration of the fit statistic and Wald test
# ---------------------------------------------------------------------------


def test_acceptance_05_overidentification_statistic_null_distribution(null_study) -> None:
    report, elapsed = null_study
    combined = report.method("dimm")
    gof = combined.gof
    df = gof.df
    mean_ok = abs(gof.mean_q - df) <= 0.1 * df
    rej_ok = 0.03 <= gof.rejection_rate <= 0.08
    time_ok = elapsed < 600.0
    ok = bool(mean_ok and rej_ok and time_ok)
    record_acceptance(
        "criterion 5 (fit statistic null distribution)",
        ok,
        f"mean Q {gof.mean_q:.3f} vs df {df} (tol 10%); rejection at 5%: "
        f"{gof.rejection_rate:.3f} (need [0.03, 0.08]); {elapsed:.0f}s (budget 600s)",
    )
    assert ok


def test_acceptance_06_wald_type_i_error(null_study) -> None:
    report, _ = null_study
    combined = report.method("dimm")
    # beta0 = 0 in this study, so the rejection rate of |z| > z_0.975 is
    # the empirical type-I error.
    rate = float(combined.wald_rejection[0])
    ok = 0.03 <= rate <= 0.08
    record_acceptance(
        "criterion 6 (Wald type-I error)",
        ok,
        f"rejection rate {rate:.3f} (need [0.03, 0.08])",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: exact closed-form collapses
# ---------------------------------------------------------------------------


def test_acceptance_08_exact_collapses() -> None:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1008)))
    n, m, p = 60, 6, 2
    x = rng.standard_normal((n, m, p))
    y = np.einsum("nmp,p->nm", x, np.array([1.0, -1.0])) + rng.standard_normal((n, m))
    data = PanelDataset(responses=y, covariates=x)

    rows = x.reshape(-1, p)
    ols, *_ = np.linalg.lstsq(rows, y.reshape(-1), rcond=None)

    # (a) single-block integration returns the block estimate unchanged
    part = BlockPartition.from_sizes([m], structure="ar1")
    fits = fit_blocks(data, part)
    single = integrate_fits(fits)
    gap_a = float(np.max(np.abs(single.beta_dimm - fits[0].beta_hat)))

    # (b) independence working correlation is ordinary least squares
    gap_b = float(np.max(np.abs(gee_fit(data, "independence").beta_hat - ols)))

    # (c) an oracle with a spherical covariance is ordinary least squares
    gap_c = float(np.max(np.abs(gls_oracle(data, 2.0 * np.eye(m)).beta_hat - ols)))

    ok = max(gap_a, gap_b, gap_c) <= 1e-10
    record_acceptance(
        "criterion 8 (exact collapses)",
        ok,
        f"single-block {gap_a:.1e}, independence-vs-OLS {gap_b:.1e}, "
        f"spherical-oracle-vs-OLS {gap_c:.1e} (tol 1e-10)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: worker-count determinism
# ---------------------------------------------------------------------------


def test_acceptance_09_worker_count_determinism() -> None:
    """A report is bit-identical for any worker count, at a fixed BLAS
    build and BLAS thread count.

    Across ``OPENBLAS_NUM_THREADS`` settings it is not: the BLAS sums in
    another order, and ``beta_dimm`` has moved by up to 1.1e-13 relative
    between one and two threads. The package sets no thread count.
    """
    start = time.perf_counter()
    scn = replace(bundled_scenario("micro"), n_replicates=40)
    f1 = report_fingerprint(run_scenario(scn, workers=1))
    f2 = report_fingerprint(run_scenario(scn, workers=2))
    elapsed = time.perf_counter() - start
    ok = f1 == f2
    record_acceptance(
        "criterion 9 (worker-count determinism)",
        ok,
        f"fingerprints {'identical' if ok else 'DIFFER'} across 1 vs 2 workers "
        f"(40 replicates, {elapsed:.0f}s)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 10: distribution functions vs high-precision oracles
# ---------------------------------------------------------------------------


def test_acceptance_10_distribution_functions() -> None:
    worst_chi2 = max(abs(chi2_cdf(x, df) - want) for x, df, want in CHI2_ORACLE)
    worst_norm = max(abs(normal_cdf(z) - want) for z, want in NORMAL_ORACLE)
    ok = worst_chi2 <= 1e-12 and worst_norm <= 1e-12
    record_acceptance(
        "criterion 10 (distribution functions)",
        ok,
        f"worst abs err: chi-square {worst_chi2:.2e}, normal {worst_norm:.2e} "
        f"over {len(CHI2_ORACLE)} + {len(NORMAL_ORACLE)} frozen points (tol 1e-12)",
    )
    assert ok
