"""Integration of block fits into one estimate with full inference.

The block fits supply, per subject, a stacked score vector ``psi_i =
(psi_i1', ..., psi_iJ')'`` (each block's beta-score evaluated at that
block's own estimate) together with block sensitivities ``S_j``. The
integration step weights the stacked mean score by the inverse of

    V_hat = (1/N) sum_i psi_i psi_i'          (uncentered outer products)

and combines the block estimates in closed form:

    beta_combined = (sum_jk S_j W_jk S_k)^(-1) sum_jk S_j W_jk S_k beta_k

where ``W_jk`` is the (j, k) p x p slice of ``V_hat^(-1)``. Its
asymptotic covariance is ``(N sum_jk S_j W_jk S_k)^(-1)``. That formula
treats ``V_hat`` as known; when N is not large against J*p the noise of
the weight matrix is left out and intervals built on it undercover. The
reported covariance is therefore the delete-one-subject jackknife of
the whole combination: each subject is dropped in turn, ``V_hat`` is
downdated by rank one, the block estimates and sensitivities are moved
exactly, and the estimates are recombined. The analytic matrix is kept
alongside it.

Everything here rests on the Gaussian identity link, under which each
block's score is affine in beta:

    psi_ij(beta) = psi_ij(beta_hat_j) - H_ij (beta - beta_hat_j),

with ``H_ij`` the per-subject sensitivities stored on the fit. So the
jackknife needs no refit at the fitted working parameters, and the
quadratic form ``Q_N(beta) = N g(beta)' V_hat^(-1) g(beta)`` needs no
second pass over the data: block j's mean score is ``g_j(beta) = mean_i
psi_ij(beta_hat_j) - S_j (beta - beta_hat_j)`` exactly. ``Q_N`` doubles
as an over-identification statistic: with J blocks it is asymptotically
chi-square with (J - 1) p degrees of freedom at the combined estimate.

Every symmetric positive definite system here (``V_hat``, the bread
``sum_jk S_j W_jk S_k``) is solved by :func:`dimm._util.spd_solve`: a
Cholesky factor, whose failure is the positive-definiteness test, and
its inverse applied twice.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from dimm._util import spd_solve
from dimm.errors import IntegrationError
from dimm.pairwise import BlockFit
from dimm.special import chi2_cdf, normal_cdf

if TYPE_CHECKING:
    from collections.abc import Sequence

__all__ = [
    "CoefficientTest",
    "IntegratedFit",
    "StackedScores",
    "WeightMatrix",
    "cef_log_density",
    "dimm_covariance",
    "gof_test",
    "integrate_fits",
    "jackknife_covariance",
    "one_step_estimator",
    "q_from_mean_scores",
    "q_statistic",
    "stack_scores",
    "wald_tests",
    "weight_matrix",
]

# Ridge ladder for a numerically singular weight matrix: lambda starts at
# 1e-8 * trace/dim and escalates tenfold up to 1e-2 * trace/dim.
_RIDGE_START = 1e-8
_RIDGE_STOP = 1e-2
# A leave-one-out weight matrix counts as singular when the downdate
# slack N - h_i falls to this fraction of N.
_LOO_SLACK_FLOOR = 1e-8


def _check_fits(fits: Sequence[BlockFit]) -> tuple[int, int]:
    """Common-shape validation; returns (n_subjects, p)."""
    if not fits:
        msg = "need at least one block fit"
        raise IntegrationError(msg)
    n = fits[0].n_subjects
    p = fits[0].n_params
    for f in fits:
        if f.n_subjects != n:
            msg = (
                f"block {f.name!r} has {f.n_subjects} subjects, expected {n}: "
                "all blocks must come from the same panel"
            )
            raise IntegrationError(msg)
        if f.n_params != p:
            msg = f"block {f.name!r} has p={f.n_params}, expected {p}"
            raise IntegrationError(msg)
    names = [f.name for f in fits]
    if len(set(names)) != len(names):
        msg = f"duplicate block names in fits: {names}"
        raise IntegrationError(msg)
    return n, p


@dataclass(frozen=True, eq=False)
class StackedScores:
    """Subject-level stacked scores across blocks.

    ``matrix`` has shape (N, J*p); columns ``j*p .. (j+1)*p - 1`` hold
    block j's per-subject scores, in fit order.
    """

    matrix: np.ndarray
    block_names: tuple[str, ...]
    n_params: int

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.float64, copy=True)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "block_names", tuple(self.block_names))

    @property
    def n_subjects(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_blocks(self) -> int:
        return len(self.block_names)


def stack_scores(fits: Sequence[BlockFit]) -> StackedScores:
    """Column-concatenate the per-subject block scores, in fit order."""
    _, p = _check_fits(fits)
    matrix = np.hstack([f.subject_scores for f in fits])
    return StackedScores(
        matrix=matrix, block_names=tuple(f.name for f in fits), n_params=p
    )


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Empirical second-moment matrix of the stacked scores and its inverse.

    ``ridge_used`` is 0.0 when the plain Cholesky inversion succeeded,
    otherwise the diagonal loading that was added to make it succeed.
    """

    v_hat: np.ndarray
    v_inv: np.ndarray
    ridge_used: float

    def __post_init__(self) -> None:
        v = np.array(self.v_hat, dtype=np.float64, copy=True)
        w = np.array(self.v_inv, dtype=np.float64, copy=True)
        v.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "v_hat", v)
        object.__setattr__(self, "v_inv", w)

    @property
    def dim(self) -> int:
        return self.v_hat.shape[0]


def weight_matrix(scores: StackedScores) -> WeightMatrix:
    """Build V_hat = (1/N) sum_i psi_i psi_i' and invert it.

    The average is uncentered by construction: at the block optima the
    mean scores are already ~0, so centering would only blur the
    estimand. Inversion is by Cholesky (:func:`dimm._util.spd_solve`);
    if the factorization fails, a diagonal ridge is escalated tenfold
    from 1e-8*trace/dim up to 1e-2*trace/dim before giving up.

    Raises
    ------
    IntegrationError
        If even the largest ridge leaves the matrix non-invertible.
    """
    psi = scores.matrix
    n, dim = psi.shape
    if n <= dim:
        warnings.warn(
            f"only N={n} subjects for a {dim}-dimensional stacked score; "
            "the weight matrix is likely ill-conditioned (want N > J*p)",
            stacklevel=2,
        )
    v_hat = psi.T @ psi / n
    v_hat = (v_hat + v_hat.T) / 2.0
    scale = float(np.trace(v_hat)) / dim
    if not math.isfinite(scale) or scale <= 0.0:
        msg = "stacked scores produced a degenerate weight matrix"
        raise IntegrationError(msg)

    lam = 0.0
    while True:
        try:
            v_inv = spd_solve(v_hat + lam * np.eye(dim), np.eye(dim))
        except np.linalg.LinAlgError:
            lam = _RIDGE_START * scale if lam == 0.0 else lam * 10.0
            if lam > _RIDGE_STOP * scale * (1.0 + 1e-12):
                msg = (
                    "weight matrix is numerically singular even after ridge "
                    f"loading up to {_RIDGE_STOP:g}*trace/dim"
                )
                raise IntegrationError(msg) from None
            continue
        break
    v_inv = (v_inv + v_inv.T) / 2.0
    return WeightMatrix(v_hat=v_hat, v_inv=v_inv, ridge_used=lam)


def _bread_and_target(
    fits: Sequence[BlockFit], weights: WeightMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Compute (sum_jk S_j W_jk S_k, sum_jk S_j W_jk S_k beta_k)."""
    n, p = _check_fits(fits)
    dim = len(fits) * p
    if weights.dim != dim:
        msg = f"weight matrix dimension {weights.dim} != J*p = {dim}"
        raise IntegrationError(msg)
    stacked_s = np.vstack([f.sensitivity for f in fits])  # (J*p, p)
    stacked_sb = np.concatenate([f.sensitivity @ f.beta_hat for f in fits])  # (J*p,)
    half = stacked_s.T @ weights.v_inv
    bread = half @ stacked_s
    bread = (bread + bread.T) / 2.0
    target = half @ stacked_sb
    return bread, target


def one_step_estimator(fits: Sequence[BlockFit], weights: WeightMatrix) -> np.ndarray:
    """Closed-form combination of the block estimates.

    Returns the p-vector ``(sum_jk S_j W_jk S_k)^(-1) sum_jk S_j W_jk S_k
    beta_hat_k``. With a single block this collapses to that block's
    estimate exactly (up to solve roundoff).

    Raises
    ------
    IntegrationError
        If the bread matrix is not positive definite.
    """
    bread, target = _bread_and_target(fits, weights)
    try:
        return spd_solve(bread, target)
    except np.linalg.LinAlgError:
        msg = "bread matrix sum_jk S_j W_jk S_k is not positive definite"
        raise IntegrationError(msg) from None


def dimm_covariance(fits: Sequence[BlockFit], weights: WeightMatrix) -> np.ndarray:
    """Asymptotic covariance of the combined estimate: (N * bread)^(-1)."""
    n, _ = _check_fits(fits)
    bread, _ = _bread_and_target(fits, weights)
    try:
        cov = spd_solve(bread, np.eye(bread.shape[0])) / n
    except np.linalg.LinAlgError:
        msg = "bread matrix sum_jk S_j W_jk S_k is not positive definite"
        raise IntegrationError(msg) from None
    cov = (cov + cov.T) / 2.0
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        msg = "combined covariance is not positive definite"
        raise IntegrationError(msg) from None
    return cov


def jackknife_covariance(fits: Sequence[BlockFit], weights: WeightMatrix) -> np.ndarray:
    """Delete-one-subject jackknife covariance of the combined estimate.

    For each subject i the combination is recomputed without it:

    * the weight matrix is downdated by rank one, ``(N V_hat - psi_i
      psi_i') / (N - 1)``, inverted by Sherman-Morrison with the leverage
      ``h_i = psi_i' V_hat^(-1) psi_i`` (the ridged matrix when a ridge
      was applied);
    * ``S_j(-i) = (N S_j - H_ij) / (N - 1)``;
    * the block estimate solves the leave-one-out score equation at the
      fitted working parameters, which is exact because the score is
      affine in beta: ``S_j(-i) beta_j(-i) = S_j(-i) beta_j +
      (sum_k psi_kj - psi_ij) / (N - 1)``.

    The result is ``(N - 1)/N sum_i (b_(-i) - b_bar)(b_(-i) - b_bar)'``.
    All N recombinations run as one batch over (N, J*p, p) arrays.

    Raises
    ------
    IntegrationError
        If a leave-one-out weight matrix is singular (``N - h_i`` at or
        near 0, possible only without a ridge) or a leave-one-out bread
        matrix cannot be solved.
    """
    n, p = _check_fits(fits)
    dim = len(fits) * p
    if weights.dim != dim:
        msg = f"weight matrix dimension {weights.dim} != J*p = {dim}"
        raise IntegrationError(msg)
    psi = np.hstack([f.subject_scores for f in fits])  # (N, J*p)
    h_subj = np.concatenate([f.subject_sensitivities for f in fits], axis=1)  # (N, J*p, p)
    stacked_s = np.vstack([f.sensitivity for f in fits])
    stacked_sb = np.concatenate([f.sensitivity @ f.beta_hat for f in fits])
    h_beta = np.concatenate([f.subject_sensitivities @ f.beta_hat for f in fits], axis=1)
    # Both sides scaled by N - 1, which cancels in the combination.
    s_loo = n * stacked_s - h_subj
    t_loo = n * stacked_sb + psi.sum(axis=0) - h_beta - psi

    u = psi @ weights.v_inv
    slack = n - np.einsum("na,na->n", u, psi)
    if np.any(slack <= _LOO_SLACK_FLOOR * n):
        worst = int(np.argmin(slack))
        msg = (
            f"leaving out subject {worst} makes the weight matrix singular "
            f"(N - h_i = {slack[worst]:.3g}); the jackknife is unavailable"
        )
        raise IntegrationError(msg)
    ws = weights.v_inv @ s_loo
    su = np.einsum("nap,na->np", s_loo, u)
    bread = np.swapaxes(s_loo, 1, 2) @ ws + su[:, :, None] * su[:, None, :] / slack[:, None, None]
    target = np.einsum("nap,na->np", ws, t_loo) + su * (
        np.einsum("na,na->n", u, t_loo) / slack
    )[:, None]
    try:
        b_loo = np.linalg.solve(bread, target[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        msg = "a leave-one-out bread matrix is singular; the jackknife is unavailable"
        raise IntegrationError(msg) from None
    dev = b_loo - b_loo.mean(axis=0)
    cov = (n - 1) / n * (dev.T @ dev)
    cov = (cov + cov.T) / 2.0
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        msg = "jackknife covariance is not positive definite"
        raise IntegrationError(msg) from None
    return cov


def q_from_mean_scores(
    mean_scores: np.ndarray, weights: WeightMatrix, n_subjects: int
) -> float:
    """Quadratic form N * Psi' V_hat^(-1) Psi for a stacked mean score."""
    psi = np.asarray(mean_scores, dtype=np.float64).reshape(-1)
    if psi.shape[0] != weights.dim:
        msg = f"mean score length {psi.shape[0]} != weight dimension {weights.dim}"
        raise IntegrationError(msg)
    return float(n_subjects * psi @ weights.v_inv @ psi)


def q_statistic(
    beta: np.ndarray,
    fits: Sequence[BlockFit],
    weights: WeightMatrix,
) -> float:
    """Q_N(beta): every block's mean score moved to a common beta.

    Each block's mean score at ``beta``, with the working parameters held
    at that block's fitted ``gamma_hat``, is ``mean_i psi_ij(beta_hat_j)
    - S_j (beta - beta_hat_j)`` (exact under the identity link); the J
    mean scores are stacked, and the quadratic form against
    ``V_hat^(-1)`` is scaled by N.
    """
    n, p = _check_fits(fits)
    beta = np.asarray(beta, dtype=np.float64).reshape(-1)
    if beta.shape != (p,):
        msg = f"beta has length {beta.shape[0]}, expected p={p}"
        raise IntegrationError(msg)
    parts = [
        f.subject_scores.mean(axis=0) - f.sensitivity @ (beta - f.beta_hat) for f in fits
    ]
    return q_from_mean_scores(np.concatenate(parts), weights, n)


def cef_log_density(
    beta: np.ndarray,
    fits: Sequence[BlockFit],
    weights: WeightMatrix,
) -> float:
    """Log of the combined estimating-function density, up to a constant.

    Equals ``-Q_N(beta) / 2``; the combined estimate is its mode.
    """
    return -0.5 * q_statistic(beta, fits, weights)


def gof_test(q_stat: float, n_blocks: int, n_params: int) -> tuple[int, float]:
    """Over-identification test for the integrated fit.

    Parameters
    ----------
    q_stat : float
        Q_N evaluated at the combined estimate.
    n_blocks, n_params : int
        Number of integrated blocks J and mean-parameter dimension p.

    Returns
    -------
    (df, p_value)
        Degrees of freedom ``(J - 1) * p`` and the upper-tail
        chi-square probability.

    Raises
    ------
    IntegrationError
        With J = 1 there are no over-identifying restrictions (df = 0);
        the test is refused rather than reporting a vacuous p-value.
    """
    if n_blocks < 1 or n_params < 1:
        msg = f"need J >= 1 and p >= 1, got J={n_blocks}, p={n_params}"
        raise IntegrationError(msg)
    df = (n_blocks - 1) * n_params
    if df == 0:
        msg = (
            "goodness-of-fit test is unavailable with a single block: "
            "there are no over-identifying restrictions (df = 0)"
        )
        raise IntegrationError(msg)
    if not math.isfinite(q_stat) or q_stat < 0.0:
        msg = f"q_stat must be finite and >= 0, got {q_stat!r}"
        raise IntegrationError(msg)
    return df, 1.0 - chi2_cdf(q_stat, df)


@dataclass(frozen=True)
class CoefficientTest:
    """Wald inference for one coefficient."""

    estimate: float
    std_error: float
    z_value: float
    p_value: float
    ci_lower: float
    ci_upper: float


def _wald_from(beta: np.ndarray, covariance: np.ndarray) -> tuple[CoefficientTest, ...]:
    out = []
    for q in range(beta.shape[0]):
        se = math.sqrt(covariance[q, q])
        z = beta[q] / se
        # 2 * Phi(-|z|) == 2 * (1 - Phi(|z|)) but keeps the far tail
        # instead of cancelling it against 1.
        p_val = 2.0 * normal_cdf(-abs(z))
        out.append(
            CoefficientTest(
                estimate=float(beta[q]),
                std_error=se,
                z_value=float(z),
                p_value=float(p_val),
                ci_lower=float(beta[q] - 1.96 * se),
                ci_upper=float(beta[q] + 1.96 * se),
            )
        )
    return tuple(out)


@dataclass(frozen=True, eq=False)
class IntegratedFit:
    """Combined estimate across blocks with inference.

    Attributes
    ----------
    beta_dimm : ndarray, shape (p,)
        The integrated estimate.
    covariance : ndarray, shape (p, p)
        Delete-one-subject jackknife covariance of ``beta_dimm`` (see
        :func:`jackknife_covariance`); ``std_errors`` and ``wald`` use it.
        It carries the sampling noise of the weight matrix, which the
        asymptotic formula leaves out.
    covariance_asymptotic : ndarray, shape (p, p)
        Asymptotic covariance ``(N sum_jk S_j W_jk S_k)^(-1)`` (already
        divided by N), which treats the weight matrix as known.
    q_stat : float
        Q_N at ``beta_dimm``.
    gof_df : int
        Over-identification degrees of freedom (0 when J = 1).
    gof_pvalue : float or None
        Upper-tail chi-square probability; None when J = 1 (the test is
        refused, not silently passed).
    wald : tuple of CoefficientTest
        Per-coefficient Wald inference.
    block_names : tuple of str
        Names of the integrated blocks, in order.
    n_subjects : int
        Panel size N.
    ridge_used : float
        Diagonal loading applied to the weight matrix (0.0 if none).
    """

    beta_dimm: np.ndarray
    covariance: np.ndarray
    covariance_asymptotic: np.ndarray
    q_stat: float
    gof_df: int
    gof_pvalue: float | None
    wald: tuple[CoefficientTest, ...]
    block_names: tuple[str, ...]
    n_subjects: int
    ridge_used: float

    def __post_init__(self) -> None:
        for name in ("beta_dimm", "covariance", "covariance_asymptotic"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "block_names", tuple(self.block_names))

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))

    @property
    def asymptotic_std_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance_asymptotic))

    @property
    def n_blocks(self) -> int:
        return len(self.block_names)


def wald_tests(fit: IntegratedFit) -> tuple[CoefficientTest, ...]:
    """Per-coefficient Wald tests of H0: beta_q = 0 for an integrated fit.

    Recomputes from the stored estimate and covariance; the result is
    identical to ``fit.wald``.
    """
    return _wald_from(fit.beta_dimm, fit.covariance)


def integrate_fits(
    fits: Sequence[BlockFit],
    *,
    subset: Sequence[str] | None = None,
) -> IntegratedFit:
    """Run the full integration step over block fits.

    Parameters
    ----------
    fits : sequence of BlockFit
        Per-block fits, in block order.
    subset : sequence of str, optional
        Integrate only the named blocks (sub-group analysis). Selection
        preserves fit order; integrating a subset is bit-identical to
        running on a panel that contains only those blocks, given the
        same fits.

    Returns
    -------
    IntegratedFit
        ``covariance`` is the jackknife (:func:`jackknife_covariance`),
        ``covariance_asymptotic`` the analytic (:func:`dimm_covariance`).
    """
    fits = list(fits)
    if subset is not None:
        wanted = list(subset)
        names = [f.name for f in fits]
        missing = [w for w in wanted if w not in names]
        if missing:
            msg = f"subset names not found among fits: {missing}; known: {names}"
            raise IntegrationError(msg)
        if len(set(wanted)) != len(wanted):
            msg = f"subset names contain duplicates: {wanted}"
            raise IntegrationError(msg)
        keep = [i for i, name in enumerate(names) if name in set(wanted)]
        fits = [fits[i] for i in keep]

    n, p = _check_fits(fits)
    scores = stack_scores(fits)
    weights = weight_matrix(scores)
    beta = one_step_estimator(fits, weights)
    cov_asymptotic = dimm_covariance(fits, weights)
    cov = jackknife_covariance(fits, weights)
    q_val = q_statistic(beta, fits, weights)
    if len(fits) > 1:
        gof_df, gof_p = gof_test(q_val, len(fits), p)
    else:
        gof_df, gof_p = 0, None
    return IntegratedFit(
        beta_dimm=beta,
        covariance=cov,
        covariance_asymptotic=cov_asymptotic,
        q_stat=q_val,
        gof_df=gof_df,
        gof_pvalue=gof_p,
        wald=_wald_from(beta, cov),
        block_names=tuple(f.name for f in fits),
        n_subjects=n,
        ridge_used=weights.ridge_used,
    )
