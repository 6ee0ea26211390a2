"""Pairwise composite likelihood for one response block.

A block of ``m`` correlated Gaussian coordinates is fit by the product of
all ``m (m - 1) / 2`` within-block bivariate normal margins over the N
subjects. Each pair (r, t) contributes the bivariate density with mean
``(x_ir' beta, x_it' beta)`` and covariance ``sigma^2 [[1, c], [c, 1]]``
where ``c`` is the working-family correlation at lag ``|r - t|``. The
maximizer of this pairwise objective over ``(beta, sigma, rho)`` is the
block's composite-likelihood estimate; the fit also returns per-subject
score vectors and sensitivities, which are exactly the ingredients the
integration step consumes.

The Gaussian identity link makes all of this closed form but for one
scalar:

* the log-CL depends on the data only through per-lag moments, and all
  of them are sums of blocks of one Gram matrix ``Z'Z``, with ``Z = [X |
  y]`` reshaped to (N, m (p + 1));
* at fixed rho, ``beta_hat(rho)`` is one linear solve, and sigma cancels
  out of it;
* ``sigma_hat^2(rho) = sum_d R_d / (2 N n_pairs)`` with ``R_d = (q0_d -
  2 c_d q1_d) / (1 - c_d^2)``, from the per-lag residual square and
  cross sums ``q0_d``, ``q1_d``;
* the scores are affine in beta: subject i's beta-score is ``X_i' K
  e_i`` with the m x m kernel K of :meth:`_BlockArrays.kernel`.

The fit is therefore a 1-D search over the profile log-CL in rho. The
profile is evaluated on a fixed grid over the admissible interval, and
its analytic score is solved inside the grid bracket of the best point
by a bracketed root step (:func:`_score_root`: secant and inverse
quadratic steps, safeguarded by bisection). The grid's best value is
kept as a certificate that the refined point is the global maximum over
the grid. Every step is
equivariant under a rescaling of the responses, and the post-fit checks
are relative to scale.

Blocks are fit one after another in the calling process. Each fit is
independent of the others, which is what lets the paper spread them over
machines; here a fit takes milliseconds, less than starting a worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from dimm.errors import FitError
from dimm.model import (
    AR1,
    Dependence,
    PairCovariance,
    PanelDataset,
    partition_dataset,
)

if TYPE_CHECKING:
    from collections.abc import Callable

    from dimm.model import BlockPartition

__all__ = [
    "BlockFit",
    "OptimizerTrace",
    "bivariate_normal_logpdf",
    "block_logcl",
    "block_score_beta",
    "block_score_gamma",
    "block_sensitivity",
    "fit_block",
    "fit_blocks",
]

_LOG_2PI = math.log(2.0 * math.pi)
# Size of the rho grid that brackets the profile maximum; it changes
# which bracket is refined, not the answer, as long as the profile has
# one maximum between neighbouring grid points.
_GRID_POINTS = 41
# Bound on the scale-relative score sup-norms at the returned fit (see
# OptimizerTrace); a fit above it is refused.
_ACCEPT_TOL = 1e-6
# Distance of the outermost probe from each end of the rho interval, as
# a fraction of its length; a profile still rising there puts rho at its
# bound.
_EDGE = 1e-9
# The root step on the rho-score stops once the bracket around the root
# is narrower than _RHO_XTOL + _RHO_RTOL * |rho|, or fails after
# _ROOT_MAX_EVALS score evaluations.
_RHO_XTOL = 1e-13
_RHO_RTOL = 4.0 * np.finfo(np.float64).eps
_ROOT_MAX_EVALS = 100
# A residual variance below this fraction of the response mean square is
# an exact fit: the Gram-matrix moments cannot resolve it.
_EXACT_FIT = 1e-12
# Roundoff allowance when the refined profile is compared with the grid.
_CERT_RTOL = 1e-12


def bivariate_normal_logpdf(
    y_pair: np.ndarray, mu_pair: np.ndarray, cov: PairCovariance
) -> float:
    """Log density of one coordinate pair under its bivariate margin.

    Parameters
    ----------
    y_pair, mu_pair : array-like, shape (2,)
        Observed pair and its mean.
    cov : PairCovariance
        Pair covariance ``sigma^2 [[1, c], [c, 1]]``.

    Returns
    -------
    float
        ``log f(y_pair; mu_pair, cov)``.
    """
    y = np.asarray(y_pair, dtype=np.float64).reshape(-1)
    mu = np.asarray(mu_pair, dtype=np.float64).reshape(-1)
    if y.shape != (2,) or mu.shape != (2,):
        msg = f"y_pair and mu_pair must each hold 2 values, got {y.shape} and {mu.shape}"
        raise ValueError(msg)
    if not (np.isfinite(y).all() and np.isfinite(mu).all()):
        msg = "y_pair and mu_pair must be finite"
        raise ValueError(msg)
    e1, e2 = y - mu
    c = cov.corr
    s2 = cov.sigma**2
    one_mc2 = 1.0 - c * c
    quad = (e1 * e1 - 2.0 * c * e1 * e2 + e2 * e2) / (s2 * one_mc2)
    return -_LOG_2PI - math.log(s2) - 0.5 * math.log(one_mc2) - 0.5 * quad


@dataclass(frozen=True)
class _Profile:
    """The profile log-CL and its rho-score at each of k rho values."""

    beta: np.ndarray  # (k, p)
    sigma2: np.ndarray  # (k,)
    logcl: np.ndarray  # (k,)
    score: np.ndarray  # (k,)


class _BlockArrays:
    """Per-lag design and response moments of one block.

    With ``z_r = (x_r', y_r)'`` for coordinate r, the Gram matrix of ``Z =
    [X | y]`` holds every ``sum_i z_ir z_it'``. For lag d, summed over the
    subjects and the pairs (r, t = r + d):

    * ``a_mats[d] = sum (x_r x_r' + x_t x_t')``, ``u_vecs[d] = sum (y_r x_r
      + y_t x_t)``, ``s0[d] = sum (y_r^2 + y_t^2)`` come from its diagonal
      blocks;
    * ``b_mats[d] = sum (x_r x_t' + x_t x_r')``, ``v_vecs[d] = sum (y_t x_r
      + y_r x_t)``, ``s1[d] = sum y_r y_t`` from its lag-d off-diagonal
      blocks.

    The per-lag residual sums are then exact quadratic forms in beta,

        q0_d(beta) = s0_d - 2 u_d'beta + beta'A_d beta
        q1_d(beta) = s1_d -   v_d'beta + beta'B_d beta / 2,

    so every evaluation costs O(lags * p^2). (The subtraction loses
    accuracy only when the signal dwarfs the noise; :func:`fit_block`
    refuses such exact fits.)
    """

    def __init__(self, block: PanelDataset, structure: str) -> None:
        y = block.responses
        x = block.covariates
        n, m = y.shape
        p = x.shape[2]
        z = np.concatenate([x, y[:, :, None]], axis=2).reshape(n, m * (p + 1))
        # gram[r, t] = sum_i z_ir z_it', shape (m, m, p + 1, p + 1).
        gram = (z.T @ z).reshape(m, p + 1, m, p + 1).transpose(0, 2, 1, 3)
        lags = np.arange(1, m)
        counts = m - lags
        r_idx = np.concatenate([np.arange(c) for c in counts])
        t_idx = r_idx + np.repeat(lags, counts)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        cross = np.add.reduceat(gram[r_idx, t_idx], starts, axis=0)
        # Diagonal blocks summed over r < m - d and over t >= d.
        diag = np.cumsum(gram[np.arange(m), np.arange(m)], axis=0)
        diag = np.concatenate([np.zeros((1, p + 1, p + 1)), diag])
        square = diag[counts] + (diag[m] - diag[lags])

        self.structure = structure
        self.n_subjects = n
        self.block_size = m
        self.n_params = p
        self.n_pairs = m * (m - 1) // 2
        self.response_ms = float(np.mean(y * y))
        self.lags = lags
        self.lag_counts = counts
        self.a_mats = square[:, :p, :p]
        self.u_vecs = square[:, :p, p]
        self.s0 = square[:, p, p]
        self.b_mats = cross[:, :p, :p] + np.swapaxes(cross[:, :p, :p], 1, 2)
        self.v_vecs = cross[:, :p, p] + cross[:, p, :p]
        self.s1 = cross[:, p, p]
        self.rho_lower = -1.0 if structure == AR1 else -1.0 / (m - 1)
        self.rho_upper = 1.0

    def lag_correlations(self, rho: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-lag correlations and their rho-derivatives, shape (..., lags)."""
        rho = np.asarray(rho, dtype=np.float64)[..., None]
        lags = self.lags.astype(np.float64)
        if self.structure == AR1:
            return np.power(rho, lags), lags * np.power(rho, lags - 1.0)
        c = np.broadcast_to(rho, rho.shape[:-1] + lags.shape)
        return c, np.ones_like(c)

    # -- parameter-dependent quantities -----------------------------------

    def residual_moments(self, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-lag residual square/cross sums (q0, q1), shape (..., lags)."""
        q0 = (
            self.s0
            - 2.0 * (beta @ self.u_vecs.T)
            + np.einsum("...p,dpq,...q->...d", beta, self.a_mats, beta)
        )
        q1 = (
            self.s1
            - beta @ self.v_vecs.T
            + 0.5 * np.einsum("...p,dpq,...q->...d", beta, self.b_mats, beta)
        )
        return q0, q1

    def logcl(self, beta: np.ndarray, sigma: float, rho: float) -> float:
        """Total log composite likelihood."""
        q0, q1 = self.residual_moments(beta)
        c, _ = self.lag_correlations(rho)
        one_mc2 = 1.0 - c * c
        s2 = sigma * sigma
        n_terms = self.lag_counts * self.n_subjects
        const = -n_terms * (_LOG_2PI + math.log(s2)) - 0.5 * n_terms * np.log(one_mc2)
        quad = (q0 - 2.0 * c * q1) / (2.0 * s2 * one_mc2)
        return float(np.sum(const - quad))

    def _rho_score(self, q0, q1, c, dc, s2):
        """Total rho-derivative of the log-CL from the per-lag sums."""
        w = 1.0 / (1.0 - c * c)
        d_c = self.lag_counts * self.n_subjects * c * w + (
            q1 * (1.0 + c * c) - c * q0
        ) * w * w / s2[..., None]
        return np.sum(dc * d_c, axis=-1)

    def mean_score_gamma(self, beta: np.ndarray, sigma: float, rho: float) -> np.ndarray:
        """Gradient of the mean log-CL in (sigma, rho)."""
        q0, q1 = self.residual_moments(beta)
        c, dc = self.lag_correlations(rho)
        n_terms = self.lag_counts * self.n_subjects
        r = (q0 - 2.0 * c * q1) / (1.0 - c * c)
        d_sigma = float(np.sum(-2.0 * n_terms / sigma + r / sigma**3))
        d_rho = float(self._rho_score(q0, q1, c, dc, np.asarray(sigma * sigma)))
        return np.array([d_sigma, d_rho]) / self.n_subjects

    def _normal_equations(self, rho) -> tuple[np.ndarray, np.ndarray]:
        """Sensitivity and score target times sigma^2, shape (..., p, p), (..., p)."""
        c, _ = self.lag_correlations(rho)
        w = 1.0 / (1.0 - c * c)
        lhs = np.einsum("...d,dpq->...pq", w, self.a_mats) - np.einsum(
            "...d,dpq->...pq", w * c, self.b_mats
        )
        rhs = w @ self.u_vecs - (w * c) @ self.v_vecs
        return lhs, rhs

    def profile(self, rhos: np.ndarray) -> _Profile:
        """beta_hat(rho), sigma_hat^2(rho), the profile log-CL and its score."""
        rhos = np.asarray(rhos, dtype=np.float64)
        lhs, rhs = self._normal_equations(rhos)
        beta = np.linalg.solve(lhs, rhs[..., None])[..., 0]
        q0, q1 = self.residual_moments(beta)
        c, dc = self.lag_correlations(rhos)
        n_terms = self.lag_counts * self.n_subjects
        sigma2 = np.sum((q0 - 2.0 * c * q1) / (1.0 - c * c), axis=-1) / (2.0 * n_terms.sum())
        # At sigma_hat^2 the quadratic terms of the log-CL sum to the
        # number of pair terms, hence the + 1. A non-positive sigma2 (an
        # exact fit) gives nan here and is refused by the caller.
        with np.errstate(invalid="ignore", divide="ignore"):
            logcl = (
                -n_terms.sum() * (_LOG_2PI + np.log(sigma2) + 1.0)
                - 0.5 * np.log(1.0 - c * c) @ n_terms
            )
        return _Profile(beta, sigma2, logcl, self._rho_score(q0, q1, c, dc, sigma2))

    def mean_score_beta(self, beta: np.ndarray, sigma: float, rho: float) -> np.ndarray:
        """Mean beta-score (gradient of the mean log-CL in beta)."""
        lhs, rhs = self._normal_equations(rho)
        return (rhs - lhs @ beta) / (sigma * sigma * self.n_subjects)

    def sensitivity(self, sigma: float, rho: float) -> np.ndarray:
        """Sensitivity (1/N) sum_i sum_pairs Xpair' Omega^-1 Xpair.

        Exact for the Gaussian identity link: the expression is free of
        beta, so only the working covariance enters.
        """
        lhs, _ = self._normal_equations(rho)
        return lhs / (sigma * sigma * self.n_subjects)

    def kernel(self, sigma: float, rho: float) -> np.ndarray:
        """The m x m matrix K with per-subject beta-score ``X_i' K e_i``.

        Off the diagonal, ``K[r, t] = -g c`` at lag ``|r - t|``; on it,
        ``K[r, r]`` is the sum of ``g`` over ``t != r``, where
        ``g = 1 / (sigma^2 (1 - c^2))``.
        """
        c_lag, _ = self.lag_correlations(rho)
        g_lag = 1.0 / (sigma * sigma * (1.0 - c_lag * c_lag))
        m = self.block_size
        g = np.zeros(m)
        gc = np.zeros(m)
        g[self.lags] = g_lag
        gc[self.lags] = g_lag * c_lag
        lag = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
        k = -gc[lag]
        k[np.diag_indices(m)] = g[lag].sum(axis=1)
        return k

    def subject_terms(
        self, block: PanelDataset, beta: np.ndarray, sigma: float, rho: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-subject scores ``X_i' K e_i`` (N, p) and sensitivities
        ``H_i = X_i' K X_i`` (N, p, p); the mean of ``H_i`` is
        :meth:`sensitivity`."""
        x = block.covariates
        kx = self.kernel(sigma, rho) @ x  # (N, m, p)
        scores = np.einsum("nmp,nm->np", kx, block.responses - x @ beta)
        h = np.swapaxes(x, 1, 2) @ kx
        return scores, (h + np.swapaxes(h, 1, 2)) / 2.0


def _arrays_for(block: PanelDataset, gamma: Dependence) -> _BlockArrays:
    gamma.validate_for_size(block.n_coordinates)
    return _BlockArrays(block, gamma.structure)


def block_logcl(beta: np.ndarray, gamma: Dependence, block: PanelDataset) -> float:
    """Total log composite likelihood of a block at ``(beta, gamma)``.

    Sums the bivariate log densities of every within-block coordinate
    pair over all subjects.
    """
    arrays = _arrays_for(block, gamma)
    beta = np.asarray(beta, dtype=np.float64).reshape(-1)
    return arrays.logcl(beta, gamma.sigma, gamma.rho)


def block_score_beta(beta: np.ndarray, gamma: Dependence, block: PanelDataset) -> np.ndarray:
    """Per-subject beta-scores, shape (N, p); row i is subject i's
    gradient of its own pairwise log likelihood in beta."""
    arrays = _arrays_for(block, gamma)
    beta = np.asarray(beta, dtype=np.float64).reshape(-1)
    return arrays.subject_terms(block, beta, gamma.sigma, gamma.rho)[0]


def block_score_gamma(beta: np.ndarray, gamma: Dependence, block: PanelDataset) -> np.ndarray:
    """Gradient of the mean log-CL in (sigma, rho), in closed form."""
    arrays = _arrays_for(block, gamma)
    beta = np.asarray(beta, dtype=np.float64).reshape(-1)
    return arrays.mean_score_gamma(beta, gamma.sigma, gamma.rho)


def block_sensitivity(beta: np.ndarray, gamma: Dependence, block: PanelDataset) -> np.ndarray:
    """Sensitivity matrix (1/N) sum over subjects and pairs of
    ``Xpair' Omega^-1 Xpair``; beta enters the signature for interface
    uniformity only (the Gaussian identity link makes it beta-free)."""
    arrays = _arrays_for(block, gamma)
    return arrays.sensitivity(gamma.sigma, gamma.rho)


@dataclass(frozen=True)
class OptimizerTrace:
    """Diagnostics from one block fit.

    ``simplex_iterations`` counts the profile evaluations that bracket
    the maximum (the grid, plus one probe next to a bound when the best
    grid point is the outermost one), ``newton_iterations`` the score
    evaluations of the root step that refines it (the scores at the
    bracket ends come from the grid and are not counted again), and
    ``restarts`` is always 0; the names are those of an earlier
    optimizer, kept because perfbench's ``pairwise.iterations`` and
    ``restart_frac`` probes read them.

    ``grid_logcl`` is the best profile log-CL on the grid and ``logcl``
    the refined one; ``logcl >= grid_logcl`` certifies that the fit is
    the global maximum over the grid. ``rel_beta_score`` is the sup-norm
    of the mean beta-score divided by ``|S| |beta| + sqrt(diag S)``
    (S the sensitivity), and ``rel_gamma_score`` that of the
    (sigma, rho)-score scaled to ``(sigma d/dsigma, d/drho) / (2
    n_pairs, n_pairs)``; both are free of the response scale.
    """

    simplex_iterations: int
    newton_iterations: int
    restarts: int
    grid_logcl: float
    logcl: float
    rel_beta_score: float
    rel_gamma_score: float
    converged: bool


@dataclass(frozen=True, eq=False)
class BlockFit:
    """Result of one block's composite-likelihood fit.

    Attributes
    ----------
    name : str
        Block label (keys sub-group selection downstream).
    structure : str
        Working family that was fit ("ar1" or "cs").
    beta_hat : ndarray, shape (p,)
        Mean-parameter estimate.
    gamma_hat : Dependence
        Fitted working family with (sigma, rho).
    subject_scores : ndarray, shape (N, p)
        Per-subject beta-scores at the optimum; column means are ~0.
    sensitivity : ndarray, shape (p, p)
        Sensitivity matrix at the optimum (symmetric positive definite).
    subject_sensitivities : ndarray, shape (N, p, p)
        Per-subject sensitivities ``H_i``; their mean is ``sensitivity``.
        The score is affine in beta, ``psi_i(b) = psi_i(beta_hat) -
        H_i (b - beta_hat)``, so these give every subject's score at any
        beta without another data pass.
    logcl : float
        Total log composite likelihood at the optimum.
    n_pairs : int
        Number of coordinate pairs in the block.
    trace : OptimizerTrace
        Search diagnostics.
    """

    name: str
    structure: str
    beta_hat: np.ndarray
    gamma_hat: Dependence
    subject_scores: np.ndarray
    sensitivity: np.ndarray
    subject_sensitivities: np.ndarray
    logcl: float
    n_pairs: int
    trace: OptimizerTrace

    def __post_init__(self) -> None:
        beta = np.array(self.beta_hat, dtype=np.float64, copy=True)
        scores = np.array(self.subject_scores, dtype=np.float64, copy=True)
        sens = np.array(self.sensitivity, dtype=np.float64, copy=True)
        subject_sens = np.array(self.subject_sensitivities, dtype=np.float64, copy=True)
        for arr in (beta, scores, sens, subject_sens):
            arr.setflags(write=False)
        object.__setattr__(self, "beta_hat", beta)
        object.__setattr__(self, "subject_scores", scores)
        object.__setattr__(self, "sensitivity", sens)
        object.__setattr__(self, "subject_sensitivities", subject_sens)

    @property
    def n_subjects(self) -> int:
        return self.subject_scores.shape[0]

    @property
    def n_params(self) -> int:
        return self.beta_hat.shape[0]


def _score_root(
    score: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    name: str,
) -> tuple[float, int]:
    """Root of the rho-score between ``lo`` and ``hi``, whose scores
    ``f_lo`` and ``f_hi`` differ in sign (or one is zero).

    Brent's method (Brent 1973, ch. 4): ``x_cur`` is the best estimate
    and ``[x_cur, x_blk]`` brackets the root. Each step is a secant or
    inverse quadratic interpolation step when that step is short against
    the last two, and a bisection otherwise. The known end scores are
    not recomputed.

    Returns (root, score evaluations).
    """
    x_pre, x_cur, f_pre, f_cur = lo, hi, f_lo, f_hi
    if f_pre == 0.0:
        return x_pre, 0
    x_blk = f_blk = s_pre = s_cur = 0.0
    n_evals = 0
    while True:
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (_RHO_XTOL + _RHO_RTOL * abs(x_cur)) / 2.0
        s_bis = (x_blk - x_cur) / 2.0
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur, n_evals
        if n_evals == _ROOT_MAX_EVALS:
            msg = (
                f"block {name!r}: the rho-score root step did not converge in "
                f"{_ROOT_MAX_EVALS} evaluations (bracket [{min(x_cur, x_blk):.17g}, "
                f"{max(x_cur, x_blk):.17g}])"
            )
            raise FitError(msg)
        interpolate = abs(s_pre) > delta and abs(f_cur) < abs(f_pre)
        if interpolate:
            if x_pre == x_blk:
                trial = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                trial = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (
                    d_blk * d_pre * (f_blk - f_pre)
                )
            interpolate = 2.0 * abs(trial) < min(abs(s_pre), 3.0 * abs(s_bis) - delta)
        if interpolate:
            s_pre, s_cur = s_cur, trial
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        if abs(s_cur) > delta:
            x_cur += s_cur
        else:
            x_cur += delta if s_bis > 0.0 else -delta
        f_cur = score(x_cur)
        n_evals += 1


def _maximize_profile(arrays: _BlockArrays, name: str) -> tuple[float, float, int, int]:
    """Locate the profile maximum in rho.

    Returns (rho_hat, best grid log-CL, profile evaluations, score
    evaluations of the root step).
    """
    lo, hi = arrays.rho_lower, arrays.rho_upper
    k = _GRID_POINTS
    grid = lo + (hi - lo) * np.arange(1, k + 1) / (k + 1)
    prof = arrays.profile(grid)
    floor = float(np.min(prof.sigma2))
    if not floor > _EXACT_FIT * arrays.response_ms:
        msg = (
            f"block {name!r}: exact fit, the residuals vanish (sigma_hat^2 = "
            f"{floor:.3g} against a response mean square of {arrays.response_ms:.3g}); "
            "sigma and rho are not identified"
        )
        raise FitError(msg)
    best = int(np.argmax(prof.logcl))
    n_evals = k

    # The maximum lies on the side the score points to: up to the next
    # grid point, or up to the probe next to the bound.
    rising = prof.score[best] >= 0.0
    inner = float(grid[best])
    outer_index = best + 1 if rising else best - 1
    if 0 <= outer_index < k:
        outer, outer_score = float(grid[outer_index]), float(prof.score[outer_index])
    else:
        outer = hi - _EDGE * (hi - lo) if rising else lo + _EDGE * (hi - lo)
        outer_score = float(arrays.profile(np.array([outer])).score[0])
        n_evals += 1
    if (outer_score >= 0.0) == rising:
        if not 0 <= outer_index < k:
            bound = hi if rising else lo
            msg = (
                f"block {name!r}: rho is at its bound {bound:.6g}: the profile "
                f"log-CL still {'rises' if rising else 'falls'} at rho = {outer:.10g} "
                "(duplicated or mirrored coordinates?)"
            )
            raise FitError(msg)
        msg = (
            f"block {name!r}: the profile log-CL has more than one turning point "
            f"between rho = {min(inner, outer):.6g} and {max(inner, outer):.6g}, "
            f"neighbours on the {k}-point rho grid"
        )
        raise FitError(msg)

    def score(rho: float) -> float:
        return float(arrays.profile(np.array([rho])).score[0])

    inner_score = float(prof.score[best])
    if inner < outer:
        bracket = (inner, outer, inner_score, outer_score)
    else:
        bracket = (outer, inner, outer_score, inner_score)
    rho_hat, n_root = _score_root(score, *bracket, name)
    return rho_hat, float(prof.logcl[best]), n_evals, n_root


def fit_block(
    block: PanelDataset,
    structure: Dependence | str,
    *,
    name: str = "block",
) -> BlockFit:
    """Fit one block by maximizing its pairwise composite likelihood.

    Parameters
    ----------
    block : PanelDataset
        The block's responses and covariates (M = block size).
    structure : Dependence or str
        Working family to fit ("ar1" or "cs"); parameter values inside a
        Dependence are ignored.
    name : str
        Label stored on the fit.

    Returns
    -------
    BlockFit

    Raises
    ------
    FitError
        With a message naming the cause: a constant response, an exact
        fit (residual variance at roundoff level), rho at the bound of
        its admissible interval, a profile with several turning points
        between grid neighbours, a refined maximum below the grid's, or
        scores above the acceptance tolerance.
    """
    family = structure.structure if isinstance(structure, Dependence) else structure
    arrays = _arrays_for(block, Dependence(family))
    y = block.responses
    if float(np.ptp(y)) == 0.0:
        msg = (
            f"block {name!r}: the response is constant (every value is "
            f"{float(y.flat[0]):.6g}); sigma and rho are not identified"
        )
        raise FitError(msg)

    rho, grid_logcl, n_evals, n_root = _maximize_profile(arrays, name)
    prof = arrays.profile(np.array([rho]))
    beta_hat = prof.beta[0]
    sigma = math.sqrt(float(prof.sigma2[0]))
    refined = float(prof.logcl[0])
    if refined < grid_logcl - _CERT_RTOL * abs(grid_logcl):
        msg = (
            f"block {name!r}: the refined profile log-CL {refined:.12g} is below the "
            f"maximum {grid_logcl:.12g} on the {_GRID_POINTS}-point rho grid"
        )
        raise FitError(msg)

    sens = arrays.sensitivity(sigma, rho)
    try:
        np.linalg.cholesky(sens)
    except np.linalg.LinAlgError:
        msg = f"block {name!r}: sensitivity matrix is not positive definite"
        raise FitError(msg) from None
    beta_scale = np.abs(sens) @ np.abs(beta_hat) + np.sqrt(np.diag(sens))
    beta_rel = float(np.max(np.abs(arrays.mean_score_beta(beta_hat, sigma, rho)) / beta_scale))
    gamma_score = arrays.mean_score_gamma(beta_hat, sigma, rho)
    gamma_rel = float(
        np.max(np.abs(gamma_score * np.array([sigma / 2.0, 1.0]) / arrays.n_pairs))
    )
    trace = OptimizerTrace(
        simplex_iterations=n_evals,
        newton_iterations=n_root,
        restarts=0,
        grid_logcl=grid_logcl,
        logcl=refined,
        rel_beta_score=beta_rel,
        rel_gamma_score=gamma_rel,
        converged=max(beta_rel, gamma_rel) <= _ACCEPT_TOL,
    )
    if not trace.converged:
        msg = (
            f"block {name!r} did not converge: relative beta-score sup-norm "
            f"{beta_rel:.3e}, relative gamma-score sup-norm {gamma_rel:.3e} "
            f"(tol {_ACCEPT_TOL:.1e})"
        )
        raise FitError(msg, trace=trace)

    scores, subject_sens = arrays.subject_terms(block, beta_hat, sigma, rho)
    return BlockFit(
        name=name,
        structure=arrays.structure,
        beta_hat=beta_hat,
        gamma_hat=Dependence(arrays.structure, sigma=sigma, rho=rho),
        subject_scores=scores,
        sensitivity=sens,
        subject_sensitivities=subject_sens,
        logcl=refined,
        n_pairs=arrays.n_pairs,
        trace=trace,
    )


def fit_blocks(data: PanelDataset, partition: BlockPartition) -> list[BlockFit]:
    """Fit every block of a partitioned panel, one after another, in block order."""
    return [
        fit_block(block_data, block.structure, name=block.name)
        for block_data, block in zip(partition_dataset(data, partition), partition.blocks)
    ]
