"""Pairwise composite likelihood for one response block.

A block of ``m`` correlated Gaussian coordinates is fit by the product of
all ``m (m - 1) / 2`` within-block bivariate normal margins over the N
subjects. Each pair (r, t) contributes the bivariate density with mean
``(x_ir' beta, x_it' beta)`` and covariance ``sigma^2 [[1, c], [c, 1]]``
where ``c`` is the working-family correlation at lag ``|r - t|``, as
:meth:`dimm.model.Dependence.lag_correlations` states it with its
rho-slope: the family is defined there, and this module only reads it. The
maximizer of this pairwise objective over ``(beta, sigma, rho)`` is the
block's composite-likelihood estimate; the fit also returns per-subject
score vectors and sensitivities, which are exactly the ingredients the
integration step consumes.

The Gaussian identity link makes all of this closed form but for one
scalar:

* the log-CL depends on the data only through the per-lag square and
  cross moments ``S_d``, ``C_d`` of ``Z = [X | y]`` (:class:`_BlockMoments`);
* at each rho, two weighted sums of them, ``G0`` and ``G1``
  (:func:`_grams`), hold every statistic. With ``v = (-beta, 1)``,
  ``beta_hat(rho)`` solves ``G0[:p, :p] beta = G0[:p, p]`` (sigma
  cancels out of it), ``sigma_hat^2(rho) = v'G0 v / (2 N n_pairs)``, and
  the rho-score is ``sum_d n_d c_d w_d c'_d + v'G1 v / sigma^2``, with
  ``n_d`` pair terms, correlation ``c_d``, ``c'_d = dc_d/drho`` and
  ``w_d = 1 / (1 - c_d^2)`` at lag d;
* the scores are affine in beta: subject i's beta-score is ``X_i' K
  e_i`` with the m x m kernel K of :meth:`_BlockMoments.kernel`;
* a subject-level column ``a_i 1`` (:attr:`~dimm.model.PanelDataset.subject_level`)
  is the same at every coordinate of a pair, so its part of ``S_d`` and
  ``C_d`` is a pair count times ``A'A`` or comes from ``A'Y``, and its
  part of ``X_i' K X_i`` and ``X_i' K e_i`` is ``(1'K1) a_i a_i'`` and
  ``a_i (K1)'e_i``. Only y and the other columns go through a Gram or
  through K (:class:`~dimm.model.ColumnSplit`); a design without such
  columns is read in full by the same code.

The fit is therefore a 1-D search over the profile log-CL in rho. The
profile is evaluated on a fixed grid over the admissible interval, and
its analytic score is solved inside the grid bracket of the best point
by a bracketed root step (:func:`_score_root`: secant and inverse
quadratic steps, safeguarded by bisection). The grid's best value is
kept as a certificate that the refined point is the global maximum over
the grid. That no second maximum hides inside one grid cell is not proved
here, for AR(1) least of all, since its lag correlations ``rho^d`` give no
polynomial profile score; the tests check every bundled block fit, and
misspecified, small and near-bound ones, against a 4,001-point grid.
One evaluation gives the profile, its score and the Grams
together, so the fit's checks (the sensitivity and the beta-, sigma-
and rho-scores) read the evaluation at rho_hat. Every step is
equivariant under a rescaling of the responses, and the post-fit checks
are relative to scale.

Each block's fit is independent of the others, which is what lets the
paper spread them over machines. Here a fit takes well under a millisecond,
mostly call overhead, so :func:`fit_blocks` fits a working family's blocks
in lock-step, one profile evaluation a round, each as :func:`fit_block` would.

A block is read through its :class:`_BlockMoments`: views of its
coordinates in the panel's responses and split, never copies, and its
per-lag moments. They do not depend on the working family, so
:func:`_moments_for` builds them once per panel and block and keeps them
on the panel (:meth:`~dimm.model.PanelDataset.derived`) for as long as it
lives: a second family fit on the same panel reuses them. The same Gram
decides whether the block's design identifies beta, by the rule
:func:`~dimm.model.check_identified` that
:class:`~dimm.model.PanelDataset` applies to the whole design at entry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from dimm._util import EXACT_FIT, cholesky, frozen
from dimm.errors import DataError, FitError
from dimm.model import ColumnSplit, Dependence, PanelDataset, check_identified
from dimm.model import partition_dataset  # noqa: F401  (unused; perfbench/tracing.py probes this name)

if TYPE_CHECKING:
    from collections.abc import Generator, Sequence

    from dimm.model import BlockPartition

__all__ = [
    "BlockFit",
    "OptimizerTrace",
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
# Roundoff allowance when the refined profile is compared with the grid.
_CERT_RTOL = 1e-12


@dataclass(frozen=True)
class _Profile:
    """The profile of each of J blocks at k rho values each, with the Grams it came from."""

    beta: np.ndarray  # (J, k, p)
    sigma2: np.ndarray  # (J, k)
    logcl: np.ndarray  # (J, k)
    score: np.ndarray  # (J, k)
    grams: np.ndarray  # (2, J, k, p + 1, p + 1): G0 and G1
    family_score: np.ndarray  # (J, k)

    def row(self, i: int) -> _Profile:
        grams, family_score = self.grams[:, i], self.family_score[i]
        return _Profile(self.beta[i], self.sigma2[i], self.logcl[i], self.score[i], grams, family_score)


@functools.lru_cache(maxsize=64)
def _pair_index(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs (r, t = r + d) of a block of m coordinates, ordered by lag
    d = 1 .. m - 1: their rows r, their columns t and where each lag's run
    starts. They depend on the block size alone, so blocks of one size share them."""
    lags = np.arange(1, m)
    counts = m - lags
    r_idx = np.concatenate([np.arange(c) for c in counts])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    t_idx = r_idx + np.repeat(lags, counts)
    return frozen(r_idx, np.intp), frozen(t_idx, np.intp), frozen(starts, np.intp)


class _BlockMoments:
    """Per-lag design and response moments of one block, free of the working family.

    With ``z_r = (x_r', y_r)'`` for coordinate r, summed over the subjects
    and the pairs (r, t = r + d) at lag d, the square moments are ``S_d =
    sum (z_r z_r' + z_t z_t')`` and the symmetrised cross moments ``C_d =
    sum (z_r z_t' + z_t z_r') / 2``. ``stacked`` is the array F of shape
    (2 (m - 1), (p + 1)^2) whose rows are ``S_1 .. S_{m-1}`` and then
    ``C_1 .. C_{m-1}``, each flattened, so a weighted sum over the lags of
    both is one product with F (:func:`_grams`).

    They are read through the block's :class:`~dimm.model.ColumnSplit`.
    The coordinate-level columns and y, ``w_r``, go through the Gram of
    ``W = [U | y]``, whose lag-d off-diagonal blocks give their part of
    ``C_d``. Every ``S_d`` is a difference of cumulative sums of the
    diagonal blocks ``sum_i z_ir z_ir'``. A subject-level column is the
    same at r and t, so its part of those blocks is ``A'A`` for every r
    and ``A'W_r`` against the rest, and its rows and columns of ``C_d``
    are half those of ``S_d``. So a block whose design is all
    subject-level pays an m x m Gram of y, not one of size m (p + 1).

    With ``v = (-beta, 1)``, ``v'S_d v`` and ``v'C_d v`` are the lag-d
    residual square and cross sums, exact quadratic forms in beta. (The
    subtraction they hide loses accuracy only when the signal dwarfs the
    noise; :func:`fit_block` refuses such exact fits.)

    ``y`` and ``split`` are the block's coordinates in its panel, the one
    view of the block that a fit reads; nothing here depends on the
    working family, so every family fit on the panel reuses them.

    The block's design Gram ``X_b'X_b`` is the sum of the diagonal
    blocks, so it also decides whether beta is identified in the block:
    :func:`~dimm.model.check_identified`, over the block's N m rows,
    refuses it with a :class:`DataError` that names the block.
    """

    def __init__(self, y: np.ndarray, split: ColumnSplit, name: str) -> None:
        n, m = y.shape
        a = split.a
        p = a.shape[1] + split.u.shape[2]
        lags = np.arange(1, m)
        counts = m - lags
        # The panel keeps F past the fit. Allocated ahead of the Gram's
        # temporaries, it sits below them in the heap instead of pinning
        # the space they free (with glibc, that fragmentation added 1.4 MB
        # to the peak RSS of a table1_full study).
        stacked = np.empty((2, m - 1, p + 1, p + 1))
        square, cross = stacked
        # z = [x | y] split as x is, y among the coordinate-level columns.
        w = np.concatenate([split.u, y[:, :, None]], axis=2)
        z = ColumnSplit(a, w, split.s, np.append(split.c, p))
        q = w.shape[2]
        w = w.reshape(n, m * q)
        # gram[r, t] = sum_i w_ir w_it', shape (m, m, q, q).
        gram = (w.T @ w).reshape(m, q, m, q).transpose(0, 2, 1, 3)
        # diag[k] = sum_{r < k} sum_i z_ir z_ir', for k = 0 .. m.
        diag = z.join_symmetric(
            np.arange(m + 1.0)[:, None, None] * (a.T @ a),
            _cumulative((a.T @ w).reshape(-1, m, q).transpose(1, 0, 2)),
            _cumulative(gram[np.arange(m), np.arange(m)]),
        )
        # Diagonal blocks summed over r < m - d and over t >= d.
        np.add(diag[counts], diag[m] - diag[lags], out=square)
        check_identified(diag[m, :p, :p], n * m, f"block {name!r}")
        cross[...] = square / 2.0  # right where z_r = z_t: the subject-level rows and columns
        r_idx, t_idx, starts = _pair_index(m)
        lagged = np.add.reduceat(gram[r_idx, t_idx], starts, axis=0)
        cross[:, z.c[:, None], z.c] = (lagged + np.swapaxes(lagged, 1, 2)) / 2.0

        self.y = y
        self.split = split
        self.n_subjects = n
        self.n_covariates = p
        self.block_size = m
        self.n_pairs = m * (m - 1) // 2
        self.response_ms = float(np.mean(y * y))
        self.constant_response = float(np.ptp(y)) == 0.0
        self.lags = lags
        self.n_terms = (counts * n).astype(np.float64)  # pair terms at each lag
        self.n_total = n * self.n_pairs  # their sum
        self.stacked = frozen(stacked.reshape(2 * (m - 1), (p + 1) ** 2))

    def kernel(self, gamma: Dependence) -> np.ndarray:
        """The m x m matrix K with per-subject beta-score ``X_i' K e_i`` under ``gamma``.

        Off the diagonal, ``K[r, t] = -g c`` at lag ``|r - t|``; on it,
        ``K[r, r]`` is the sum of ``g`` over ``t != r``, where
        ``g = 1 / (sigma^2 (1 - c^2))``.
        """
        c_lag, _ = gamma.lag_correlations(self.lags)
        g_lag = 1.0 / (gamma.sigma * gamma.sigma * (1.0 - c_lag * c_lag))
        m = self.block_size
        g = np.zeros(m)
        gc = np.zeros(m)
        g[1:] = g_lag
        gc[1:] = g_lag * c_lag
        lag = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
        k = -gc[lag]
        k[np.diag_indices(m)] = g[lag].sum(axis=1)
        return k

    def subject_terms(self, beta: np.ndarray, gamma: Dependence) -> tuple[np.ndarray, np.ndarray]:
        """Per-subject scores ``X_i' K e_i`` (N, p) and sensitivities
        ``H_i = X_i' K X_i`` (N, p, p) under ``gamma``; the mean of ``H_i``
        is the sensitivity of :meth:`checks`.

        A subject-level column ``a_i 1`` enters in closed form: ``X_i' K X_i``
        takes ``(1'K1) a_i a_i'`` and ``a_i (K1)'U_i`` against the
        coordinate-level columns U, and ``X_i' K e_i`` takes ``a_i (K1)'e_i``.
        The residuals are read through ``K1``, ``K U_i`` and ``U_i' K U_i``,
        which ``H_i`` needs too, so no (N, m) array of them is formed.
        """
        split = self.split
        a, u, beta_s, beta_c = split.a, split.u, beta[split.s], beta[split.c]
        k = self.kernel(gamma)
        k1 = k.sum(axis=1)
        ku, k1u, fitted = k @ u, k1 @ u, a @ beta_s
        h_cc = np.swapaxes(u, 1, 2) @ ku
        scores = split.join(
            (self.y @ k1 - fitted * k1.sum() - k1u @ beta_c)[:, None] * a,
            (self.y[:, None, :] @ ku)[:, 0, :] - fitted[:, None] * k1u - h_cc @ beta_c,
        )
        h = split.join_symmetric(
            (k1.sum() * a)[:, :, None] * a[:, None, :],
            a[:, :, None] * k1u[:, None, :],
            (h_cc + np.swapaxes(h_cc, 1, 2)) / 2.0,
        )
        return scores, h

    def checks(
        self, grams: np.ndarray, family_score: float, beta: np.ndarray, sigma: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sensitivity, mean beta-score and mean (sigma, rho)-score from the
        block's ``G0`` and ``G1`` at one rho (:func:`_grams`).

        The sensitivity (1/N) sum_i sum_pairs Xpair' Omega^-1 Xpair is
        exact for the Gaussian identity link and free of beta.
        """
        g0, p, s2, n = grams[0], self.n_covariates, sigma * sigma, self.n_subjects
        quad0, quad1 = _quadratic_forms(grams, beta)
        d_sigma = -2.0 * self.n_total / sigma + quad0 / (s2 * sigma)
        return (
            g0[:p, :p] / (s2 * n),
            (g0[:p, p] - g0[:p, :p] @ beta) / (s2 * n),
            np.array([d_sigma, family_score + quad1 / s2]) / n,
        )


def _cumulative(blocks: np.ndarray) -> np.ndarray:
    """Sums of the first k of ``blocks`` (m, ...) for k = 0 .. m."""
    out = np.zeros((blocks.shape[0] + 1,) + blocks.shape[1:])
    np.cumsum(blocks, axis=0, out=out[1:])
    return out


def _quadratic_forms(grams: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``v'G v`` at ``v = (-beta, 1)`` for each matrix G of ``grams``
    (..., p + 1, p + 1), with beta (..., p) broadcast against them."""
    v = np.concatenate([-beta, np.ones(beta.shape[:-1] + (1,))], axis=-1)
    return np.einsum("...i,...ij,...j->...", v, grams, v)


def _grams(
    moments: Sequence[_BlockMoments], dependence: Dependence, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``G0`` and ``G1`` of each block of ``moments`` at its rhos, row j of
    ``rho`` (J, k), shape (2, J, k, p + 1, p + 1).

    With ``w_d = 1 / (1 - c_d^2)``, ``G0 = sum_d w_d (S_d - 2 c_d C_d)``
    and ``G1 = sum_d c'_d w_d^2 ((1 + c_d^2) C_d - c_d S_d)``, both one
    product of the lag weights with the block's stacked moments F. Also
    returns, shape (J, k), the terms of the log-CL and of its rho-score
    that are free of the data: ``sum_d n_d log(1 - c_d^2)`` and ``sum_d
    n_d c_d w_d c'_d``. :class:`~dimm.model.Dependence` states the
    correlations ``c_d`` and slopes ``c'_d``; it enters only here, at fit
    time, so the moments are shared by every family fit on the panel.
    """
    q = moments[0].n_covariates + 1
    grams = np.empty((2, *rho.shape, q, q))
    free = np.empty((2, *rho.shape))
    c, dc = dependence.lag_correlations(np.arange(1, max(b.block_size for b in moments)), rho)
    c2 = c * c
    one_mc2 = 1.0 - c2
    w = 1.0 / one_mc2
    cw = c * w
    dw2 = dc * w * w
    # Weights of S and C in G0 and G1, then the data-free terms, at the largest block's lags.
    terms = np.stack([w, -2.0 * cw, -c * dw2, (1.0 + c2) * dw2, np.log(one_mc2), cw * dc])
    # One product per block: a batch padded with zero lags would be summed by BLAS in
    # another order, and move root steps.
    for j, b in enumerate(moments):
        part = terms[:, j, :, : b.block_size - 1]
        weights = np.concatenate([part[0:4:2], part[1:4:2]], -1)
        grams[:, j] = (weights @ b.stacked).reshape(*weights.shape[:-1], q, q)
        free[:, j] = part[4:] @ b.n_terms
    return grams, free[0], free[1]


def _profile(moments: Sequence[_BlockMoments], dependence: Dependence, rhos: np.ndarray) -> _Profile:
    """beta_hat(rho), sigma_hat^2(rho), the profile log-CL and its score of
    each block of ``moments`` at its rhos, row j of ``rhos`` (J, k)."""
    grams, log_det, family_score = _grams(moments, dependence, rhos)
    g0 = grams[0]
    p = moments[0].n_covariates
    beta = np.linalg.solve(g0[..., :p, :p], g0[..., :p, p:])[..., 0]
    quad = _quadratic_forms(grams, beta)
    n_total = np.array([[float(b.n_total)] for b in moments])
    sigma2 = quad[0] / (2.0 * n_total)
    # At sigma_hat^2 the quadratic terms of the log-CL sum to the
    # number of pair terms, hence the + 1. A non-positive sigma2 (an
    # exact fit) gives nan here and is refused by the caller.
    with np.errstate(invalid="ignore", divide="ignore"):
        logcl = -n_total * (_LOG_2PI + np.log(sigma2) + 1.0) - 0.5 * log_det
        score = family_score + quad[1] / sigma2
    return _Profile(beta, sigma2, logcl, score, grams, family_score)


def _moments_for(panel: PanelDataset, start: int, stop: int, name: str = "block") -> _BlockMoments:
    """The moments of coordinates ``start:stop`` of ``panel``, kept on the panel."""

    def build() -> _BlockMoments:
        split = panel.split
        block = ColumnSplit(split.a, split.u[:, start:stop], split.s, split.c)
        return _BlockMoments(panel.responses[:, start:stop], block, name)

    return panel.derived((_BlockMoments, start, stop), build)


def _block_moments(block: PanelDataset | _BlockMoments, name: str = "block") -> _BlockMoments:
    """The moments of a whole panel as one block, or ``block`` if it is moments already."""
    if isinstance(block, PanelDataset):
        return _moments_for(block, 0, block.n_coordinates, name)
    return block


def _checks_at(beta: np.ndarray, gamma: Dependence, block: PanelDataset) -> tuple[np.ndarray, ...]:
    """:meth:`_BlockMoments.checks` of one block at ``(beta, gamma)``."""
    b = _block_moments(block)
    beta = np.asarray(beta, dtype=np.float64).reshape(-1)
    grams, _, family_score = _grams([b], gamma, np.array([[gamma.rho]]))
    return b.checks(grams[:, 0, 0], family_score[0, 0], beta, gamma.sigma)


def block_logcl(beta: np.ndarray, gamma: Dependence, block: PanelDataset) -> float:
    """Total log composite likelihood of a block at ``(beta, gamma)``.

    Sums the bivariate log densities of every within-block coordinate
    pair over all subjects.
    """
    b = _block_moments(block)
    beta = np.asarray(beta, dtype=np.float64).reshape(-1)
    grams, log_det, _ = _grams([b], gamma, np.array([[gamma.rho]]))
    s2 = gamma.sigma * gamma.sigma
    quad = _quadratic_forms(grams[0, 0, 0], beta)
    return float(-b.n_total * (_LOG_2PI + math.log(s2)) - 0.5 * log_det[0, 0] - quad / (2.0 * s2))


def block_score_beta(beta: np.ndarray, gamma: Dependence, block: PanelDataset) -> np.ndarray:
    """Per-subject beta-scores, shape (N, p); row i is subject i's
    gradient of its own pairwise log likelihood in beta."""
    return _block_moments(block).subject_terms(np.asarray(beta, dtype=np.float64).reshape(-1), gamma)[0]


def block_score_gamma(beta: np.ndarray, gamma: Dependence, block: PanelDataset) -> np.ndarray:
    """Gradient of the mean log-CL in (sigma, rho), in closed form."""
    return _checks_at(beta, gamma, block)[2]


def block_sensitivity(beta: np.ndarray, gamma: Dependence, block: PanelDataset) -> np.ndarray:
    """Sensitivity matrix (1/N) sum over subjects and pairs of
    ``Xpair' Omega^-1 Xpair``; beta enters the signature for interface
    uniformity only (the Gaussian identity link makes it beta-free)."""
    return _checks_at(beta, gamma, block)[0]


@dataclass(frozen=True)
class OptimizerTrace:
    """Diagnostics from one block fit.

    ``profile_evaluations`` counts the profile evaluations that bracket
    the maximum (the grid, plus one probe next to a bound when the best
    grid point is the outermost one), and ``root_evaluations`` the score
    evaluations of the root step that refines it (the scores at the
    bracket ends come from the grid and are not counted again).

    ``grid_logcl`` is the best profile log-CL on the grid and ``logcl``
    the refined one; ``logcl >= grid_logcl`` certifies that the fit is
    the global maximum over the grid. ``rel_beta_score`` is the sup-norm
    of the mean beta-score divided by ``|S| |beta| + sqrt(diag S)``
    (S the sensitivity), and ``rel_gamma_score`` that of the
    (sigma, rho)-score scaled to ``(sigma d/dsigma, d/drho) / (2
    n_pairs, n_pairs)``; both are free of the response scale.
    """

    profile_evaluations: int
    root_evaluations: int
    grid_logcl: float
    logcl: float
    rel_beta_score: float
    rel_gamma_score: float
    converged: bool


@dataclass(frozen=True, eq=False)
class BlockFit:
    """Result of one block's composite-likelihood fit, from :func:`fit_block` or :func:`fit_blocks`.

    It takes ownership of the arrays it is given, read-only (:func:`dimm._util.frozen`).

    Attributes
    ----------
    name : str
        Block label (keys sub-group selection downstream).
    beta_hat : ndarray, shape (p,)
        Mean-parameter estimate.
    gamma_hat : Dependence
        Fitted working family with (sigma, rho); :attr:`structure` names it.
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
    beta_hat: np.ndarray
    gamma_hat: Dependence
    subject_scores: np.ndarray
    sensitivity: np.ndarray
    subject_sensitivities: np.ndarray
    logcl: float
    n_pairs: int
    trace: OptimizerTrace

    def __post_init__(self) -> None:
        for name in ("beta_hat", "subject_scores", "sensitivity", "subject_sensitivities"):
            object.__setattr__(self, name, frozen(getattr(self, name)))

    @property
    def structure(self) -> str:
        return self.gamma_hat.structure

    @property
    def n_subjects(self) -> int:
        return self.subject_scores.shape[0]

    @property
    def n_params(self) -> int:
        return self.beta_hat.shape[0]


def _score_root(
    lo: float, hi: float, f_lo: float, f_hi: float, name: str
) -> Generator[float, float, tuple[float, int]]:
    """Root of the rho-score between ``lo`` and ``hi``, whose scores
    ``f_lo`` and ``f_hi`` differ in sign (or one is zero).

    Brent's method (Brent 1973, ch. 4): ``x_cur`` is the best estimate
    and ``[x_cur, x_blk]`` brackets the root. Each step is a secant or
    inverse quadratic interpolation step when that step is short against
    the last two, and a bisection otherwise. The known end scores are
    not recomputed. It yields each trial rho, is sent the score there
    and returns (root, score evaluations), so blocks step in lock-step
    (:func:`_fit_family`), each with its own state and the scalar step.
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
        f_cur = yield x_cur
        n_evals += 1


def _fit_steps(
    b: _BlockMoments, dependence: Dependence, name: str
) -> Generator[np.ndarray, _Profile, BlockFit]:
    """The fit of the block with moments ``b`` under ``dependence``'s family:
    it yields each array of rhos it needs the profile at, is sent the
    block's profile there, and returns the fit or raises the
    :class:`FitError` that refuses it.
    """
    if b.constant_response:
        msg = (
            f"block {name!r}: the response is constant (every value is "
            f"{float(b.y.flat[0]):.6g}); sigma and rho are not identified"
        )
        raise FitError(msg)

    lo, hi = dependence.rho_lower(b.block_size), 1.0
    k = _GRID_POINTS
    grid = lo + (hi - lo) * np.arange(1, k + 1) / (k + 1)
    # The fit keeps its grid row, and with it the round's batch, to its end: letting it go
    # after the grid round cut a table1_full study's peak RSS by 1 MB but put glibc into
    # trimming and refaulting the heap, with twice the minor faults per replicate.
    prof_grid = yield grid
    floor = float(np.min(prof_grid.sigma2))
    if not floor > EXACT_FIT * b.response_ms:
        msg = (
            f"block {name!r}: exact fit, the residuals vanish (sigma_hat^2 = "
            f"{floor:.3g} against a response mean square of {b.response_ms:.3g}); "
            "sigma and rho are not identified"
        )
        raise FitError(msg)
    best = int(np.argmax(prof_grid.logcl))
    n_evals = k
    # Every evaluation off the grid, by rho; the root is almost always one.
    evaluated: dict[float, _Profile] = {}

    # The maximum lies on the side the score points to: up to the next
    # grid point, or up to the probe next to the bound.
    rising = prof_grid.score[best] >= 0.0
    inner = float(grid[best])
    outer_index = best + 1 if rising else best - 1
    if 0 <= outer_index < k:
        outer, outer_score = float(grid[outer_index]), float(prof_grid.score[outer_index])
    else:
        outer = hi - _EDGE * (hi - lo) if rising else lo + _EDGE * (hi - lo)
        evaluated[outer] = yield np.array([outer])
        outer_score = float(evaluated[outer].score[0])
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

    inner_score = float(prof_grid.score[best])
    if inner < outer:
        bracket = (inner, outer, inner_score, outer_score)
    else:
        bracket = (outer, inner, outer_score, inner_score)
    step = _score_root(*bracket, name)
    try:
        rho = next(step)
        while True:
            evaluated[rho] = yield np.array([rho])
            rho = step.send(float(evaluated[rho].score[0]))
    except StopIteration as stop:
        rho, n_root = stop.value
    prof = evaluated[rho] if rho in evaluated else (yield np.array([rho]))
    grid_logcl = float(prof_grid.logcl[best])
    beta_hat = prof.beta[0]
    sigma = math.sqrt(float(prof.sigma2[0]))
    refined = float(prof.logcl[0])
    if refined < grid_logcl - _CERT_RTOL * abs(grid_logcl):
        msg = (
            f"block {name!r}: the refined profile log-CL {refined:.12g} is below the "
            f"maximum {grid_logcl:.12g} on the {_GRID_POINTS}-point rho grid"
        )
        raise FitError(msg)

    sens, beta_score, gamma_score = b.checks(prof.grams[:, 0], prof.family_score[0], beta_hat, sigma)
    cholesky(sens, f"block {name!r}: sensitivity matrix", FitError)
    beta_scale = np.abs(sens) @ np.abs(beta_hat) + np.sqrt(np.diag(sens))
    beta_rel = float(np.max(np.abs(beta_score) / beta_scale))
    n_pairs = b.n_pairs
    gamma_rel = float(np.max(np.abs(gamma_score * np.array([sigma / 2.0, 1.0]) / n_pairs)))
    trace = OptimizerTrace(
        profile_evaluations=n_evals,
        root_evaluations=n_root,
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

    gamma_hat = Dependence(dependence.structure, sigma=sigma, rho=rho)
    scores, subject_sens = b.subject_terms(beta_hat, gamma_hat)
    return BlockFit(
        name=name,
        beta_hat=beta_hat,
        gamma_hat=gamma_hat,
        subject_scores=scores,
        sensitivity=sens,
        subject_sensitivities=subject_sens,
        logcl=refined,
        n_pairs=n_pairs,
        trace=trace,
    )


def _fit_family(
    moments: Sequence[_BlockMoments], dependence: Dependence, names: Sequence[str]
) -> list[BlockFit | FitError]:
    """Each block's fit, or the :class:`FitError` that refuses it: the blocks run
    :func:`_fit_steps` in lock-step, one profile evaluation per round."""
    fits = [_fit_steps(b, dependence, name) for b, name in zip(moments, names)]
    out: list[BlockFit | FitError | None] = [None] * len(fits)
    sent: dict[int, _Profile | None] = dict.fromkeys(range(len(fits)))
    while sent:
        asked = {}
        for j, prof in sent.items():
            try:
                asked[j] = fits[j].send(prof)
            except StopIteration as stop:
                out[j] = stop.value
            except FitError as exc:
                out[j] = exc
        rhos = np.array(list(asked.values()))
        prof = _profile([moments[j] for j in asked], dependence, rhos) if asked else None
        sent = {j: prof.row(i) for i, j in enumerate(asked)}
    return out


def fit_block(
    block: PanelDataset | _BlockMoments,
    structure: str,
    *,
    name: str = "block",
) -> BlockFit:
    """Fit one block by maximizing its pairwise composite likelihood.

    Parameters
    ----------
    block : PanelDataset
        The block's responses and covariates (M = block size).
        A block's cached ``_BlockMoments`` may be passed instead; a panel
        is read through its own, so both take one path. The columns are
        split by the mask of the panel the block came from, so a column
        constant within the block only is read in full there and in
        closed form in a copy of the block; the two agree to roundoff.
    structure : str
        Name of the working family to fit, ``"ar1"`` or ``"cs"``; the fit
        estimates its sigma and rho.
    name : str
        Label stored on the fit.

    Returns
    -------
    BlockFit

    Raises
    ------
    PartitionError
        If ``structure`` is not a family name.
    DataError
        If the block's design does not identify beta (the rule of
        :func:`~dimm.model.check_identified`); the message names the block.
    FitError
        With a message naming the cause: a constant response, an exact
        fit (residual variance at roundoff level), rho at the bound of
        its admissible interval, a profile with several turning points
        between grid neighbours, a refined maximum below the grid's, or
        scores above the acceptance tolerance.
    """
    dependence = Dependence(structure)
    [fit] = _fit_family([_block_moments(block, name)], dependence, [name])
    if isinstance(fit, FitError):
        raise fit
    return fit


def fit_blocks(data: PanelDataset, partition: BlockPartition) -> list[BlockFit]:
    """Fit every block of a partitioned panel, returned in block order.

    A working family's blocks are fit together, each as :func:`fit_block`
    fits it; a refusal is that of the first refused block in block order.
    Each block is read through its moments, views of ``data`` that are
    built once and kept on the panel: fitting another working family on
    the same panel reuses them.

    Raises
    ------
    PartitionError
        If the partition sizes do not sum to the panel's M.
    """
    partition.check_covers(data.n_coordinates)
    blocks, out = partition.blocks, []
    for s, b in zip(partition.slices, blocks):
        try:
            out.append(_moments_for(data, s.start, s.stop, b.name))
        except DataError as exc:
            out.append(exc)
    fitting = [j for j, moments in enumerate(out) if isinstance(moments, _BlockMoments)]
    for structure in dict.fromkeys(blocks[j].structure for j in fitting):
        js = [j for j in fitting if blocks[j].structure == structure]
        fits = _fit_family([out[j] for j in js], Dependence(structure), [blocks[j].name for j in js])
        for j, fit in zip(js, fits):
            out[j] = fit
    for fit in out:
        if isinstance(fit, (DataError, FitError)):
            raise fit
    return out
