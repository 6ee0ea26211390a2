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

* the log-CL depends on the data only through the per-lag square and
  cross moments ``S_d``, ``C_d`` of ``Z = [X | y]``, all sums of blocks
  of one Gram matrix (:class:`_BlockMoments`);
* at each rho, two weighted sums of them, ``G0`` and ``G1``
  (:meth:`_BlockArrays.grams`), hold every statistic. With ``v = (-beta,
  1)``, ``beta_hat(rho)`` solves ``G0[:p, :p] beta = G0[:p, p]`` (sigma
  cancels out of it), ``sigma_hat^2(rho) = v'G0 v / (2 N n_pairs)``, and
  the rho-score is ``sum_d n_d c_d w_d c'_d + v'G1 v / sigma^2``, with
  ``n_d`` pair terms, correlation ``c_d``, ``c'_d = dc_d/drho`` and
  ``w_d = 1 / (1 - c_d^2)`` at lag d;
* the scores are affine in beta: subject i's beta-score is ``X_i' K
  e_i`` with the m x m kernel K of :meth:`_BlockArrays.kernel`.

The fit is therefore a 1-D search over the profile log-CL in rho. The
profile is evaluated on a fixed grid over the admissible interval, and
its analytic score is solved inside the grid bracket of the best point
by a bracketed root step (:func:`_score_root`: secant and inverse
quadratic steps, safeguarded by bisection). The grid's best value is
kept as a certificate that the refined point is the global maximum over
the grid. One evaluation gives the profile, its score and the Grams
together, so the fit's checks (the sensitivity and the beta-, sigma-
and rho-scores) read the evaluation at rho_hat that the root step
already made. Every step is equivariant under a rescaling of the
responses, and the post-fit checks are relative to scale.

Blocks are fit one after another in the calling process. Each fit is
independent of the others, which is what lets the paper spread them over
machines; here a fit takes milliseconds, less than starting a worker.

A block is read through its :class:`_BlockMoments`: views of its
coordinates in the validated panel, never copies, and its per-lag moments.
They do not depend on the working family, so :func:`_moments_for` builds
them once per panel and block and keeps them in a weak cache keyed by the
panel: a second family fit on the same panel reuses them, and they are
dropped with the panel. The same Gram decides whether the block's design
identifies beta, by the rule :func:`~dimm.model.check_identified` that
:class:`~dimm.model.PanelDataset` applies to the whole design at entry.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from dimm._util import EXACT_FIT, cholesky, frozen
from dimm.errors import FitError
from dimm.model import AR1, Dependence, PanelDataset, check_identified
from dimm.model import partition_dataset  # noqa: F401  (unused; perfbench/tracing.py probes this name)

if TYPE_CHECKING:
    from collections.abc import Callable

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
    """The profile at each of k rho values, with the Grams it came from."""

    beta: np.ndarray  # (k, p)
    sigma2: np.ndarray  # (k,)
    logcl: np.ndarray  # (k,)
    score: np.ndarray  # (k,)
    grams: np.ndarray  # (2, k, p + 1, p + 1): G0 and G1
    family_score: np.ndarray  # (k,)


class _BlockMoments:
    """Per-lag design and response moments of one block, free of the working family.

    With ``z_r = (x_r', y_r)'`` for coordinate r, the Gram matrix of ``Z =
    [X | y]`` holds every ``sum_i z_ir z_it'``. For lag d, summed over the
    subjects and the pairs (r, t = r + d), the square moments ``S_d = sum
    (z_r z_r' + z_t z_t')`` come from its diagonal blocks and the
    symmetrised cross moments ``C_d = sum (z_r z_t' + z_t z_r') / 2`` from
    its lag-d off-diagonal blocks. ``stacked`` is the array F of shape
    (2 (m - 1), (p + 1)^2) whose rows are ``S_1 .. S_{m-1}`` and then
    ``C_1 .. C_{m-1}``, each flattened, so a weighted sum over the lags of
    both is one product with F (:meth:`_BlockArrays.grams`).

    With ``v = (-beta, 1)``, ``v'S_d v`` and ``v'C_d v`` are the lag-d
    residual square and cross sums, exact quadratic forms in beta. (The
    subtraction they hide loses accuracy only when the signal dwarfs the
    noise; :func:`fit_block` refuses such exact fits.)

    ``y`` and ``x`` are views of the block's coordinates in its panel, the
    one view of the block that a fit reads; nothing here depends on the
    working family, so every family fit on the panel reuses them.

    The block's design Gram ``X_b'X_b`` is the sum of the diagonal
    blocks, so it also decides whether beta is identified in the block:
    :func:`~dimm.model.check_identified`, over the block's N m rows,
    refuses it with a :class:`DataError` that names the block.
    """

    def __init__(self, y: np.ndarray, x: np.ndarray, name: str) -> None:
        n, m = y.shape
        p = x.shape[2]
        lags = np.arange(1, m)
        counts = m - lags
        # The cache keeps F past the fit. Allocated ahead of the Gram's
        # temporaries, it sits below them in the heap instead of pinning
        # the space they free (with glibc, that fragmentation added 1.4 MB
        # to the peak RSS of a table1_full study).
        stacked = np.empty((2, m - 1, p + 1, p + 1))
        square, cross = stacked
        z = np.concatenate([x, y[:, :, None]], axis=2).reshape(n, m * (p + 1))
        # gram[r, t] = sum_i z_ir z_it', shape (m, m, p + 1, p + 1).
        gram = (z.T @ z).reshape(m, p + 1, m, p + 1).transpose(0, 2, 1, 3)
        r_idx = np.concatenate([np.arange(c) for c in counts])
        t_idx = r_idx + np.repeat(lags, counts)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        np.add.reduceat(gram[r_idx, t_idx], starts, axis=0, out=cross)
        np.add(cross, np.swapaxes(cross, 1, 2), out=cross)  # numpy buffers the overlap
        cross *= 0.5
        # Diagonal blocks summed over r < m - d and over t >= d.
        diag = np.cumsum(gram[np.arange(m), np.arange(m)], axis=0)
        diag = np.concatenate([np.zeros((1, p + 1, p + 1)), diag])
        np.add(diag[counts], diag[m] - diag[lags], out=square)
        check_identified(diag[m, :p, :p], n * m, f"block {name!r}")

        self.y = y
        self.x = x
        self.n_subjects = n
        self.n_covariates = p
        self.block_size = m
        self.n_pairs = m * (m - 1) // 2
        self.response_ms = float(np.mean(y * y))
        self.lags = lags.astype(np.float64)
        self.n_terms = (counts * n).astype(np.float64)  # pair terms at each lag
        self.n_total = n * self.n_pairs  # their sum
        self.stacked = frozen(stacked.reshape(2 * (m - 1), (p + 1) ** 2))


# The family-free moments of every block fit so far, by panel and then by
# (start, stop). A panel's arrays cannot be made writeable, so an entry
# stays valid for as long as its panel lives, and is dropped with it.
_MOMENTS: weakref.WeakKeyDictionary[PanelDataset, dict[tuple[int, int], _BlockMoments]] = (
    weakref.WeakKeyDictionary()
)


def _quadratic_forms(grams: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``v'G v`` at ``v = (-beta, 1)`` for each matrix G of ``grams``
    (..., p + 1, p + 1), with beta (..., p) broadcast against them."""
    v = np.concatenate([-beta, np.ones(beta.shape[:-1] + (1,))], axis=-1)
    return np.einsum("...i,...ij,...j->...", v, grams, v)


class _BlockArrays:
    """A block's moments under one working family.

    The family sets the admissible rho interval (from
    :meth:`~dimm.model.Dependence.rho_lower`) and the per-lag
    correlations; it enters only here, at fit time, so the moments it
    reads are shared by every family fit on the same panel.
    """

    def __init__(self, moments: _BlockMoments, family: Dependence) -> None:
        family.validate_for_size(moments.block_size)
        self.moments = moments
        self.structure = family.structure
        self.rho_lower = family.rho_lower(moments.block_size)

    def lag_correlations(self, rho: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-lag correlations and their rho-derivatives, shape (..., lags)."""
        rho = np.asarray(rho, dtype=np.float64)[..., None]
        lags = self.moments.lags
        if self.structure == AR1:
            return np.power(rho, lags), lags * np.power(rho, lags - 1.0)
        c = np.broadcast_to(rho, rho.shape[:-1] + lags.shape)
        return c, np.ones_like(c)

    def grams(self, rho: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``G0`` and ``G1`` at each rho, shape (2, ..., p + 1, p + 1).

        With ``w_d = 1 / (1 - c_d^2)``, ``G0 = sum_d w_d (S_d - 2 c_d C_d)``
        and ``G1 = sum_d c'_d w_d^2 ((1 + c_d^2) C_d - c_d S_d)``, both one
        product of the lag weights with the stacked moments F. Also
        returns, shape (...,), the terms of the log-CL and of its
        rho-score that are free of the data: ``sum_d n_d log(1 - c_d^2)``
        and ``sum_d n_d c_d w_d c'_d``.
        """
        c, dc = self.lag_correlations(rho)
        c2 = c * c
        one_mc2 = 1.0 - c2
        w = 1.0 / one_mc2
        cw = c * w
        dw2 = dc * w * w
        weights = np.stack(
            [np.concatenate([w, -2.0 * cw], -1), np.concatenate([-c * dw2, (1.0 + c2) * dw2], -1)]
        )
        q = self.moments.n_covariates + 1
        grams = (weights @ self.moments.stacked).reshape(*weights.shape[:-1], q, q)
        n_terms = self.moments.n_terms
        return grams, np.log(one_mc2) @ n_terms, (cw * dc) @ n_terms

    def logcl(self, beta: np.ndarray, sigma: float, rho: float) -> float:
        """Total log composite likelihood."""
        grams, log_det, _ = self.grams(rho)
        s2 = sigma * sigma
        n_total = self.moments.n_total
        quad = _quadratic_forms(grams[0], beta)
        return float(-n_total * (_LOG_2PI + math.log(s2)) - 0.5 * log_det - quad / (2.0 * s2))

    def profile(self, rhos: np.ndarray) -> _Profile:
        """beta_hat(rho), sigma_hat^2(rho), the profile log-CL and its score."""
        grams, log_det, family_score = self.grams(rhos)
        g0 = grams[0]
        p = self.moments.n_covariates
        beta = np.linalg.solve(g0[..., :p, :p], g0[..., :p, p:])[..., 0]
        quad = _quadratic_forms(grams, beta)
        n_total = self.moments.n_total
        sigma2 = quad[0] / (2.0 * n_total)
        # At sigma_hat^2 the quadratic terms of the log-CL sum to the
        # number of pair terms, hence the + 1. A non-positive sigma2 (an
        # exact fit) gives nan here and is refused by the caller.
        with np.errstate(invalid="ignore", divide="ignore"):
            logcl = -n_total * (_LOG_2PI + np.log(sigma2) + 1.0) - 0.5 * log_det
            score = family_score + quad[1] / sigma2
        return _Profile(beta, sigma2, logcl, score, grams, family_score)

    def checks(
        self, grams: np.ndarray, family_score: float, beta: np.ndarray, sigma: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sensitivity, mean beta-score and mean (sigma, rho)-score from
        ``G0`` and ``G1`` at one rho.

        The sensitivity (1/N) sum_i sum_pairs Xpair' Omega^-1 Xpair is
        exact for the Gaussian identity link and free of beta.
        """
        g0, p, s2 = grams[0], self.moments.n_covariates, sigma * sigma
        n = self.moments.n_subjects
        quad0, quad1 = _quadratic_forms(grams, beta)
        d_sigma = -2.0 * self.moments.n_total / sigma + quad0 / (s2 * sigma)
        return (
            g0[:p, :p] / (s2 * n),
            (g0[:p, p] - g0[:p, :p] @ beta) / (s2 * n),
            np.array([d_sigma, family_score + quad1 / s2]) / n,
        )

    def kernel(self, sigma: float, rho: float) -> np.ndarray:
        """The m x m matrix K with per-subject beta-score ``X_i' K e_i``.

        Off the diagonal, ``K[r, t] = -g c`` at lag ``|r - t|``; on it,
        ``K[r, r]`` is the sum of ``g`` over ``t != r``, where
        ``g = 1 / (sigma^2 (1 - c^2))``.
        """
        c_lag, _ = self.lag_correlations(rho)
        g_lag = 1.0 / (sigma * sigma * (1.0 - c_lag * c_lag))
        m = self.moments.block_size
        g = np.zeros(m)
        gc = np.zeros(m)
        g[1:] = g_lag
        gc[1:] = g_lag * c_lag
        lag = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
        k = -gc[lag]
        k[np.diag_indices(m)] = g[lag].sum(axis=1)
        return k

    def subject_terms(
        self, beta: np.ndarray, sigma: float, rho: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-subject scores ``X_i' K e_i`` (N, p) and sensitivities
        ``H_i = X_i' K X_i`` (N, p, p); the mean of ``H_i`` is
        :meth:`sensitivity`."""
        x = self.moments.x
        kx = self.kernel(sigma, rho) @ x  # (N, m, p)
        scores = np.einsum("nmp,nm->np", kx, self.moments.y - x @ beta)
        h = np.swapaxes(x, 1, 2) @ kx
        return scores, (h + np.swapaxes(h, 1, 2)) / 2.0


def _moments_for(panel: PanelDataset, start: int, stop: int, name: str = "block") -> _BlockMoments:
    """The cached moments of coordinates ``start:stop`` of ``panel``."""
    per_panel = _MOMENTS.setdefault(panel, {})
    if (start, stop) not in per_panel:
        y, x = panel.responses[:, start:stop], panel.covariates[:, start:stop]
        per_panel[start, stop] = _BlockMoments(y, x, name)
    return per_panel[start, stop]


def _arrays_for(
    block: PanelDataset | _BlockMoments, gamma: Dependence, name: str = "block"
) -> _BlockArrays:
    if isinstance(block, PanelDataset):
        block = _moments_for(block, 0, block.n_coordinates, name)
    return _BlockArrays(block, gamma)


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
    return arrays.subject_terms(beta, gamma.sigma, gamma.rho)[0]


def block_score_gamma(beta: np.ndarray, gamma: Dependence, block: PanelDataset) -> np.ndarray:
    """Gradient of the mean log-CL in (sigma, rho), in closed form."""
    arrays = _arrays_for(block, gamma)
    beta = np.asarray(beta, dtype=np.float64).reshape(-1)
    grams, _, family_score = arrays.grams(gamma.rho)
    return arrays.checks(grams, family_score, beta, gamma.sigma)[2]


def block_sensitivity(beta: np.ndarray, gamma: Dependence, block: PanelDataset) -> np.ndarray:
    """Sensitivity matrix (1/N) sum over subjects and pairs of
    ``Xpair' Omega^-1 Xpair``; beta enters the signature for interface
    uniformity only (the Gaussian identity link makes it beta-free)."""
    arrays = _arrays_for(block, gamma)
    beta = np.asarray(beta, dtype=np.float64).reshape(-1)
    grams, _, family_score = arrays.grams(gamma.rho)
    return arrays.checks(grams, family_score, beta, gamma.sigma)[0]


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
    """Result of one block's composite-likelihood fit; built by :func:`fit_block`.

    It takes ownership of the arrays it is given, read-only (:func:`dimm._util.frozen`).

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
        for name in ("beta_hat", "subject_scores", "sensitivity", "subject_sensitivities"):
            object.__setattr__(self, name, frozen(getattr(self, name)))

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


def _maximize_profile(arrays: _BlockArrays, name: str) -> tuple[float, _Profile, float, int, int]:
    """Locate the profile maximum in rho.

    Returns (rho_hat, the profile evaluated at rho_hat, best grid log-CL,
    profile evaluations, score evaluations of the root step).
    """
    lo, hi = arrays.rho_lower, 1.0
    k = _GRID_POINTS
    grid = lo + (hi - lo) * np.arange(1, k + 1) / (k + 1)
    prof = arrays.profile(grid)
    floor = float(np.min(prof.sigma2))
    response_ms = arrays.moments.response_ms
    if not floor > EXACT_FIT * response_ms:
        msg = (
            f"block {name!r}: exact fit, the residuals vanish (sigma_hat^2 = "
            f"{floor:.3g} against a response mean square of {response_ms:.3g}); "
            "sigma and rho are not identified"
        )
        raise FitError(msg)
    best = int(np.argmax(prof.logcl))
    n_evals = k
    # Every evaluation off the grid, by rho; the root is almost always one.
    evaluated: dict[float, _Profile] = {}

    def evaluate(rho: float) -> _Profile:
        evaluated[rho] = arrays.profile(np.array([rho]))
        return evaluated[rho]

    # The maximum lies on the side the score points to: up to the next
    # grid point, or up to the probe next to the bound.
    rising = prof.score[best] >= 0.0
    inner = float(grid[best])
    outer_index = best + 1 if rising else best - 1
    if 0 <= outer_index < k:
        outer, outer_score = float(grid[outer_index]), float(prof.score[outer_index])
    else:
        outer = hi - _EDGE * (hi - lo) if rising else lo + _EDGE * (hi - lo)
        outer_score = float(evaluate(outer).score[0])
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

    inner_score = float(prof.score[best])
    if inner < outer:
        bracket = (inner, outer, inner_score, outer_score)
    else:
        bracket = (outer, inner, outer_score, inner_score)
    rho_hat, n_root = _score_root(lambda rho: float(evaluate(rho).score[0]), *bracket, name)
    at_root = evaluated[rho_hat] if rho_hat in evaluated else evaluate(rho_hat)
    return rho_hat, at_root, float(prof.logcl[best]), n_evals, n_root


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
        :func:`fit_blocks` passes a block's cached ``_BlockMoments``
        instead; a panel is read through its own, so both take one path.
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
    arrays = _arrays_for(block, Dependence(structure), name)
    y = arrays.moments.y
    if float(np.ptp(y)) == 0.0:
        msg = (
            f"block {name!r}: the response is constant (every value is "
            f"{float(y.flat[0]):.6g}); sigma and rho are not identified"
        )
        raise FitError(msg)

    rho, prof, grid_logcl, n_evals, n_root = _maximize_profile(arrays, name)
    beta_hat = prof.beta[0]
    sigma = math.sqrt(float(prof.sigma2[0]))
    refined = float(prof.logcl[0])
    if refined < grid_logcl - _CERT_RTOL * abs(grid_logcl):
        msg = (
            f"block {name!r}: the refined profile log-CL {refined:.12g} is below the "
            f"maximum {grid_logcl:.12g} on the {_GRID_POINTS}-point rho grid"
        )
        raise FitError(msg)

    sens, beta_score, gamma_score = arrays.checks(
        prof.grams[:, 0], prof.family_score[0], beta_hat, sigma
    )
    cholesky(sens, f"block {name!r}: sensitivity matrix", FitError)
    beta_scale = np.abs(sens) @ np.abs(beta_hat) + np.sqrt(np.diag(sens))
    beta_rel = float(np.max(np.abs(beta_score) / beta_scale))
    gamma_rel = float(
        np.max(np.abs(gamma_score * np.array([sigma / 2.0, 1.0]) / arrays.moments.n_pairs))
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

    scores, subject_sens = arrays.subject_terms(beta_hat, sigma, rho)
    return BlockFit(
        name=name,
        structure=arrays.structure,
        beta_hat=beta_hat,
        gamma_hat=Dependence(arrays.structure, sigma=sigma, rho=rho),
        subject_scores=scores,
        sensitivity=sens,
        subject_sensitivities=subject_sens,
        logcl=refined,
        n_pairs=arrays.moments.n_pairs,
        trace=trace,
    )


def fit_blocks(data: PanelDataset, partition: BlockPartition) -> list[BlockFit]:
    """Fit every block of a partitioned panel, one after another, in block order.

    Each block is read through its cached moments, views of ``data``
    that are built once per panel: fitting another working family on the
    same panel reuses them.

    Raises
    ------
    PartitionError
        If the partition sizes do not sum to the panel's M.
    """
    partition.check_covers(data.n_coordinates)
    return [
        fit_block(_moments_for(data, s.start, s.stop, b.name), b.structure, name=b.name)
        for s, b in zip(partition.slices, partition.blocks)
    ]
