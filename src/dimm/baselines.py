"""Comparator estimators for the full (unpartitioned) panel.

Three reference fits for the same mean model ``E[y_it] = x_it' beta``:

* :func:`gls_oracle` — generalized least squares with the *true*
  covariance matrix supplied. Infeasible in practice; the efficiency
  ceiling against which the integrated estimator is judged.
* :func:`gee_fit` with ``working="independence"`` — pooled ordinary
  least squares with a robust (sandwich) covariance.
* :func:`gee_fit` with ``working="exchangeable"`` — generalized
  estimating equations under a compound-symmetry working correlation,
  iterating between the beta solve and moment updates of the scale and
  the common correlation, again with a sandwich covariance.

Their symmetric positive definite systems (the covariance that whitens
the oracle, and every bread matrix) are solved by
:func:`dimm._util.spd_solve`, through a Cholesky factor; a matrix that
is not positive definite or holds a non-finite value raises
:class:`~dimm.errors.FitError`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from dimm._util import spd_solve
from dimm.errors import FitError

if TYPE_CHECKING:
    from dimm.model import PanelDataset

__all__ = ["BaselineFit", "gee_fit", "gls_oracle"]

_WORKING_CHOICES = ("independence", "exchangeable")
_RHO_CLAMP_MARGIN = 1e-6


@dataclass(frozen=True, eq=False)
class BaselineFit:
    """Result of a comparator fit.

    Attributes
    ----------
    method : str
        One of ``"gls_oracle"``, ``"gee_independence"``,
        ``"gee_exchangeable"``.
    beta_hat : ndarray, shape (p,)
    covariance : ndarray, shape (p, p)
        For the oracle this is the exact model-based covariance; for the
        GEE fits it is the robust sandwich, already at the scale of
        ``beta_hat`` (no further division by N needed).
    rho_hat : float or None
        Moment estimate of the working exchangeable correlation; None
        for the other methods.
    n_iter : int
        Number of beta updates performed (1 for closed-form fits).
    converged : bool
    """

    method: str
    beta_hat: np.ndarray
    covariance: np.ndarray
    rho_hat: float | None
    n_iter: int
    converged: bool

    def __post_init__(self) -> None:
        beta = np.array(self.beta_hat, dtype=np.float64, copy=True)
        cov = np.array(self.covariance, dtype=np.float64, copy=True)
        beta.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "beta_hat", beta)
        object.__setattr__(self, "covariance", cov)

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))


def _spd_solve(mat: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    try:
        return spd_solve(mat, rhs)
    except np.linalg.LinAlgError:
        msg = f"{what} is not positive definite"
        raise FitError(msg) from None


def gls_oracle(data: PanelDataset, covariance: np.ndarray) -> BaselineFit:
    """Generalized least squares with a known response covariance.

    Solves ``(sum_i X_i' Sigma^-1 X_i) beta = sum_i X_i' Sigma^-1 y_i``
    and reports the exact covariance ``(sum_i X_i' Sigma^-1 X_i)^-1``.
    Invariant to rescaling ``covariance`` by any positive constant in
    the point estimate (though not, of course, in the covariance).
    """
    sigma = np.asarray(covariance, dtype=np.float64)
    m = data.n_coordinates
    if sigma.shape != (m, m):
        msg = f"covariance has shape {sigma.shape}, expected ({m}, {m})"
        raise FitError(msg)
    if not np.allclose(sigma, sigma.T, atol=1e-10, rtol=0.0):
        msg = "covariance must be symmetric"
        raise FitError(msg)
    # X: (N, M, p), y: (N, M). Whiten once: solve Sigma Z = X per subject.
    x = data.covariates
    y = data.responses
    z = _spd_solve(
        (sigma + sigma.T) / 2.0, np.transpose(x, (1, 0, 2)).reshape(m, -1), "covariance"
    )
    z = np.transpose(z.reshape(m, x.shape[0], x.shape[2]), (1, 0, 2))  # (N, M, p)
    bread = np.einsum("nmp,nmq->pq", x, z)
    bread = (bread + bread.T) / 2.0
    rhs = np.einsum("nmp,nm->p", z, y)
    beta = _spd_solve(bread, rhs, "information matrix sum_i X_i' Sigma^-1 X_i")
    cov = _spd_solve(bread, np.eye(bread.shape[0]), "information matrix")
    cov = (cov + cov.T) / 2.0
    return BaselineFit(
        method="gls_oracle",
        beta_hat=beta,
        covariance=cov,
        rho_hat=None,
        n_iter=1,
        converged=True,
    )


def _sandwich(
    bread: np.ndarray, meat: np.ndarray, what: str
) -> np.ndarray:
    inv = _spd_solve((bread + bread.T) / 2.0, np.eye(bread.shape[0]), what)
    cov = inv @ meat @ inv
    return (cov + cov.T) / 2.0


def _exchangeable_moments(
    resid: np.ndarray, n_params: int
) -> tuple[float, float]:
    """Moment estimates (phi, rho) from an (N, M) residual matrix."""
    n, m = resid.shape
    denom_phi = n * m - n_params
    if denom_phi <= 0:
        msg = f"too few observations (N*M = {n * m}) for p = {n_params}"
        raise FitError(msg)
    phi = float(np.sum(resid**2)) / denom_phi
    # Sum over within-subject pairs t < s of e_it e_is, via the identity
    # sum_{t<s} e_t e_s = ((sum_t e_t)^2 - sum_t e_t^2) / 2.
    row_sums = resid.sum(axis=1)
    pair_sum = float(np.sum(row_sums**2) - np.sum(resid**2)) / 2.0
    denom_rho = n * m * (m - 1) / 2.0 - n_params
    if denom_rho <= 0:
        msg = f"too few within-subject pairs for p = {n_params}"
        raise FitError(msg)
    rho = pair_sum / (phi * denom_rho)
    return phi, rho


def gee_fit(
    data: PanelDataset,
    working: str = "independence",
    *,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> BaselineFit:
    """Generalized estimating equations for the marginal mean model.

    Parameters
    ----------
    data : PanelDataset
    working : {"independence", "exchangeable"}
        Working correlation structure. Independence reduces to pooled
        ordinary least squares in the point estimate; exchangeable
        alternates the beta solve with moment updates of the common
        correlation until ``max |delta beta| <= tol``.
    max_iter : int
        Cap on beta updates for the exchangeable fit.
    tol : float
        Sup-norm convergence tolerance on successive beta iterates.

    Returns
    -------
    BaselineFit
        With the robust sandwich covariance in both cases.

    Raises
    ------
    FitError
        On an unknown working structure or a degenerate design.

    Notes
    -----
    The moment estimate of the exchangeable correlation is clamped to
    ``(-1/(M-1) + 1e-6, 1 - 1e-6)`` — the open interval on which the
    working correlation matrix is invertible — with a warning when the
    clamp binds.
    """
    if working not in _WORKING_CHOICES:
        msg = f"working must be one of {_WORKING_CHOICES}, got {working!r}"
        raise FitError(msg)
    x = data.covariates  # (N, M, p)
    y = data.responses  # (N, M)
    n, m, p = x.shape

    xtx = np.einsum("nmp,nmq->pq", x, x)
    xty = np.einsum("nmp,nm->p", x, y)
    beta = _spd_solve((xtx + xtx.T) / 2.0, xty, "pooled design matrix X'X")

    if working == "independence":
        resid = y - np.einsum("nmp,p->nm", x, beta)
        # Meat: sum_i X_i' e_i e_i' X_i with u_i = X_i' e_i.
        u = np.einsum("nmp,nm->np", x, resid)
        meat = u.T @ u
        cov = _sandwich(xtx, meat, "pooled design matrix X'X")
        return BaselineFit(
            method="gee_independence",
            beta_hat=beta,
            covariance=cov,
            rho_hat=None,
            n_iter=1,
            converged=True,
        )

    # Exchangeable working correlation R = (1 - rho) I + rho 11'.
    # By Sherman-Morrison, R^-1 = a (I - b 11') with
    #   a = 1/(1 - rho),  b = rho / (1 + (M - 1) rho),
    # so X_i' R^-1 u = a (X_i' u - b (X_i' 1)(1' u)). The scale phi
    # cancels from both the estimating equation and the sandwich.
    rho_lo = -1.0 / (m - 1) + _RHO_CLAMP_MARGIN
    rho_hi = 1.0 - _RHO_CLAMP_MARGIN
    rho = 0.0
    n_iter = 0
    converged = False
    for n_iter in range(1, max_iter + 1):
        resid = y - np.einsum("nmp,p->nm", x, beta)
        _, rho = _exchangeable_moments(resid, p)
        if rho < rho_lo or rho > rho_hi:
            clamped = min(max(rho, rho_lo), rho_hi)
            warnings.warn(
                f"exchangeable correlation estimate {rho:.6g} outside "
                f"({rho_lo:.6g}, {rho_hi:.6g}); clamped to {clamped:.6g}",
                stacklevel=2,
            )
            rho = clamped
        a = 1.0 / (1.0 - rho)
        b = rho / (1.0 + (m - 1) * rho)
        x_colsum = x.sum(axis=1)  # (N, p): X_i' 1
        y_sum = y.sum(axis=1)  # (N,): 1' y_i
        bread = a * (xtx - b * x_colsum.T @ x_colsum)
        rhs = a * (xty - b * x_colsum.T @ y_sum)
        beta_new = _spd_solve(
            (bread + bread.T) / 2.0, rhs, "weighted design matrix X' V^-1 X"
        )
        step = float(np.max(np.abs(beta_new - beta)))
        beta = beta_new
        if step <= tol:
            converged = True
            break
    if not converged:
        msg = (
            f"exchangeable fit did not converge in {max_iter} iterations "
            f"(last beta step {step:.3g} > tol {tol:.3g})"
        )
        raise FitError(msg)

    resid = y - np.einsum("nmp,p->nm", x, beta)
    a = 1.0 / (1.0 - rho)
    b = rho / (1.0 + (m - 1) * rho)
    x_colsum = x.sum(axis=1)
    bread = a * (xtx - b * x_colsum.T @ x_colsum)
    # u_i = X_i' R^-1 e_i = a (X_i' e_i - b (X_i' 1)(1' e_i)).
    u = a * (
        np.einsum("nmp,nm->np", x, resid)
        - b * x_colsum * resid.sum(axis=1)[:, None]
    )
    meat = u.T @ u
    cov = _sandwich(bread, meat, "weighted design matrix X' V^-1 X")
    if not math.isfinite(rho):
        msg = "exchangeable correlation estimate is not finite"
        raise FitError(msg)
    return BaselineFit(
        method="gee_exchangeable",
        beta_hat=beta,
        covariance=cov,
        rho_hat=float(rho),
        n_iter=n_iter,
        converged=True,
    )
