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

Each fit reads the design in the one form a panel keeps, its
:class:`~dimm.model.ColumnSplit`. A subject-level column ``a_i 1``
(:attr:`~dimm.model.PanelDataset.subject_level`) is kept in closed form,
by the Gaussian identity link's linear algebra:
the oracle's information takes ``(1'Sigma^-1 1) sum_i a_i a_i'`` and its
right-hand side ``a_i (Sigma^-1 1)'y_i``, and GEE's ``X_i' e_i`` takes
``a_i 1'e_i``, ``X_i' 1`` takes ``M a_i`` and ``X beta`` is broadcast.
Only the coordinate-level columns, with the responses, are whitened:
with ``Sigma = L L'`` and ``Li = inv(L)`` (:func:`dimm._util.inv_cholesky`),
``Li`` times the (M, N*(pc+1)) panel of those columns has Gram matrix
``sum_i [U_i | y_i]' Sigma^-1 [U_i | y_i]``. GEE reads ``X'X`` as the
panel forms it from the split. Every covariance, information and bread
matrix is factored under the package's one positive-definiteness rule
(:func:`dimm._util.cholesky`): a non-finite or indefinite one raises
:class:`~dimm.errors.FitError` ``"<what> is not positive definite"``. A
panel the mean model fits exactly raises ``FitError`` too.

The two GEE fits share a panel's pooled least-squares start, kept on the
panel for as long as it lives (:meth:`~dimm.model.PanelDataset.derived`).
The oracle keeps ``Li`` and ``Sigma^-1 1`` of the last covariance it was
given, keyed by its content, so every replicate of a study shares them,
in a pool worker too; a refusal is never kept.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from dimm._util import EXACT_FIT, check_symmetric, frozen, inv_cholesky, spd_solve
from dimm.errors import FitError
from dimm.model import CS, Dependence, PanelDataset

__all__ = ["BaselineFit", "gee_fit", "gls_oracle"]

_WORKING_CHOICES = ("independence", "exchangeable")
_RHO_CLAMP_MARGIN = 1e-6
# The exchangeable fit's cap on beta updates, and its sup-norm
# convergence tolerance on successive beta iterates.
_MAX_ITER = 100
_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class BaselineFit:
    """Result of a comparator fit.

    It takes ownership of the arrays it is given, read-only (:func:`dimm._util.frozen`).

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
        object.__setattr__(self, "beta_hat", frozen(self.beta_hat))
        object.__setattr__(self, "covariance", frozen(self.covariance))

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))


def _sandwich(bread_inv: np.ndarray, meat: np.ndarray) -> np.ndarray:
    cov = bread_inv @ meat @ bread_inv
    return (cov + cov.T) / 2.0


@functools.lru_cache(maxsize=1)
def _whitening(content: bytes, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``(Li, Sigma^-1 1)`` of the m x m covariance whose bytes are ``content``."""
    sigma = np.frombuffer(content).reshape(m, m)
    check_symmetric(sigma, "covariance", FitError)
    inv_factor = inv_cholesky(sigma, "covariance", FitError)
    return frozen(inv_factor), frozen(inv_factor.T @ inv_factor.sum(axis=1))


def gls_oracle(data: PanelDataset, covariance: np.ndarray) -> BaselineFit:
    """Generalized least squares with a known response covariance.

    Solves ``(sum_i X_i' Sigma^-1 X_i) beta = sum_i X_i' Sigma^-1 y_i``
    and reports the exact covariance ``(sum_i X_i' Sigma^-1 X_i)^-1``.
    Invariant to rescaling ``covariance`` by any positive constant in
    the point estimate (though not, of course, in the covariance), and in
    the refusal of an asymmetric one, which is measured against its
    largest entry (:func:`dimm._util.check_symmetric`).
    """
    sigma = np.asarray(covariance, dtype=np.float64)
    y = data.responses
    n, m = y.shape
    if sigma.shape != (m, m):
        msg = f"covariance has shape {sigma.shape}, expected ({m}, {m})"
        raise FitError(msg)
    inv_factor, ones_w = _whitening(sigma.tobytes(), m)
    split = data.split
    a, u = split.a, split.u
    pc = u.shape[2]
    gram = np.zeros((1, 1))  # with no coordinate-level column nothing is whitened
    if pc:
        # Row (t, i) of the whitened panel is (Li [U_i | y_i])[t].
        z = np.concatenate([u, y[:, :, None]], axis=2).transpose(1, 0, 2)
        wz = (inv_factor @ z.reshape(m, n * (pc + 1))).reshape(m * n, pc + 1)
        gram = wz.T @ wz
    info = split.join_symmetric(ones_w.sum() * (a.T @ a), a.T @ (ones_w @ u), gram[:pc, :pc])
    what = "information matrix sum_i X_i' Sigma^-1 X_i"
    cov = spd_solve(info, np.eye(data.n_covariates), what, FitError)
    cov = (cov + cov.T) / 2.0
    beta = cov @ split.join(a.T @ (y @ ones_w), gram[:pc, pc])
    return BaselineFit(
        method="gls_oracle",
        beta_hat=beta,
        covariance=cov,
        rho_hat=None,
        n_iter=1,
        converged=True,
    )


def _exchangeable_moments(
    resid: np.ndarray, n_params: int
) -> tuple[float, float]:
    """Moment estimates (phi, rho) from an (N, M) residual matrix."""
    n, m = resid.shape
    denom_phi = n * m - n_params
    if denom_phi <= 0:
        msg = f"too few observations (N*M = {n * m}) for p = {n_params}"
        raise FitError(msg)
    sum_sq = float(np.sum(resid**2))
    phi = sum_sq / denom_phi
    # Sum over within-subject pairs t < s of e_it e_is, via the identity
    # sum_{t<s} e_t e_s = ((sum_t e_t)^2 - sum_t e_t^2) / 2.
    pair_sum = (float(np.sum(resid.sum(axis=1) ** 2)) - sum_sq) / 2.0
    denom_rho = n * m * (m - 1) / 2.0 - n_params
    if denom_rho <= 0:
        msg = f"too few within-subject pairs for p = {n_params}"
        raise FitError(msg)
    rho = pair_sum / (phi * denom_rho)
    return phi, rho


def _pooled_start(data: PanelDataset) -> tuple[np.ndarray, ...]:
    """``(X'y, inv(X'X), beta_ols, residuals)`` of a panel, kept on it; an exact fit raises."""

    def build() -> tuple[np.ndarray, ...]:
        y = data.responses
        n, m = y.shape
        split = data.split
        xty = split.join(y.sum(axis=1) @ split.a, y.reshape(-1) @ split.u.reshape(n * m, -1))
        bread_inv = spd_solve(
            data.design_gram, np.eye(data.n_covariates), "pooled design matrix X'X", FitError
        )
        beta = bread_inv @ xty
        resid = split.residuals(y, beta)
        resid_ms, response_ms = float(np.mean(resid**2)), float(np.mean(y**2))
        if not resid_ms > EXACT_FIT * response_ms:
            msg = (
                f"exact fit, the least-squares residuals vanish (mean square {resid_ms:.3g} "
                f"against a response mean square of {response_ms:.3g}); the scale, the "
                "working correlation and the sandwich are not identified"
            )
            raise FitError(msg)
        return tuple(map(frozen, (xty, bread_inv, beta, resid)))

    return data.derived(_pooled_start, build)


def gee_fit(data: PanelDataset, working: str = "independence") -> BaselineFit:
    """Generalized estimating equations for the marginal mean model.

    Parameters
    ----------
    data : PanelDataset
    working : {"independence", "exchangeable"}
        Working correlation structure. Independence reduces to pooled
        ordinary least squares in the point estimate; exchangeable
        alternates the beta solve with moment updates of the common
        correlation until ``max |delta beta| <= 1e-8``, in at most 100
        beta updates.

    Returns
    -------
    BaselineFit
        With the robust sandwich covariance in both cases.

    Raises
    ------
    FitError
        On an unknown working structure, a degenerate design, or an
        exact fit (the residual mean square at the least-squares
        estimate is at most ``1e-12`` times the response mean square,
        so the scale, the correlation and the sandwich are not
        identified).

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
    y = data.responses  # (N, M)
    m, p = data.n_coordinates, data.n_covariates
    split = data.split
    xty, bread_inv, beta, resid = _pooled_start(data)

    if working == "independence":
        # Meat: sum_i X_i' e_i e_i' X_i with u_i = X_i' e_i.
        u = split.cross(resid)
        return BaselineFit(
            method="gee_independence",
            beta_hat=beta,
            covariance=_sandwich(bread_inv, u.T @ u),
            rho_hat=None,
            n_iter=1,
            converged=True,
        )

    # Exchangeable working correlation R = (1 - rho) I + rho 11'.
    # By Sherman-Morrison, R^-1 = a (I - b 11') with
    #   a = 1/(1 - rho),  b = rho / (1 + (M - 1) rho),
    # so X_i' R^-1 u = a (X_i' u - b (X_i' 1)(1' u)). The scale phi
    # cancels from both the estimating equation and the sandwich.
    rho_lo = Dependence(CS).rho_lower(m) + _RHO_CLAMP_MARGIN
    rho_hi = 1.0 - _RHO_CLAMP_MARGIN
    x_sum = split.join(m * split.a, split.u.sum(axis=1))  # (N, p): X_i' 1
    y_sum = y.sum(axis=1)  # (N,): 1' y_i
    xsx = x_sum.T @ x_sum
    xsy = x_sum.T @ y_sum
    n_iter = 0
    converged = False
    for n_iter in range(1, _MAX_ITER + 1):
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
        bread = a * (data.design_gram - b * xsx)
        bread_inv = spd_solve(bread, np.eye(p), "weighted design matrix X' V^-1 X", FitError)
        beta_new = bread_inv @ (a * (xty - b * xsy))
        step = float(np.max(np.abs(beta_new - beta)))
        beta = beta_new
        resid = split.residuals(y, beta)
        if step <= _TOL:
            converged = True
            break
    if not converged:
        msg = (
            f"exchangeable fit did not converge in {_MAX_ITER} iterations "
            f"(last beta step {step:.3g} > tol {_TOL:.3g})"
        )
        raise FitError(msg)

    # u_i = X_i' R^-1 e_i = a (X_i' e_i - b (X_i' 1)(1' e_i)).
    u = a * (split.cross(resid) - b * x_sum * resid.sum(axis=1)[:, None])
    return BaselineFit(
        method="gee_exchangeable",
        beta_hat=beta,
        covariance=_sandwich(bread_inv, u.T @ u),
        rho_hat=float(rho),
        n_iter=n_iter,
        converged=True,
    )
