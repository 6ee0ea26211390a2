"""Reference functions that only the tests use.

A block's pairwise log-CL is a sum of bivariate normal log densities,
one per coordinate pair. The package computes it in closed form from a
Gram matrix; the pair-level helpers state it one pair at a time, so the
tests can check the closed form against the definition.

The comparators whiten and contract the whole panel at once; the
subject-loop helpers at the end state them one subject at a time, with
a literal ``np.linalg.inv`` of the covariance or working correlation.

``stacked_replicate`` draws a replicate panel the direct way: every
covariate column broadcast to the full (N, M) shape, stacked, and
contracted with ``beta0`` over the full (N, M, p) array, the covariance
factored on every call. ``dimm.simulate.generate_replicate`` builds each
column at its natural shape and must give the same panel, bit for bit.

``save_panel_with_csv_writer`` is the panel writer that sends every cell
through ``csv.writer``; the package joins the data lines itself and must
write the same bytes.

``dense_jackknife`` is the delete-one-subject jackknife batched over the
stacked (N, J p, p) sensitivities themselves, and ``joined_sensitivities``
builds those sensitivities in one pass from the block kernel; the package
reaches both through each subject's q x q sensitivity cores.

``grams_logcl`` is a block's log-CL at any ``(beta, sigma, rho)`` from the
package's own Grams, the objective whose derivatives the package's scores
are checked against where a pair-by-pair sum would be too slow.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dimm.errors import CovarianceError
from dimm.integrate import Moments
from dimm.model import AR1, Dependence, PanelDataset
from dimm.pairwise import _BlockMoments, _grams
from dimm.simulate import SimScenario

_LOG_2PI = math.log(2.0 * math.pi)


def pair_correlation(dependence: Dependence, lag: int) -> float:
    """Correlation between two coordinates ``lag`` positions apart.

    Parameters
    ----------
    dependence : Dependence
        Working family and parameters.
    lag : int
        Positive separation ``|r - t|`` between the two coordinates.

    Returns
    -------
    float
        The pair correlation, inside (-1, 1).

    Raises
    ------
    ValueError
        If ``lag`` is not a positive integer (a pair of coordinates is
        two distinct positions, so lag 0 is meaningless here).
    """
    if int(lag) != lag or lag < 1:
        msg = f"lag must be a positive integer, got {lag!r}"
        raise ValueError(msg)
    if dependence.structure == AR1:
        return float(dependence.rho ** int(lag))
    return float(dependence.rho)


@dataclass(frozen=True)
class PairCovariance:
    """2x2 covariance of a coordinate pair: sigma^2 * [[1, c], [c, 1]]."""

    sigma: float
    corr: float

    def __post_init__(self) -> None:
        sigma = float(self.sigma)
        corr = float(self.corr)
        if not math.isfinite(sigma) or sigma <= 0.0:
            msg = f"sigma must be a finite positive number, got {self.sigma!r}"
            raise CovarianceError(msg)
        if not math.isfinite(corr) or not -1.0 < corr < 1.0:
            msg = f"pair correlation must lie in (-1, 1), got {self.corr!r}"
            raise CovarianceError(msg)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "corr", corr)

    @property
    def matrix(self) -> np.ndarray:
        """The 2x2 covariance matrix as a fresh array."""
        s2 = self.sigma**2
        return np.array([[s2, s2 * self.corr], [s2 * self.corr, s2]])


def pair_covariance(dependence: Dependence, lag: int) -> PairCovariance:
    """Pair covariance implied by a dependence family at a given lag."""
    return PairCovariance(dependence.sigma, pair_correlation(dependence, lag))


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


def gls_normal_equations(
    data: PanelDataset, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """GLS estimate and covariance from per-subject sums with ``inv(sigma)``.

    Returns ``(beta, cov)`` with ``info = sum_i X_i' inv(sigma) X_i``,
    ``beta = solve(info, sum_i X_i' inv(sigma) y_i)`` and ``cov = inv(info)``.
    """
    sigma_inv = np.linalg.inv(sigma)
    p = data.n_covariates
    info = np.zeros((p, p))
    rhs = np.zeros(p)
    for xi, yi in zip(data.covariates, data.responses, strict=True):
        info += xi.T @ sigma_inv @ xi
        rhs += xi.T @ sigma_inv @ yi
    return np.linalg.solve(info, rhs), np.linalg.inv(info)


def gee_sandwich(
    data: PanelDataset, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """GEE estimate and sandwich under the exchangeable correlation ``rho``.

    With ``R_inv = inv((1 - rho) I + rho 11')`` (``rho = 0`` is the
    independence working structure), returns ``(beta, cov)``:
    ``beta`` solves ``sum_i X_i' R_inv (y_i - X_i beta) = 0``, and ``cov``
    is ``inv(B) M inv(B)`` with bread ``B = sum_i X_i' R_inv X_i`` and
    meat ``M = sum_i u_i u_i'``, ``u_i = X_i' R_inv e_i`` at that ``beta``.
    """
    m, p = data.n_coordinates, data.n_covariates
    r_inv = np.linalg.inv((1.0 - rho) * np.eye(m) + rho * np.ones((m, m)))
    bread = np.zeros((p, p))
    rhs = np.zeros(p)
    for xi, yi in zip(data.covariates, data.responses, strict=True):
        bread += xi.T @ r_inv @ xi
        rhs += xi.T @ r_inv @ yi
    beta = np.linalg.solve(bread, rhs)
    meat = np.zeros((p, p))
    for xi, yi in zip(data.covariates, data.responses, strict=True):
        u = xi.T @ r_inv @ (yi - xi @ beta)
        meat += np.outer(u, u)
    bread_inv = np.linalg.inv(bread)
    return beta, bread_inv @ meat @ bread_inv


def stacked_replicate(scn: SimScenario, rep_index: int) -> PanelDataset:
    """Replicate ``rep_index`` of ``scn``, every column stacked at (N, M)."""
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((scn.seed, int(rep_index))))
    )
    n, m = scn.n_subjects, scn.total_dim
    cols: list[np.ndarray] = []
    if scn.intercept:
        cols.append(np.ones((n, m)))
    for spec in scn.covariates:
        if spec.kind == "standard_normal":
            col = np.broadcast_to(rng.standard_normal(n)[:, None], (n, m))
        elif spec.kind == "bernoulli":
            col = np.broadcast_to(
                (rng.random(n) < spec.q).astype(np.float64)[:, None], (n, m)
            )
        elif spec.kind == "categorical":
            values = np.arange(1, len(spec.probs) + 1, dtype=np.float64)
            col = np.broadcast_to(
                rng.choice(values, size=n, p=np.asarray(spec.probs))[:, None], (n, m)
            )
        elif spec.kind == "uniform01":
            col = np.broadcast_to(rng.random(n)[:, None], (n, m))
        elif spec.kind == "interaction":
            col = cols[spec.a] * cols[spec.b]
        elif spec.kind == "mv_normal_rows":
            # rho^d as the running product rho * rho * ..., the recipe's own rounding
            powers = np.cumprod(np.concatenate([[1.0], np.full(m - 1, spec.rho)]))
            corr = powers[np.abs(np.subtract.outer(np.arange(m), np.arange(m)))]
            col = rng.standard_normal((n, m)) @ np.linalg.cholesky(corr).T
        else:  # alternating01
            col = np.broadcast_to(
                (np.arange(m) % 2).astype(np.float64)[None, :], (n, m)
            )
        cols.append(col)
    x = np.stack(cols, axis=-1)
    chol = np.linalg.cholesky(scn.covariance_matrix)
    noise = rng.standard_normal((n, m)) @ chol.T
    y = np.einsum("nmp,p->nm", x, scn.beta0) + noise
    return PanelDataset(responses=y, covariates=x)


def save_panel_with_csv_writer(
    data: PanelDataset,
    response_path: Path,
    covariate_path: Path,
    covariate_names: list[str],
) -> None:
    """Write a panel as ``dimm.io.save_panel`` does, every row by ``csv.writer``."""
    n, m = data.responses.shape
    with response_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"y{j + 1}" for j in range(m)])
        for i in range(n):
            writer.writerow([repr(float(v)) for v in data.responses[i]])
    with covariate_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["subject_id", "position", *covariate_names])
        for i in range(n):
            for t in range(m):
                writer.writerow(
                    [i + 1, t + 1, *[repr(float(v)) for v in data.covariates[i, t]]]
                )


def dense_jackknife(m: Moments, beta: np.ndarray, h: np.ndarray) -> np.ndarray:
    """:func:`dimm.integrate.jackknife_covariance` over the stacked per-subject
    sensitivities ``h`` (N, J p, p): all N recombinations as one batch, with
    ``N S - H_i`` formed for every subject."""
    n = m.n_subjects
    n_blocks, p = m.beta_hats.shape
    shift = m.beta_hats - beta
    r = m.psi + np.einsum("njab,jb->nja", h.reshape(n, n_blocks, p, p), shift).reshape(n, -1)
    s_loo = n * m.s - h
    t_loo = r.sum(axis=0) - r
    u = m.psi @ m.v_inv
    slack = n - np.einsum("na,na->n", u, m.psi)
    ws = m.v_inv @ s_loo
    su = np.einsum("nap,na->np", s_loo, u)
    bread = np.swapaxes(s_loo, 1, 2) @ ws + su[:, :, None] * su[:, None, :] / slack[:, None, None]
    target = np.einsum("nap,na->np", ws, t_loo) + su * (
        np.einsum("na,na->n", u, t_loo) / slack
    )[:, None]
    d_loo = np.linalg.solve(bread, target[:, :, None])[:, :, 0]
    dev = d_loo - d_loo.mean(axis=0)
    cov = (n - 1) / n * (dev.T @ dev)
    return (cov + cov.T) / 2.0


def joined_sensitivities(moments: _BlockMoments, gamma: Dependence) -> np.ndarray:
    """Every subject's ``X_i' K X_i`` (N, p, p) for the block with ``moments``,
    joined from its subject-level and coordinate-level parts without a core."""
    split = moments.split
    a, u = split.a, split.u
    k = moments.kernel(gamma)
    k1 = k.sum(axis=1)
    k1u, h_cc = k1 @ u, np.swapaxes(u, 1, 2) @ (k @ u)
    return split.join_symmetric(
        (k1.sum() * a)[:, :, None] * a[:, None, :],
        a[:, :, None] * k1u[:, None, :],
        (h_cc + np.swapaxes(h_cc, 1, 2)) / 2.0,
    )


def grams_logcl(moments: _BlockMoments, beta: np.ndarray, gamma: Dependence) -> float:
    """Total log-CL of the block with ``moments`` at ``(beta, gamma)``, from
    its ``G0`` and data-free term (:func:`dimm.pairwise._grams`): with ``v =
    (-beta, 1)``, ``-n_total log(2 pi sigma^2) - sum_d n_d log(1 - c_d^2) / 2
    - v'G0 v / (2 sigma^2)``."""
    grams, log_det, _ = _grams([moments], gamma, np.array([[gamma.rho]]))
    v = np.append(-np.asarray(beta, dtype=np.float64), 1.0)
    s2 = gamma.sigma * gamma.sigma
    quad = v @ grams[0, 0, 0] @ v
    return float(-moments.n_total * (_LOG_2PI + math.log(s2)) - 0.5 * log_det[0, 0] - quad / (2.0 * s2))
