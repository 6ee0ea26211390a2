"""Integration of block fits into one estimate with full inference.

The flow is summary -> combine -> jackknife. :func:`weight_matrix`
builds the moment summary, a :class:`Moments` record, once: the stacked
per-subject scores ``psi_i = (psi_i1', ..., psi_iJ')'`` (each block's
beta-score at its own estimate), the per-subject sensitivity cores
``Phi_ij`` (subject i's block-j sensitivity is ``H_ij = L_i' Phi_ij
L_i``, :class:`~dimm.model.ColumnSplit`), the stacked block
sensitivities ``S_j``, and the inverse of the weight matrix

    V_hat = (1/N) sum_i psi_i psi_i'          (uncentered outer products).

Every later step reads the record and stacks nothing.
:func:`one_step_estimator` forms the bread ``sum_jk S_j W_jk S_k``
once, ``W_jk`` being the (j, k) p x p slice of ``V_hat^(-1)``, and
combines the block estimates in closed form:

    beta_combined = (sum_jk S_j W_jk S_k)^(-1) sum_jk S_j W_jk S_k beta_k.

:func:`dimm_covariance` inverts the same bread into the asymptotic
covariance ``(N sum_jk S_j W_jk S_k)^(-1)``. That formula treats
``V_hat`` as known; when N is not large against J*p the noise of the
weight matrix is left out and intervals built on it undercover. The
reported covariance is therefore the delete-one-subject jackknife of the
whole combination: each subject is dropped in turn, ``V_hat`` is
downdated by rank one, the block estimates and sensitivities are moved
exactly, and the estimates are recombined. The combination is
affine-equivariant, so the jackknife runs on the deviations
``beta_hat_j - beta_combined`` and gets ``b_(-i) - beta_combined``
directly, without differencing estimates of the size of beta.

Everything here rests on the Gaussian identity link, under which each
block's score is affine in beta:

    psi_ij(beta) = psi_ij(beta_hat_j) - H_ij (beta - beta_hat_j).

So the jackknife needs no refit at the fitted working parameters, and
the quadratic form ``Q_N(beta) = N g(beta)' V_hat^(-1) g(beta)`` needs
no second pass over the data: block j's mean score is ``g_j(beta) =
mean_i psi_ij(beta_hat_j) - S_j (beta - beta_hat_j)`` exactly. ``Q_N``
doubles as an over-identification statistic: with J blocks it is
asymptotically chi-square with (J - 1) p degrees of freedom at the
combined estimate, and with J p at a supplied beta (:func:`gof_test`).

Every symmetric positive definite system here (``V_hat``, the bread) is
solved by :func:`dimm._util.spd_solve`, a Cholesky factor and its
inverse applied twice, and every reported covariance is checked by
:func:`dimm._util.cholesky`. Both apply the package's one
positive-definiteness rule: a non-finite or indefinite matrix raises
:class:`~dimm.errors.IntegrationError` ``"<what> is not positive
definite"``, which the weight matrix's ridge ladder catches.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from dimm._util import cholesky, frozen, spd_solve, subgroup
from dimm.errors import IntegrationError
from dimm.io import CoefficientTest
from dimm.pairwise import BlockFit
from dimm.special import chi2_sf, normal_cdf

if TYPE_CHECKING:
    from collections.abc import Sequence

    from dimm.model import ColumnSplit

__all__ = [
    "CoefficientTest",
    "IntegratedFit",
    "Moments",
    "dimm_covariance",
    "gof_test",
    "integrate_fits",
    "jackknife_covariance",
    "one_step_estimator",
    "q_statistic",
    "weight_matrix",
]

# Ridge ladder for a numerically singular weight matrix: lambda starts at
# 1e-8 * trace/dim and escalates tenfold up to 1e-2 * trace/dim.
_RIDGE_START = 1e-8
_RIDGE_STOP = 1e-2
# A leave-one-out weight matrix counts as singular when the downdate
# slack N - h_i falls to this fraction of N.
_LOO_SLACK_FLOOR = 1e-8
_BREAD = "bread matrix sum_jk S_j W_jk S_k"


def _check_fits(fits: Sequence[BlockFit]) -> None:
    """Common-shape validation: one N, one p and one split of the design
    (the blocks' sensitivities share each subject's ``L_i``), distinct
    block names."""
    if not fits:
        msg = "need at least one block fit"
        raise IntegrationError(msg)
    n = fits[0].n_subjects
    p = fits[0].n_params
    split = fits[0].split
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
        if not (
            np.array_equal(f.split.s, split.s)
            and (f.split.a is split.a or np.array_equal(f.split.a, split.a))
        ):
            msg = (
                f"block {f.name!r} has other subject-level columns or values than "
                f"block {fits[0].name!r}: all blocks must come from the same panel"
            )
            raise IntegrationError(msg)
    names = [f.name for f in fits]
    if len(set(names)) != len(names):
        msg = f"duplicate block names in fits: {names}"
        raise IntegrationError(msg)


@dataclass(frozen=True, eq=False)
class Moments:
    """Moment summary of J block fits on N subjects; built by :func:`weight_matrix`.

    Blocks keep fit order: block j occupies entries ``j*p .. (j+1)*p - 1``
    along every stacked axis of length J*p, and index j along an axis of
    length J. It takes ownership of the arrays it is given, read-only
    (:func:`dimm._util.frozen`).

    Attributes
    ----------
    block_names : tuple of str
        Names of the blocks, in order.
    psi : ndarray, shape (N, J*p)
        Per-subject stacked scores, each block's at its own estimate.
    cores : ndarray, shape (N, J, q, q)
        Per-subject sensitivity cores ``Phi_ij``, ``q = [ps > 0] + pc``.
    split : ColumnSplit
        The blocks' common split of the design: subject i's block-j
        sensitivity is ``H_ij = L_i' Phi_ij L_i``.
    s : ndarray, shape (J*p, p)
        Stacked block sensitivities ``S_j``.
    sb : ndarray, shape (J*p,)
        Stacked ``S_j beta_hat_j``.
    mean_scores : ndarray, shape (J*p,)
        Column means of ``psi``.
    beta_hats : ndarray, shape (J, p)
        Block estimates.
    v_inv : ndarray, shape (J*p, J*p)
        Inverse of ``V_hat + ridge_used * I``; ``V_hat`` itself is not kept.
    ridge_used : float
        0.0 when the plain Cholesky inversion succeeded, otherwise the
        diagonal loading that was added to make it succeed.
    """

    block_names: tuple[str, ...]
    psi: np.ndarray
    cores: np.ndarray
    split: ColumnSplit
    s: np.ndarray
    sb: np.ndarray
    mean_scores: np.ndarray
    beta_hats: np.ndarray
    v_inv: np.ndarray
    ridge_used: float

    def __post_init__(self) -> None:
        for name, value in list(vars(self).items()):
            if isinstance(value, np.ndarray):
                object.__setattr__(self, name, frozen(value))

    @property
    def n_subjects(self) -> int:
        return self.psi.shape[0]


def weight_matrix(fits: Sequence[BlockFit], *, subset: Sequence[str] | None = None) -> Moments:
    """Select the blocks, stack their fits and build the weight matrix, once.

    ``subset`` names the sub-group to keep (default: every fit), in fit
    order; :func:`integrate_fits` and ``dimm gof`` both choose theirs
    here, so a sub-group gives the same numbers as passing only its fits.

    ``V_hat = (1/N) sum_i psi_i psi_i'`` is uncentered by construction:
    at the block optima the mean scores are already ~0, so centering
    would only blur the estimand. Inversion is by Cholesky
    (:func:`dimm._util.spd_solve`); if the matrix is refused as not
    positive definite, a diagonal ridge is escalated tenfold from
    1e-8*trace/dim up to 1e-2*trace/dim before giving up.

    Raises
    ------
    IntegrationError
        If ``subset`` is empty, repeats a name or names no fit; if the
        fits do not share N, p and the split of the design (its
        subject-level columns and their values), or repeat a block name;
        or if even the largest ridge leaves the matrix non-invertible.
    """
    fits = list(fits)
    if subset is not None:
        names = [f.name for f in fits]
        fits = [fits[j] for j in subgroup(names, subset, IntegrationError, "subset")]
    _check_fits(fits)
    psi = np.hstack([f.subject_scores for f in fits])
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

    lam, eye = 0.0, np.eye(dim)
    while True:
        try:
            v_inv = spd_solve(v_hat + lam * eye, eye, "weight matrix", IntegrationError)
        except IntegrationError:
            lam = _RIDGE_START * scale if lam == 0.0 else lam * 10.0
            if lam > _RIDGE_STOP * scale * (1.0 + 1e-12):
                msg = (
                    "weight matrix is numerically singular even after ridge "
                    f"loading up to {_RIDGE_STOP:g}*trace/dim"
                )
                raise IntegrationError(msg) from None
            continue
        break
    return Moments(
        block_names=tuple(f.name for f in fits),
        psi=psi,
        cores=np.stack([f.subject_cores for f in fits], axis=1),
        split=fits[0].split,
        s=np.vstack([f.sensitivity for f in fits]),
        sb=np.concatenate([f.sensitivity @ f.beta_hat for f in fits]),
        # Each block's own column mean: psi.mean(axis=0) sums a one-column
        # block in another order, which moves Q_N in the last bit.
        mean_scores=np.concatenate([f.subject_scores.mean(axis=0) for f in fits]),
        beta_hats=np.array([f.beta_hat for f in fits]),
        v_inv=(v_inv + v_inv.T) / 2.0,
        ridge_used=lam,
    )


def one_step_estimator(m: Moments) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form combination of the block estimates, and its bread.

    Returns ``(beta, bread)`` with ``bread = sum_jk S_j W_jk S_k`` and
    ``beta = bread^(-1) sum_jk S_j W_jk S_k beta_hat_k``. With a single
    block ``beta`` collapses to that block's estimate exactly (up to
    solve roundoff).

    Raises
    ------
    IntegrationError
        If the bread matrix is not positive definite.
    """
    half = m.s.T @ m.v_inv
    bread = half @ m.s
    bread = (bread + bread.T) / 2.0
    return spd_solve(bread, half @ m.sb, _BREAD, IntegrationError), bread


def dimm_covariance(bread: np.ndarray, n_subjects: int) -> np.ndarray:
    """Asymptotic covariance of the combined estimate: (N * bread)^(-1)."""
    cov = spd_solve(bread, np.eye(bread.shape[0]), _BREAD, IntegrationError) / n_subjects
    cov = (cov + cov.T) / 2.0
    cholesky(cov, "combined covariance", IntegrationError)
    return cov


def jackknife_covariance(m: Moments, beta: np.ndarray) -> np.ndarray:
    """Delete-one-subject jackknife covariance of the combined estimate ``beta``.

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

    The block estimates enter as ``beta_hat_j - beta``, so each solve
    gives ``d_i = b_(-i) - beta`` directly (the combination is
    affine-equivariant), and the result is ``(N - 1)/N sum_i (d_i -
    d_bar)(d_i - d_bar)'``.

    Subject i's stacked sensitivity is ``H_i = F_i L_i``, with ``F_i``
    (J*p, q) the stacked ``L_i' Phi_ij`` (:class:`Moments`). So ``N S -
    H_i`` meets ``V_hat^(-1)`` only through ``V_hat^(-1) S``, shared by
    all subjects, and ``V_hat^(-1) F_i``, one product for all N: every
    recombination is p x p algebra on q columns per subject, and no
    (N, J*p, p) array is formed.

    Raises
    ------
    IntegrationError
        If a leave-one-out weight matrix is singular (``N - h_i`` at or
        near 0, possible only without a ridge) or a leave-one-out bread
        matrix cannot be solved.
    """
    n = m.n_subjects
    n_blocks, p = m.beta_hats.shape
    split, cores, s, v_inv = m.split, m.cores, m.s, m.v_inv
    q = cores.shape[-1]
    k = q - split.c.size  # 1 if L_i has a row of subject-level values
    # f[i] = F_i' = (Phi_i1 L_i, ..., Phi_iJ L_i), (q, J p).
    f = split.lift(cores.transpose(0, 2, 1, 3)).reshape(n, q, -1)
    # r_k = psi_k + H_k (beta_hat - beta), so that sum_{k != i} r_k is the
    # leave-one-out target S(-i) (beta_hat - beta) + sum_{k != i} psi_k.
    # Both sides are scaled by N - 1, which cancels in the combination.
    shift = m.beta_hats - beta
    reduced = np.empty((n, q, n_blocks, 1))  # L_i (beta_hat_j - beta)
    reduced[:, :k] = (split.a @ shift[:, split.s].T)[:, None, :, None]
    reduced[:, k:] = shift[:, split.c].T[:, :, None]
    r = m.psi + (f.reshape(n, q, n_blocks, p) * reduced).sum(axis=1).reshape(n, -1)
    t_loo = r.sum(axis=0) - r

    u = m.psi @ v_inv
    slack = n - np.einsum("na,na->n", u, m.psi)
    if np.any(slack <= _LOO_SLACK_FLOOR * n):
        worst = int(np.argmin(slack))
        msg = (
            f"leaving out subject {worst} makes the weight matrix singular "
            f"(N - h_i = {slack[worst]:.3g}); the jackknife is unavailable"
        )
        raise IntegrationError(msg)
    # With s_loo_i = N S - F_i L_i, each of s_loo_i' V^-1 s_loo_i, s_loo_i' u_i
    # and s_loo_i' V^-1 t_loo_i is a shared part plus one on F_i's q columns.
    vs = v_inv @ s
    vf = (f.reshape(n * q, -1) @ v_inv).reshape(n, q, -1)  # F_i' V^-1
    # half + half' is the part of s_loo_i' V^-1 s_loo_i past N^2 S' V^-1 S.
    fvf = split.lift(vf @ np.swapaxes(f, 1, 2))  # F_i' V^-1 F_i L_i, (q, p)
    fvs = (f.reshape(n * q, -1) @ vs).reshape(n, q, p)  # F_i' V^-1 S
    half = split.lift(np.swapaxes(fvf / 2.0 - n * fvs, 1, 2))
    su = n * (u @ s) - split.lift(np.einsum("nqa,na->nq", f, u))
    bread = su[:, :, None] * (su / slack[:, None])[:, None, :]
    bread += half
    bread += np.swapaxes(half, 1, 2)
    bread += (n * n) * (s.T @ vs)
    target = (
        n * (t_loo @ vs)
        - split.lift(np.einsum("nqa,na->nq", vf, t_loo))
        + su * (np.einsum("na,na->n", u, t_loo) / slack)[:, None]
    )
    try:
        d_loo = np.linalg.solve(bread, target[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        msg = "a leave-one-out bread matrix is singular; the jackknife is unavailable"
        raise IntegrationError(msg) from None
    dev = d_loo - d_loo.mean(axis=0)
    cov = (n - 1) / n * (dev.T @ dev)
    cov = (cov + cov.T) / 2.0
    cholesky(cov, "jackknife covariance", IntegrationError)
    return cov


def q_statistic(beta: np.ndarray, m: Moments) -> float:
    """Q_N(beta): every block's mean score moved to a common beta.

    Each block's mean score at ``beta``, with the working parameters held
    at that block's fitted ``gamma_hat``, is ``mean_i psi_ij(beta_hat_j)
    - S_j (beta - beta_hat_j)`` (exact under the identity link); the J
    mean scores are stacked, and the quadratic form against
    ``V_hat^(-1)`` is scaled by N. A ``beta`` of the wrong length, or
    one so far out that Q_N overflows, raises IntegrationError.
    """
    n_blocks, p = m.beta_hats.shape
    beta = np.asarray(beta, dtype=np.float64).reshape(-1)
    if beta.shape != (p,):
        msg = f"beta has length {beta.shape[0]}, expected p={p}"
        raise IntegrationError(msg)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        moved = [s_j @ (beta - b_j) for s_j, b_j in zip(m.s.reshape(n_blocks, p, p), m.beta_hats)]
        g = m.mean_scores - np.concatenate(moved)
        q_val = float(m.n_subjects * g @ m.v_inv @ g)
    if not math.isfinite(q_val):
        msg = f"Q_N is not finite at beta = {beta.tolist()}"
        raise IntegrationError(msg)
    return q_val


def gof_test(
    q_stat: float, n_blocks: int, n_params: int, *, supplied: bool = False
) -> tuple[int, float]:
    """Over-identification test of Q_N at the combined estimate or at a supplied beta.

    Parameters
    ----------
    q_stat : float
        Q_N at the combined estimate, or at a supplied beta.
    n_blocks, n_params : int
        Number of integrated blocks J and mean-parameter dimension p.
    supplied : bool, default False
        True when beta was supplied, not estimated (``dimm gof``).

    Returns
    -------
    (df, p_value)
        Degrees of freedom ``(J - 1) * p``, or ``J * p`` at a supplied
        beta, and the upper-tail chi-square probability.

    Raises
    ------
    IntegrationError
        With J = 1 and an estimated beta, df = 0: the test is refused
        rather than reporting a vacuous p-value.
    """
    if n_blocks < 1 or n_params < 1:
        msg = f"need J >= 1 and p >= 1, got J={n_blocks}, p={n_params}"
        raise IntegrationError(msg)
    df = (n_blocks if supplied else n_blocks - 1) * n_params
    if df == 0:
        msg = (
            "goodness-of-fit test is unavailable with a single block: "
            "there are no over-identifying restrictions (df = 0)"
        )
        raise IntegrationError(msg)
    if not math.isfinite(q_stat) or q_stat < 0.0:
        msg = f"q_stat must be finite and >= 0, got {q_stat!r}"
        raise IntegrationError(msg)
    return df, chi2_sf(q_stat, df)


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
    """Combined estimate across blocks with inference; built by :func:`integrate_fits`.

    It takes ownership of the arrays it is given, read-only (:func:`dimm._util.frozen`).

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
            object.__setattr__(self, name, frozen(getattr(self, name)))

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))

    @property
    def asymptotic_std_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance_asymptotic))

    @property
    def n_blocks(self) -> int:
        return len(self.block_names)


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
        Integrate only the named blocks (sub-group analysis), chosen by
        :func:`weight_matrix`: fit order is kept, and an empty, repeated
        or unknown name raises :class:`~dimm.errors.IntegrationError`.

    Returns
    -------
    IntegratedFit
        ``covariance`` is the jackknife (:func:`jackknife_covariance`),
        ``covariance_asymptotic`` the analytic (:func:`dimm_covariance`).
    """
    m = weight_matrix(fits, subset=subset)
    # Done with the fits: when the caller keeps none, they go before the
    # jackknife's arrays.
    del fits
    beta, bread = one_step_estimator(m)
    cov_asymptotic = dimm_covariance(bread, m.n_subjects)
    cov = jackknife_covariance(m, beta)
    q_val = q_statistic(beta, m)
    if len(m.block_names) > 1:
        gof_df, gof_p = gof_test(q_val, len(m.block_names), beta.shape[0])
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
        block_names=m.block_names,
        n_subjects=m.n_subjects,
        ridge_used=m.ridge_used,
    )
