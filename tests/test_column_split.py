"""Subject-level columns in closed form, pinned against the full-array forms.

A column that holds one value per subject, ``a_i 1``, is read in closed
form by the oracle, both GEE fits, the block moments and the per-subject
block terms (:class:`dimm.model.ColumnSplit`). The oracles here never
split a design:

* ``tests.oracles`` subject loops for the oracle and the GEE fits;
* the stacked block moments F summed pair by pair over the full design;
* ``X_i' K e_i`` and ``X_i' K X_i`` with the full (N, m, p) design, and
  each subject's ``L_i`` of :class:`~dimm.model.ColumnSplit` read off it;
* the package's own fits on a copy of the panel whose columns all count
  as coordinate-level, which is the full-array arithmetic, for the
  integrated fit.
"""

from __future__ import annotations

import numpy as np
import pytest

from dimm import model, pairwise, simulate
from dimm.baselines import gee_fit, gls_oracle
from dimm.integrate import integrate_fits
from dimm.model import ColumnSplit, PanelDataset
from dimm.pairwise import fit_blocks
from dimm.simulate import SimScenario, bundled_scenario, generate_replicate
from tests.oracles import gee_sandwich, gls_normal_equations

_RTOL = 1e-10

# name -> (intercept, covariate recipes, expected subject-level mask)
_DESIGNS = {
    "mixed": (
        True,
        [
            {"kind": "uniform01"},
            {"kind": "bernoulli", "q": 0.4},
            {"kind": "alternating01"},
            {"kind": "mv_normal_rows", "rho": 0.5},
        ],
        [True, True, True, False, False],
    ),
    "subject_level": (
        True,
        [
            {"kind": "standard_normal"},
            {"kind": "categorical", "probs": [0.3, 0.3, 0.4]},
            {"kind": "interaction", "a": 1, "b": 2},
        ],
        [True, True, True, True],
    ),
    "coordinate_level": (
        False,
        [{"kind": "alternating01"}, {"kind": "mv_normal_rows", "rho": 0.3}],
        [False, False],
    ),
}


def _scenario(design: str) -> SimScenario:
    intercept, covariates, _ = _DESIGNS[design]
    p = int(intercept) + len(covariates)
    blocks = [
        {
            "name": name, "size": size, "structure_fit": fit,
            "structure_true": true, "sigma": sigma, "rho": rho,
        }
        for name, size, fit, true, sigma, rho in (
            ("b1", 6, "ar1", "ar1", 1.0, 0.5),
            ("b2", 4, "cs", "cs", 1.5, 0.3),
            ("b3", 7, "ar1", "cs", 0.8, 0.4),
        )
    ]
    return SimScenario.from_dict(
        {
            "name": design,
            "n_subjects": 90,
            "beta0": list(np.linspace(0.5, -0.5, p)),
            "blocks": blocks,
            "between": {"kind": "random", "seed": 5},
            "n_replicates": 2,
            "seed": 23,
            "methods": ["dimm", "gls_oracle", "gee_independence", "gee_exchangeable"],
            "covariates": covariates,
            "intercept": intercept,
        }
    )


def _full_array(data: PanelDataset, monkeypatch: pytest.MonkeyPatch) -> PanelDataset:
    """A copy of ``data`` whose columns all count as coordinate-level."""
    monkeypatch.setattr(model, "_subject_level", lambda x: np.zeros(x.shape[2], bool))
    return PanelDataset(data.responses, data.covariates)


def _pairwise_moments(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F of a block summed pair by pair over ``z_r = (x_r', y_r)'``."""
    z = np.concatenate([x, y[:, :, None]], axis=2)
    m, q = z.shape[1], z.shape[2]
    square, cross = np.zeros((m - 1, q, q)), np.zeros((m - 1, q, q))
    for r in range(m):
        for t in range(r + 1, m):
            zr, zt = z[:, r], z[:, t]
            square[t - r - 1] += zr.T @ zr + zt.T @ zt
            cross[t - r - 1] += (zr.T @ zt + zt.T @ zr) / 2.0
    return np.concatenate([square, cross]).reshape(2 * (m - 1), q * q)


def _close(got: np.ndarray, want: np.ndarray, what: str) -> None:
    want = np.asarray(want)
    np.testing.assert_allclose(
        got, want, rtol=_RTOL, atol=_RTOL * float(np.max(np.abs(want))), err_msg=what
    )


@pytest.mark.parametrize("design", sorted(_DESIGNS))
def test_split_matches_the_full_array_forms(design: str, monkeypatch: pytest.MonkeyPatch) -> None:
    scn = _scenario(design)
    part = scn.partition_for("dimm")
    data = generate_replicate(scn, 1)
    np.testing.assert_array_equal(data.subject_level, _DESIGNS[design][2])

    gls = gls_oracle(data, scn.covariance_matrix)
    checks = [(gls, gls_normal_equations(data, scn.covariance_matrix))]
    for working in ("independence", "exchangeable"):
        fit = gee_fit(data, working)
        checks.append((fit, gee_sandwich(data, fit.rho_hat or 0.0)))
    for fit, (beta, cov) in checks:
        _close(fit.beta_hat, beta, fit.method)
        _close(fit.covariance, cov, fit.method)

    # Each subject's L_i (q x p) read off the design: a_i in its first row at
    # the subject-level positions, the identity on the others.
    mask, n = data.subject_level, data.n_subjects
    ones = int(mask.any())
    lmat = np.zeros((n, ones + int(np.sum(~mask)), data.n_covariates))
    lmat[:, :ones, mask] = data.covariates[:, :1, mask]
    lmat[:, ones:, ~mask] = np.eye(lmat.shape[1] - ones)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(37)))
    for shape in [(n, lmat.shape[1]), (n, 2, 3, lmat.shape[1])]:
        v = rng.standard_normal(shape)
        _close(data.split.lift(v), np.einsum("nqp,n...q->n...p", lmat, v), "L_i' x_i")

    fits = fit_blocks(data, part)
    for fit, sl in zip(fits, part.slices):
        y, x = data.responses[:, sl], data.covariates[:, sl]
        moments = pairwise._moments_for(data, sl.start, sl.stop)
        _close(moments.stacked, _pairwise_moments(y, x), f"F of {fit.name}")
        k = moments.kernel(fit.gamma_hat)
        scores, cores = moments.subject_terms(fit.beta_hat, fit.gamma_hat)
        _close(scores, np.einsum("nmp,mk,nk->np", x, k, y - x @ fit.beta_hat), "X_i' K e_i")
        lkl = np.einsum("nqp,nqr,nrs->nps", lmat, cores, lmat)
        _close(lkl, np.einsum("nmp,mk,nkq->npq", x, k, x), "L_i' Phi_i L_i = X_i' K X_i")

    full = _full_array(data, monkeypatch)
    got, want = integrate_fits(fits), integrate_fits(fit_blocks(full, part))
    for attr in ("beta_dimm", "covariance", "covariance_asymptotic"):
        _close(getattr(got, attr), getattr(want, attr), attr)
    assert got.q_stat == pytest.approx(want.q_stat, rel=_RTOL)


def test_a_broadcast_design_and_its_copy_classify_and_fit_alike() -> None:
    scn = _scenario("subject_level")
    data = generate_replicate(scn, 0)
    values = data.covariates[:, 0, :]
    broadcast = PanelDataset(
        data.responses, np.broadcast_to(values[:, None, :], data.covariates.shape)
    )
    copied = PanelDataset(data.responses, np.ascontiguousarray(broadcast.covariates))
    np.testing.assert_array_equal(broadcast.subject_level, copied.subject_level)
    assert broadcast.subject_level.all()
    part = scn.partition_for("dimm")
    got, want = (integrate_fits(fit_blocks(d, part)) for d in (broadcast, copied))
    for attr in ("beta_dimm", "covariance", "covariance_asymptotic"):
        np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))
    for fit in (
        lambda d: gls_oracle(d, scn.covariance_matrix),
        lambda d: gee_fit(d, "independence"),
        lambda d: gee_fit(d, "exchangeable"),
    ):
        np.testing.assert_array_equal(fit(broadcast).beta_hat, fit(copied).beta_hat)
        np.testing.assert_array_equal(fit(broadcast).covariance, fit(copied).covariance)


def test_a_column_varying_for_one_subject_is_coordinate_level() -> None:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(8)))
    n, m = 150, 5
    x = np.repeat(rng.standard_normal((n, 1, 3)), m, axis=1)
    x[97, 3, 1] += 1e-9  # one subject, one coordinate past the first two
    data = PanelDataset(rng.standard_normal((n, m)), x)
    np.testing.assert_array_equal(data.subject_level, [True, False, True])
    assert data.subject_level is data.subject_level  # worked out once
    with pytest.raises(ValueError):
        data.subject_level.setflags(write=True)


def test_a_replicate_splits_its_design_once(monkeypatch: pytest.MonkeyPatch) -> None:
    # Every block of both dimm families, the oracle and both GEE fits read
    # the one split the panel keeps.
    scn = bundled_scenario("table1_scaled")
    assert set(scn.methods) == {"dimm", "dimm:cs", "gls_oracle", "gee_independence", "gee_exchangeable"}
    split_of = ColumnSplit.of.__func__
    calls = []

    def counted(cls, x, subject_level):
        calls.append(x.shape)
        return split_of(cls, x, subject_level)

    monkeypatch.setattr(ColumnSplit, "of", classmethod(counted))
    outcomes = simulate._run_replicate_task(scn, 0)
    assert all(outcome[0] != "fail" for outcome in outcomes.values()), outcomes
    assert calls == [(scn.n_subjects, sum(scn.partition_for("dimm").sizes), len(scn.beta0))]


@pytest.mark.parametrize("name", ["table1_full", "eeg_mimic"])
def test_a_replicate_never_builds_the_full_design(name: str, monkeypatch: pytest.MonkeyPatch) -> None:
    # The panel builds its (N, M, p) design only for a caller that reads
    # `covariates`; no method of a replicate does.
    scn = bundled_scenario(name)
    panels = []

    def kept(*args):
        panels.append(generate_replicate(*args))
        return panels[-1]

    monkeypatch.setattr(simulate, "generate_replicate", kept)
    outcomes = simulate._run_replicate_task(scn, 0)
    assert all(outcome[0] != "fail" for outcome in outcomes.values()), outcomes
    assert len(panels) == 1
    assert "covariates" not in vars(panels[0])


@pytest.mark.parametrize("design", ["subject_level", "mixed"])
def test_design_gram_from_the_split_matches_the_flat_gram(design: str) -> None:
    data = generate_replicate(_scenario(design), 0)
    flat = data.covariates.reshape(-1, data.n_covariates)
    np.testing.assert_allclose(data.design_gram, flat.T @ flat, rtol=1e-12, atol=0.0)
