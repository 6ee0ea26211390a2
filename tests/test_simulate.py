"""Monte-Carlo harness tests: generators, determinism, metric reduction.

Independent checks: covariate recipes verified against their defining
patterns, the noise law against empirical moments with explicit standard
errors, metric definitions against hand-computed identities, and
determinism via canonical-fingerprint comparison across worker counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import dimm.simulate as sim
from dimm.errors import ScenarioError
from dimm.simulate import (
    BlockScenario,
    CovariateSpec,
    SimReport,
    SimScenario,
    bundled_scenario,
    bundled_scenario_names,
    generate_replicate,
    random_between_matrix,
    report_fingerprint,
    run_scenario,
)
from tests.oracles import stacked_replicate


def _tiny_scenario(
    *,
    n_subjects: int = 120,
    n_replicates: int = 12,
    methods: tuple[str, ...] = ("dimm", "gee_independence"),
    sigma: float = 1.0,
    covariates: tuple[CovariateSpec, ...] | None = None,
    intercept: bool = False,
    beta0: tuple[float, ...] | None = None,
    seed: int = 555,
) -> SimScenario:
    if covariates is None:
        covariates = (CovariateSpec(kind="standard_normal"),)
    if beta0 is None:
        beta0 = (1.0,) * (int(intercept) + len(covariates))
    return SimScenario(
        name="tiny",
        n_subjects=n_subjects,
        beta0=np.asarray(beta0),
        blocks=(
            BlockScenario("left", 3, "ar1", "ar1", sigma, 0.4),
            BlockScenario("right", 2, "cs", "cs", sigma, 0.3),
        ),
        between=np.array([[1.0, 0.2], [0.2, 1.0]]),
        covariates=covariates,
        intercept=intercept,
        n_replicates=n_replicates,
        seed=seed,
        methods=methods,
    )


# ---------------------------------------------------------------------------
# Covariate specs and scenario validation
# ---------------------------------------------------------------------------


def test_covariate_spec_validation() -> None:
    CovariateSpec(kind="bernoulli", q=0.3)
    CovariateSpec(kind="categorical", probs=(0.5, 0.5))
    CovariateSpec(kind="interaction", a=1, b=2)
    CovariateSpec(kind="mv_normal_rows", rho=0.5)
    with pytest.raises(ScenarioError):
        CovariateSpec(kind="lognormal")
    with pytest.raises(ScenarioError):
        CovariateSpec(kind="bernoulli", q=1.5)
    with pytest.raises(ScenarioError):
        CovariateSpec(kind="bernoulli")  # q required
    with pytest.raises(ScenarioError):
        CovariateSpec(kind="categorical", probs=(0.5, 0.6))  # sums past 1
    with pytest.raises(ScenarioError):
        CovariateSpec(kind="interaction", a=1)  # b required
    with pytest.raises(ScenarioError):
        CovariateSpec(kind="standard_normal", q=0.5)  # stray field


def test_covariate_spec_dict_round_trip() -> None:
    spec = CovariateSpec(kind="categorical", probs=(0.1, 0.2, 0.7))
    assert CovariateSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ScenarioError):
        CovariateSpec.from_dict({"kind": "uniform01", "mystery": 3})


def test_scenario_validation_errors() -> None:
    with pytest.raises(ScenarioError, match="beta0"):
        _tiny_scenario(beta0=(1.0, 2.0))  # p mismatch
    with pytest.raises(ScenarioError, match="interaction"):
        _tiny_scenario(
            covariates=(
                CovariateSpec(kind="interaction", a=0, b=1),  # self/forward ref
                CovariateSpec(kind="uniform01"),
            ),
            beta0=(1.0, 2.0),
        )
    with pytest.raises(ScenarioError, match="method"):
        _tiny_scenario(methods=("dimm", "ridge_regression"))


def test_scenario_assembles_true_covariance() -> None:
    scn = _tiny_scenario()
    cov = scn.covariance_matrix
    assert cov.shape == (5, 5)
    np.linalg.cholesky(cov)
    # Within-block entries follow the blocks' own laws.
    assert cov[0, 0] == pytest.approx(1.0)
    assert cov[0, 1] == pytest.approx(0.4)  # ar1 lag 1
    assert cov[0, 2] == pytest.approx(0.16)  # ar1 lag 2
    assert cov[3, 4] == pytest.approx(0.3)  # cs off-diagonal
    # Cross-block slab carries the between scale 0.2 with the bridge.
    assert cov[0, 3] != 0.0


def test_random_between_matrix_properties() -> None:
    s1 = random_between_matrix(6, seed=99)
    s2 = random_between_matrix(6, seed=99)
    s3 = random_between_matrix(6, seed=100)
    np.testing.assert_array_equal(s1, s2)
    assert not np.array_equal(s1, s3)
    np.testing.assert_allclose(np.diag(s1), 1.0, atol=1e-12)
    np.testing.assert_allclose(s1, s1.T, atol=0.0)
    assert np.linalg.eigvalsh(s1).min() > 0.0


def test_scenario_dict_round_trip() -> None:
    scn = _tiny_scenario()
    entry = scn.to_dict()
    back = SimScenario.from_dict(entry)
    assert back.to_dict() == entry
    bad = dict(entry)
    bad["surprise"] = 1
    with pytest.raises(ScenarioError, match="surprise"):
        SimScenario.from_dict(bad)


@pytest.mark.parametrize(
    ("mutate", "expected"),
    [
        (lambda e: e["blocks"][0].update(size=12.7), r"scenario\.blocks\[0\]\.size"),
        (
            lambda e: e["blocks"][1].update(structure_true="AR1"),
            r"scenario\.blocks\[1\]\.structure_true must be one of \('ar1', 'cs'\), got 'AR1'",
        ),
        # The layout is checked at load, each message naming the block once.
        # A size-1 cs block raised ZeroDivisionError from Dependence.rho_lower.
        (
            lambda e: e["blocks"][1].update(size=1),
            r"^SimScenario\.blocks: block 'right': size must be an integer >= 2, got 1$",
        ),
        # An empty name loaded, and every dimm replicate then failed.
        (
            lambda e: e["blocks"][1].update(name=""),
            r"^SimScenario\.blocks: block name must be a non-empty string, got ''$",
        ),
        (
            lambda e: e["blocks"][1].update(name="left"),
            r"^scenario 'tiny': block names must be unique; duplicated: \['left'\]$",
        ),
        (
            lambda e: e["blocks"][1].update(size=3, rho=-0.9),
            r"^SimScenario\.blocks: block 'right': cs rho=-0\.9 is not positive definite for a",
        ),
        # A ragged list let numpy's "inhomogeneous shape" error through.
        (
            lambda e: e.update(beta0=[1.0, [2.0]]),
            r"^SimScenario\.beta0: scenario\.beta0 must be a rectangular array of numbers$",
        ),
        (
            lambda e: e.update(between={"kind": "matrix", "values": [[1.0, 0.2], [0.2]]}),
            r"scenario\.between\.values must be a rectangular array of numbers$",
        ),
        (lambda e: e.update(n_subjects="500"), r"scenario\.n_subjects"),
        (lambda e: e.update(seed=True), r"scenario\.seed"),
        (lambda e: e.update(between={"kind": "random"}), r"scenario\.between: .*needs seed"),
        (lambda e: e.update(between={"kind": "random", "seed": 1.5}), r"scenario\.between\.seed"),
        (lambda e: e.update(between={"kind": "wild"}), r"scenario\.between\.kind"),
        (
            lambda e: e.update(between={"kind": "identity", "seed": 3, "values": [[1.0]]}),
            r"scenario\.between: kind 'identity' does not take parameter\(s\) \['seed', 'values'\]",
        ),
        (
            lambda e: e.update(between={"kind": "matrix", "seed": 3, "values": [[1.0]]}),
            r"scenario\.between: kind 'matrix' does not take parameter\(s\) \['seed'\]",
        ),
        (
            lambda e: e.update(between={"kind": "random", "seed": 3, "values": [[1.0]]}),
            r"scenario\.between: kind 'random' does not take parameter\(s\) \['values'\]",
        ),
        (
            lambda e: e.update(between={"kind": "random", "seed": -1}),
            r"scenario\.between: seed must be a non-negative integer, got -1",
        ),
        (
            lambda e: e.update(between={"kind": "random", "seed": 4, "floor": math.inf}),
            r"scenario\.between: need 0 <= off_scale < 1 and a finite floor > 0, got 0\.3, inf",
        ),
        (
            # json.load reads Infinity, and np.linalg.cholesky factors it without complaint.
            lambda e: e.update(
                between=json.loads('{"kind": "matrix", "values": [[Infinity, 0.0], [0.0, 1.0]]}')
            ),
            r"invalid covariance: between-block matrix is not positive definite",
        ),
        # The version and the keys are checked before between is resolved.
        (
            lambda e: e.update(schema_version=2, between={"kind": "wild"}),
            r"unsupported scenario schema_version 2",
        ),
        (
            lambda e: e.update(surprise=1, between={"kind": "wild"}),
            r"unknown scenario fields: \['surprise'\]",
        ),
    ],
)
def test_scenario_fields_are_strictly_typed(mutate, expected) -> None:
    entry = _tiny_scenario().to_dict()
    mutate(entry)
    with pytest.raises(ScenarioError, match=expected):
        SimScenario.from_dict(entry)


def test_scenario_builds_each_fitted_partition_once() -> None:
    scn = _tiny_scenario(methods=("dimm", "dimm:ar1", "dimm:cs"))
    for method, structures in (
        ("dimm", ("ar1", "cs")),
        ("dimm:ar1", ("ar1", "ar1")),
        ("dimm:cs", ("cs", "cs")),
    ):
        part = scn.partition_for(method)
        assert part is scn.partition_for(method)
        assert part.names == ("left", "right")
        assert part.sizes == (3, 2)
        assert tuple(b.structure for b in part.blocks) == structures
    with pytest.raises(ScenarioError, match="'gee_independence' has no block partition"):
        scn.partition_for("gee_independence")


def test_scenario_between_recipes() -> None:
    entry = _tiny_scenario().to_dict()
    scn = SimScenario.from_dict({**entry, "between": {"kind": "identity"}})
    np.testing.assert_array_equal(scn.between, np.eye(2))
    scn = SimScenario.from_dict({**entry, "between": {"kind": "random", "seed": 4}})
    np.testing.assert_array_equal(scn.between, random_between_matrix(2, seed=4))
    spelled = {"kind": "random", "seed": 4, "off_scale": 0.3, "floor": 0.05}
    np.testing.assert_array_equal(
        SimScenario.from_dict({**entry, "between": spelled}).between, scn.between
    )
    tuned = {"kind": "random", "seed": 4, "off_scale": 0.1, "floor": 0.2}
    np.testing.assert_array_equal(
        SimScenario.from_dict({**entry, "between": tuned}).between,
        random_between_matrix(2, seed=4, off_scale=0.1, floor=0.2),
    )
    assert scn.to_dict()["between"] == {"kind": "matrix", "values": scn.between.tolist()}


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_bundled_scenario_round_trips(name: str) -> None:
    entry = bundled_scenario(name).to_dict()
    back = SimScenario.from_dict(entry)
    assert back.to_dict() == entry
    np.testing.assert_array_equal(back.covariance_matrix, bundled_scenario(name).covariance_matrix)


# ---------------------------------------------------------------------------
# Replicate generation
# ---------------------------------------------------------------------------


def test_generate_replicate_deterministic_per_index() -> None:
    scn = _tiny_scenario()
    a = generate_replicate(scn, 3)
    b = generate_replicate(scn, 3)
    c = generate_replicate(scn, 4)
    np.testing.assert_array_equal(a.responses, b.responses)
    np.testing.assert_array_equal(a.covariates, b.covariates)
    assert not np.array_equal(a.responses, c.responses)
    with pytest.raises(ScenarioError):
        generate_replicate(scn, -1)


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_generate_replicate_matches_the_stacking_generator(name: str) -> None:
    scn = bundled_scenario(name)
    for rep in (0, 1):
        data, ref = generate_replicate(scn, rep), stacked_replicate(scn, rep)
        np.testing.assert_array_equal(data.responses, ref.responses)
        np.testing.assert_array_equal(data.covariates, ref.covariates)


def test_generate_replicate_matches_the_stacking_generator_on_row_varying_columns() -> None:
    # Row-varying columns, and interactions of a subject-level column with
    # each, put the design at its full (N, M) shape.
    specs = (
        CovariateSpec(kind="standard_normal"),
        CovariateSpec(kind="mv_normal_rows", rho=0.6),
        CovariateSpec(kind="alternating01"),
        CovariateSpec(kind="interaction", a=1, b=3),
        CovariateSpec(kind="interaction", a=1, b=2),
    )
    scn = _tiny_scenario(covariates=specs, intercept=True, beta0=(0.5, 1.0, -0.4, 0.3, 0.2, 0.1))
    for rep in (0, 5):
        data, ref = generate_replicate(scn, rep), stacked_replicate(scn, rep)
        np.testing.assert_array_equal(data.responses, ref.responses)
        np.testing.assert_array_equal(data.covariates, ref.covariates)


def test_scenario_factors_its_covariance_once(monkeypatch: pytest.MonkeyPatch) -> None:
    scn = _tiny_scenario()
    np.testing.assert_array_equal(
        scn.covariance_factor, np.linalg.cholesky(scn.covariance_matrix)
    )
    with pytest.raises(ValueError):
        scn.covariance_factor[0, 0] = 0.0
    assert "covariance_factor" not in scn.to_dict()
    expected = stacked_replicate(scn, 2)

    def refuse(mat: np.ndarray) -> np.ndarray:
        raise AssertionError("a replicate factored the covariance")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    data = generate_replicate(scn, 2)
    np.testing.assert_array_equal(data.responses, expected.responses)


def test_recipe_columns_match_their_definitions() -> None:
    specs = (
        CovariateSpec(kind="standard_normal"),
        CovariateSpec(kind="bernoulli", q=0.3),
        CovariateSpec(kind="categorical", probs=(0.2, 0.5, 0.3)),
        CovariateSpec(kind="uniform01"),
        CovariateSpec(kind="alternating01"),
        CovariateSpec(kind="interaction", a=1, b=2),
        CovariateSpec(kind="mv_normal_rows", rho=0.6),
    )
    scn = _tiny_scenario(
        n_subjects=400,
        covariates=specs,
        intercept=True,
        beta0=tuple([0.5] + [0.1] * len(specs)),
    )
    data = generate_replicate(scn, 0)
    x = data.covariates
    m = data.n_coordinates

    np.testing.assert_array_equal(x[:, :, 0], 1.0)  # intercept
    # Subject-level draws broadcast across coordinates.
    for col in (1, 2, 3, 4):
        np.testing.assert_array_equal(x[:, :, col], np.repeat(x[:, :1, col], m, axis=1))
    assert set(np.unique(x[:, :, 2])) <= {0.0, 1.0}
    assert set(np.unique(x[:, :, 3])) <= {1.0, 2.0, 3.0}
    assert x[:, :, 4].min() >= 0.0 and x[:, :, 4].max() < 1.0
    # Alternating exposure is a fixed 0/1 pattern over coordinates.
    np.testing.assert_array_equal(
        x[0, :, 5], np.arange(m, dtype=float) % 2
    )
    np.testing.assert_array_equal(x[:, :, 5], np.broadcast_to(x[0, :, 5], (400, m)))
    # Interaction multiplies the referenced earlier columns (here the
    # subject-normal column and the binary column, counting intercept).
    np.testing.assert_array_equal(x[:, :, 6], x[:, :, 1] * x[:, :, 2])
    # Row-varying normal column: not constant within subjects.
    assert np.ptp(x[0, :, 7]) > 0.0
    # Frequencies behave: binary mean near 0.3 over 400 subjects.
    assert abs(x[:, 0, 2].mean() - 0.3) < 0.08


def test_tiny_noise_limit_recovers_signal_exactly() -> None:
    scn = _tiny_scenario(sigma=1e-8)
    data = generate_replicate(scn, 0)
    mu = np.einsum("nmp,p->nm", data.covariates, scn.beta0)
    np.testing.assert_allclose(data.responses, mu, atol=1e-6)


def test_noise_covariance_matches_assembled_matrix() -> None:
    scn = _tiny_scenario(n_subjects=6000)
    data = generate_replicate(scn, 1)
    resid = data.responses - np.einsum("nmp,p->nm", data.covariates, scn.beta0)
    emp = resid.T @ resid / resid.shape[0]
    target = scn.covariance_matrix
    n = resid.shape[0]
    for j in range(5):
        for k in range(5):
            se = math.sqrt((target[j, j] * target[k, k] + target[j, k] ** 2) / n)
            assert abs(emp[j, k] - target[j, k]) <= 4.0 * se, (j, k)


# ---------------------------------------------------------------------------
# Scenario runs and reduction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_report() -> SimReport:
    return run_scenario(_tiny_scenario(), workers=1)


def test_run_scenario_metric_identities(tiny_report: SimReport) -> None:
    for rep in tiny_report.methods:
        r = rep.n_used
        assert r == tiny_report.n_replicates
        assert rep.n_failures == 0
        # RMSE^2 == BIAS^2 + (R-1)/R * ESE^2, by definition of the three.
        lhs = rep.rmse**2
        rhs = rep.bias**2 + (r - 1) / r * rep.ese**2
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)
        # ASE is the plain mean of the reported standard errors.
        np.testing.assert_allclose(rep.ase, rep.std_errors.mean(axis=0), atol=1e-15)
        assert rep.asymptotic_std_errors.shape == rep.std_errors.shape
        if not rep.method.startswith("dimm"):
            np.testing.assert_array_equal(rep.asymptotic_std_errors, rep.std_errors)
        # Coverage and rejection recomputed from the raw draws.
        dev = rep.estimates - tiny_report.beta0[None, :]
        cover = np.mean(np.abs(dev) <= 1.96 * rep.std_errors, axis=0)
        np.testing.assert_array_equal(rep.coverage, cover)
        zcrit = 1.959963984540054
        rej = np.mean(np.abs(rep.estimates / rep.std_errors) > zcrit, axis=0)
        np.testing.assert_array_equal(rep.wald_rejection, rej)


def test_gof_summary_only_for_multi_block_integration(tiny_report: SimReport) -> None:
    combined = tiny_report.method("dimm")
    assert combined.gof is not None
    assert combined.gof.df == (2 - 1) * 1
    assert combined.gof.q_values.shape == (tiny_report.n_replicates,)
    assert combined.gof.mean_q == pytest.approx(float(combined.gof.q_values.mean()))
    assert tiny_report.method("gee_independence").gof is None


def test_rejection_rate_is_the_share_of_reported_p_values_below_005() -> None:
    from dimm.integrate import integrate_fits
    from dimm.pairwise import fit_blocks

    scn = replace(bundled_scenario("micro"), n_replicates=40, methods=("dimm", "dimm:cs"))
    report = run_scenario(scn, workers=1)
    for method in scn.methods:
        p_values = [
            integrate_fits(fit_blocks(generate_replicate(scn, r), scn.partition_for(method))).gof_pvalue
            for r in range(scn.n_replicates)
        ]
        want = sum(p < 0.05 for p in p_values) / len(p_values)
        assert 0.0 < want < 1.0  # both outcomes occur, so the rule is exercised
        assert report.method(method).gof.rejection_rate == want


def test_report_round_trip_and_fingerprint(tiny_report: SimReport) -> None:
    entry = tiny_report.to_dict()
    back = SimReport.from_dict(entry)
    assert report_fingerprint(back) == report_fingerprint(tiny_report)
    bad = dict(entry)
    bad["schema_version"] = 999
    with pytest.raises(ScenarioError, match="schema_version"):
        SimReport.from_dict(bad)
    # Reports written before the jackknife SEs carry version 1, and those
    # with the gof quantile table version 2.
    for old in (1, 2):
        bad["schema_version"] = old
        with pytest.raises(ScenarioError, match="schema_version"):
            SimReport.from_dict(bad)
    with pytest.raises(ScenarioError, match="no method"):
        tiny_report.method("gls_oracle")


def test_worker_count_never_changes_results() -> None:
    scn = _tiny_scenario(n_replicates=6)
    serial = run_scenario(scn, workers=1)
    pooled = run_scenario(scn, workers=3)
    assert report_fingerprint(serial) == report_fingerprint(pooled)


def test_failure_budget_enforced(monkeypatch: pytest.MonkeyPatch) -> None:
    from dimm.errors import FitError

    real = sim._fit_one_method

    def flaky(method, scn, data, _counter={"i": 0}):
        _counter["i"] += 1
        if _counter["i"] % 3 == 0:  # fail a third of all calls
            raise FitError("synthetic optimizer stall")
        return real(method, scn, data)

    monkeypatch.setattr(sim, "_fit_one_method", flaky)
    with pytest.raises(ScenarioError, match="replicates"):
        run_scenario(_tiny_scenario(n_replicates=9, methods=("dimm",)), workers=1)


def test_rare_failures_are_tolerated_and_counted(monkeypatch: pytest.MonkeyPatch) -> None:
    from dimm.errors import FitError

    real = sim._fit_one_method

    def one_bad_rep(method, scn, data, _counter={"i": -1}):
        _counter["i"] += 1
        if _counter["i"] == 4:
            raise FitError("synthetic optimizer stall")
        return real(method, scn, data)

    monkeypatch.setattr(sim, "_fit_one_method", one_bad_rep)
    scn = _tiny_scenario(n_replicates=25, methods=("dimm",))
    report = run_scenario(scn, workers=1)
    rep = report.method("dimm")
    assert rep.n_failures == 1
    assert rep.n_used == 24
    assert 4 not in rep.rep_indices
    assert rep.estimates.shape == (24, 1)


# ---------------------------------------------------------------------------
# Bundled scenarios
# ---------------------------------------------------------------------------


def test_bundled_scenario_catalog() -> None:
    names = bundled_scenario_names()
    assert {"micro", "table1_scaled", "table1_full", "gof_chi2", "eeg_mimic"} <= set(names)
    with pytest.raises(ScenarioError, match="no bundled scenario"):
        bundled_scenario("missing_scenario")


def test_bundled_micro_loads() -> None:
    scn = bundled_scenario("micro")
    assert scn.n_subjects == 200
    assert scn.n_blocks == 2
    assert scn.beta0.shape == (1,)


def test_eeg_mimic_layout() -> None:
    scn = bundled_scenario("eeg_mimic")
    assert scn.n_blocks == 18
    assert scn.total_dim == 138  # (7+7+7+8+9+8) regions x 3 waves
    assert scn.n_subjects == 157
    assert scn.beta0.shape == (4,)
    names = [blk.name for blk in scn.blocks]
    assert "left_po_P2" in names and "left_po_P750" in names
    assert len(set(names)) == 18


def test_eeg_mimic_blockwise_fit_beats_exchangeable_gee_precision() -> None:
    """On the 18-block mimic, the combined estimator is the more precise
    one in large-N efficiency.

    A single exchangeable working correlation stretched across all 138
    responses ignores the block structure; fitting each block separately
    and combining should deliver per-coefficient asymptotic standard
    errors no larger than that baseline's, median over the full
    replication run. At N/(J*p) = 2.2 the finite-sample (jackknife) SEs
    of the combination are wider than these, so they are not compared.
    """
    report = run_scenario(bundled_scenario("eeg_mimic"), workers=1)
    combined = report.method("dimm")
    pooled = report.method("gee_exchangeable")
    assert combined.n_used >= 95 and pooled.n_used >= 95
    med_combined = np.median(combined.asymptotic_std_errors, axis=0)
    med_pooled = np.median(pooled.asymptotic_std_errors, axis=0)
    assert np.all(med_combined <= med_pooled)
