"""On-disk format of the JSON reports, pinned byte for byte.

Every report here is built from literal values, so nothing is computed
and no BLAS or platform difference can move the expected text. A change
to the report codec that alters one byte of a saved report, or of
``report_fingerprint``, fails these tests.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from dimm.errors import ConfigError, ScenarioError
from dimm.io import FitReport, GofReport
from dimm.simulate import GofSummary, MethodReport, SimReport, report_fingerprint


def _fit_report(*, gof_pvalue: float | None = 0.25) -> FitReport:
    return FitReport(
        schema_version=1,
        block_results=(
            {
                "name": "front",
                "structure": "ar1",
                "beta_hat": [1.0, -0.5],
                "sigma": 1.25,
                "rho": 0.5,
                "logcl": -123.456,
                "n_pairs": 3,
                "rel_beta_score": 1e-12,
                "rel_gamma_score": 2.5e-13,
            },
            {
                "name": "back",
                "structure": "cs",
                "beta_hat": [0.75, -0.25],
                "sigma": 0.8,
                "rho": -0.125,
                "logcl": -7.0,
                "n_pairs": 1,
                "rel_beta_score": 0.0,
                "rel_gamma_score": 3e-300,
            },
        ),
        beta_dimm=(0.1 + 0.2, -0.5),
        std_errors=(0.1, 0.2),
        covariance=((0.01, 0.001), (0.001, 0.04)),
        wald=(
            {
                "estimate": 0.30000000000000004,
                "std_error": 0.1,
                "z_value": 3.0,
                "p_value": 0.0027,
                "ci_lower": 0.104,
                "ci_upper": 0.496,
            },
            {
                "estimate": -0.5,
                "std_error": 0.2,
                "z_value": -2.5,
                "p_value": 0.0124,
                "ci_lower": -0.892,
                "ci_upper": -0.108,
            },
        ),
        q_stat=1.5,
        gof_df=2,
        gof_pvalue=gof_pvalue,
        ridge_used=0.0,
        block_names=("front", "back"),
        n_subjects=50,
        timing={"blocks_wall_seconds": 0.5},
    )


def _gof_report() -> GofReport:
    return GofReport(
        schema_version=1,
        beta=(1.2, -0.4),
        q_stat=3.75,
        df=4,
        p_value=0.44,
        block_names=("early", "late"),
        n_subjects=80,
    )


def _method(name: str, gof: GofSummary | None) -> MethodReport:
    return MethodReport(
        method=name,
        n_used=2,
        n_failures=1,
        rep_indices=(0, 2),
        estimates=np.array([[1.0, 2.0], [1.5, 2.5]]),
        std_errors=np.array([[0.1, 0.2], [0.3, 0.4]]),
        asymptotic_std_errors=np.array([[0.125, 0.25], [0.375, 0.5]]),
        rmse=np.array([0.5, 0.25]),
        bias=np.array([0.25, -0.125]),
        ese=np.array([0.35, 0.35]),
        ase=np.array([0.2, 0.3]),
        coverage=np.array([1.0, 0.5]),
        wald_rejection=np.array([0.0, 1.0]),
        gof=gof,
    )


def _sim_report() -> SimReport:
    gof = GofSummary(
        df=2,
        q_values=np.array([1.5, 2.5]),
        mean_q=2.0,
        rejection_rate=0.0,
        probes=np.array([0.05, 0.95]),
        empirical_quantiles=np.array([1.55, 2.45]),
        theoretical_quantiles=np.array([0.1, 6.0]),
    )
    return SimReport(
        schema_version=2,
        scenario_name="golden",
        n_subjects=40,
        n_replicates=3,
        seed=11,
        beta0=np.array([1.25, 2.0]),
        between=np.array([[1.0, 0.25], [0.25, 1.0]]),
        methods=(_method("dimm", gof), _method("gee_independence", None)),
        timing={"dimm": {"wall_seconds": 0.5, "cpu_seconds": 0.25}},
    )


FIT_TEXT = """\
{
  "beta_dimm": [
    0.30000000000000004,
    -0.5
  ],
  "block_names": [
    "front",
    "back"
  ],
  "block_results": [
    {
      "beta_hat": [
        1.0,
        -0.5
      ],
      "logcl": -123.456,
      "n_pairs": 3,
      "name": "front",
      "rel_beta_score": 1e-12,
      "rel_gamma_score": 2.5e-13,
      "rho": 0.5,
      "sigma": 1.25,
      "structure": "ar1"
    },
    {
      "beta_hat": [
        0.75,
        -0.25
      ],
      "logcl": -7.0,
      "n_pairs": 1,
      "name": "back",
      "rel_beta_score": 0.0,
      "rel_gamma_score": 3e-300,
      "rho": -0.125,
      "sigma": 0.8,
      "structure": "cs"
    }
  ],
  "covariance": [
    [
      0.01,
      0.001
    ],
    [
      0.001,
      0.04
    ]
  ],
  "gof_df": 2,
  "gof_pvalue": 0.25,
  "n_subjects": 50,
  "q_stat": 1.5,
  "ridge_used": 0.0,
  "schema_version": 1,
  "std_errors": [
    0.1,
    0.2
  ],
  "timing": {
    "blocks_wall_seconds": 0.5
  },
  "wald": [
    {
      "ci_lower": 0.104,
      "ci_upper": 0.496,
      "estimate": 0.30000000000000004,
      "p_value": 0.0027,
      "std_error": 0.1,
      "z_value": 3.0
    },
    {
      "ci_lower": -0.892,
      "ci_upper": -0.108,
      "estimate": -0.5,
      "p_value": 0.0124,
      "std_error": 0.2,
      "z_value": -2.5
    }
  ]
}
"""

GOF_TEXT = """\
{
  "beta": [
    1.2,
    -0.4
  ],
  "block_names": [
    "early",
    "late"
  ],
  "df": 4,
  "n_subjects": 80,
  "p_value": 0.44,
  "q_stat": 3.75,
  "schema_version": 1
}
"""

SIM_FINGERPRINT = (
    '{"beta0":[1.25,2.0],"between":[[1.0,0.25],[0.25,1.0]],"methods":[{"ase":[0.2,0.3],'
    '"asymptotic_std_errors":[[0.125,0.25],[0.375,0.5]],"bias":[0.25,-0.125],'
    '"coverage":[1.0,0.5],"ese":[0.35,0.35],"estimates":[[1.0,2.0],[1.5,2.5]],'
    '"gof":{"df":2,"empirical_quantiles":[1.55,2.45],"mean_q":2.0,"probes":[0.05,0.95],'
    '"q_values":[1.5,2.5],"rejection_rate":0.0,"theoretical_quantiles":[0.1,6.0]},'
    '"method":"dimm","n_failures":1,"n_used":2,"rep_indices":[0,2],"rmse":[0.5,0.25],'
    '"std_errors":[[0.1,0.2],[0.3,0.4]],"wald_rejection":[0.0,1.0]},{"ase":[0.2,0.3],'
    '"asymptotic_std_errors":[[0.125,0.25],[0.375,0.5]],"bias":[0.25,-0.125],'
    '"coverage":[1.0,0.5],"ese":[0.35,0.35],"estimates":[[1.0,2.0],[1.5,2.5]],"gof":null,'
    '"method":"gee_independence","n_failures":1,"n_used":2,"rep_indices":[0,2],'
    '"rmse":[0.5,0.25],"std_errors":[[0.1,0.2],[0.3,0.4]],"wald_rejection":[0.0,1.0]}],'
    '"n_replicates":3,"n_subjects":40,"scenario_name":"golden","schema_version":2,'
    '"seed":11}'
)


def test_fit_report_text_is_pinned(tmp_path: Path) -> None:
    path = tmp_path / "fit.json"
    _fit_report().save(path)
    assert path.read_text(encoding="utf-8") == FIT_TEXT


def test_fit_report_save_load_save_is_byte_identical(tmp_path: Path) -> None:
    for gof_pvalue in (0.25, None):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        _fit_report(gof_pvalue=gof_pvalue).save(first)
        FitReport.load(first).save(second)
        assert second.read_bytes() == first.read_bytes()


def test_gof_report_text_is_pinned(tmp_path: Path) -> None:
    path = tmp_path / "gof.json"
    _gof_report().save(path)
    assert path.read_text(encoding="utf-8") == GOF_TEXT


def test_sim_report_fingerprint_is_pinned() -> None:
    report = _sim_report()
    assert report_fingerprint(report) == SIM_FINGERPRINT
    assert report_fingerprint(SimReport.from_dict(report.to_dict())) == SIM_FINGERPRINT


def test_gof_and_sim_reports_save_load_save_is_byte_identical(tmp_path: Path) -> None:
    for report in (_gof_report(), _sim_report()):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        report.save(first)
        type(report).load(first).save(second)
        assert second.read_bytes() == first.read_bytes()


def test_report_without_timing_still_loads() -> None:
    for report in (_fit_report(), _sim_report()):
        entry = report.to_dict()
        del entry["timing"]
        assert type(report).from_dict(entry).timing == {}


def test_records_built_in_memory_are_frozen_copies() -> None:
    estimates = np.array([[1.0, 2.0], [1.5, 2.5]])
    method = _method("dimm", None)
    assert not method.estimates.flags.writeable
    assert method.rep_indices == (0, 2)
    report = _sim_report()
    assert not report.beta0.flags.writeable
    assert not report.methods[0].gof.q_values.flags.writeable
    assert isinstance(report.methods, tuple)
    built = replace(method, estimates=estimates)
    estimates[0, 0] = 99.0
    assert built.estimates[0, 0] == 1.0


@pytest.mark.parametrize(
    ("cls", "entry", "error", "match"),
    [
        (FitReport, {"schema_version": 1}, ConfigError, "block_results"),
        (SimReport, {"schema_version": 2}, ScenarioError, "scenario_name"),
        (FitReport, [], ConfigError, "JSON object"),
        (GofReport, "report", ConfigError, "JSON object"),
        (SimReport, None, ScenarioError, "JSON object"),
        (FitReport, {"schema_version": 2}, ConfigError, "schema_version"),
        (FitReport, {}, ConfigError, "schema_version"),
        (GofReport, {"schema_version": 0}, ConfigError, "schema_version"),
    ],
)
def test_malformed_report_raises_typed_error(cls, entry, error, match) -> None:
    with pytest.raises(error, match=match):
        cls.from_dict(entry)


def test_unknown_or_missing_field_is_named() -> None:
    entry = _fit_report().to_dict()
    entry["mystery"] = 1
    with pytest.raises(ConfigError, match="mystery"):
        FitReport.from_dict(entry)
    entry = _sim_report().to_dict()
    entry["methods"][1]["mystery"] = 1
    with pytest.raises(ScenarioError, match="SimReport.methods: .*mystery"):
        SimReport.from_dict(entry)
    entry = _sim_report().to_dict()
    del entry["methods"][0]["gof"]["df"]
    with pytest.raises(ScenarioError, match="MethodReport.gof: .*'df'"):
        SimReport.from_dict(entry)
    entry = _sim_report().to_dict()
    entry["methods"][0]["estimates"] = [["x"]]
    with pytest.raises(ScenarioError, match="MethodReport.estimates"):
        SimReport.from_dict(entry)


def test_report_file_that_is_not_json_or_not_an_object(tmp_path: Path) -> None:
    path = tmp_path / "report.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        FitReport.load(path)
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ScenarioError, match="JSON object"):
        SimReport.load(path)


def test_fit_report_rows_are_frozen() -> None:
    report = _fit_report()
    with pytest.raises(FrozenInstanceError):
        report.block_results[0].sigma = -1.0
    with pytest.raises(FrozenInstanceError):
        report.wald[1].p_value = 1.0
    assert isinstance(report.block_results[0].beta_hat, tuple)
    assert report.to_dict()["block_results"][0]["sigma"] == 1.25


def test_missing_report_file_raises_typed_error(tmp_path: Path) -> None:
    with pytest.raises(ConfigError, match="cannot read report file"):
        FitReport.load(tmp_path / "absent.json")
    with pytest.raises(ScenarioError, match="cannot read report file"):
        SimReport.load(tmp_path / "absent.json")
