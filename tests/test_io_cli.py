"""File-format and command-line tests.

Panels are written and re-read through the public CSV contract; configs
exercise the schema validator's field-path error messages; the CLI is
driven end-to-end through subprocesses, including its exit-code map:
2 config, 3 data, 4 fit, 5 integration, 6 scenario.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dimm.errors import ConfigError, DataError, ScenarioError
from dimm.io import (
    SCHEMA_VERSION,
    FitConfig,
    FitReport,
    load_fit_config,
    load_panel,
    save_panel,
    write_estimates_csv,
)
from dimm.model import Dependence, PanelDataset, assemble_kronecker
from dimm.simulate import run_scenario
from tests.oracles import save_panel_with_csv_writer
from tests.test_simulate import _tiny_scenario


def _make_panel(seed: int = 50, n: int = 50, m: int = 5, p: int = 2) -> PanelDataset:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = rng.standard_normal((n, m, p))
    deps = [Dependence("ar1", 1.0, 0.5), Dependence("cs", 1.0, 0.3)]
    cov = assemble_kronecker(np.array([[1.0, 0.3], [0.3, 1.0]]), deps, [3, 2])
    beta = np.array([1.0, -0.5])
    y = np.einsum("nmp,p->nm", x, beta) + rng.standard_normal((n, m)) @ np.linalg.cholesky(cov).T
    return PanelDataset(responses=y, covariates=x)


@pytest.fixture(scope="module")
def panel_files(tmp_path_factory: pytest.TempPathFactory):
    root = tmp_path_factory.mktemp("panel")
    data = _make_panel()
    rp, cp = root / "y.csv", root / "x.csv"
    save_panel(data, rp, cp, covariate_names=["age", "dose"])
    config = {
        "response_path": str(rp),
        "covariate_path": str(cp),
        "intercept": False,
        "blocks": [
            {"name": "front", "size": 3, "structure": "ar1"},
            {"name": "back", "size": 2, "structure": "cs"},
        ],
    }
    cfg = root / "fit.json"
    cfg.write_text(json.dumps(config, indent=2))
    return root, data, rp, cp, cfg, config


# ---------------------------------------------------------------------------
# Panel files
# ---------------------------------------------------------------------------


def test_panel_round_trip_bit_exact(panel_files) -> None:
    _, data, rp, cp, _, _ = panel_files
    back = load_panel(rp, cp)
    np.testing.assert_array_equal(back.responses, data.responses)
    np.testing.assert_array_equal(back.covariates, data.covariates)


def test_save_panel_writes_the_csv_writer_bytes(tmp_path: Path) -> None:
    # Signed zero, the smallest subnormal, exponent forms and a name that
    # needs quoting: the hand-joined lines must match csv.writer's byte for byte.
    specials = [-0.0, 5e-324, 1e-5, 0.1, 1e16, 1e22, -2.5, 123456.789]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(52)))
    y = rng.standard_normal((6, 4))
    x = rng.standard_normal((6, 4, 3))
    y.flat[: len(specials)] = specials
    x.flat[: len(specials)] = specials[::-1]
    data = PanelDataset(responses=y, covariates=x)
    names = ["age", "a,b", 'say "hi"']
    save_panel(data, tmp_path / "y.csv", tmp_path / "x.csv", covariate_names=names)
    save_panel_with_csv_writer(data, tmp_path / "y_ref.csv", tmp_path / "x_ref.csv", names)
    assert (tmp_path / "y.csv").read_bytes() == (tmp_path / "y_ref.csv").read_bytes()
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "x_ref.csv").read_bytes()
    back = load_panel(tmp_path / "y.csv", tmp_path / "x.csv")
    np.testing.assert_array_equal(back.responses, data.responses)
    np.testing.assert_array_equal(back.covariates, data.covariates)
    assert str(back.responses.flat[0]) == "-0.0"


@pytest.mark.parametrize("what", ["response", "covariate"])
def test_save_panel_refuses_an_unwritable_path_with_a_config_error(tmp_path: Path, what: str) -> None:
    # It used to raise a bare FileNotFoundError.
    paths = {"response": tmp_path / "y.csv", "covariate": tmp_path / "x.csv"}
    paths[what] = target = tmp_path / "absent" / f"{what}.csv"
    with pytest.raises(ConfigError) as info:
        save_panel(_make_panel(), paths["response"], paths["covariate"])
    assert str(info.value) == f"cannot write {what} file {target}: No such file or directory"


def test_covariate_rows_may_arrive_shuffled(panel_files, tmp_path: Path) -> None:
    _, data, rp, cp, _, _ = panel_files
    with open(cp, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(51)))
    order = rng.permutation(len(body))
    shuffled = tmp_path / "x_shuffled.csv"
    with shuffled.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([body[i] for i in order])
    back = load_panel(rp, shuffled)
    np.testing.assert_array_equal(back.covariates, data.covariates)


def test_missing_covariate_cell_is_named(panel_files, tmp_path: Path) -> None:
    _, _, rp, cp, _, _ = panel_files
    with open(cp, newline="") as handle:
        rows = list(csv.reader(handle))
    # Drop the entry for subject 7, position 3.
    pruned = [rows[0]] + [r for r in rows[1:] if not (r[0] == "7" and r[1] == "3")]
    broken = tmp_path / "x_missing.csv"
    with broken.open("w", newline="") as handle:
        csv.writer(handle).writerows(pruned)
    with pytest.raises(DataError, match=r"subject 7, position 3"):
        load_panel(rp, broken)


def test_duplicate_covariate_row_is_named(panel_files, tmp_path: Path) -> None:
    _, _, rp, cp, _, _ = panel_files
    with open(cp, newline="") as handle:
        rows = list(csv.reader(handle))
    dup = tmp_path / "x_dup.csv"
    with dup.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows + [rows[1]])
    with pytest.raises(DataError, match="duplicate"):
        load_panel(rp, dup)


def test_non_numeric_response_cell_is_located(panel_files, tmp_path: Path) -> None:
    _, _, rp, cp, _, _ = panel_files
    text = rp.read_text().splitlines()
    cells = text[3].split(",")
    cells[2] = "oops"
    text[3] = ",".join(cells)
    broken = tmp_path / "y_bad.csv"
    broken.write_text("\n".join(text) + "\n")
    with pytest.raises(DataError, match=r"line 4, column 'y3'"):
        load_panel(broken, cp)


def test_wrong_covariate_header_is_rejected(panel_files, tmp_path: Path) -> None:
    _, _, rp, cp, _, _ = panel_files
    text = cp.read_text().splitlines()
    text[0] = text[0].replace("subject_id", "subject")
    broken = tmp_path / "x_header.csv"
    broken.write_text("\n".join(text) + "\n")
    with pytest.raises(DataError, match="header"):
        load_panel(rp, broken)


def test_out_of_range_subject_id(panel_files, tmp_path: Path) -> None:
    _, _, rp, cp, _, _ = panel_files
    text = cp.read_text().splitlines()
    first = text[1].split(",")
    first[0] = "999"
    text.append(",".join(first))
    broken = tmp_path / "x_range.csv"
    broken.write_text("\n".join(text) + "\n")
    with pytest.raises(DataError, match="999"):
        load_panel(rp, broken)


def _set_cell(line: int, column: int, value: str):
    """Edit: replace one cell of a 1-based file line."""

    def edit(lines: list[str]) -> list[str]:
        cells = lines[line - 1].split(",")
        cells[column] = value
        lines[line - 1] = ",".join(cells)
        return lines

    return edit


def _drop_cell(line: int):
    def edit(lines: list[str]) -> list[str]:
        lines[line - 1] = ",".join(lines[line - 1].split(",")[:-1])
        return lines

    return edit


def _blank_line_then(after: int, then):
    """Edit: insert a blank line after a 1-based line, then apply ``then``
    with line numbers of the edited file."""

    def edit(lines: list[str]) -> list[str]:
        return then(lines[:after] + [""] + lines[after:])

    return edit


# (file edited, edit, message pattern). The panel has N=50, M=5 and
# covariates 'age', 'dose'; covariate line k + 1 holds subject 1 + k // 5,
# position 1 + k % 5.
_PANEL_ERRORS = [
    ("x", _set_cell(5, 3, "oops"), r"non-numeric value 'oops' at x_edit\.csv line 5, column 'dose'"),
    ("x", _set_cell(5, 0, "1.5"), r"line 5: subject_id and position must be integers, got '1\.5', '4'"),
    ("x", _set_cell(5, 1, "a"), r"line 5: subject_id and position must be integers, got '1', 'a'"),
    ("x", _set_cell(5, 1, "9"), r"line 5: position 9 outside 1\.\.5 \(response file has 5 columns\)"),
    ("x", _set_cell(5, 1, "0"), r"line 5: position 0 outside 1\.\.5"),
    ("y", _drop_cell(4), r"y_edit\.csv line 4: expected 5 columns, found 4"),
    ("y", _set_cell(3, 1, "nan"), r"non-finite value 'nan' at y_edit\.csv line 3, column 'y2'"),
    ("y", _set_cell(3, 4, "-inf"), r"non-finite value '-inf' at y_edit\.csv line 3, column 'y5'"),
    ("x", _set_cell(7, 2, "inf"), r"non-finite value 'inf' at x_edit\.csv line 7, column 'age'"),
    ("x", _set_cell(7, 3, "NaN"), r"non-finite value 'NaN' at x_edit\.csv line 7, column 'dose'"),
    ("y", lambda lines: lines[:1], r"y_edit\.csv has a header but no data rows"),
    ("x", lambda lines: lines[:1], r"x_edit\.csv: missing entry for subject 1, position 1"),
    ("y", lambda lines: [], r"y_edit\.csv is empty"),
    ("y", _blank_line_then(2, _set_cell(6, 2, "oops")), r"y_edit\.csv line 6, column 'y3'"),
    ("x", _blank_line_then(3, _set_cell(9, 1, "99")), r"x_edit\.csv line 9: position 99"),
    (
        "x",
        _blank_line_then(3, lambda lines: [*lines, lines[1]]),
        r"line 253: duplicate entry for subject 1, position 1",
    ),
]


@pytest.mark.parametrize(("which", "edit", "expected"), _PANEL_ERRORS)
def test_panel_errors_name_their_location(panel_files, tmp_path: Path, which, edit, expected) -> None:
    _, _, rp, cp, _, _ = panel_files
    source = rp if which == "y" else cp
    edited = tmp_path / f"{which}_edit.csv"
    lines = edit(source.read_text().splitlines())
    edited.write_text("".join(line + "\n" for line in lines))
    paths = (edited, cp) if which == "y" else (rp, edited)
    with pytest.raises(DataError, match=expected):
        load_panel(*paths)


def test_clean_panel_is_parsed_without_the_line_locator(
    panel_files, monkeypatch: pytest.MonkeyPatch
) -> None:
    import dimm.io

    _, data, rp, cp, _, _ = panel_files

    def refuse(path: Path):
        raise AssertionError(f"{path} was re-read line by line")

    monkeypatch.setattr(dimm.io, "_data_rows", refuse)
    back = load_panel(rp, cp)
    np.testing.assert_array_equal(back.covariates, data.covariates)


def test_blank_lines_are_skipped(panel_files, tmp_path: Path) -> None:
    _, data, rp, cp, _, _ = panel_files
    y_lines = rp.read_text().splitlines()
    x_lines = cp.read_text().splitlines()
    y_blank, x_blank = tmp_path / "y_blank.csv", tmp_path / "x_blank.csv"
    y_blank.write_text("\n".join([*y_lines[:3], "", *y_lines[3:], ""]) + "\n")
    x_blank.write_text("\n".join([*x_lines[:1], "", *x_lines[1:]]) + "\n")
    back = load_panel(y_blank, x_blank)
    np.testing.assert_array_equal(back.responses, data.responses)
    np.testing.assert_array_equal(back.covariates, data.covariates)


# ---------------------------------------------------------------------------
# Fit config schema
# ---------------------------------------------------------------------------


def test_fit_config_loads(panel_files) -> None:
    _, _, _, _, cfg, raw = panel_files
    config = load_fit_config(cfg)
    assert config.response_path == raw["response_path"]
    assert [b.name for b in config.blocks] == ["front", "back"]
    part = config.partition()
    assert part.total_size == 5
    assert part.blocks[1].structure == "cs"


def test_fit_config_round_trips_and_takes_no_version_setting(panel_files) -> None:
    config = load_fit_config(panel_files[4])
    entry = config.to_dict()
    assert FitConfig.from_dict(entry) == config
    assert FitConfig.from_dict({**entry, "schema_version": SCHEMA_VERSION}) == config
    # The version is a key of the file, not a setting of the record.
    with pytest.raises(TypeError, match="schema_version"):
        FitConfig(**{**entry, "schema_version": 2})


def test_fit_config_blocks_are_the_model_blocks(panel_files) -> None:
    import dimm._util
    import dimm.io
    from dimm.model import Block

    config = load_fit_config(panel_files[4])
    assert all(type(b) is Block for b in config.blocks)
    assert config.partition().blocks == config.blocks
    assert not hasattr(dimm.io, "BlockConfig")
    assert (dimm.io.Report, dimm.io.encode) == (dimm._util.Report, dimm._util.encode)


@pytest.mark.parametrize(
    ("mutate", "expected"),
    [
        (lambda c: c.update(extra_field=1), "unknown config fields"),
        (lambda c: c.pop("blocks"), r"config\.blocks"),
        (lambda c: c["blocks"][0].pop("structure"), r"config\.blocks\[0\]\.structure"),
        (lambda c: c["blocks"][0].update(structure="toeplitz"), r"blocks\[0\]\.structure"),
        (lambda c: c["blocks"][1].update(size="two"), r"config\.blocks\[1\]\.size"),
        (lambda c: c.update(workers=True), r"unknown config fields: \['workers'\]"),
        (lambda c: c.update(workers=0), r"unknown config fields: \['workers'\]"),
        (lambda c: c.update(blocks_to_integrate=["nope"]), "nope"),
        (lambda c: c.update(blocks_to_integrate=["front", "front"]), "duplicates"),
        (lambda c: c.update(blocks_to_integrate=[]), "at least one block"),
        (lambda c: c.update(schema_version=99), "schema_version"),
        (lambda c: c.update(optimizer=[1, 2]), r"unknown config fields: \['optimizer'\]"),
        (lambda c: c.update(blocks=[]), r"config\.blocks: a partition needs at least one block"),
        (
            lambda c: c["blocks"][1].update(size=1),
            r"config\.blocks: block 'back': size must be an integer >= 2, got 1",
        ),
        (
            lambda c: c["blocks"][0].update(name=""),
            r"config\.blocks: block name must be a non-empty string, got ''",
        ),
        (
            lambda c: c["blocks"][1].update(name="front"),
            r"config\.blocks: block names must be unique; duplicated: \['front'\]",
        ),
    ],
)
def test_fit_config_schema_errors(panel_files, tmp_path: Path, mutate, expected) -> None:
    _, _, _, _, _, raw = panel_files
    broken = json.loads(json.dumps(raw))  # deep copy
    mutate(broken)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(broken))
    with pytest.raises(ConfigError, match=expected):
        load_fit_config(path)


@pytest.mark.parametrize(
    ("key", "value", "expected"),
    [("intercept", "no", r"config\.intercept"), ("size", True, r"config\.blocks\[0\]\.size")],
)
def test_fit_config_is_strictly_typed(panel_files, tmp_path: Path, key, value, expected) -> None:
    _, _, _, _, _, raw = panel_files
    broken = json.loads(json.dumps(raw))
    (broken["blocks"][0] if key == "size" else broken)[key] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(broken))
    with pytest.raises(ConfigError, match=expected):
        load_fit_config(path)
    proc = _run_cli("fit", "--config", str(path))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_fit_config_not_json(tmp_path: Path) -> None:
    path = tmp_path / "not.json"
    path.write_text("{')")
    with pytest.raises(ConfigError, match="JSON"):
        load_fit_config(path)


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------


def _run_cli(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "dimm", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def fit_report_json(panel_files, tmp_path_factory: pytest.TempPathFactory) -> Path:
    _, _, _, _, cfg, _ = panel_files
    out = tmp_path_factory.mktemp("cli") / "report.json"
    result = _run_cli("fit", "--config", str(cfg), "--output", str(out), "--workers", "1")
    assert result.returncode == 0, result.stderr
    assert "integrated over 2 block(s)" in result.stdout
    return out


def test_cli_fit_report_content(fit_report_json: Path) -> None:
    report = FitReport.load(fit_report_json)
    assert report.gof_df == (2 - 1) * 2
    assert 0.0 <= report.gof_pvalue <= 1.0
    assert len(report.beta_dimm) == 2
    assert len(report.block_results) == 2
    # Block order and each block's own working family survive fit_blocks.
    assert [(b.name, b.structure) for b in report.block_results] == [
        ("front", "ar1"),
        ("back", "cs"),
    ]
    for entry in report.block_results:
        assert entry.rel_beta_score <= 1e-6
    # Round trip through dict and disk.
    assert FitReport.from_dict(report.to_dict()).to_dict() == report.to_dict()


def test_cli_fit_worker_count_invisible_in_report(panel_files, tmp_path: Path, fit_report_json: Path) -> None:
    _, _, _, _, cfg, _ = panel_files
    out2 = tmp_path / "report2.json"
    result = _run_cli("fit", "--config", str(cfg), "--output", str(out2), "--workers", "2")
    assert result.returncode == 0, result.stderr
    one = json.loads(fit_report_json.read_text())
    two = json.loads(out2.read_text())
    one.pop("timing")
    two.pop("timing")
    assert one == two


def test_cli_fit_single_block_collapses_to_block_estimate(panel_files, tmp_path: Path) -> None:
    _, _, rp, cp, _, _ = panel_files
    config = {
        "response_path": str(rp),
        "covariate_path": str(cp),
        "blocks": [{"name": "all", "size": 5, "structure": "ar1"}],
    }
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "one_report.json"
    result = _run_cli("fit", "--config", str(cfg), "--output", str(out), "--workers", "1")
    assert result.returncode == 0, result.stderr
    assert "single block" in result.stdout
    report = FitReport.load(out)
    assert report.gof_pvalue is None
    assert report.gof_df == 0
    block_beta = report.block_results[0].beta_hat
    np.testing.assert_allclose(report.beta_dimm, block_beta, rtol=0.0, atol=1e-10)


def test_cli_fit_subgroup(panel_files, tmp_path: Path) -> None:
    _, _, rp, cp, _, raw = panel_files
    config = dict(raw, blocks_to_integrate=["back"])
    cfg = tmp_path / "sub.json"
    cfg.write_text(json.dumps(config))
    result = _run_cli("fit", "--config", str(cfg), "--workers", "1")
    assert result.returncode == 0, result.stderr
    assert "integrated over 1 block(s): back" in result.stdout


def test_cli_gof_subgroup(panel_files, tmp_path: Path) -> None:
    _, _, _, _, _, raw = panel_files
    cfg = tmp_path / "sub.json"
    cfg.write_text(json.dumps(dict(raw, blocks_to_integrate=["back"])))
    out = tmp_path / "gof_sub.json"
    result = _run_cli("gof", "--config", str(cfg), "--beta", "1.0,-0.5", "--output", str(out))
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert report["block_names"] == ["back"]
    assert report["df"] == 2


@pytest.mark.parametrize("command", ["fit", "gof"])
@pytest.mark.parametrize(
    ("subset", "expected"),
    [(["nope"], "not found"), (["back", "back"], "duplicates"), ([], "at least one block")],
)
def test_cli_refuses_a_bad_subgroup(panel_files, tmp_path: Path, command, subset, expected) -> None:
    # Unknown, repeated and empty sub-groups are config errors in both commands.
    _, _, _, _, _, raw = panel_files
    cfg = tmp_path / "bad_sub.json"
    cfg.write_text(json.dumps(dict(raw, blocks_to_integrate=subset)))
    args = ["--beta", "1.0,-0.5"] if command == "gof" else []
    result = _run_cli(command, "--config", str(cfg), *args)
    assert result.returncode == 2, result.stderr
    assert expected in result.stderr


def test_cli_gof_command(panel_files) -> None:
    _, _, _, _, cfg, _ = panel_files
    result = _run_cli("gof", "--config", str(cfg), "--beta", "1.0,-0.5")
    assert result.returncode == 0, result.stderr
    # beta is supplied, not estimated: J*p = 2*2 degrees of freedom.
    assert "df = 4" in result.stdout
    bad = _run_cli("gof", "--config", str(cfg), "--beta", "1.0,abc")
    assert bad.returncode == 2
    short = _run_cli("gof", "--config", str(cfg), "--beta", "1.0")
    assert short.returncode == 2
    assert "p=2" in short.stderr
    # A non-finite entry is a config error; a finite beta so far out that
    # Q_N overflows is an integration error. Neither may crash.
    for beta, code in (("nan,0", 2), ("1,inf", 2), ("1,-inf", 2), ("1e308,1e308", 5)):
        refused = _run_cli("gof", "--config", str(cfg), "--beta", beta)
        assert refused.returncode == code, refused.stderr
        assert "finite" in refused.stderr


def test_cli_gof_report_carries_the_io_schema_version(panel_files, tmp_path: Path) -> None:
    import dimm.io

    _, _, _, _, cfg, _ = panel_files
    out = tmp_path / "gof.json"
    result = _run_cli(
        "gof", "--config", str(cfg), "--beta", "1.0,-0.5", "--output", str(out)
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert report["schema_version"] == dimm.io.SCHEMA_VERSION
    assert report["df"] == 4


def test_cli_gof_leaves_the_fit_report_at_output_path(panel_files, tmp_path: Path) -> None:
    # output_path names the fit report; gof without --output writes no file.
    _, _, _, _, _, raw = panel_files
    report_path = tmp_path / "fit_report.json"
    cfg = tmp_path / "with_output.json"
    cfg.write_text(json.dumps(dict(raw, output_path=str(report_path))))
    fit = _run_cli("fit", "--config", str(cfg))
    assert fit.returncode == 0, fit.stderr
    written = report_path.read_bytes()
    gof = _run_cli("gof", "--config", str(cfg), "--beta", "1.0,-0.5")
    assert gof.returncode == 0, gof.stderr
    assert "report written" not in gof.stdout
    assert report_path.read_bytes() == written
    assert len(FitReport.load(report_path).beta_dimm) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fit_report.json", "with_output.json"]


def test_cli_gof_on_a_single_block_has_p_degrees_of_freedom(panel_files, tmp_path: Path) -> None:
    _, _, _, _, _, raw = panel_files
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps(dict(raw, blocks=[{"name": "all", "size": 5, "structure": "ar1"}])))
    out = tmp_path / "gof_one.json"
    result = _run_cli("gof", "--config", str(cfg), "--beta", "1.0,-0.5", "--output", str(out))
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert report["df"] == 2
    assert report["block_names"] == ["all"]
    assert 0.0 <= report["p_value"] <= 1.0


@pytest.mark.parametrize(
    "options",
    [{"simplex_max_iter": 10}, {"grad_tol": 1e-8}, {"accept_tol": 0.0}, {"accept_tol": 1e-6}],
)
def test_cli_rejects_unknown_or_bad_fit_options(panel_files, tmp_path: Path, options) -> None:
    _, _, _, _, _, raw = panel_files
    cfg = tmp_path / "opts.json"
    cfg.write_text(json.dumps(dict(raw, optimizer=options)))
    proc = _run_cli("fit", "--config", str(cfg), "--workers", "1")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_cli_simulate_with_scenario_file(tmp_path: Path) -> None:
    scn = _tiny_scenario(n_replicates=4, methods=("dimm",))
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps(scn.to_dict()))
    out = tmp_path / "sim.json"
    est = tmp_path / "est.csv"
    result = _run_cli(
        "simulate", "--config", str(scn_path), "--workers", "1",
        "--output", str(out), "--estimates-csv", str(est),
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    assert payload["scenario_name"] == "tiny"
    assert payload["n_replicates"] == 4

    with est.open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["method", "rep_index", "coefficient", "estimate", "std_error", "q_stat"]
    body = rows[1:]
    assert len(body) == 4  # 4 replicates x p=1 coefficients x 1 method
    assert all(r[0] == "dimm" and r[5] != "" for r in body)


def test_cli_simulate_bundled_with_replicate_override(tmp_path: Path) -> None:
    out = tmp_path / "micro.json"
    result = _run_cli(
        "simulate", "--scenario", "micro", "--replicates", "5",
        "--workers", "1", "--output", str(out),
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    assert payload["n_replicates"] == 5
    assert {m["method"] for m in payload["methods"]} == {
        "dimm", "gls_oracle", "gee_independence", "gee_exchangeable"
    }


def test_estimates_csv_blank_q_for_comparators(tmp_path: Path) -> None:
    scn = _tiny_scenario(n_replicates=3, methods=("dimm", "gee_independence"))
    report = run_scenario(scn, workers=1)
    path = tmp_path / "flat.csv"
    write_estimates_csv(report, path)
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    dimm_rows = [r for r in rows if r[0] == "dimm"]
    base_rows = [r for r in rows if r[0] == "gee_independence"]
    assert len(dimm_rows) == len(base_rows) == 3
    assert all(float(r[5]) >= 0.0 for r in dimm_rows)
    assert all(r[5] == "" for r in base_rows)


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_cli_exit_codes(panel_files, tmp_path: Path) -> None:
    _, _, rp, cp, cfg, raw = panel_files
    # 2: config problems (argparse and schema alike).
    assert _run_cli("fit").returncode == 2
    assert _run_cli("fit", "--config", str(tmp_path / "absent.json")).returncode == 2
    # 3: ingestion problems.
    data_cfg = dict(raw, response_path=str(tmp_path / "absent.csv"))
    p3 = tmp_path / "cfg3.json"
    p3.write_text(json.dumps(data_cfg))
    proc = _run_cli("fit", "--config", str(p3))
    assert proc.returncode == 3
    assert "error:" in proc.stderr
    # 6: scenario problems.
    assert _run_cli("simulate", "--config", str(tmp_path / "absent.json")).returncode == 6
    not_scn = tmp_path / "notscn.json"
    not_scn.write_text("{\"surprise\": true}")
    assert _run_cli("simulate", "--config", str(not_scn)).returncode == 6
    bad_seed = tmp_path / "badseed.json"
    bad_seed.write_text(
        json.dumps({**_tiny_scenario().to_dict(), "between": {"kind": "random", "seed": -1}})
    )
    proc = _run_cli("simulate", "--config", str(bad_seed))
    assert proc.returncode == 6
    assert "scenario.between: seed must be a non-negative integer" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["fit", "gof"])
def test_cli_refuses_a_bad_block_layout_before_reading_the_panel(
    panel_files, tmp_path: Path, command: str
) -> None:
    # The layout is checked when the config is read: the missing panel
    # files are never opened.
    _, _, _, _, _, raw = panel_files
    cfg = tmp_path / "size1.json"
    blocks = [
        {"name": "front", "size": 4, "structure": "ar1"},
        {"name": "back", "size": 1, "structure": "cs"},
    ]
    absent = {"response_path": str(tmp_path / "y.csv"), "covariate_path": str(tmp_path / "x.csv")}
    cfg.write_text(json.dumps({**raw, **absent, "blocks": blocks}))
    args = ["--beta", "1.0,-0.5"] if command == "gof" else []
    proc = _run_cli(command, "--config", str(cfg), *args)
    assert proc.returncode == 2, proc.stderr
    assert "config.blocks: block 'back': size must be an integer >= 2, got 1" in proc.stderr
    assert "file not found" not in proc.stderr


@pytest.mark.parametrize(
    ("mutate", "expected"),
    [
        (
            lambda e: e["blocks"][1].update(size=1),
            "block 'right': size must be an integer >= 2, got 1",
        ),
        (
            lambda e: e.update(
                between=json.loads('{"kind": "matrix", "values": [[NaN, 0.0], [0.0, 1.0]]}')
            ),
            "invalid covariance: between-block matrix is not positive definite",
        ),
    ],
)
def test_cli_refuses_a_bad_scenario_at_load(tmp_path: Path, mutate, expected) -> None:
    entry = _tiny_scenario(n_replicates=2).to_dict()
    mutate(entry)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(entry))
    proc = _run_cli("simulate", "--config", str(path), "--workers", "1")
    assert proc.returncode == 6, proc.stderr
    assert expected in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    ("command", "flag", "what"),
    [
        ("fit", "--output", "report"),
        ("fit", "output_path", "report"),
        ("gof", "--output", "report"),
        ("simulate", "--output", "report"),
        ("simulate", "--estimates-csv", "estimates CSV"),
    ],
)
def test_cli_unwritable_output_is_a_config_error(
    panel_files, tmp_path: Path, command: str, flag: str, what: str
) -> None:
    # Each writer used to end the run with a FileNotFoundError traceback
    # (exit 1), simulate only after the whole study had run.
    _, _, _, _, cfg, raw = panel_files
    target = tmp_path / "absent" / "out"
    if command == "simulate":
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps(_tiny_scenario(n_replicates=2).to_dict()))
        args = ["--config", str(scn), "--workers", "1"]
    else:
        if flag == "output_path":
            cfg = tmp_path / "fit.json"
            cfg.write_text(json.dumps({**raw, "output_path": str(target)}))
        args = ["--config", str(cfg), *(["--beta", "1.0,-0.5"] if command == "gof" else [])]
    if flag != "output_path":
        args += [flag, str(target)]
    proc = _run_cli(command, *args)
    assert proc.returncode == 2, proc.stderr
    assert f"error: cannot write {what} file {target}: No such file or directory" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    ("flag", "what"), [("--output", "report"), ("--estimates-csv", "estimates CSV")]
)
def test_cli_simulate_checks_its_output_paths_before_the_study(
    tmp_path: Path,
    monkeypatch: pytest.MonkeyPatch,
    capsys: pytest.CaptureFixture,
    flag: str,
    what: str,
) -> None:
    # The study used to run in full before the unwritable path was found.
    import dimm.simulate
    from dimm.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(dimm.simulate, "run_scenario", refuse)
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier run\n")
    other = "--estimates-csv" if flag == "--output" else "--output"
    target = tmp_path / "absent" / "out"
    args = ["simulate", "--scenario", "micro", "--workers", "1", other, str(kept), flag, str(target)]
    assert main(args) == 2
    expected = f"error: cannot write {what} file {target}: No such file or directory"
    assert expected in capsys.readouterr().err
    assert kept.read_text() == "earlier run\n"


def test_cli_simulate_leaves_its_output_files_alone_when_the_study_fails(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    import dimm.simulate
    from dimm.cli import main

    def fail(*args, **kwargs):
        raise ScenarioError("too many replicate failures")

    monkeypatch.setattr(dimm.simulate, "run_scenario", fail)
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.csv"
    kept.write_text("earlier run\n")
    args = ["simulate", "--scenario", "micro", "--workers", "1"]
    assert main([*args, "--output", str(kept), "--estimates-csv", str(fresh)]) == 6
    assert kept.read_text() == "earlier run\n"
    assert not fresh.exists()


@pytest.mark.parametrize("replicates", ["0", "-2"])
def test_cli_rejects_replicate_counts_below_one(replicates: str) -> None:
    proc = _run_cli("simulate", "--scenario", "micro", "--replicates", replicates)
    assert proc.returncode == 2, proc.stderr
    assert f"--replicates must be >= 1, got {replicates}" in proc.stderr


@pytest.mark.parametrize("beta", ["1.0,,-0.5", "1.0,-0.5,", ",1.0,-0.5", "1.0, ,-0.5", ""])
def test_cli_gof_refuses_an_empty_beta_entry(panel_files, beta: str) -> None:
    # "1.0,,-0.5" and "1.0,-0.5," used to drop the empty entry and run.
    _, _, _, _, cfg, _ = panel_files
    proc = _run_cli("gof", "--config", str(cfg), "--beta", beta)
    assert proc.returncode == 2, proc.stderr
    assert "--beta must be a comma-separated list of numbers with no empty entry" in proc.stderr


@pytest.mark.parametrize("command", ["fit", "simulate"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_worker_counts_below_one(panel_files, command, workers) -> None:
    _, _, _, _, cfg, _ = panel_files
    args = {
        "fit": ["fit", "--config", str(cfg)],
        "simulate": ["simulate", "--scenario", "micro", "--replicates", "1"],
    }[command]
    proc = _run_cli(*args, "--workers", workers)
    assert proc.returncode == 2, proc.stderr
    assert f"--workers must be >= 1, got {workers}" in proc.stderr


@pytest.mark.parametrize(
    ("value", "expected"),
    [
        ("abc", "DIMM_WORKERS must be an integer, got 'abc'"),
        ("0", "DIMM_WORKERS must be >= 1, got 0"),
    ],
)
def test_cli_rejects_a_bad_workers_environment_variable(value, expected) -> None:
    import os

    proc = subprocess.run(
        [sys.executable, "-m", "dimm", "simulate", "--scenario", "micro", "--replicates", "1"],
        capture_output=True,
        text=True,
        timeout=600,
        env=dict(os.environ, DIMM_WORKERS=value),
    )
    assert proc.returncode == 2, proc.stderr
    assert expected in proc.stderr
    assert "Traceback" not in proc.stderr


def test_default_worker_count_reads_the_environment(monkeypatch: pytest.MonkeyPatch) -> None:
    from dimm._util import default_worker_count

    monkeypatch.setenv("DIMM_WORKERS", "3")
    assert default_worker_count() == 3
    for bad in ("abc", "1.5", "0", "-2"):
        monkeypatch.setenv("DIMM_WORKERS", bad)
        with pytest.raises(ConfigError, match="DIMM_WORKERS"):
            default_worker_count()


def test_importing_the_package_loads_no_scipy() -> None:
    # Nor the process-pool machinery: only a pooled run_scenario needs it.
    code = (
        "import sys\n"
        "import dimm, dimm.cli, dimm.simulate\n"
        "roots = ('scipy', 'concurrent.futures', 'multiprocessing')\n"
        "print(sorted(m for m in sys.modules if (m + '.').startswith(tuple(r + '.' for r in roots))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_fit_and_gof_load_no_simulation_or_comparator_code(panel_files, tmp_path: Path) -> None:
    _, _, _, _, cfg, _ = panel_files
    out = tmp_path / "fit.json"
    code = (
        "import sys\n"
        "import dimm, dimm.cli\n"
        f"fit = dimm.cli.main(['fit', '--config', {str(cfg)!r}, '--output', {str(out)!r}])\n"
        f"gof = dimm.cli.main(['gof', '--config', {str(cfg)!r}, '--beta', '1.0,-0.5'])\n"
        "print(fit, gof, sorted(m for m in ('dimm.simulate', 'dimm.baselines') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0 []"
    assert len(FitReport.load(out).beta_dimm) == 2


def test_cli_simulate_refuses_an_unknown_bundled_scenario() -> None:
    # The choices are listed without importing dimm.simulate; argparse
    # still refuses a name outside them.
    proc = _run_cli("simulate", "--scenario", "nope")
    assert proc.returncode == 2
    assert "invalid choice: 'nope'" in proc.stderr
    usage = _run_cli("simulate", "--help")
    assert usage.returncode == 0
    assert "{eeg_mimic,gof_chi2,micro,table1_full,table1_scaled}" in usage.stdout


def test_cli_fit_starts_no_process_pool(panel_files, tmp_path: Path) -> None:
    # DIMM_WORKERS=2 would start a pool if fit still read it.
    import os

    _, _, _, _, cfg, _ = panel_files
    pooled, serial = tmp_path / "env.json", tmp_path / "one.json"
    code = (
        "import sys\n"
        "from dimm.cli import main\n"
        f"code = main(['fit', '--config', {str(cfg)!r}, '--output', {str(pooled)!r}])\n"
        "print(code, 'concurrent.futures.process' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=600,
        env=dict(os.environ, DIMM_WORKERS="2"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    result = _run_cli("fit", "--config", str(cfg), "--output", str(serial), "--workers", "1")
    assert result.returncode == 0, result.stderr
    one, two = json.loads(pooled.read_text()), json.loads(serial.read_text())
    one.pop("timing")
    two.pop("timing")
    assert one == two


def test_cli_partition_size_mismatch_is_config_error(panel_files, tmp_path: Path) -> None:
    _, _, rp, cp, _, raw = panel_files
    config = dict(raw, blocks=[{"name": "all", "size": 4, "structure": "ar1"}])
    cfg = tmp_path / "mismatch.json"
    cfg.write_text(json.dumps(config))
    proc = _run_cli("fit", "--config", str(cfg))
    assert proc.returncode == 2
