"""Panel file ingestion, fit configuration, and report serialization.

File formats
------------
Response file: header-bearing delimited text (comma default), N data rows
by M numeric columns; row i is subject i's response vector, so subject
order is file order.

Covariate file: long format with header ``subject_id, position, <name_1>,
..., <name_p>``. ``subject_id`` is the 1-based response-file row of the
subject, ``position`` the 1-based response coordinate; all N*M
combinations must appear exactly once. Rows may come in any order — the
panel is keyed by (subject_id, position) — and every error message names
the offending row, column, or key.

Configs and reports are JSON with a ``schema_version`` field; all floats
round-trip losslessly through Python's shortest-repr float encoding.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from dimm.errors import ConfigError, DataError
from dimm.model import AR1, CS, BlockPartition, PanelDataset

if TYPE_CHECKING:
    from collections.abc import Iterator, Sequence

    from dimm.integrate import IntegratedFit
    from dimm.pairwise import BlockFit
    from dimm.simulate import SimReport

__all__ = [
    "FitConfig",
    "FitReport",
    "GofReport",
    "load_fit_config",
    "load_panel",
    "save_panel",
    "write_estimates_csv",
]

SCHEMA_VERSION = 1


def _check_float_cell(raw: str, *, where: str) -> None:
    try:
        value = float(raw)
    except ValueError:
        msg = f"non-numeric value {raw!r} at {where}"
        raise DataError(msg) from None
    if not math.isfinite(value):
        msg = f"non-finite value {raw!r} at {where}"
        raise DataError(msg)


def _read_header(path: Path, kind: str) -> tuple[list[str], str]:
    """The header cells of a panel file and the text after the header line."""
    with path.open(newline="", encoding="utf-8") as handle:
        try:
            header = next(csv.reader(handle))
        except StopIteration:
            msg = f"{kind} file {path} is empty"
            raise DataError(msg) from None
        return header, handle.read()


def _parse_body(body: str, dtype: np.dtype, ndmin: int) -> np.ndarray | None:
    """Parse the data lines with numpy's reader; None if any cell fails.

    Blank lines are skipped, as the csv module skips them.
    """
    try:
        return np.loadtxt(
            io.StringIO(body),
            dtype=dtype,
            delimiter=",",
            comments=None,
            quotechar='"',
            ndmin=ndmin,
        )
    except ValueError:
        return None


def _data_rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of every non-blank data line, read by the csv module."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            if row:
                yield line_no, row


def _locate_response_error(path: Path, header: list[str]) -> None:
    """Raise the DataError for the first bad line of a response file."""
    m = len(header)
    for line_no, row in _data_rows(path):
        if len(row) != m:
            msg = f"response file {path} line {line_no}: expected {m} columns, found {len(row)}"
            raise DataError(msg)
        for j, cell in enumerate(row):
            _check_float_cell(cell, where=f"{path.name} line {line_no}, column {header[j]!r}")


def _locate_covariate_error(path: Path, header: list[str], n: int, m: int) -> None:
    """Raise the DataError for the first bad line of a covariate file."""
    names = header[2:]
    seen: set[tuple[int, int]] = set()
    for line_no, row in _data_rows(path):
        if len(row) != len(header):
            msg = (
                f"covariate file {path} line {line_no}: expected "
                f"{len(header)} columns, found {len(row)}"
            )
            raise DataError(msg)
        try:
            sid = int(row[0])
            pos = int(row[1])
        except ValueError:
            msg = (
                f"covariate file {path} line {line_no}: subject_id "
                f"and position must be integers, got {row[0]!r}, {row[1]!r}"
            )
            raise DataError(msg) from None
        if not (1 <= sid <= n):
            msg = (
                f"covariate file {path} line {line_no}: subject_id "
                f"{sid} outside 1..{n} (response file has {n} rows)"
            )
            raise DataError(msg)
        if not (1 <= pos <= m):
            msg = (
                f"covariate file {path} line {line_no}: position "
                f"{pos} outside 1..{m} (response file has {m} columns)"
            )
            raise DataError(msg)
        if (sid, pos) in seen:
            msg = (
                f"covariate file {path} line {line_no}: duplicate "
                f"entry for subject {sid}, position {pos}"
            )
            raise DataError(msg)
        seen.add((sid, pos))
        for j, cell in enumerate(row[2:]):
            _check_float_cell(cell, where=f"{path.name} line {line_no}, column {names[j]!r}")


def _unparsed(kind: str, path: Path) -> DataError:
    return DataError(f"{kind} file {path} could not be parsed as numbers")


def load_panel(response_path: str | Path, covariate_path: str | Path) -> PanelDataset:
    """Read the response and covariate files into a validated panel.

    See the module docstring for the file contract. Each file is parsed
    once by numpy's reader and checked with array operations; only when
    a check fails is the file read again, line by line, to name the
    first offending line.

    Raises
    ------
    DataError
        On missing files, ragged rows, non-numeric or non-finite cells,
        duplicate or missing (subject_id, position) keys — each message
        names the offending location.
    """
    response_path = Path(response_path)
    covariate_path = Path(covariate_path)
    for path in (response_path, covariate_path):
        if not path.is_file():
            msg = f"file not found: {path}"
            raise DataError(msg)

    header, body = _read_header(response_path, "response")
    m = len(header)
    if m < 2:
        msg = f"response file {response_path} needs >= 2 columns, found {m}"
        raise DataError(msg)
    if not body.strip("\r\n"):
        msg = f"response file {response_path} has a header but no data rows"
        raise DataError(msg)
    responses = _parse_body(body, np.dtype(np.float64), 2)
    if responses is None or responses.shape[1] != m or not np.isfinite(responses).all():
        _locate_response_error(response_path, header)
        raise _unparsed("response", response_path)
    n = responses.shape[0]

    header, body = _read_header(covariate_path, "covariate")
    if len(header) < 3 or header[0] != "subject_id" or header[1] != "position":
        msg = (
            f"covariate file {covariate_path} header must start with "
            f"'subject_id', 'position' and have >= 1 covariate column; got {header}"
        )
        raise DataError(msg)
    p = len(header) - 2
    row_type = np.dtype(
        [("subject_id", np.int64), ("position", np.int64), ("x", np.float64, (p,))]
    )
    table = _parse_body(body, row_type, 1) if body.strip("\r\n") else np.empty(0, row_type)
    counts = None
    if table is not None:
        sid, pos, values = table["subject_id"], table["position"], table["x"]
        in_range = np.all((sid >= 1) & (sid <= n) & (pos >= 1) & (pos <= m))
        if in_range and np.isfinite(values).all():
            cell = (sid - 1) * m + (pos - 1)
            counts = np.bincount(cell, minlength=n * m)
    if counts is None or counts.max() > 1:
        _locate_covariate_error(covariate_path, header, n, m)
        raise _unparsed("covariate", covariate_path)
    if cell.shape[0] < n * m:
        sid, pos = divmod(int(np.flatnonzero(counts == 0)[0]), m)
        msg = (
            f"covariate file {covariate_path}: missing entry for "
            f"subject {sid + 1}, position {pos + 1}"
        )
        raise DataError(msg)
    covariates = np.empty((n * m, p))
    covariates[cell] = values
    return PanelDataset(responses=responses, covariates=covariates.reshape(n, m, p))


def save_panel(
    data: PanelDataset,
    response_path: str | Path,
    covariate_path: str | Path,
    *,
    covariate_names: Sequence[str] | None = None,
) -> None:
    """Write a panel in the canonical sorted layout ``load_panel`` reads."""
    n, m = data.responses.shape
    p = data.n_covariates
    if covariate_names is None:
        covariate_names = [f"x{j + 1}" for j in range(p)]
    if len(covariate_names) != p:
        msg = f"got {len(covariate_names)} covariate names for p={p}"
        raise DataError(msg)
    with Path(response_path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"y{j + 1}" for j in range(m)])
        for i in range(n):
            writer.writerow([repr(float(v)) for v in data.responses[i]])
    with Path(covariate_path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["subject_id", "position", *covariate_names])
        for i in range(n):
            for t in range(m):
                writer.writerow(
                    [i + 1, t + 1, *[repr(float(v)) for v in data.covariates[i, t]]]
                )


@dataclass(frozen=True)
class FitConfig:
    """Everything the ``fit`` and ``gof`` commands need.

    Parameters
    ----------
    response_path, covariate_path : str
        Panel files in the formats documented in this module.
    blocks : tuple of (name, size, structure) dicts
        Contiguous partition of the M response coordinates, in order.
    intercept : bool
        Prepend a constant-1 design column to the file covariates.
    blocks_to_integrate : tuple of str or None
        Optional sub-group: integrate only these blocks.
    output_path : str or None
        Where the fit report is written (None = stdout summary only).
    """

    response_path: str
    covariate_path: str
    blocks: tuple[dict[str, Any], ...]
    intercept: bool = False
    blocks_to_integrate: tuple[str, ...] | None = None
    output_path: str | None = None

    def partition(self) -> BlockPartition:
        return BlockPartition.from_sizes(
            [entry["size"] for entry in self.blocks],
            structure=[entry["structure"] for entry in self.blocks],
            names=[entry["name"] for entry in self.blocks],
        )


def _config_field(entry: dict[str, Any], key: str, kind: type, *, where: str) -> Any:
    if key not in entry:
        msg = f"missing required field {where}.{key}"
        raise ConfigError(msg)
    value = entry[key]
    if kind is int and isinstance(value, bool):
        msg = f"field {where}.{key} must be an integer, got a boolean"
        raise ConfigError(msg)
    if not isinstance(value, kind):
        msg = f"field {where}.{key} must be {kind.__name__}, got {type(value).__name__}"
        raise ConfigError(msg)
    return value


def load_fit_config(path: str | Path) -> FitConfig:
    """Parse and schema-validate a fit config JSON file.

    Raises
    ------
    ConfigError
        Naming the offending field path on any schema violation.
    """
    path = Path(path)
    if not path.is_file():
        msg = f"config file not found: {path}"
        raise ConfigError(msg)
    try:
        with path.open(encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        msg = f"config file {path} is not valid JSON: {exc}"
        raise ConfigError(msg) from None
    if not isinstance(raw, dict):
        msg = f"config root must be an object, got {type(raw).__name__}"
        raise ConfigError(msg)
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        msg = f"unsupported config schema_version {version!r} (this build reads {SCHEMA_VERSION})"
        raise ConfigError(msg)
    known = {
        "schema_version",
        "response_path",
        "covariate_path",
        "blocks",
        "intercept",
        "blocks_to_integrate",
        "output_path",
    }
    extra = set(raw) - known
    if extra:
        msg = f"unknown config fields: {sorted(extra)}"
        raise ConfigError(msg)

    blocks_raw = _config_field(raw, "blocks", list, where="config")
    if not blocks_raw:
        msg = "config.blocks must be a non-empty list"
        raise ConfigError(msg)
    blocks = []
    for i, entry in enumerate(blocks_raw):
        if not isinstance(entry, dict):
            msg = f"config.blocks[{i}] must be an object"
            raise ConfigError(msg)
        name = _config_field(entry, "name", str, where=f"config.blocks[{i}]")
        size = _config_field(entry, "size", int, where=f"config.blocks[{i}]")
        structure = _config_field(entry, "structure", str, where=f"config.blocks[{i}]")
        if structure not in (AR1, CS):
            msg = (
                f"config.blocks[{i}].structure must be '{AR1}' or '{CS}', "
                f"got {structure!r}"
            )
            raise ConfigError(msg)
        unknown = set(entry) - {"name", "size", "structure"}
        if unknown:
            msg = f"unknown fields in config.blocks[{i}]: {sorted(unknown)}"
            raise ConfigError(msg)
        blocks.append({"name": name, "size": size, "structure": structure})

    subset_raw = raw.get("blocks_to_integrate")
    subset: tuple[str, ...] | None = None
    if subset_raw is not None:
        if not isinstance(subset_raw, list) or not all(
            isinstance(s, str) for s in subset_raw
        ):
            msg = "config.blocks_to_integrate must be a list of block names"
            raise ConfigError(msg)
        names = {b["name"] for b in blocks}
        missing = [s for s in subset_raw if s not in names]
        if missing:
            msg = f"config.blocks_to_integrate names {missing} not among the configured blocks"
            raise ConfigError(msg)
        subset = tuple(subset_raw)

    output_path = raw.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        msg = f"config.output_path must be a string, got {type(output_path).__name__}"
        raise ConfigError(msg)

    return FitConfig(
        response_path=_config_field(raw, "response_path", str, where="config"),
        covariate_path=_config_field(raw, "covariate_path", str, where="config"),
        blocks=tuple(blocks),
        intercept=bool(raw.get("intercept", False)),
        blocks_to_integrate=subset,
        output_path=output_path,
    )


@dataclass(frozen=True)
class FitReport:
    """Lossless record of a full fit: per-block results plus integration.

    ``timing`` is the only non-deterministic field and is segregated at
    the top level, mirroring the simulation report convention.
    """

    schema_version: int
    block_results: tuple[dict[str, Any], ...]
    beta_dimm: tuple[float, ...]
    std_errors: tuple[float, ...]
    covariance: tuple[tuple[float, ...], ...]
    wald: tuple[dict[str, float], ...]
    q_stat: float
    gof_df: int
    gof_pvalue: float | None
    ridge_used: float
    block_names: tuple[str, ...]
    n_subjects: int
    timing: dict[str, float]

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "block_results": [dict(b) for b in self.block_results],
            "beta_dimm": list(self.beta_dimm),
            "std_errors": list(self.std_errors),
            "covariance": [list(row) for row in self.covariance],
            "wald": [dict(w) for w in self.wald],
            "q_stat": self.q_stat,
            "gof_df": self.gof_df,
            "gof_pvalue": self.gof_pvalue,
            "ridge_used": self.ridge_used,
            "block_names": list(self.block_names),
            "n_subjects": self.n_subjects,
            "timing": dict(self.timing),
        }

    @staticmethod
    def from_dict(entry: dict[str, Any]) -> FitReport:
        version = entry.get("schema_version")
        if version != SCHEMA_VERSION:
            msg = f"unsupported report schema_version {version!r} (this build reads {SCHEMA_VERSION})"
            raise ConfigError(msg)
        return FitReport(
            schema_version=int(version),
            block_results=tuple(dict(b) for b in entry["block_results"]),
            beta_dimm=tuple(float(v) for v in entry["beta_dimm"]),
            std_errors=tuple(float(v) for v in entry["std_errors"]),
            covariance=tuple(tuple(float(v) for v in row) for row in entry["covariance"]),
            wald=tuple(dict(w) for w in entry["wald"]),
            q_stat=float(entry["q_stat"]),
            gof_df=int(entry["gof_df"]),
            gof_pvalue=(
                float(entry["gof_pvalue"]) if entry["gof_pvalue"] is not None else None
            ),
            ridge_used=float(entry["ridge_used"]),
            block_names=tuple(entry["block_names"]),
            n_subjects=int(entry["n_subjects"]),
            timing=dict(entry.get("timing", {})),
        )

    def save(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @staticmethod
    def load(path: str | Path) -> FitReport:
        with Path(path).open(encoding="utf-8") as handle:
            return FitReport.from_dict(json.load(handle))


def build_fit_report(
    fits: Sequence[BlockFit],
    integrated: IntegratedFit,
    timing: dict[str, float],
) -> FitReport:
    """Assemble the serializable report from in-memory fit objects."""
    blocks = []
    for fit in fits:
        blocks.append(
            {
                "name": fit.name,
                "structure": fit.structure,
                "beta_hat": [float(v) for v in fit.beta_hat],
                "sigma": float(fit.gamma_hat.sigma),
                "rho": float(fit.gamma_hat.rho),
                "logcl": float(fit.logcl),
                "n_pairs": int(fit.n_pairs),
                "rel_beta_score": float(fit.trace.rel_beta_score),
                "rel_gamma_score": float(fit.trace.rel_gamma_score),
            }
        )
    wald = [
        {
            "estimate": t.estimate,
            "std_error": t.std_error,
            "z_value": t.z_value,
            "p_value": t.p_value,
            "ci_lower": t.ci_lower,
            "ci_upper": t.ci_upper,
        }
        for t in integrated.wald
    ]
    return FitReport(
        schema_version=SCHEMA_VERSION,
        block_results=tuple(blocks),
        beta_dimm=tuple(float(v) for v in integrated.beta_dimm),
        std_errors=tuple(float(v) for v in integrated.std_errors),
        covariance=tuple(
            tuple(float(v) for v in row) for row in integrated.covariance
        ),
        wald=tuple(wald),
        q_stat=float(integrated.q_stat),
        gof_df=int(integrated.gof_df),
        gof_pvalue=(
            float(integrated.gof_pvalue) if integrated.gof_pvalue is not None else None
        ),
        ridge_used=float(integrated.ridge_used),
        block_names=integrated.block_names,
        n_subjects=integrated.n_subjects,
        timing=timing,
    )


@dataclass(frozen=True)
class GofReport:
    """Result of evaluating the over-identification statistic at a given beta."""

    schema_version: int
    beta: tuple[float, ...]
    q_stat: float
    df: int
    p_value: float
    block_names: tuple[str, ...]
    n_subjects: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "beta": list(self.beta),
            "q_stat": self.q_stat,
            "df": self.df,
            "p_value": self.p_value,
            "block_names": list(self.block_names),
            "n_subjects": self.n_subjects,
        }

    def save(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def write_estimates_csv(report: SimReport, path: str | Path) -> None:
    """Flat per-replicate estimates table for external plotting.

    Long format: one row per (method, replicate, coefficient) with the
    estimate and its reported standard error; the integrated methods
    repeat their per-replicate over-identification statistic on each of
    that replicate's rows (blank for the comparators).
    """
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["method", "rep_index", "coefficient", "estimate", "std_error", "q_stat"]
        )
        for method in report.methods:
            q_by_row: dict[int, float] = {}
            if method.gof is not None:
                q_by_row = {
                    rep: float(q)
                    for rep, q in zip(method.rep_indices, method.gof.q_values)
                }
            for row, rep in enumerate(method.rep_indices):
                q_cell = repr(q_by_row[rep]) if rep in q_by_row else ""
                for coef in range(method.estimates.shape[1]):
                    writer.writerow(
                        [
                            method.method,
                            rep,
                            coef,
                            repr(float(method.estimates[row, coef])),
                            repr(float(method.std_errors[row, coef])),
                            q_cell,
                        ]
                    )
