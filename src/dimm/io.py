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

The config and reports here are records of the JSON codec
:class:`dimm._util.Report` (re-exported with :func:`encode`).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from dimm._util import Report, _open_for_writing, _refuse_unwritable, encode, subgroup
from dimm.errors import ConfigError, DataError, PartitionError
from dimm.model import Block, BlockPartition, PanelDataset

if TYPE_CHECKING:
    from collections.abc import Iterator, Sequence

    from dimm.integrate import IntegratedFit
    from dimm.pairwise import BlockFit
    from dimm.simulate import SimReport

__all__ = [
    "BlockResult",
    "CoefficientTest",
    "FitConfig",
    "FitReport",
    "GofReport",
    "Report",
    "bundled_scenario_names",
    "encode",
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


def load_panel(
    response_path: str | Path, covariate_path: str | Path, *, intercept: bool = False
) -> PanelDataset:
    """Read the response and covariate files into a validated panel.

    See the module docstring for the file contract. Each file is parsed
    once by numpy's reader and checked with array operations; only when
    a check fails is the file read again, line by line, to name the
    first offending line. ``intercept`` (:attr:`FitConfig.intercept`)
    writes a constant-1 first column into the design the file fills.

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
    k = int(intercept)
    covariates = np.empty((n * m, k + p))
    covariates[:, :k] = 1.0
    covariates[cell, k:] = values
    return PanelDataset(responses=responses, covariates=covariates.reshape(n, m, k + p))


def save_panel(
    data: PanelDataset,
    response_path: str | Path,
    covariate_path: str | Path,
    *,
    covariate_names: Sequence[str] | None = None,
) -> None:
    """Write a panel in the canonical sorted layout ``load_panel`` reads."""
    m = data.n_coordinates
    p = data.n_covariates
    if covariate_names is None:
        covariate_names = [f"x{j + 1}" for j in range(p)]
    if len(covariate_names) != p:
        msg = f"got {len(covariate_names)} covariate names for p={p}"
        raise DataError(msg)
    # Both paths are checked before either file is written, so a refusal
    # leaves no half-written panel. The data lines are joined by hand, as
    # csv.writer would write them: a float's repr needs no quoting. The
    # headers go through csv.writer, since a covariate name may. One
    # subject at a time bounds the memory.
    _refuse_unwritable(response_path, "response")
    _refuse_unwritable(covariate_path, "covariate")
    with _open_for_writing(response_path, "response", newline="") as handle:
        csv.writer(handle).writerow([f"y{j + 1}" for j in range(m)])
        for row in data.responses:
            handle.write(",".join(map(repr, row.tolist())) + "\r\n")
    with _open_for_writing(covariate_path, "covariate", newline="") as handle:
        csv.writer(handle).writerow(["subject_id", "position", *covariate_names])
        for i, subject in enumerate(data.covariates, start=1):
            handle.writelines(
                ",".join([str(i), str(t), *map(repr, cells)]) + "\r\n"
                for t, cells in enumerate(subject.tolist(), start=1)
            )


def bundled_scenario_names() -> tuple[str, ...]:
    """Names of the scenario configs shipped inside the package.

    Listed here rather than in :mod:`dimm.simulate` so that the command
    line can offer them without importing the simulation code.
    """
    from importlib import resources

    files = resources.files("dimm").joinpath("scenarios").iterdir()
    return tuple(sorted(f.name[: -len(".json")] for f in files if f.name.endswith(".json")))


@dataclass(frozen=True)
class FitConfig(Report):
    """Everything the ``fit`` and ``gof`` commands need.

    Parameters
    ----------
    response_path, covariate_path : str
        Panel files in the formats documented in this module.
    blocks : tuple of Block
        Contiguous partition of the M response coordinates, in order,
        each :class:`~dimm.model.Block` naming its fitted family; built
        at load as the :class:`~dimm.model.BlockPartition` that
        :meth:`partition` returns, so a bad layout is a ``ConfigError``
        naming ``config.blocks`` before any panel file is read.
    intercept : bool
        Prepend a constant-1 design column to the file covariates.
    blocks_to_integrate : tuple of str or None
        Optional sub-group: integrate only these blocks. An empty list,
        a repeated name or a name that is not a block is refused.
    output_path : str or None
        Where the fit report is written (None = stdout summary only).
    """

    SCHEMA_VERSION = SCHEMA_VERSION
    ERROR = ConfigError
    PATH = "config"

    response_path: str
    covariate_path: str
    blocks: tuple[Block, ...]
    intercept: bool = False
    blocks_to_integrate: tuple[str, ...] | None = None
    output_path: str | None = None
    _partition: BlockPartition = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        try:
            partition = BlockPartition(self.blocks)
        except PartitionError as exc:
            msg = f"config.blocks: {exc}"
            raise ConfigError(msg) from None
        if self.blocks_to_integrate is not None:
            subgroup(
                partition.names, self.blocks_to_integrate, ConfigError, "config.blocks_to_integrate"
            )
        object.__setattr__(self, "_partition", partition)

    def partition(self) -> BlockPartition:
        return self._partition


load_fit_config = FitConfig.load  # the loader's name in the CLI and earlier releases


@dataclass(frozen=True)
class BlockResult(Report):
    """One block's row of a fit report."""

    ERROR = ConfigError

    name: str
    structure: str
    beta_hat: tuple[float, ...]
    sigma: float
    rho: float
    logcl: float
    n_pairs: int
    rel_beta_score: float
    rel_gamma_score: float


@dataclass(frozen=True)
class CoefficientTest(Report):
    """Wald inference for one coefficient, a row of a fit report's ``wald``."""

    ERROR = ConfigError

    estimate: float
    std_error: float
    z_value: float
    p_value: float
    ci_lower: float
    ci_upper: float


@dataclass(frozen=True)
class FitReport(Report):
    """Lossless record of a full fit: per-block results plus integration.

    ``timing`` is the only non-deterministic field and is segregated at
    the top level, mirroring the simulation report convention.
    """

    SCHEMA_VERSION = SCHEMA_VERSION
    ERROR = ConfigError

    schema_version: int
    block_results: tuple[BlockResult, ...]
    beta_dimm: tuple[float, ...]
    std_errors: tuple[float, ...]
    covariance: tuple[tuple[float, ...], ...]
    wald: tuple[CoefficientTest, ...]
    q_stat: float
    gof_df: int
    gof_pvalue: float | None
    ridge_used: float
    block_names: tuple[str, ...]
    n_subjects: int
    timing: dict[str, float] = field(default_factory=dict)


def build_fit_report(
    fits: Sequence[BlockFit],
    integrated: IntegratedFit,
    timing: dict[str, float],
) -> FitReport:
    """Assemble the serializable report from in-memory fit objects."""
    blocks = [
        BlockResult(
            name=fit.name,
            structure=fit.structure,
            beta_hat=fit.beta_hat,
            sigma=fit.gamma_hat.sigma,
            rho=fit.gamma_hat.rho,
            logcl=fit.logcl,
            n_pairs=fit.n_pairs,
            rel_beta_score=fit.trace.rel_beta_score,
            rel_gamma_score=fit.trace.rel_gamma_score,
        )
        for fit in fits
    ]
    return FitReport(
        schema_version=SCHEMA_VERSION,
        block_results=blocks,
        beta_dimm=integrated.beta_dimm,
        std_errors=integrated.std_errors,
        covariance=integrated.covariance,
        wald=integrated.wald,
        q_stat=integrated.q_stat,
        gof_df=integrated.gof_df,
        gof_pvalue=integrated.gof_pvalue,
        ridge_used=integrated.ridge_used,
        block_names=integrated.block_names,
        n_subjects=integrated.n_subjects,
        timing=timing,
    )


@dataclass(frozen=True)
class GofReport(Report):
    """Result of evaluating the over-identification statistic at a given beta."""

    SCHEMA_VERSION = SCHEMA_VERSION
    ERROR = ConfigError

    schema_version: int
    beta: tuple[float, ...]
    q_stat: float
    df: int
    p_value: float
    block_names: tuple[str, ...]
    n_subjects: int


def write_estimates_csv(report: SimReport, path: str | Path) -> None:
    """Flat per-replicate estimates table for external plotting.

    Long format: one row per (method, replicate, coefficient) with the
    estimate and its reported standard error; the integrated methods
    repeat their per-replicate over-identification statistic on each of
    that replicate's rows (blank for the comparators).
    """
    with _open_for_writing(path, "estimates CSV", newline="") as handle:
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
