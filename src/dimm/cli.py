"""Command-line surface: ``fit``, ``simulate``, and ``gof``.

Exit codes are distinct per failure class so callers can branch on them:

* 0 — success
* 2 — configuration problem (bad flags, bad config file, bad partition spec)
* 3 — data ingestion problem (panel files missing, malformed, incomplete)
* 4 — block fit failure (a degenerate block, or scores above the acceptance tolerance)
* 5 — integration failure (degenerate weight or bread matrix)
* 6 — scenario failure (too many replicate failures, bad scenario file)

``fit`` and ``gof`` fit the blocks in this process, a working family's
blocks together (``fit`` still accepts ``--workers`` and ignores it),
and import neither the simulation code nor the comparators: ``simulate``
imports :mod:`dimm.simulate` when it runs. ``gof`` writes its report
only to ``--output``; a config's ``output_path`` names the fit report. Only
``simulate`` runs a worker pool, over replicates: its worker count is the
``--workers`` flag, else the ``DIMM_WORKERS`` environment variable, else
the machine's CPU count. A count that is not an integer >= 1 is a
configuration problem, wherever it comes from. Each command refuses an
unwritable output path up front, and leaves an existing file alone.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from dimm._util import WORKERS_ENV, _refuse_unwritable, default_worker_count
from dimm.errors import (
    ConfigError,
    CovarianceError,
    DataError,
    FitError,
    IntegrationError,
    PartitionError,
    ScenarioError,
)
from dimm.integrate import gof_test, integrate_fits, q_statistic, weight_matrix
from dimm.io import (
    SCHEMA_VERSION,
    FitReport,
    GofReport,
    build_fit_report,
    bundled_scenario_names,
    load_fit_config,
    load_panel,
    write_estimates_csv,
)
from dimm.model import partition_dataset  # noqa: F401  (unused; perfbench/tracing.py probes this name)
from dimm.pairwise import fit_blocks

if TYPE_CHECKING:
    from collections.abc import Sequence

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_FIT = 4
EXIT_INTEGRATION = 5
EXIT_SCENARIO = 6

_EXIT_BY_ERROR = (
    (ConfigError, EXIT_CONFIG),
    (PartitionError, EXIT_CONFIG),
    (DataError, EXIT_DATA),
    (CovarianceError, EXIT_FIT),
    (FitError, EXIT_FIT),
    (IntegrationError, EXIT_INTEGRATION),
    (ScenarioError, EXIT_SCENARIO),
)


def _resolve_workers(flag: int | None) -> int:
    if flag is not None:
        if flag < 1:
            msg = f"--workers must be >= 1, got {flag}"
            raise ConfigError(msg)
        return flag
    return default_worker_count()


def cmd_fit(args: argparse.Namespace) -> int:
    config = load_fit_config(args.config)
    if args.workers is not None:
        _resolve_workers(args.workers)
    output = args.output or config.output_path
    if output:
        _refuse_unwritable(output, FitReport.PATH)
    data = load_panel(config.response_path, config.covariate_path, intercept=config.intercept)

    wall0, cpu0 = time.perf_counter(), time.process_time()
    fits = fit_blocks(data, config.partition())
    wall_blocks = time.perf_counter() - wall0
    cpu_blocks = time.process_time() - cpu0

    wall0, cpu0 = time.perf_counter(), time.process_time()
    integrated = integrate_fits(fits, subset=config.blocks_to_integrate)
    wall_int = time.perf_counter() - wall0
    cpu_int = time.process_time() - cpu0

    report = build_fit_report(
        fits,
        integrated,
        timing={
            "blocks_wall_seconds": wall_blocks,
            "blocks_cpu_seconds": cpu_blocks,
            "integration_wall_seconds": wall_int,
            "integration_cpu_seconds": cpu_int,
        },
    )

    print(
        f"panel: N={data.n_subjects} subjects, M={data.n_coordinates} coordinates, "
        f"p={data.n_covariates} design columns"
    )
    print(f"blocks fitted: {len(fits)}")
    for entry in report.block_results:
        print(
            f"  {entry.name:>12s} [{entry.structure}] "
            f"sigma={entry.sigma:.6g} rho={entry.rho:.6g} logcl={entry.logcl:.6g}"
        )
    print(f"integrated over {len(report.block_names)} block(s): {', '.join(report.block_names)}")
    for q, test in enumerate(report.wald):
        print(
            f"  beta[{q}] = {test.estimate:.6g}  se = {test.std_error:.6g}  "
            f"z = {test.z_value:.4g}  p = {test.p_value:.4g}  "
            f"95% CI [{test.ci_lower:.6g}, {test.ci_upper:.6g}]"
        )
    if report.gof_pvalue is not None:
        print(
            f"goodness of fit: Q = {report.q_stat:.6g} on df = {report.gof_df}, "
            f"p = {report.gof_pvalue:.4g}"
        )
    else:
        print("goodness of fit: unavailable (single block, df = 0)")
    if report.ridge_used > 0.0:
        print(f"note: weight matrix required ridge loading {report.ridge_used:.3g}")

    if output:
        report.save(output)
        print(f"report written to {output}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from dimm.simulate import SimReport, SimScenario, bundled_scenario, run_scenario

    if args.scenario is not None:
        scenario = bundled_scenario(args.scenario)
    else:
        scenario = SimScenario.load(args.config)
    if args.replicates is not None:
        if args.replicates < 1:
            msg = f"--replicates must be >= 1, got {args.replicates}"
            raise ConfigError(msg)
        scenario = replace(scenario, n_replicates=args.replicates)
    workers = _resolve_workers(args.workers)
    for path, what in ((args.output, SimReport.PATH), (args.estimates_csv, "estimates CSV")):
        if path:
            _refuse_unwritable(path, what)

    report = run_scenario(scenario, workers=workers)
    print(f"scenario {report.scenario_name!r}: N={report.n_subjects}, "
          f"{report.n_replicates} replicates, seed={report.seed}, workers={workers}")
    for method in report.methods:
        print(f"  {method.method} (used {method.n_used}, failed {method.n_failures}):")
        print(f"    bias     {np.array2string(method.bias, precision=5)}")
        print(f"    ese      {np.array2string(method.ese, precision=5)}")
        print(f"    ase      {np.array2string(method.ase, precision=5)}")
        print(f"    coverage {np.array2string(method.coverage, precision=3)}")
        if method.gof is not None:
            print(
                f"    gof: mean Q = {method.gof.mean_q:.4g} (df {method.gof.df}), "
                f"rejection at 0.05 = {method.gof.rejection_rate:.4g}"
            )
    if args.output:
        report.save(args.output)
        print(f"report written to {args.output}")
    if args.estimates_csv:
        write_estimates_csv(report, args.estimates_csv)
        print(f"per-replicate estimates written to {args.estimates_csv}")
    return EXIT_OK


def _parse_beta(raw: str) -> np.ndarray:
    try:
        values = [float(part) for part in raw.split(",")]
    except ValueError:
        msg = f"--beta must be a comma-separated list of numbers with no empty entry, got {raw!r}"
        raise ConfigError(msg) from None
    if not np.isfinite(values).all():
        msg = f"--beta entries must be finite numbers, got {raw!r}"
        raise ConfigError(msg)
    return np.asarray(values, dtype=np.float64)


def cmd_gof(args: argparse.Namespace) -> int:
    config = load_fit_config(args.config)
    beta = _parse_beta(args.beta)
    if args.output:
        _refuse_unwritable(args.output, GofReport.PATH)
    data = load_panel(config.response_path, config.covariate_path, intercept=config.intercept)
    if beta.shape[0] != data.n_covariates:
        msg = (
            f"--beta has {beta.shape[0]} entries but the design has "
            f"p={data.n_covariates} columns (intercept={config.intercept})"
        )
        raise ConfigError(msg)

    moments = weight_matrix(fit_blocks(data, config.partition()), subset=config.blocks_to_integrate)
    q_val = q_statistic(beta, moments)
    df, p_value = gof_test(q_val, len(moments.block_names), beta.shape[0], supplied=True)
    report = GofReport(
        schema_version=SCHEMA_VERSION,
        beta=beta,
        q_stat=q_val,
        df=df,
        p_value=p_value,
        block_names=moments.block_names,
        n_subjects=data.n_subjects,
    )
    print(
        f"Q({np.array2string(beta, precision=6)}) = {q_val:.6g} on df = {df}, "
        f"p = {p_value:.4g} over blocks: {', '.join(report.block_names)}"
    )
    if args.output:
        report.save(args.output)
        print(f"report written to {args.output}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimm",
        description=(
            "Blockwise pairwise-composite-likelihood fitting with "
            "method-of-moments integration for correlated Gaussian panels."
        ),
        epilog=f"simulate's default worker count comes from ${WORKERS_ENV} or the CPU count.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a panel from files and integrate the blocks")
    fit.add_argument("--config", required=True, help="fit config JSON path")
    # Accepted but ignored: perfbench's fit_eeg_file workload still passes --workers 1.
    fit.add_argument("--workers", type=int, default=None, help="ignored: blocks are fit serially")
    fit.add_argument("--output", default=None, help="write the fit report JSON here")
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="run a Monte-Carlo scenario")
    group = sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="scenario JSON path")
    group.add_argument(
        "--scenario",
        choices=list(bundled_scenario_names()),
        help="a scenario bundled with the package",
    )
    sim.add_argument("--workers", type=int, default=None, help="worker processes for replicates")
    sim.add_argument("--replicates", type=int, default=None, help="override the replicate count")
    sim.add_argument("--output", default=None, help="write the simulation report JSON here")
    sim.add_argument("--estimates-csv", default=None, help="write the flat per-replicate table here")
    sim.set_defaults(func=cmd_simulate)

    gof = sub.add_parser(
        "gof", help="evaluate the over-identification statistic at a supplied beta"
    )
    gof.add_argument("--config", required=True, help="fit config JSON path")
    gof.add_argument(
        "--beta", required=True, help="comma-separated coefficient values to test"
    )
    gof.add_argument("--output", default=None, help="write the gof report JSON here")
    gof.set_defaults(func=cmd_gof)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(err for err, _ in _EXIT_BY_ERROR) as exc:
        for err_type, code in _EXIT_BY_ERROR:
            if isinstance(exc, err_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise  # pragma: no cover - unreachable


if __name__ == "__main__":
    sys.exit(main())
