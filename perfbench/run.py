"""dimm benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study_scaled --seed 1 --seconds 30 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), then runs units in a closed loop with one client for about
``--seconds`` and prints the end-to-end metrics. ``--trace 1`` runs units
serially twice, untraced and then traced through the probes in
``tracing.py``, and prints the per-layer metrics. ``--workload all`` runs
every workload in its own process. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and what each metric should
predict.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Before numpy is imported; forked pool workers and CLI children inherit it.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("study_scaled", "study_full", "fit_eeg_file")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND samples beyond it.

    With fewer than TAIL_BEYOND + 1 samples no such statistic exists and
    the maximum (percentile 100) is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n


class Loop:
    """Closed-loop runner: one client, the next unit starts when the last ends."""

    def __init__(self, workload, reference: list | None) -> None:
        self.workload, self.reference = workload, reference
        self.outcomes: list = []

    @property
    def attempted(self) -> int:
        return sum(o.n for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    def unit(self, u: int, workers: int, in_process: bool) -> float:
        """Run and check unit ``u``; returns its wall seconds."""
        from workloads import Outcome, reference_problems

        size = self.workload.size
        wall = 0.0
        try:
            t0 = time.perf_counter()
            result = self.workload.run(u, workers, in_process)
            wall = time.perf_counter() - t0
            outcome = self.workload.check(u, result)
        except Exception:  # noqa: BLE001 - any raise fails the unit, the run goes on
            wall = wall or time.perf_counter() - t0
            outcome = Outcome(size, size, [f"unit {u}: {traceback.format_exc(limit=3)}"])
        if self.reference is not None and u < len(self.reference):
            mismatch = reference_problems(self.reference[u], outcome.values)
            if mismatch:
                outcome.problems += [f"unit {u}: {p}" for p in mismatch]
                outcome.failed = outcome.n
        self.outcomes.append(outcome)
        return wall

    def run_for(self, seconds: float, workers: int, in_process: bool) -> dict:
        """Run units until about ``seconds`` have passed; at least one unit."""
        cpu0 = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        walls: list[float] = []
        while True:
            walls.append(self.unit(len(walls), workers, in_process))
            elapsed = time.perf_counter() - t0
            # Stop where the run ends closest to ``seconds``.
            if elapsed + 0.5 * elapsed / len(walls) >= seconds:
                break
        return {
            "wall": elapsed,
            "units": len(walls),
            "walls": walls,
            "self_cpu": _cpu_s(resource.RUSAGE_SELF) - cpu0[0],
            "child_cpu": _cpu_s(resource.RUSAGE_CHILDREN) - cpu0[1],
        }


def cli_import_s() -> float:
    """Median wall time of ``import dimm.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import dimm.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
        )
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def timed_run(workload, loop: Loop, seed: int, seconds: float, workdir: Path) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(seed, workdir)
        setups.append(time.perf_counter() - t0)
    run = loop.run_for(seconds, workload.workers, in_process=False)
    per_unit = [w / workload.size for w in run["walls"]]
    tail_s, tail_pct = tail(per_unit)
    done = loop.attempted
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_per_s": ((done - loop.failed) / run["wall"], "1/s"),
        "cpu_s_per_unit": ((run["self_cpu"] + run["child_cpu"]) / done, "s"),
        "unit_s.p50": (statistics.median(per_unit), "s"),
        "unit_s.tail": (tail_s, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    notes = {
        "unit": workload.unit_kind,
        "units_per_call": workload.size,
        "calls": run["units"],
        "unit_s.tail": {"percentile": tail_pct, "samples": len(per_unit)},
        "workers": workload.workers,
    }
    return {"metrics": metrics, "notes": notes}


def traced_run(workload, loop: Loop, seed: int, seconds: float, workdir: Path) -> dict:
    from tracing import LAYER_METRICS, Absent, Summary, Tracer

    metrics: dict[str, tuple[float, str]] = {"cli.import.s": (cli_import_s(), "s")}
    workload.setup(seed, workdir)
    share = seconds / 2.0
    utilization = 0.0
    if workload.workers > 1:
        share = seconds / 3.0
        pool = loop.run_for(share, workload.workers, in_process=True)
        utilization = pool["child_cpu"] / (pool["wall"] * workload.workers)
    metrics["pool.utilization"] = (utilization, "fraction")

    loop.unit(0, 1, in_process=True)  # warm-up: first in-process use of every layer
    plain = loop.run_for(share, 1, in_process=True)
    tracer = Tracer()
    tracer.install()
    traced_walls = []
    try:
        for u in range(plain["units"]):
            tracer.unit = u
            traced_walls.append(loop.unit(u, 1, in_process=True))
    finally:
        tracer.uninstall()
    units = plain["units"] * workload.size
    summary = Summary(tracer, units)
    absent = []
    for name, (unit, _better, value) in LAYER_METRICS.items():
        try:
            metrics[name] = (value(summary), unit)
        except Absent as exc:
            absent.append(f"{name} (missing {exc})")
    traced_wall = sum(traced_walls)
    metrics["trace.coverage"] = (summary.covered_s() / traced_wall, "fraction")
    metrics["trace.overhead_frac"] = (traced_wall / sum(plain["walls"]) - 1.0, "fraction")
    notes = {
        "traced_units": plain["units"],
        "units_per_call": workload.size,
        "absent_probes": tracer.absent_targets,
        "absent_metrics": absent,
        "spans": len(tracer.spans),
    }
    return {"metrics": metrics, "notes": notes}


def run_one(args: argparse.Namespace) -> int:
    if not (SRC / "dimm" / "__init__.py").is_file():
        print(f"error: no dimm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    try:
        import workloads

        workload = workloads.WORKLOADS[args.workload]
        reference = None
        if args.seed == workloads.DEFAULT_SEED and not args.write_reference:
            recorded = json.loads(workloads.REFERENCE_PATH.read_text(encoding="utf-8"))
            reference = recorded["workloads"].get(args.workload)
        loop = Loop(workload, reference)
        body = (traced_run if args.trace else timed_run)(
            workload, loop, args.seed, args.seconds, workdir
        )
        if args.write_reference:
            write_reference(workloads, args.workload, loop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()

    for name, (value, unit) in body["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    problems = [p for o in loop.outcomes for p in o.problems]
    for problem in problems[:20]:
        print(f"{args.workload} FAIL {problem}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "reference_checked": reference is not None,
        "fail_frac": loop.failed / loop.attempted,
        "fingerprint": workloads.sha256("".join(o.fingerprint for o in loop.outcomes)),
        "unit_fingerprints": [o.fingerprint[:16] for o in loop.outcomes],
        **body["notes"],
    }
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in body["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


def write_reference(workloads, name: str, loop: Loop) -> None:
    path = workloads.REFERENCE_PATH
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    recorded["seed"] = workloads.DEFAULT_SEED
    units = [o.values for o in loop.outcomes[: workloads.REFERENCE_UNITS[name]]]
    recorded.setdefault("workloads", {})[name] = units
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="record the leading units' estimates, SEs and Q as the reference (default seed only)",
    )
    args = parser.parse_args(argv)
    if args.write_reference and (args.seed != 0 or args.workload == "all"):
        parser.error("--write-reference needs one workload and --seed 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
