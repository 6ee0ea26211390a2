"""The benchmark's workloads: set-up, one unit of work, and its output check.

A study unit is one ``run_scenario`` call over a few replicates of a
bundled scenario, drawn from a seed derived from the workload seed and the
unit index. A file unit is one ``dimm fit`` of a panel that set-up wrote
to CSV. Every call into the program goes through a module attribute
(``simulate.run_scenario``, ``cli.main``) so that the traced run can
rebind it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from dimm import cli, simulate
from dimm.io import save_panel
from dimm.model import PanelDataset

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Agreement with the recorded reference. A block-fit rewrite that moves
# estimates by |d beta| <= 7e-10 passes; a change of 1e-6 relative fails.
REF_RTOL = 1e-6
REF_ATOL = 1e-9
CHILD_TIMEOUT_S = 150


def derive_seed(*parts: object) -> int:
    """A 32-bit seed determined by ``parts`` alone."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one unit did: its size, failures, and the numbers it produced."""

    n: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprint: str = ""
    values: dict[str, dict[str, Any]] = field(default_factory=dict)


def value_problems(tag: str, est: Any, se: Any, q: Any, df: int | None, want_df: int | None) -> list[str]:
    """Sanity of one result: finite estimates, positive SEs, Q >= 0 on (J-1)p df."""
    out = []
    est, se = np.asarray(est, dtype=float), np.asarray(se, dtype=float)
    if not np.all(np.isfinite(est)):
        out.append(f"{tag}: non-finite estimate")
    if not (np.all(np.isfinite(se)) and np.all(se > 0.0)):
        out.append(f"{tag}: standard error not finite and positive")
    if want_df is not None:
        if q is None or not (math.isfinite(q) and q >= 0.0):
            out.append(f"{tag}: Q = {q!r} is not finite and >= 0")
        if df != want_df:
            out.append(f"{tag}: Q has df {df}, expected {want_df}")
    return out


def reference_problems(expected: dict[str, dict[str, Any]], got: dict[str, dict[str, Any]]) -> list[str]:
    """Differences from a recorded reference beyond REF_RTOL / REF_ATOL."""
    out = []
    for method, keys in expected.items():
        for key, want in keys.items():
            have = got.get(method, {}).get(key)
            if want is None and have is None:
                continue
            if have is None or want is None:
                out.append(f"reference: {method}.{key} present on one side only")
                continue
            a, b = np.asarray(have, dtype=float), np.asarray(want, dtype=float)
            if a.shape != b.shape or not np.allclose(a, b, rtol=REF_RTOL, atol=REF_ATOL):
                out.append(f"reference: {method}.{key} differs from the recorded values")
    return out


class Study:
    """``run_scenario`` over ``reps`` fresh replicates of a bundled scenario per unit."""

    unit_kind = "replicate"

    def __init__(self, name: str, scenario: str, workers: int, reps: int) -> None:
        self.name, self.scenario, self.workers, self.size = name, scenario, workers, reps

    def setup(self, seed: int, workdir: Path) -> None:
        """What a study pays before its first replicate: a fresh interpreter
        imports dimm and loads the scenario. The benchmark then loads it too."""
        code = f"from dimm.simulate import bundled_scenario; bundled_scenario({self.scenario!r})"
        subprocess.run([sys.executable, "-c", code], check=True, timeout=CHILD_TIMEOUT_S)
        self.seed = seed
        self.base = simulate.bundled_scenario(self.scenario)

    def run(self, unit: int, workers: int, in_process: bool = True) -> simulate.SimReport:
        scn = replace(
            self.base, seed=derive_seed(self.name, self.seed, unit), n_replicates=self.size
        )
        return simulate.run_scenario(scn, workers=workers)

    def check(self, unit: int, report: simulate.SimReport) -> Outcome:
        """Every method succeeded on every replicate with sane values."""
        want_df = (self.base.n_blocks - 1) * self.base.n_params
        bad: set[int] = set()
        problems: list[str] = []
        values = {}
        for m in report.methods:
            bad.update(set(range(self.size)) - set(m.rep_indices))
            if m.n_failures:
                problems.append(f"unit {unit}: {m.method} failed on {m.n_failures} replicate(s)")
            is_dimm = m.method.startswith("dimm")
            q_values = m.gof.q_values.tolist() if m.gof is not None else None
            for row, rep in enumerate(m.rep_indices):
                found = value_problems(
                    f"unit {unit} rep {rep} {m.method}",
                    m.estimates[row],
                    m.std_errors[row],
                    q_values[row] if q_values else None,
                    m.gof.df if m.gof is not None else None,
                    want_df if is_dimm else None,
                )
                if found:
                    bad.add(rep)
                    problems += found
            values[m.method] = {
                "estimates": m.estimates.tolist(),
                "std_errors": m.std_errors.tolist(),
                "q": q_values,
            }
        fingerprint = sha256(simulate.report_fingerprint(report))
        return Outcome(self.size, len(bad), problems, fingerprint, values)


class PanelFiles:
    """``dimm fit`` on panels that set-up wrote in the ``eeg_mimic`` layout."""

    unit_kind = "panel"
    workers = 1
    size = 1

    def __init__(self, name: str, scenario: str, n_panels: int) -> None:
        self.name, self.scenario, self.n_panels = name, scenario, n_panels

    def setup(self, seed: int, workdir: Path) -> None:
        """Draw ``n_panels`` panels from the seed and write each as CSV plus a fit config."""
        scn = replace(
            simulate.bundled_scenario(self.scenario), seed=derive_seed(self.name, seed)
        )
        blocks = [
            {"name": b.name, "size": b.size, "structure": b.structure_fit} for b in scn.blocks
        ]
        self.want_df = (scn.n_blocks - 1) * scn.n_params
        self.configs, self.outputs = [], []
        for k in range(self.n_panels):
            data = simulate.generate_replicate(scn, k)
            # Drop the intercept column; the config asks the CLI to add it.
            panel = PanelDataset(data.responses, data.covariates[:, :, 1:])
            y_path, x_path = workdir / f"panel{k}_y.csv", workdir / f"panel{k}_x.csv"
            save_panel(panel, y_path, x_path)
            config = {
                "schema_version": 1,
                "response_path": str(y_path),
                "covariate_path": str(x_path),
                "intercept": True,
                "blocks": blocks,
            }
            config_path = workdir / f"panel{k}_fit.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            self.configs.append(config_path)
            self.outputs.append(workdir / f"panel{k}_report.json")

    def run(self, unit: int, workers: int, in_process: bool = False) -> tuple[int, str]:
        k = unit % self.n_panels
        out = self.outputs[k]
        out.unlink(missing_ok=True)
        argv = ["fit", "--config", str(self.configs[k]), "--workers", "1", "--output", str(out)]
        if in_process:
            with contextlib.redirect_stdout(_stdio.StringIO()), contextlib.redirect_stderr(
                _stdio.StringIO()
            ) as err:
                code = cli.main(argv)
            stderr = err.getvalue()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "dimm", *argv],
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
                check=False,
            )
            code, stderr = proc.returncode, proc.stderr
        return code, stderr

    def check(self, unit: int, result: tuple[int, str]) -> Outcome:
        """The CLI exited 0 and wrote a report with sane values."""
        code, stderr = result
        out = self.outputs[unit % self.n_panels]
        if code != 0 or not out.is_file():
            return Outcome(1, 1, [f"unit {unit}: dimm fit exited {code}: {stderr.strip()[-300:]}"])
        report = json.loads(out.read_text(encoding="utf-8"))
        report.pop("timing", None)
        problems = value_problems(
            f"unit {unit}",
            report["beta_dimm"],
            report["std_errors"],
            report["q_stat"],
            report["gof_df"],
            self.want_df,
        )
        values = {
            "dimm": {
                "estimates": report["beta_dimm"],
                "std_errors": report["std_errors"],
                "q": report["q_stat"],
            }
        }
        fingerprint = sha256(json.dumps(report, sort_keys=True, separators=(",", ":")))
        return Outcome(1, int(bool(problems)), problems, fingerprint, values)


WORKLOADS = {
    "study_scaled": Study("study_scaled", "table1_scaled", workers=2, reps=4),
    "study_full": Study("study_full", "table1_full", workers=1, reps=2),
    "fit_eeg_file": PanelFiles("fit_eeg_file", "eeg_mimic", n_panels=8),
}
# How many leading units of a default-seed run the reference covers.
REFERENCE_UNITS = {"study_scaled": 2, "study_full": 1, "fit_eeg_file": 2}
