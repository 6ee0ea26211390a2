"""The file-based workflow: CSV panels, JSON configs, the command line.

Everything the library does interactively is also scriptable through
files and the ``dimm`` command (``python3 -m dimm`` works identically):

* ``dimm fit --config cfg.json``       fit blocks, combine, save a report
* ``dimm gof --config cfg.json --beta ...``  test a hypothesized vector
* ``dimm simulate --scenario micro``   run a bundled replication study

This demo writes a small panel to disk, drives the CLI with
``subprocess``, and reads the JSON report back.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from dimm import PanelDataset, save_panel

rng = np.random.Generator(np.random.Philox(99))

# --- write a panel to disk ---------------------------------------------------
n, m, p = 80, 6, 2
x = rng.standard_normal((n, m, p))
beta_true = np.array([1.2, -0.4])
y = np.einsum("nmp,p->nm", x, beta_true) + rng.standard_normal((n, m))
data = PanelDataset(responses=y, covariates=x)

# --- drive the CLI -----------------------------------------------------------
def run(*args: str) -> None:
    cmd = [sys.executable, "-m", "dimm", *args]
    print(f"\n$ {' '.join(cmd[2:])}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print(proc.stdout.strip())
    if proc.returncode != 0:
        print(proc.stderr.strip())
        raise SystemExit(proc.returncode)


# The files live in a temporary directory that is removed at the end.
with tempfile.TemporaryDirectory(prefix="dimm_demo_") as tmp:
    workdir = Path(tmp)
    save_panel(
        data,
        workdir / "responses.csv",
        workdir / "covariates.csv",
        covariate_names=["age", "dose"],
    )

    config = {
        "schema_version": 1,
        "response_path": str(workdir / "responses.csv"),
        "covariate_path": str(workdir / "covariates.csv"),
        "intercept": False,
        "blocks": [
            {"name": "early", "size": 3, "structure": "ar1"},
            {"name": "late", "size": 3, "structure": "cs"},
        ],
        "output_path": str(workdir / "report.json"),
    }
    (workdir / "fit.json").write_text(json.dumps(config, indent=2))
    print(f"wrote panel + config under {workdir}")

    run("fit", "--config", str(workdir / "fit.json"))
    run(
        "gof",
        "--config",
        str(workdir / "fit.json"),
        "--beta",
        "1.2,-0.4",
        "--output",
        str(workdir / "gof.json"),
    )

    # --- read the saved reports back -------------------------------------------
    report = json.loads((workdir / "report.json").read_text())
    print("\nfit report keys:", ", ".join(sorted(report)))
    print("combined estimate from the report:", report["beta_dimm"])
    gof = json.loads((workdir / "gof.json").read_text())
    print(f"gof report: Q = {gof['q_stat']:.3f}, p = {gof['p_value']:.4f}")
