"""Run a benchmark smoke command and add its page-fault count to the job summary.

Usage: python .github/scripts/smoke_faults.py COMMAND [ARG ...]

The command's standard output passes through unchanged, so a gate that
reads its last line still can. Then one Markdown table row is appended to
the file named by ``GITHUB_STEP_SUMMARY``, if it is set: the command, the
minor page faults of the command and every process it waited for
(``getrusage(RUSAGE_CHILDREN).ru_minflt``), the units the run attempted
(the ``attempted`` field of the JSON result that ``perfbench/run.py``
prints last), and the faults per unit. A high count per unit marks a run
whose heap the C library trimmed and refaulted. The exit status is the
command's.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    try:
        units = int(json.loads(proc.stdout.splitlines()[-1])["attempted"])
    except (IndexError, KeyError, TypeError, ValueError):
        units = 0
    per_unit = f"{faults / units:.0f}" if units else "n/a"
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as handle:
            handle.write(f"| `{' '.join(argv[1:])}` | {faults} | {units} | {per_unit} |\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
