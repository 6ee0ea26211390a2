"""Add the report fingerprint of every bundled scenario to the job summary.

Usage: python .github/scripts/fingerprints.py

Runs each bundled scenario with 3 replicates (2 for ``table1_full``) at 1
and at 2 workers, and prints the sha256 of each report's
``report_fingerprint``. The same lines go, as a Markdown table, to the file
named by ``GITHUB_STEP_SUMMARY``, if it is set, so a change that claims to
move no number can be checked against its parent's digests. The exit
status is 1 if any scenario's digest differs between the two worker
counts, and 0 otherwise.

It also writes, per bundled scenario and working family, the median
in-process wall time of ``fit_blocks`` on a fresh replicate panel (so the
block moments are built in it) over 7 replicates, which keeps the block
fits (layer L3) visible in the job summary.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import statistics
import sys
import time
from typing import get_args

from dimm.model import Structure
from dimm.pairwise import fit_blocks
from dimm.simulate import (
    bundled_scenario,
    bundled_scenario_names,
    generate_replicate,
    report_fingerprint,
    run_scenario,
)

FAMILIES = get_args(Structure)


def fit_blocks_ms(name: str) -> list[str]:
    """Median ``fit_blocks`` wall time in ms per family, on fresh panels of replicates 0-6."""
    scn = bundled_scenario(name)
    medians = []
    for family in FAMILIES:
        part, spent = scn.partition_for(f"dimm:{family}"), []
        for rep in range(7):
            data = generate_replicate(scn, rep)
            start = time.perf_counter()
            fit_blocks(data, part)
            spent.append(time.perf_counter() - start)
        medians.append(f"{1e3 * statistics.median(spent):.2f}")
    return medians


def main() -> int:
    rows = ["| scenario | replicates | 1 worker | 2 workers | seconds (1, 2) |", "| --- | ---: | --- | --- | --- |"]
    mismatched = []
    for name in bundled_scenario_names():
        scn = dataclasses.replace(bundled_scenario(name), n_replicates=2 if name == "table1_full" else 3)
        digests, seconds = [], []
        for workers in (1, 2):
            start = time.perf_counter()
            report = run_scenario(scn, workers=workers)
            seconds.append(f"{time.perf_counter() - start:.2f}")
            digests.append(hashlib.sha256(report_fingerprint(report).encode()).hexdigest())
        print(name, scn.n_replicates, *digests)
        rows.append(f"| {name} | {scn.n_replicates} | `{digests[0]}` | `{digests[1]}` | {', '.join(seconds)} |")
        if digests[0] != digests[1]:
            mismatched.append(name)
    header = " | ".join(f"{family} (ms)" for family in FAMILIES)
    timings = [f"| scenario | {header} |", "| --- |" + " ---: |" * len(FAMILIES)]
    for name in bundled_scenario_names():
        medians = fit_blocks_ms(name)
        print(name, "fit_blocks ms per replicate:", *medians)
        timings.append(f"| {name} | {' | '.join(medians)} |")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as handle:
            handle.write("\nsha256 of `report_fingerprint` per bundled scenario:\n\n")
            handle.write("\n".join(rows) + "\n")
            handle.write("\nMedian in-process `fit_blocks` time per replicate (fresh panel, 7 replicates):\n\n")
            handle.write("\n".join(timings) + "\n")
    if mismatched:
        print("fingerprints differ between 1 and 2 workers:", ", ".join(mismatched))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
