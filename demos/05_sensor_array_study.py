"""A sensor-array-style study: 18 blocks, 138 responses, 157 subjects.

The bundled ``eeg_mimic`` scenario mirrors a recording-grid layout:
6 scalp regions x 3 waveform components, giving 18 blocks of 7-9
responses each (M = 138) with exchangeable within-block correlation,
at a deliberately small subject count (N = 157).  Fitting a single
working correlation across all 138 responses ignores that layout;
fitting blocks and combining exploits it.

This demo runs a short replication study comparing the combined
estimator's asymptotic standard errors (its large-N efficiency) against
a pooled exchangeable GEE, then shows a sub-group combination over one
region's two waveform blocks.  At this N the combined estimator's
reported (jackknife) standard errors are wider than its asymptotic ones,
since they also carry the noise of the estimated weight matrix.
"""

from dataclasses import replace

import numpy as np

from dimm import (
    BlockPartition,
    bundled_scenario,
    fit_blocks,
    generate_replicate,
    integrate_fits,
    run_scenario,
)

scn = bundled_scenario("eeg_mimic")
print(
    f"scenario '{scn.name}': N = {scn.n_subjects}, {scn.n_blocks} blocks, "
    f"M = {scn.total_dim}, p = {len(scn.beta0)}"
)
print("block names:", ", ".join(b.name for b in scn.blocks[:6]), "...")

# --- short replication run --------------------------------------------------
short = replace(scn, n_replicates=10)
report = run_scenario(short, workers=1)
combined = report.method("dimm")
pooled = report.method("gee_exchangeable")
med_c = np.median(combined.asymptotic_std_errors, axis=0)
med_p = np.median(pooled.asymptotic_std_errors, axis=0)
print(f"\nmedian asymptotic standard errors over {short.n_replicates} replicates:")
print(f"  blockwise combined : {np.array2string(med_c, precision=4)}")
print(f"  pooled exchangeable: {np.array2string(med_p, precision=4)}")
print(f"  combined <= pooled per coefficient: {bool(np.all(med_c <= med_p))}")
med_jk = np.median(combined.std_errors, axis=0)
print(f"  combined jackknife : {np.array2string(med_jk, precision=4)}")

# --- sub-group combination on one replicate ---------------------------------
data = generate_replicate(scn, 0)
part = BlockPartition.from_sizes(
    [b.size for b in scn.blocks],
    structure=[b.structure_fit for b in scn.blocks],
    names=[b.name for b in scn.blocks],
)
fits = fit_blocks(data, part)

subgroup = ["left_po_P2", "left_po_P750"]
sub = integrate_fits(fits, subset=subgroup)
full = integrate_fits(fits)
print(f"\none replicate, combination over {subgroup}:")
print(f"  sub-group estimate: {np.array2string(sub.beta_dimm, precision=4)}")
print(f"  all-block estimate: {np.array2string(full.beta_dimm, precision=4)}")
print(f"  truth             : {scn.beta0}")
