"""Monte-Carlo study: metrics, bundled scenarios, reproducibility.

The simulation harness repeats data generation + estimation under a
declared scenario and summarizes each method with BIAS, ESE (empirical
SD of the estimates), ASE (average reported standard error), RMSE, 95%
interval coverage and Wald rejection rates.  Replicates are independent
RNG streams keyed by (seed, replicate index), so reports are identical
for any worker count.
"""

import hashlib
from dataclasses import replace

import numpy as np

from dimm import bundled_scenario, bundled_scenario_names, report_fingerprint, run_scenario

print("bundled scenarios:", ", ".join(bundled_scenario_names()))

# A trimmed copy of the smallest bundled scenario keeps this demo quick.
scn = replace(bundled_scenario("micro"), n_replicates=40)
print(
    f"\nscenario '{scn.name}': N = {scn.n_subjects}, "
    f"{scn.n_blocks} blocks, beta0 = {scn.beta0}, "
    f"{scn.n_replicates} replicates"
)

report = run_scenario(scn, workers=1)
print(f"\n{'method':>18s} | {'bias':>8s} | {'ese':>7s} | {'ase':>7s} | {'coverage':>8s}")
for m in report.methods:
    print(
        f"{m.method:>18s} | {m.bias[0]: .5f} | {m.ese[0]:.5f} | "
        f"{m.ase[0]:.5f} | {m.coverage[0]:8.3f}"
    )

gof = report.method("dimm").gof
if gof is not None:
    print(
        f"\nfit statistic under the true model: mean Q = {gof.mean_q:.3f} "
        f"(df = {gof.df}), share of replicates with reported p < 0.05 = {gof.rejection_rate:.3f}"
    )

# --- determinism across worker counts --------------------------------------
# report_fingerprint returns the canonical JSON of all numeric output
# (timing excluded); hashing it makes the comparison easy to eyeball.
digest = lambda report: hashlib.sha256(
    report_fingerprint(report).encode()
).hexdigest()[:16]
fp1 = digest(report)
fp2 = digest(run_scenario(scn, workers=2))
print(f"\nfingerprint, 1 worker : {fp1}")
print(f"fingerprint, 2 workers: {fp2}")
print("identical:", fp1 == fp2)
