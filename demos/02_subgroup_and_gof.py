"""Sub-group integration and the over-identification fit test.

Block fits are reusable: once each block is fitted, any subset of blocks
can be combined without touching the raw data again.  This demo fits
four blocks, combines (a) all of them and (b) a named pair, and then
uses the quadratic-form machinery directly to test a hypothesized
coefficient vector.
"""

import numpy as np

from dimm import (
    BlockPartition,
    Dependence,
    PanelDataset,
    assemble_kronecker,
    chi2_sf,
    fit_blocks,
    integrate_fits,
    q_statistic,
    weight_matrix,
)

rng = np.random.Generator(np.random.Philox(42))

# --- simulate a four-block panel -------------------------------------------
sizes = [5, 5, 4, 6]
names = ["frontal", "central", "temporal", "occipital"]
deps = [Dependence("cs", 1.2, 0.35)] * 4
between = np.array(
    [
        [1.00, 0.30, 0.15, 0.05],
        [0.30, 1.00, 0.25, 0.10],
        [0.15, 0.25, 1.00, 0.20],
        [0.05, 0.10, 0.20, 1.00],
    ]
)
sigma_full = assemble_kronecker(between, deps, sizes)

n, m, p = 250, sum(sizes), 2
beta_true = np.array([0.8, -0.3])
x = rng.standard_normal((n, m, p))
y = np.einsum("nmp,p->nm", x, beta_true) + rng.standard_normal(
    (n, m)
) @ np.linalg.cholesky(sigma_full).T
data = PanelDataset(responses=y, covariates=x)

part = BlockPartition.from_sizes(sizes, structure="cs", names=names)
fits = fit_blocks(data, part)

# --- full combination vs a named sub-group ---------------------------------
full = integrate_fits(fits)
pair = integrate_fits(fits, subset=["frontal", "central"])
print("all four blocks :", np.array2string(full.beta_dimm, precision=4))
print("frontal+central :", np.array2string(pair.beta_dimm, precision=4))
print(
    f"full fit statistic Q = {full.q_stat:.3f} on {full.gof_df} df "
    f"(p = {full.gof_pvalue:.3f})"
)
print(
    f"pair fit statistic Q = {pair.q_stat:.3f} on {pair.gof_df} df "
    f"(p = {pair.gof_pvalue:.3f})"
)

# --- test a hypothesized coefficient vector --------------------------------
# The same quadratic form evaluated at a fixed beta gives a direct test:
# under the hypothesis the statistic is chi-squared with J*p degrees of
# freedom (no parameters estimated at the evaluation point here, so all
# J*p moment coordinates count).
moments = weight_matrix(fits)
for label, beta0 in (("truth", beta_true), ("off by 0.2", beta_true + 0.2)):
    q = q_statistic(beta0, moments)
    df = len(fits) * p
    p_val = chi2_sf(q, df)
    print(f"hypothesis {label:12s}: Q = {q:9.3f} on {df} df, p = {p_val:.4f}")
