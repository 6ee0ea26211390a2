"""Fit a high-dimensional correlated response by blocks, then combine.

The workflow in this demo is the core of the package:

1. simulate one panel of N subjects, each carrying an M-vector response
   whose covariance is a Kronecker product (between-block factor x
   within-block serial/exchangeable factors);
2. partition the M responses into contiguous blocks;
3. fit each block separately by pairwise composite likelihood;
4. combine the block estimates into a single estimate of the shared
   mean coefficients with a moment-based weighting that accounts for
   between-block correlation, and read off Wald inference plus an
   over-identification fit statistic.
"""

import numpy as np

from dimm import (
    BlockPartition,
    Dependence,
    PanelDataset,
    assemble_kronecker,
    fit_blocks,
    integrate_fits,
)

rng = np.random.Generator(np.random.Philox(20260819))

# --- 1. simulate ----------------------------------------------------------
# Three blocks of sizes 6, 5 and 4 (M = 15).  The first two blocks decay
# serially, the third is exchangeable; blocks are cross-correlated through
# the "between" factor S.
sizes = [6, 5, 4]
deps = [
    Dependence("ar1", sigma=1.5, rho=0.6),
    Dependence("ar1", sigma=1.0, rho=0.4),
    Dependence("cs", sigma=2.0, rho=0.3),
]
between = np.array(
    [
        [1.0, 0.25, 0.10],
        [0.25, 1.0, 0.20],
        [0.10, 0.20, 1.0],
    ]
)
sigma_full = assemble_kronecker(between, deps, sizes)

n, m, p = 300, sum(sizes), 3
beta_true = np.array([1.0, -0.5, 0.25])
x = rng.standard_normal((n, m, p))
noise = rng.standard_normal((n, m)) @ np.linalg.cholesky(sigma_full).T
y = np.einsum("nmp,p->nm", x, beta_true) + noise
data = PanelDataset(responses=y, covariates=x)
print(f"panel: {n} subjects x {m} responses, {p} covariates")

# --- 2. partition ---------------------------------------------------------
part = BlockPartition.from_sizes(sizes, structure=["ar1", "ar1", "cs"])

# --- 3. fit each block by pairwise composite likelihood -------------------
fits = fit_blocks(data, part)
for fit in fits:
    print(
        f"  block {fit.name} ({fit.structure}): beta_hat = "
        f"{np.array2string(fit.beta_hat, precision=3)}, "
        f"sigma = {fit.gamma_hat.sigma:.3f}, rho = {fit.gamma_hat.rho:.3f}, "
        f"{fit.n_pairs} response pairs"
    )

# --- 4. combine -----------------------------------------------------------
combined = integrate_fits(fits)
print(f"\ncombined estimate over {len(combined.block_names)} blocks:")
for q, test in enumerate(combined.wald):
    print(
        f"  beta[{q}] = {test.estimate: .4f}  se = {test.std_error:.4f}  "
        f"95% CI [{test.ci_lower: .4f}, {test.ci_upper: .4f}]  "
        f"p = {test.p_value:.2e}"
    )
print(
    f"fit statistic Q = {combined.q_stat:.3f} on {combined.gof_df} df, "
    f"p = {combined.gof_pvalue:.3f}"
)
print(f"truth was {beta_true}")
