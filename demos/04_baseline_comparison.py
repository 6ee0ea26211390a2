"""Compare the blockwise-combined estimator against classical baselines.

On a single simulated panel, the same mean coefficients are estimated
four ways:

* blockwise composite likelihood + moment combination (the package's
  main estimator);
* GEE with an independence working correlation (= OLS point estimate,
  sandwich standard errors);
* GEE with an exchangeable working correlation;
* GLS with the true covariance matrix plugged in -- the unattainable
  oracle that lower-bounds the achievable standard errors.
"""

import numpy as np

from dimm import (
    BlockPartition,
    Dependence,
    PanelDataset,
    assemble_kronecker,
    fit_blocks,
    gee_fit,
    gls_oracle,
    integrate_fits,
)

rng = np.random.Generator(np.random.Philox(7))

# --- one simulated panel ----------------------------------------------------
sizes = [8, 7, 7]
deps = [Dependence("ar1", 2.0, 0.55)] * 3
between = np.array(
    [
        [1.0, 0.2, 0.1],
        [0.2, 1.0, 0.3],
        [0.1, 0.3, 1.0],
    ]
)
sigma_full = assemble_kronecker(between, deps, sizes)

n, m, p = 400, sum(sizes), 2
beta_true = np.array([0.6, -0.9])
x = rng.standard_normal((n, m, p))
y = np.einsum("nmp,p->nm", x, beta_true) + rng.standard_normal(
    (n, m)
) @ np.linalg.cholesky(sigma_full).T
data = PanelDataset(responses=y, covariates=x)

# --- estimates ---------------------------------------------------------------
part = BlockPartition.from_sizes(sizes, structure="ar1")
fits = fit_blocks(data, part)
combined = integrate_fits(fits)

ind = gee_fit(data, "independence")
exch = gee_fit(data, "exchangeable")
oracle = gls_oracle(data, sigma_full)

print(f"truth: {beta_true}\n")
print(f"{'method':>22s} | {'estimate':>18s} | {'std errors':>18s}")
rows = [
    ("blockwise combined", combined.beta_dimm, np.sqrt(np.diag(combined.covariance))),
    ("gee independence", ind.beta_hat, ind.std_errors),
    ("gee exchangeable", exch.beta_hat, exch.std_errors),
    ("gls oracle", oracle.beta_hat, oracle.std_errors),
]
for label, est, se in rows:
    print(
        f"{label:>22s} | {np.array2string(est, precision=4):>18s} "
        f"| {np.array2string(se, precision=4):>18s}"
    )

print(
    "\nThe combined estimator's standard errors sit between the oracle's"
    "\n(true-covariance GLS) and the independence GEE's, without ever"
    "\nforming or inverting the full covariance of all responses."
)
