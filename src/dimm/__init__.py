"""DIMM: distributed and integrated method of moments for correlated Gaussian panels.

Partition a high-dimensional response into blocks, fit each block by
pairwise composite likelihood, and integrate the block estimates into a
single estimate of the shared mean parameters with full inference.

The top level holds the everyday workflow and the typed errors; every
other public name is imported from its module (``dimm.model``,
``dimm.pairwise``, ``dimm.integrate``, ``dimm.baselines``, ``dimm.io``,
``dimm.simulate``, ``dimm.special``).
"""

from dimm.baselines import gee_fit, gls_oracle
from dimm.errors import (
    ConfigError,
    CovarianceError,
    DataError,
    DimmError,
    FitError,
    IntegrationError,
    PartitionError,
    ScenarioError,
)
from dimm.integrate import integrate_fits, q_statistic, weight_matrix
from dimm.io import save_panel
from dimm.model import BlockPartition, Dependence, PanelDataset, assemble_kronecker
from dimm.pairwise import fit_blocks
from dimm.simulate import (
    bundled_scenario,
    bundled_scenario_names,
    generate_replicate,
    report_fingerprint,
    run_scenario,
)
from dimm.special import chi2_sf

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "ConfigError",
    "CovarianceError",
    "DataError",
    "Dependence",
    "DimmError",
    "FitError",
    "IntegrationError",
    "PanelDataset",
    "PartitionError",
    "ScenarioError",
    "__version__",
    "assemble_kronecker",
    "bundled_scenario",
    "bundled_scenario_names",
    "chi2_sf",
    "fit_blocks",
    "gee_fit",
    "generate_replicate",
    "gls_oracle",
    "integrate_fits",
    "q_statistic",
    "report_fingerprint",
    "run_scenario",
    "save_panel",
    "weight_matrix",
]
