"""DIMM: distributed and integrated method of moments for correlated Gaussian panels.

Partition a high-dimensional response into blocks, fit each block by
pairwise composite likelihood, and integrate the block estimates into a
single estimate of the shared mean parameters with full inference.

The top level holds the everyday workflow and the typed errors; every
other public name is imported from its module (``dimm.model``,
``dimm.pairwise``, ``dimm.integrate``, ``dimm.baselines``, ``dimm.io``,
``dimm.simulate``, ``dimm.special``).

``import dimm`` loads only the fitting path: the names from
``dimm.baselines`` and ``dimm.simulate`` import their module on first
access, so a process that only fits a panel, such as ``dimm fit``,
never compiles them.
"""

import importlib

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
from dimm.io import bundled_scenario_names, save_panel
from dimm.model import BlockPartition, Dependence, PanelDataset, assemble_kronecker
from dimm.pairwise import fit_blocks
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

_LAZY = {
    "gee_fit": "dimm.baselines",
    "gls_oracle": "dimm.baselines",
    "bundled_scenario": "dimm.simulate",
    "generate_replicate": "dimm.simulate",
    "report_fingerprint": "dimm.simulate",
    "run_scenario": "dimm.simulate",
}


def __getattr__(name: str) -> object:
    # An unknown name must raise AttributeError: ``from dimm import simulate``
    # relies on it to fall back to importing the submodule.
    if name not in _LAZY:
        msg = f"module {__name__!r} has no attribute {name!r}"
        raise AttributeError(msg)
    return getattr(importlib.import_module(_LAZY[name]), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
