"""Monte-Carlo harness: scenario definitions, data generation, and metrics.

A :class:`SimScenario` pins down everything needed to draw replicate
panels — the true mean vector, the block layout with true and fitted
dependence structures, the between-block scale matrix, and an ordered
list of covariate recipes — plus the replicate count, base seed, and the
estimation methods to run. :func:`run_scenario` executes the replicates
(optionally across processes), collects per-replicate estimates and
standard errors, and reduces them to the standard simulation metrics:

* RMSE  — root mean squared deviation from the truth,
* BIAS  — mean deviation,
* ESE   — empirical standard error (sample SD of the estimates, ddof 1),
* ASE   — average of the per-replicate reported standard errors,
* coverage of the truth by the 95% intervals (estimate +- 1.96 se),
* Wald rejection rate of H0: beta_q = 0 at level 0.05,

and, for the integrated methods, the distribution of the
over-identification statistic against its reference chi-square law.

Determinism contract: every replicate draws from its own counter-based
stream keyed by ``(scenario.seed, rep_index)``, and aggregation runs in
replicate order, so reports are identical for any worker count. The
order of draws within a replicate (covariate columns first, in recipe
order, then the noise panel) is part of that contract.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any

import numpy as np

from dimm._util import parallel_map
from dimm.baselines import gee_fit, gls_oracle
from dimm.errors import DimmError, ScenarioError
from dimm.integrate import integrate_fits
from dimm.model import (
    AR1,
    CS,
    BlockPartition,
    Dependence,
    PanelDataset,
    assemble_kronecker,
    partition_dataset,  # noqa: F401  (unused; perfbench/tracing.py probes this name)
)
from dimm.pairwise import fit_blocks
from dimm.special import chi2_quantile

if TYPE_CHECKING:
    from collections.abc import Sequence

__all__ = [
    "BlockScenario",
    "CovariateSpec",
    "GofSummary",
    "MethodReport",
    "SimReport",
    "SimScenario",
    "bundled_scenario",
    "bundled_scenario_names",
    "generate_replicate",
    "random_between_matrix",
    "report_fingerprint",
    "run_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
]

SCHEMA_VERSION = 1
# Version 2 added ``asymptotic_std_errors`` and made the dimm
# ``std_errors`` the jackknife ones.
REPORT_SCHEMA_VERSION = 2

_COVARIATE_KINDS = (
    "standard_normal",
    "bernoulli",
    "categorical",
    "uniform01",
    "interaction",
    "mv_normal_rows",
    "alternating01",
)

# Methods: the "dimm" entry fits each block with its scenario-declared
# structure; "dimm:cs" / "dimm:ar1" override every block's fitted
# structure (deliberate misspecification studies). The rest are the
# whole-panel comparators.
_METHOD_CHOICES = (
    "dimm",
    "dimm:ar1",
    "dimm:cs",
    "gls_oracle",
    "gee_independence",
    "gee_exchangeable",
)

_Z_CI = 1.96  # half-width multiplier of the reported 95% intervals
_Z_TEST = 1.959963984540054  # exact 0.975 normal quantile: p < 0.05 test
_GOF_PROBES = (0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95)
_MAX_FAILURE_FRACTION = 0.05


@dataclass(frozen=True)
class CovariateSpec:
    """One covariate column recipe.

    Subject-level recipes (``standard_normal``, ``bernoulli``,
    ``categorical``, ``uniform01``) draw one scalar per subject and
    broadcast it down the M response coordinates. Row-varying recipes
    differ per coordinate: ``mv_normal_rows`` draws an M-vector per
    subject with an AR(1)-correlated row covariance, ``alternating01``
    is the deterministic 0,1,0,1,... pattern over coordinate positions.
    ``interaction`` multiplies two earlier design columns elementwise
    (indices count the intercept column when one is present).

    Parameters
    ----------
    kind : str
        One of ``standard_normal | bernoulli | categorical | uniform01 |
        interaction | mv_normal_rows | alternating01``.
    q : float, optional
        Success probability for ``bernoulli``.
    probs : tuple of float, optional
        Category probabilities for ``categorical``; the column takes
        values 1..K.
    a, b : int, optional
        Design-column indices for ``interaction``; both must refer to
        columns defined before this one.
    rho : float, optional
        AR(1) correlation of the row covariance for ``mv_normal_rows``.
    """

    kind: str
    q: float | None = None
    probs: tuple[float, ...] | None = None
    a: int | None = None
    b: int | None = None
    rho: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _COVARIATE_KINDS:
            msg = f"unknown covariate generator {self.kind!r}; expected one of {_COVARIATE_KINDS}"
            raise ScenarioError(msg)
        if self.kind == "bernoulli":
            if self.q is None or not (0.0 < self.q < 1.0):
                msg = f"bernoulli requires q in (0, 1), got {self.q!r}"
                raise ScenarioError(msg)
        elif self.kind == "categorical":
            if self.probs is None or len(self.probs) < 2:
                msg = "categorical requires at least 2 probabilities"
                raise ScenarioError(msg)
            object.__setattr__(self, "probs", tuple(float(v) for v in self.probs))
            arr = np.asarray(self.probs, dtype=np.float64)
            if np.any(arr < 0.0) or not math.isclose(
                float(arr.sum()), 1.0, rel_tol=0.0, abs_tol=1e-9
            ):
                msg = f"categorical probabilities must be >= 0 and sum to 1, got {self.probs}"
                raise ScenarioError(msg)
        elif self.kind == "interaction":
            if self.a is None or self.b is None or self.a < 0 or self.b < 0:
                msg = f"interaction requires column indices a, b >= 0, got a={self.a!r}, b={self.b!r}"
                raise ScenarioError(msg)
        elif self.kind == "mv_normal_rows":
            if self.rho is None or not (-1.0 < self.rho < 1.0):
                msg = f"mv_normal_rows requires rho in (-1, 1), got {self.rho!r}"
                raise ScenarioError(msg)
        used_by_kind = {
            "bernoulli": {"q"},
            "categorical": {"probs"},
            "interaction": {"a", "b"},
            "mv_normal_rows": {"rho"},
        }
        allowed = used_by_kind.get(self.kind, set())
        stray = [
            key
            for key in ("q", "probs", "a", "b", "rho")
            if key not in allowed and getattr(self, key) is not None
        ]
        if stray:
            msg = f"{self.kind!r} does not take parameter(s) {stray}"
            raise ScenarioError(msg)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind}
        for key in ("q", "a", "b", "rho"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.probs is not None:
            out["probs"] = list(self.probs)
        return out

    @staticmethod
    def from_dict(entry: dict[str, Any]) -> CovariateSpec:
        if not isinstance(entry, dict) or "kind" not in entry:
            msg = f"covariate entry must be an object with a 'kind' field, got {entry!r}"
            raise ScenarioError(msg)
        known = {"kind", "q", "probs", "a", "b", "rho"}
        extra = set(entry) - known
        if extra:
            msg = f"unknown covariate fields {sorted(extra)} in {entry!r}"
            raise ScenarioError(msg)
        probs = entry.get("probs")
        return CovariateSpec(
            kind=entry["kind"],
            q=entry.get("q"),
            probs=tuple(probs) if probs is not None else None,
            a=entry.get("a"),
            b=entry.get("b"),
            rho=entry.get("rho"),
        )


@dataclass(frozen=True)
class BlockScenario:
    """Layout of one block: its size, true dependence, and fitted structure."""

    name: str
    size: int
    structure_fit: str
    structure_true: str
    sigma: float
    rho: float

    def __post_init__(self) -> None:
        if self.structure_fit not in (AR1, CS):
            msg = f"block {self.name!r}: structure_fit must be '{AR1}' or '{CS}', got {self.structure_fit!r}"
            raise ScenarioError(msg)
        # Construct the true dependence to surface invalid (sigma, rho)
        # and size constraints with the block name attached.
        try:
            self.true_dependence.validate_for_size(self.size)
        except DimmError as exc:
            msg = f"block {self.name!r}: {exc}"
            raise ScenarioError(msg) from None

    @property
    def true_dependence(self) -> Dependence:
        return Dependence(self.structure_true, self.sigma, self.rho)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "size": self.size,
            "structure_fit": self.structure_fit,
            "structure_true": self.structure_true,
            "sigma": self.sigma,
            "rho": self.rho,
        }


def random_between_matrix(
    n_blocks: int, *, seed: int, off_scale: float = 0.3, floor: float = 0.05
) -> np.ndarray:
    """Seeded recipe for a correlation-like PD between-block matrix.

    Draws a symmetric matrix with unit diagonal and Uniform(-off_scale,
    off_scale) off-diagonals, floors its eigenvalues at ``floor``, and
    rescales back to a unit diagonal. Deterministic given ``seed``.
    """
    if n_blocks < 1:
        msg = f"n_blocks must be >= 1, got {n_blocks}"
        raise ScenarioError(msg)
    if not (0.0 <= off_scale < 1.0) or floor <= 0.0:
        msg = f"need 0 <= off_scale < 1 and floor > 0, got {off_scale}, {floor}"
        raise ScenarioError(msg)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    raw = rng.uniform(-off_scale, off_scale, size=(n_blocks, n_blocks))
    mat = (raw + raw.T) / 2.0
    np.fill_diagonal(mat, 1.0)
    eigvals, eigvecs = np.linalg.eigh(mat)
    mat = (eigvecs * np.maximum(eigvals, floor)) @ eigvecs.T
    scale = np.sqrt(np.diag(mat))
    mat = mat / np.outer(scale, scale)
    return (mat + mat.T) / 2.0


@dataclass(frozen=True, eq=False)
class SimScenario:
    """Complete generative and estimation description of one study.

    Parameters
    ----------
    name : str
    n_subjects : int
    beta0 : array-like, shape (p,)
        True mean coefficients; length must equal ``int(intercept) +
        len(covariates)``.
    blocks : sequence of BlockScenario
    between : array-like, shape (J, J)
        Between-block scale matrix (symmetric positive definite). The
        realized response covariance is assembled from it and the
        per-block true dependences at construction, so an invalid
        combination fails fast.
    covariates : sequence of CovariateSpec
    intercept : bool
        Prepend a constant-1 design column.
    n_replicates : int
    seed : int
        Base seed; replicate r draws from the stream keyed by
        ``(seed, r)``.
    methods : sequence of str
        Estimation methods to run each replicate; see module docstring.
    """

    name: str
    n_subjects: int
    beta0: np.ndarray
    blocks: tuple[BlockScenario, ...]
    between: np.ndarray
    covariates: tuple[CovariateSpec, ...]
    intercept: bool
    n_replicates: int
    seed: int
    methods: tuple[str, ...]
    covariance_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "covariates", tuple(self.covariates))
        object.__setattr__(self, "methods", tuple(self.methods))
        beta0 = np.array(self.beta0, dtype=np.float64, copy=True).reshape(-1)
        if beta0.size == 0 or not np.all(np.isfinite(beta0)):
            msg = f"beta0 must be a non-empty finite vector, got {self.beta0!r}"
            raise ScenarioError(msg)
        beta0.setflags(write=False)
        object.__setattr__(self, "beta0", beta0)
        if self.n_subjects < 1:
            msg = f"n_subjects must be >= 1, got {self.n_subjects}"
            raise ScenarioError(msg)
        if self.n_replicates < 1:
            msg = f"n_replicates must be >= 1, got {self.n_replicates}"
            raise ScenarioError(msg)
        if not isinstance(self.seed, int) or self.seed < 0:
            msg = f"seed must be a non-negative integer, got {self.seed!r}"
            raise ScenarioError(msg)
        if not self.blocks:
            msg = "scenario needs at least one block"
            raise ScenarioError(msg)
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            msg = f"duplicate block names: {names}"
            raise ScenarioError(msg)
        if not self.methods:
            msg = "scenario needs at least one method"
            raise ScenarioError(msg)
        for meth in self.methods:
            if meth not in _METHOD_CHOICES:
                msg = f"unknown method {meth!r}; expected one of {_METHOD_CHOICES}"
                raise ScenarioError(msg)
        if len(set(self.methods)) != len(self.methods):
            msg = f"duplicate methods: {self.methods}"
            raise ScenarioError(msg)
        p = int(self.intercept) + len(self.covariates)
        if beta0.shape[0] != p:
            msg = (
                f"beta0 has length {beta0.shape[0]} but intercept={self.intercept} "
                f"plus {len(self.covariates)} covariates gives p={p}"
            )
            raise ScenarioError(msg)
        for col, spec in enumerate(self.covariates, start=int(self.intercept)):
            if spec.kind == "interaction" and (spec.a >= col or spec.b >= col):
                msg = (
                    f"interaction at design column {col} references columns "
                    f"(a={spec.a}, b={spec.b}); both must be earlier columns"
                )
                raise ScenarioError(msg)
        between = np.array(self.between, dtype=np.float64, copy=True)
        sizes = tuple(b.size for b in self.blocks)
        deps = [b.true_dependence for b in self.blocks]
        try:
            sigma_full = assemble_kronecker(between, deps, sizes)
        except DimmError as exc:
            msg = f"scenario {self.name!r}: invalid covariance: {exc}"
            raise ScenarioError(msg) from None
        between.setflags(write=False)
        sigma_full.setflags(write=False)
        object.__setattr__(self, "between", between)
        object.__setattr__(self, "covariance_matrix", sigma_full)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n_params(self) -> int:
        return self.beta0.shape[0]

    @property
    def total_dim(self) -> int:
        return sum(b.size for b in self.blocks)

    def partition_for(self, method: str) -> BlockPartition:
        """The fitted block partition used by a ``dimm*`` method."""
        if method == "dimm":
            structures = [b.structure_fit for b in self.blocks]
        elif method in ("dimm:ar1", "dimm:cs"):
            structures = [method.split(":", 1)[1]] * len(self.blocks)
        else:
            msg = f"method {method!r} has no block partition"
            raise ScenarioError(msg)
        return BlockPartition.from_sizes(
            [b.size for b in self.blocks],
            structure=structures,
            names=[b.name for b in self.blocks],
        )


def scenario_to_dict(scn: SimScenario) -> dict[str, Any]:
    """Plain-data form of a scenario (the explicit-matrix between form)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": scn.name,
        "n_subjects": scn.n_subjects,
        "n_replicates": scn.n_replicates,
        "seed": scn.seed,
        "intercept": scn.intercept,
        "beta0": [float(v) for v in scn.beta0],
        "blocks": [b.to_dict() for b in scn.blocks],
        "between": {"kind": "matrix", "values": scn.between.tolist()},
        "covariates": [c.to_dict() for c in scn.covariates],
        "methods": list(scn.methods),
    }


def _require(entry: dict[str, Any], key: str, where: str) -> Any:
    if key not in entry:
        msg = f"missing required field {where}.{key}"
        raise ScenarioError(msg)
    return entry[key]


def _between_from_dict(entry: Any, n_blocks: int) -> np.ndarray:
    """Resolve the ``between`` field: identity, seeded recipe, or matrix."""
    if not isinstance(entry, dict) or "kind" not in entry:
        msg = "between must be an object with a 'kind' field"
        raise ScenarioError(msg)
    kind = entry["kind"]
    if kind == "identity":
        return np.eye(n_blocks)
    if kind == "random":
        return random_between_matrix(
            n_blocks,
            seed=_require(entry, "seed", "between"),
            off_scale=entry.get("off_scale", 0.3),
            floor=entry.get("floor", 0.05),
        )
    if kind == "matrix":
        return np.asarray(_require(entry, "values", "between"), dtype=np.float64)
    msg = f"between.kind must be 'identity', 'random', or 'matrix', got {kind!r}"
    raise ScenarioError(msg)


def scenario_from_dict(entry: dict[str, Any]) -> SimScenario:
    """Build a scenario from its plain-data form, validating field-by-field."""
    if not isinstance(entry, dict):
        msg = f"scenario must be an object, got {type(entry).__name__}"
        raise ScenarioError(msg)
    version = entry.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        msg = f"unsupported scenario schema_version {version!r} (this build reads {SCHEMA_VERSION})"
        raise ScenarioError(msg)
    known = {
        "schema_version",
        "name",
        "n_subjects",
        "n_replicates",
        "seed",
        "intercept",
        "beta0",
        "blocks",
        "between",
        "covariates",
        "methods",
    }
    extra = set(entry) - known
    if extra:
        msg = f"unknown scenario fields: {sorted(extra)}"
        raise ScenarioError(msg)
    raw_blocks = _require(entry, "blocks", "scenario")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        msg = "scenario.blocks must be a non-empty list"
        raise ScenarioError(msg)
    blocks = []
    for i, blk in enumerate(raw_blocks):
        if not isinstance(blk, dict):
            msg = f"scenario.blocks[{i}] must be an object"
            raise ScenarioError(msg)
        blocks.append(
            BlockScenario(
                name=str(_require(blk, "name", f"blocks[{i}]")),
                size=int(_require(blk, "size", f"blocks[{i}]")),
                structure_fit=_require(blk, "structure_fit", f"blocks[{i}]"),
                structure_true=_require(blk, "structure_true", f"blocks[{i}]"),
                sigma=float(_require(blk, "sigma", f"blocks[{i}]")),
                rho=float(_require(blk, "rho", f"blocks[{i}]")),
            )
        )
    covariates = [
        CovariateSpec.from_dict(c) for c in entry.get("covariates", [])
    ]
    return SimScenario(
        name=str(_require(entry, "name", "scenario")),
        n_subjects=int(_require(entry, "n_subjects", "scenario")),
        beta0=np.asarray(_require(entry, "beta0", "scenario"), dtype=np.float64),
        blocks=tuple(blocks),
        between=_between_from_dict(_require(entry, "between", "scenario"), len(blocks)),
        covariates=tuple(covariates),
        intercept=bool(entry.get("intercept", False)),
        n_replicates=int(_require(entry, "n_replicates", "scenario")),
        seed=int(_require(entry, "seed", "scenario")),
        methods=tuple(_require(entry, "methods", "scenario")),
    )


def _ar1_cholesky(m: int, rho: float) -> np.ndarray:
    corr = rho ** np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    return np.linalg.cholesky(corr)


def generate_replicate(scn: SimScenario, rep_index: int) -> PanelDataset:
    """Draw one replicate panel, deterministic given (scenario.seed, rep_index).

    Covariate columns are drawn first in recipe order, then the noise
    panel; the response is ``X beta0 + L z`` with ``L`` the Cholesky
    factor of the assembled covariance and ``z`` i.i.d. standard normal.
    """
    if rep_index < 0:
        msg = f"rep_index must be >= 0, got {rep_index}"
        raise ScenarioError(msg)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((scn.seed, int(rep_index))))
    )
    n, m = scn.n_subjects, scn.total_dim
    cols: list[np.ndarray] = []
    if scn.intercept:
        cols.append(np.ones((n, m)))
    for spec in scn.covariates:
        if spec.kind == "standard_normal":
            col = np.broadcast_to(rng.standard_normal(n)[:, None], (n, m))
        elif spec.kind == "bernoulli":
            col = np.broadcast_to(
                (rng.random(n) < spec.q).astype(np.float64)[:, None], (n, m)
            )
        elif spec.kind == "categorical":
            values = np.arange(1, len(spec.probs) + 1, dtype=np.float64)
            col = np.broadcast_to(
                rng.choice(values, size=n, p=np.asarray(spec.probs))[:, None], (n, m)
            )
        elif spec.kind == "uniform01":
            col = np.broadcast_to(rng.random(n)[:, None], (n, m))
        elif spec.kind == "interaction":
            col = cols[spec.a] * cols[spec.b]
        elif spec.kind == "mv_normal_rows":
            lx = _ar1_cholesky(m, spec.rho)
            col = rng.standard_normal((n, m)) @ lx.T
        elif spec.kind == "alternating01":
            col = np.broadcast_to(
                (np.arange(m) % 2).astype(np.float64)[None, :], (n, m)
            )
        else:  # pragma: no cover - excluded by CovariateSpec validation
            msg = f"unknown covariate generator {spec.kind!r}"
            raise ScenarioError(msg)
        cols.append(col)
    x = np.stack(cols, axis=-1) if cols else np.empty((n, m, 0))
    chol = np.linalg.cholesky(scn.covariance_matrix)
    noise = rng.standard_normal((n, m)) @ chol.T
    y = np.einsum("nmp,p->nm", x, scn.beta0) + noise
    return PanelDataset(responses=y, covariates=x)


def _fit_one_method(
    method: str, scn: SimScenario, data: PanelDataset
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float | None, int]:
    """Run one method on one replicate.

    Returns (est, se, asymptotic se, q_stat, gof_df); the two SEs differ
    only for the integrated methods.
    """
    if method.startswith("dimm"):
        fits = fit_blocks(data, scn.partition_for(method))
        res = integrate_fits(fits)
        return res.beta_dimm, res.std_errors, res.asymptotic_std_errors, res.q_stat, res.gof_df
    if method == "gls_oracle":
        fit = gls_oracle(data, scn.covariance_matrix)
    elif method == "gee_independence":
        fit = gee_fit(data, "independence")
    elif method == "gee_exchangeable":
        fit = gee_fit(data, "exchangeable")
    else:  # pragma: no cover - excluded by scenario validation
        msg = f"unknown method {method!r}"
        raise ScenarioError(msg)
    return fit.beta_hat, fit.std_errors, fit.std_errors, None, 0


def _run_replicate_task(
    scn: SimScenario, rep_index: int
) -> dict[str, tuple[Any, ...]]:
    """One replicate: generate once, run every method, time each."""
    data = generate_replicate(scn, rep_index)
    out: dict[str, tuple[Any, ...]] = {}
    for method in scn.methods:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            est, se, ase, q_stat, gof_df = _fit_one_method(method, scn, data)
        except DimmError as exc:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            out[method] = ("fail", f"{type(exc).__name__}: {exc}", wall, cpu)
            continue
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        out[method] = ("ok", est.tolist(), se.tolist(), ase.tolist(), q_stat, gof_df, wall, cpu)
    return out


@dataclass(frozen=True, eq=False)
class GofSummary:
    """Distribution of the over-identification statistic across replicates."""

    df: int
    q_values: np.ndarray
    mean_q: float
    rejection_rate: float
    probes: np.ndarray
    empirical_quantiles: np.ndarray
    theoretical_quantiles: np.ndarray

    def __post_init__(self) -> None:
        for name in ("q_values", "probes", "empirical_quantiles", "theoretical_quantiles"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_dict(self) -> dict[str, Any]:
        return {
            "df": self.df,
            "q_values": self.q_values.tolist(),
            "mean_q": self.mean_q,
            "rejection_rate": self.rejection_rate,
            "probes": self.probes.tolist(),
            "empirical_quantiles": self.empirical_quantiles.tolist(),
            "theoretical_quantiles": self.theoretical_quantiles.tolist(),
        }

    @staticmethod
    def from_dict(entry: dict[str, Any]) -> GofSummary:
        return GofSummary(
            df=int(entry["df"]),
            q_values=np.asarray(entry["q_values"], dtype=np.float64),
            mean_q=float(entry["mean_q"]),
            rejection_rate=float(entry["rejection_rate"]),
            probes=np.asarray(entry["probes"], dtype=np.float64),
            empirical_quantiles=np.asarray(entry["empirical_quantiles"], dtype=np.float64),
            theoretical_quantiles=np.asarray(entry["theoretical_quantiles"], dtype=np.float64),
        )


@dataclass(frozen=True, eq=False)
class MethodReport:
    """Per-method simulation results: raw draws and reduced metrics.

    ``estimates``, ``std_errors`` and ``asymptotic_std_errors`` hold the
    successful replicates in replicate order (rows aligned with
    ``rep_indices``); the metric vectors are per-coefficient. The
    metrics use ``std_errors``: for the ``dimm*`` methods these are the
    jackknife SEs and ``asymptotic_std_errors`` the analytic ones; for
    the comparators the two are equal.
    """

    method: str
    n_used: int
    n_failures: int
    rep_indices: tuple[int, ...]
    estimates: np.ndarray
    std_errors: np.ndarray
    asymptotic_std_errors: np.ndarray
    rmse: np.ndarray
    bias: np.ndarray
    ese: np.ndarray
    ase: np.ndarray
    coverage: np.ndarray
    wald_rejection: np.ndarray
    gof: GofSummary | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rep_indices", tuple(int(i) for i in self.rep_indices))
        for name in (
            "estimates",
            "std_errors",
            "asymptotic_std_errors",
            "rmse",
            "bias",
            "ese",
            "ase",
            "coverage",
            "wald_rejection",
        ):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_dict(self) -> dict[str, Any]:
        return {
            "method": self.method,
            "n_used": self.n_used,
            "n_failures": self.n_failures,
            "rep_indices": list(self.rep_indices),
            "estimates": self.estimates.tolist(),
            "std_errors": self.std_errors.tolist(),
            "asymptotic_std_errors": self.asymptotic_std_errors.tolist(),
            "rmse": self.rmse.tolist(),
            "bias": self.bias.tolist(),
            "ese": self.ese.tolist(),
            "ase": self.ase.tolist(),
            "coverage": self.coverage.tolist(),
            "wald_rejection": self.wald_rejection.tolist(),
            "gof": self.gof.to_dict() if self.gof is not None else None,
        }

    @staticmethod
    def from_dict(entry: dict[str, Any]) -> MethodReport:
        gof = entry.get("gof")
        return MethodReport(
            method=str(entry["method"]),
            n_used=int(entry["n_used"]),
            n_failures=int(entry["n_failures"]),
            rep_indices=tuple(entry["rep_indices"]),
            estimates=np.asarray(entry["estimates"], dtype=np.float64),
            std_errors=np.asarray(entry["std_errors"], dtype=np.float64),
            asymptotic_std_errors=np.asarray(entry["asymptotic_std_errors"], dtype=np.float64),
            rmse=np.asarray(entry["rmse"], dtype=np.float64),
            bias=np.asarray(entry["bias"], dtype=np.float64),
            ese=np.asarray(entry["ese"], dtype=np.float64),
            ase=np.asarray(entry["ase"], dtype=np.float64),
            coverage=np.asarray(entry["coverage"], dtype=np.float64),
            wald_rejection=np.asarray(entry["wald_rejection"], dtype=np.float64),
            gof=GofSummary.from_dict(gof) if gof is not None else None,
        )


@dataclass(frozen=True, eq=False)
class SimReport:
    """Full result of a scenario run.

    All numeric content is deterministic for a given scenario and seed;
    wall/CPU time lives only under ``timing`` so determinism checks can
    strip a single top-level key (see :func:`report_fingerprint`).
    """

    schema_version: int
    scenario_name: str
    n_subjects: int
    n_replicates: int
    seed: int
    beta0: np.ndarray
    between: np.ndarray
    methods: tuple[MethodReport, ...]
    timing: dict[str, dict[str, float]]

    def __post_init__(self) -> None:
        beta0 = np.array(self.beta0, dtype=np.float64, copy=True)
        between = np.array(self.between, dtype=np.float64, copy=True)
        beta0.setflags(write=False)
        between.setflags(write=False)
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "between", between)
        object.__setattr__(self, "methods", tuple(self.methods))

    def method(self, name: str) -> MethodReport:
        for rep in self.methods:
            if rep.method == name:
                return rep
        known = [rep.method for rep in self.methods]
        msg = f"no method {name!r} in report; present: {known}"
        raise ScenarioError(msg)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "scenario_name": self.scenario_name,
            "n_subjects": self.n_subjects,
            "n_replicates": self.n_replicates,
            "seed": self.seed,
            "beta0": self.beta0.tolist(),
            "between": self.between.tolist(),
            "methods": [rep.to_dict() for rep in self.methods],
            "timing": {
                meth: {key: float(val) for key, val in inner.items()}
                for meth, inner in self.timing.items()
            },
        }

    @staticmethod
    def from_dict(entry: dict[str, Any]) -> SimReport:
        version = entry.get("schema_version")
        if version != REPORT_SCHEMA_VERSION:
            msg = (
                f"unsupported report schema_version {version!r} "
                f"(this build reads {REPORT_SCHEMA_VERSION})"
            )
            raise ScenarioError(msg)
        return SimReport(
            schema_version=int(version),
            scenario_name=str(entry["scenario_name"]),
            n_subjects=int(entry["n_subjects"]),
            n_replicates=int(entry["n_replicates"]),
            seed=int(entry["seed"]),
            beta0=np.asarray(entry["beta0"], dtype=np.float64),
            between=np.asarray(entry["between"], dtype=np.float64),
            methods=tuple(MethodReport.from_dict(m) for m in entry["methods"]),
            timing={
                meth: dict(inner) for meth, inner in entry.get("timing", {}).items()
            },
        )


def report_fingerprint(report: SimReport) -> str:
    """Canonical JSON of everything deterministic in a report.

    Drops the segregated ``timing`` key and serializes with sorted keys,
    so two runs of the same scenario and seed — at any worker count —
    produce byte-identical fingerprints.
    """
    import json

    data = report.to_dict()
    data.pop("timing", None)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _reduce_method(
    method: str,
    results: list[tuple[int, tuple[Any, ...]]],
    scn: SimScenario,
) -> tuple[MethodReport, dict[str, float]]:
    """Aggregate one method's per-replicate outcomes into a MethodReport."""
    ok_rows = [(rep, res) for rep, res in results if res[0] == "ok"]
    failures = [(rep, res) for rep, res in results if res[0] == "fail"]
    n_total = len(results)
    if len(failures) > _MAX_FAILURE_FRACTION * n_total:
        examples = "; ".join(
            f"rep {rep}: {res[1]}" for rep, res in failures[:3]
        )
        msg = (
            f"method {method!r} failed on {len(failures)}/{n_total} replicates "
            f"(> {_MAX_FAILURE_FRACTION:.0%} allowed); first failures: {examples}"
        )
        raise ScenarioError(msg)
    if len(ok_rows) < 2:
        msg = f"method {method!r} succeeded on {len(ok_rows)} replicates; need >= 2 for metrics"
        raise ScenarioError(msg)

    rep_indices = tuple(rep for rep, _ in ok_rows)
    estimates = np.array([res[1] for _, res in ok_rows], dtype=np.float64)
    ses = np.array([res[2] for _, res in ok_rows], dtype=np.float64)
    asymptotic_ses = np.array([res[3] for _, res in ok_rows], dtype=np.float64)
    wall = sum(float(res[-2]) for _, res in results)
    cpu = sum(float(res[-1]) for _, res in results)

    beta0 = scn.beta0
    dev = estimates - beta0[None, :]
    rmse = np.sqrt(np.mean(dev**2, axis=0))
    bias = np.mean(dev, axis=0)
    ese = np.std(estimates, axis=0, ddof=1)
    ase = np.mean(ses, axis=0)
    coverage = np.mean(np.abs(dev) <= _Z_CI * ses, axis=0)
    wald_rejection = np.mean(np.abs(estimates / ses) > _Z_TEST, axis=0)

    gof = None
    if method.startswith("dimm") and scn.n_blocks > 1:
        q_values = np.array([float(res[4]) for _, res in ok_rows])
        df = int(ok_rows[0][1][5])
        cutoff = chi2_quantile(0.95, df)
        probes = np.asarray(_GOF_PROBES)
        gof = GofSummary(
            df=df,
            q_values=q_values,
            mean_q=float(np.mean(q_values)),
            rejection_rate=float(np.mean(q_values > cutoff)),
            probes=probes,
            empirical_quantiles=np.quantile(q_values, probes),
            theoretical_quantiles=np.asarray([chi2_quantile(p, df) for p in probes]),
        )

    report = MethodReport(
        method=method,
        n_used=len(ok_rows),
        n_failures=len(failures),
        rep_indices=rep_indices,
        estimates=estimates,
        std_errors=ses,
        asymptotic_std_errors=asymptotic_ses,
        rmse=rmse,
        bias=bias,
        ese=ese,
        ase=ase,
        coverage=coverage,
        wald_rejection=wald_rejection,
        gof=gof,
    )
    return report, {"wall_seconds": wall, "cpu_seconds": cpu}


def run_scenario(scn: SimScenario, *, workers: int | None = None) -> SimReport:
    """Execute every replicate of a scenario and reduce to a report.

    Replicates are independent and may run across processes
    (``workers``); each replicate fits its blocks serially so total
    concurrency stays bounded by the worker count. Aggregation runs in
    replicate order regardless of completion order.

    Raises
    ------
    ScenarioError
        If any method fails on more than 5% of replicates.
    """
    task = partial(_run_replicate_task, scn)
    per_rep = parallel_map(task, range(scn.n_replicates), workers=workers)
    methods = []
    timing: dict[str, dict[str, float]] = {}
    for method in scn.methods:
        rows = [(rep, per_rep[rep][method]) for rep in range(scn.n_replicates)]
        report, spent = _reduce_method(method, rows, scn)
        methods.append(report)
        timing[method] = spent
    return SimReport(
        schema_version=REPORT_SCHEMA_VERSION,
        scenario_name=scn.name,
        n_subjects=scn.n_subjects,
        n_replicates=scn.n_replicates,
        seed=scn.seed,
        beta0=scn.beta0,
        between=scn.between,
        methods=tuple(methods),
        timing=timing,
    )


def bundled_scenario_names() -> tuple[str, ...]:
    """Names of the scenario configs shipped inside the package."""
    from importlib import resources

    root = resources.files("dimm").joinpath("scenarios")
    names = sorted(
        entry.name[: -len(".json")]
        for entry in root.iterdir()
        if entry.name.endswith(".json")
    )
    return tuple(names)


def bundled_scenario(name: str) -> SimScenario:
    """Load one of the scenario configs shipped inside the package."""
    import json
    from importlib import resources

    path = resources.files("dimm").joinpath("scenarios", f"{name}.json")
    if not path.is_file():
        msg = f"no bundled scenario {name!r}; available: {list(bundled_scenario_names())}"
        raise ScenarioError(msg)
    with path.open("r", encoding="utf-8") as handle:
        return scenario_from_dict(json.load(handle))
