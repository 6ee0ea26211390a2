"""Monte-Carlo harness: scenario definitions, data generation, and metrics.

A :class:`SimScenario` pins down everything needed to draw replicate
panels — the true mean vector, the block layout with true and fitted
dependence structures, the between-block scale matrix, and an ordered
list of covariate recipes — plus the replicate count, base seed, and the
estimation methods to run. Scenario files are read and written by the
strict :class:`dimm._util.Report` codec, like every other JSON file of the
package. :func:`run_scenario` executes the replicates
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
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Literal, get_args

import numpy as np

from dimm._util import Report, cholesky, encode, frozen, parallel_map
from dimm.baselines import gee_fit, gls_oracle
from dimm.errors import DimmError, PartitionError, ScenarioError
from dimm.integrate import integrate_fits
from dimm.io import bundled_scenario_names
from dimm.model import (
    AR1,
    Block,
    BlockPartition,
    Dependence,
    PanelDataset,
    Structure,
    assemble_kronecker,
    partition_dataset,  # noqa: F401  (unused; perfbench/tracing.py probes this name)
)
from dimm.pairwise import fit_blocks
from dimm.special import chi2_quantile

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
]

SCHEMA_VERSION = 1
# Version 2 added ``asymptotic_std_errors`` and made the dimm
# ``std_errors`` the jackknife ones.
REPORT_SCHEMA_VERSION = 2

# The covariate recipes of CovariateSpec.kind.
CovariateKind = Literal[
    "standard_normal", "bernoulli", "categorical", "uniform01",
    "interaction", "mv_normal_rows", "alternating01"
]

# Methods: the "dimm" entry fits each block with its scenario-declared
# structure; "dimm:cs" / "dimm:ar1" override every block's fitted
# structure (deliberate misspecification studies). The rest are the
# whole-panel comparators.
_METHOD_CHOICES = (
    "dimm",
    *(f"dimm:{family}" for family in get_args(Structure)),
    "gls_oracle",
    "gee_independence",
    "gee_exchangeable",
)

_Z_CI = 1.96  # half-width multiplier of the reported 95% intervals
_Z_TEST = 1.959963984540054  # exact 0.975 normal quantile: p < 0.05 test
_GOF_PROBES = (0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95)
_MAX_FAILURE_FRACTION = 0.05


@dataclass(frozen=True)
class CovariateSpec(Report):
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

    ERROR = ScenarioError

    kind: CovariateKind
    q: float | None = None
    probs: tuple[float, ...] | None = None
    a: int | None = None
    b: int | None = None
    rho: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind == "bernoulli":
            if self.q is None or not (0.0 < self.q < 1.0):
                msg = f"bernoulli requires q in (0, 1), got {self.q!r}"
                raise ScenarioError(msg)
        elif self.kind == "categorical":
            if self.probs is None or len(self.probs) < 2:
                msg = "categorical requires at least 2 probabilities"
                raise ScenarioError(msg)
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


@dataclass(frozen=True)
class BlockScenario(Report):
    """Layout of one block: its size, true dependence, and fitted structure.

    The :class:`~dimm.model.Block` that the ``dimm`` method fits is checked
    by the partition's layout rule before the true dependence at that size.
    """

    ERROR = ScenarioError

    name: str
    size: int
    structure_fit: Structure
    structure_true: Structure
    sigma: float
    rho: float

    def __post_init__(self) -> None:
        super().__post_init__()
        try:
            BlockPartition((Block(self.name, self.size, self.structure_fit),))
        except PartitionError as exc:  # its message names the block
            raise ScenarioError(str(exc)) from None
        try:
            self.true_dependence.validate_for_size(self.size)
        except DimmError as exc:
            msg = f"block {self.name!r}: {exc}"
            raise ScenarioError(msg) from None

    @property
    def true_dependence(self) -> Dependence:
        return Dependence(self.structure_true, self.sigma, self.rho)


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
    if not (0.0 <= off_scale < 1.0) or not (0.0 < floor < math.inf):
        msg = f"need 0 <= off_scale < 1 and a finite floor > 0, got {off_scale}, {floor}"
        raise ScenarioError(msg)
    if seed < 0:
        msg = f"seed must be a non-negative integer, got {seed!r}"
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


@dataclass(frozen=True)
class _BetweenRecipe(Report):
    """The ``between`` input: the identity, a seeded random matrix, or the matrix itself."""

    ERROR = ScenarioError

    kind: Literal["identity", "random", "matrix"]
    seed: int | None = None
    off_scale: float | None = None
    floor: float | None = None
    values: np.ndarray | None = None


# The keys each kind of between recipe reads; any other is refused.
_BETWEEN_KEYS = {"identity": (), "random": ("seed", "off_scale", "floor"), "matrix": ("values",)}


def _between_from_dict(entry: Any, n_blocks: int, path: str) -> np.ndarray:
    """Resolve the tagged ``between`` input to the between-block matrix."""
    recipe = _BetweenRecipe.from_dict(entry, path)
    given = {k: v for k, v in encode(recipe).items() if k != "kind"}
    stray = sorted(set(given) - set(_BETWEEN_KEYS[recipe.kind]))
    if stray:
        msg = f"{path}: kind {recipe.kind!r} does not take parameter(s) {stray}"
        raise ScenarioError(msg)
    if recipe.kind == "identity":
        return np.eye(n_blocks)
    if recipe.kind == "random" and recipe.seed is not None:
        try:
            return random_between_matrix(n_blocks, **given)
        except ScenarioError as exc:
            msg = f"{path}: {exc}"
            raise ScenarioError(msg) from None
    if recipe.kind == "matrix" and recipe.values is not None:
        return recipe.values
    msg = f"{path}: kind {recipe.kind!r} needs {'seed' if recipe.kind == 'random' else 'values'}"
    raise ScenarioError(msg)


@dataclass(frozen=True, eq=False)
class SimScenario(Report):
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
        combination fails fast; it and its lower Cholesky factor are kept
        as ``covariance_matrix`` and ``covariance_factor``, so a replicate
        does not factor it again. Like every array here they are read-only
        (:func:`dimm._util.frozen`). In JSON it is tagged:
        ``{"kind": "identity"}``, ``{"kind": "random", "seed": s}``
        (optional ``off_scale``, ``floor``; see
        :func:`random_between_matrix`) or ``{"kind": "matrix", "values":
        [[...]]}``, the form ``to_dict`` writes.
    n_replicates : int
    seed : int
        Base seed; replicate r draws from the stream keyed by
        ``(seed, r)``.
    methods : sequence of str
        Estimation methods to run each replicate; see module docstring.
    covariates : sequence of CovariateSpec, default ()
    intercept : bool, default False
        Prepend a constant-1 design column.
    """

    SCHEMA_VERSION = SCHEMA_VERSION
    ERROR = ScenarioError
    PATH = "scenario"

    name: str
    n_subjects: int
    beta0: np.ndarray
    blocks: tuple[BlockScenario, ...]
    between: np.ndarray
    n_replicates: int
    seed: int
    methods: tuple[str, ...]
    covariates: tuple[CovariateSpec, ...] = ()
    intercept: bool = False
    covariance_matrix: np.ndarray = field(init=False, repr=False)
    covariance_factor: np.ndarray = field(init=False, repr=False)
    _partitions: dict[str, BlockPartition] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        beta0 = self.beta0
        if beta0.ndim != 1 or beta0.size == 0 or not np.all(np.isfinite(beta0)):
            msg = f"beta0 must be a non-empty finite vector, got {beta0!r}"
            raise ScenarioError(msg)
        if self.n_subjects < 1:
            msg = f"n_subjects must be >= 1, got {self.n_subjects}"
            raise ScenarioError(msg)
        if self.n_replicates < 1:
            msg = f"n_replicates must be >= 1, got {self.n_replicates}"
            raise ScenarioError(msg)
        if self.seed < 0:
            msg = f"seed must be a non-negative integer, got {self.seed!r}"
            raise ScenarioError(msg)
        # The fitted partition of each dimm* method, built once here.
        fitted = tuple(Block(b.name, b.size, b.structure_fit) for b in self.blocks)
        try:
            partitions = {"dimm": BlockPartition(fitted)}
        except PartitionError as exc:
            msg = f"scenario {self.name!r}: {exc}"
            raise ScenarioError(msg) from None
        for family in get_args(Structure):
            blocks = tuple(replace(b, structure=family) for b in fitted)
            partitions[f"dimm:{family}"] = BlockPartition(blocks)
        object.__setattr__(self, "_partitions", partitions)
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
        deps = [b.true_dependence for b in self.blocks]
        try:
            sigma_full = assemble_kronecker(self.between, deps, partitions["dimm"].sizes)
        except DimmError as exc:
            msg = f"scenario {self.name!r}: invalid covariance: {exc}"
            raise ScenarioError(msg) from None
        object.__setattr__(self, "covariance_matrix", frozen(sigma_full))
        factor = cholesky(sigma_full, "assembled covariance", ScenarioError)
        object.__setattr__(self, "covariance_factor", frozen(factor))

    def to_dict(self) -> dict[str, Any]:
        between = {"kind": "matrix", "values": self.between.tolist()}
        return {**super().to_dict(), "schema_version": SCHEMA_VERSION, "between": between}

    @classmethod
    def from_dict(cls, entry: Any, path: str | None = None) -> SimScenario:
        path = cls.PATH if path is None else path
        entry = cls._checked(entry, path)
        # Resolve the tagged between once the blocks give its size; any
        # other shape of blocks is left for the codec to refuse.
        if isinstance(entry.get("blocks"), list) and "between" in entry:
            n_blocks = len(entry["blocks"])
            between = _between_from_dict(entry["between"], n_blocks, f"{path}.between")
            entry = {**entry, "between": between}
        return super().from_dict(entry, path)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n_params(self) -> int:
        return self.beta0.shape[0]

    @property
    def total_dim(self) -> int:
        return self._partitions["dimm"].total_size

    def partition_for(self, method: str) -> BlockPartition:
        """The fitted block partition used by a ``dimm*`` method."""
        if method not in self._partitions:
            msg = f"method {method!r} has no block partition"
            raise ScenarioError(msg)
        return self._partitions[method]


def generate_replicate(scn: SimScenario, rep_index: int) -> PanelDataset:
    """Draw one replicate panel, deterministic given (scenario.seed, rep_index).

    Covariate columns are drawn first in recipe order, then the noise
    panel; the response is ``X beta0 + L z`` with ``L`` the scenario's
    ``covariance_factor`` and ``z`` i.i.d. standard normal. ``X beta0`` is
    formed on the columns' common broadcast shape ((N, 1) when every column
    is subject-level), and the panel gets the design broadcast from it, so
    a design with no coordinate-level column is never written at (N, M, p).
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
        cols.append(np.ones((1, 1)))
    for spec in scn.covariates:
        if spec.kind == "standard_normal":
            col = rng.standard_normal((n, 1))
        elif spec.kind == "bernoulli":
            col = (rng.random((n, 1)) < spec.q).astype(np.float64)
        elif spec.kind == "categorical":
            values = np.arange(1, len(spec.probs) + 1, dtype=np.float64)
            col = rng.choice(values, size=(n, 1), p=np.asarray(spec.probs))
        elif spec.kind == "uniform01":
            col = rng.random((n, 1))
        elif spec.kind == "interaction":
            col = cols[spec.a] * cols[spec.b]
        elif spec.kind == "mv_normal_rows":
            lags = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
            corr, _ = Dependence(AR1, rho=spec.rho).lag_correlations(lags)
            lx = cholesky(corr, "mv_normal_rows row covariance", ScenarioError)
            col = rng.standard_normal((n, m)) @ lx.T
        else:  # alternating01, the last kind CovariateSpec admits
            col = (np.arange(m) % 2).astype(np.float64)[None, :]
        cols.append(col)
    shape = np.broadcast_shapes(*(col.shape for col in cols))
    x = np.stack([np.broadcast_to(col, shape) for col in cols], axis=-1)
    noise = rng.standard_normal((n, m)) @ scn.covariance_factor.T
    y = np.einsum("...p,p->...", x, scn.beta0) + noise
    return PanelDataset(responses=y, covariates=np.broadcast_to(x, (n, m, x.shape[-1])))


def _fit_one_method(
    method: str, scn: SimScenario, data: PanelDataset
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float | None, int]:
    """Run one method on one replicate.

    Returns (est, se, asymptotic se, q_stat, gof_df); the two SEs differ
    only for the integrated methods.
    """
    if method.startswith("dimm"):
        res = integrate_fits(fit_blocks(data, scn.partition_for(method)))
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
class GofSummary(Report):
    """Distribution of the over-identification statistic across replicates."""

    ERROR = ScenarioError

    df: int
    q_values: np.ndarray
    mean_q: float
    rejection_rate: float
    probes: np.ndarray
    empirical_quantiles: np.ndarray
    theoretical_quantiles: np.ndarray


@dataclass(frozen=True, eq=False)
class MethodReport(Report):
    """Per-method simulation results: raw draws and reduced metrics.

    ``estimates``, ``std_errors`` and ``asymptotic_std_errors`` hold the
    successful replicates in replicate order (rows aligned with
    ``rep_indices``); the metric vectors are per-coefficient. The
    metrics use ``std_errors``: for the ``dimm*`` methods these are the
    jackknife SEs and ``asymptotic_std_errors`` the analytic ones; for
    the comparators the two are equal.
    """

    ERROR = ScenarioError

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


@dataclass(frozen=True, eq=False)
class SimReport(Report):
    """Full result of a scenario run.

    All numeric content is deterministic for a given scenario and seed;
    wall/CPU time lives only under ``timing`` so determinism checks can
    strip a single top-level key (see :func:`report_fingerprint`).
    """

    SCHEMA_VERSION = REPORT_SCHEMA_VERSION
    ERROR = ScenarioError

    schema_version: int
    scenario_name: str
    n_subjects: int
    n_replicates: int
    seed: int
    beta0: np.ndarray
    between: np.ndarray
    methods: tuple[MethodReport, ...]
    timing: dict[str, dict[str, float]] = field(default_factory=dict)

    def method(self, name: str) -> MethodReport:
        for rep in self.methods:
            if rep.method == name:
                return rep
        known = [rep.method for rep in self.methods]
        msg = f"no method {name!r} in report; present: {known}"
        raise ScenarioError(msg)


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
        methods=methods,
        timing=timing,
    )


def bundled_scenario(name: str) -> SimScenario:
    """Load one of the scenario configs shipped inside the package."""
    from importlib import resources

    path = resources.files("dimm").joinpath("scenarios", f"{name}.json")
    if not path.is_file():
        msg = f"no bundled scenario {name!r}; available: {list(bundled_scenario_names())}"
        raise ScenarioError(msg)
    with resources.as_file(path) as file:
        return SimScenario.load(file)
