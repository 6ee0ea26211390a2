"""Data model: correlated Gaussian panels, block partitions, covariances.

The estimation problem is a linear mean model for a high-dimensional
correlated Gaussian response: subject ``i`` contributes an ``M``-vector
``y_i`` with ``E[y_i] = X_i beta`` for an ``M x p`` covariate matrix
``X_i``. The response coordinates are split into ``J`` contiguous blocks;
within a block the second-moment structure is a single-variance working
family (AR(1) or compound symmetry) with parameters ``gamma_j = (sigma,
rho)``. Between-block dependence is captured by a ``J x J`` positive
definite matrix ``S`` that scales per-block within factors into a full
``M x M`` covariance (a blockwise Kronecker-style product, used by the
simulation harness and the oracle baseline).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal, get_args

import numpy as np

from dimm._util import cholesky, frozen
from dimm.errors import CovarianceError, DataError, PartitionError

if TYPE_CHECKING:
    from collections.abc import Sequence

__all__ = [
    "AR1",
    "CS",
    "Block",
    "BlockPartition",
    "Dependence",
    "PanelDataset",
    "Structure",
    "assemble_kronecker",
    "check_identified",
    "partition_dataset",
]

AR1 = "ar1"
CS = "cs"
# The fitted working families, as the JSON records type them.
Structure = Literal["ar1", "cs"]
_STRUCTURES = get_args(Structure)


@dataclass(frozen=True)
class Dependence:
    """Within-block dependence family with parameters ``(sigma, rho)``.

    ``structure`` selects the working correlation family:

    - ``"ar1"``: corr(y_r, y_t) = rho**|r - t|, rho in (-1, 1);
    - ``"cs"``: corr(y_r, y_t) = rho for r != t (compound symmetry),
      rho in (-1/(m-1), 1) for a block of size m (the lower bound is
      enforced wherever the block size is known).

    Both families share one marginal standard deviation ``sigma > 0``.

    Parameters
    ----------
    structure : str
        ``"ar1"`` or ``"cs"``.
    sigma : float, default 1.0
        Marginal standard deviation.
    rho : float, default 0.0
        Correlation parameter.
    """

    structure: Structure
    sigma: float = 1.0
    rho: float = 0.0

    def __post_init__(self) -> None:
        if self.structure not in _STRUCTURES:
            msg = f"structure must be one of {_STRUCTURES}, got {self.structure!r}"
            raise PartitionError(msg)
        sigma = float(self.sigma)
        rho = float(self.rho)
        if not math.isfinite(sigma) or sigma <= 0.0:
            msg = f"sigma must be a finite positive number, got {self.sigma!r}"
            raise PartitionError(msg)
        if not math.isfinite(rho) or not -1.0 < rho < 1.0:
            msg = f"rho must lie in (-1, 1), got {self.rho!r}"
            raise PartitionError(msg)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rho", rho)

    def rho_lower(self, size: int) -> float:
        """Lower admissible rho for a block of ``size`` coordinates.

        AR(1) is positive definite on all of (-1, 1); compound symmetry
        needs rho > -1/(size - 1). A size below 2 has no pair and is refused.
        """
        if size < 2:
            msg = f"a block needs at least 2 coordinates, got size {size}"
            raise PartitionError(msg)
        if self.structure == CS:
            return -1.0 / (size - 1)
        return -1.0

    def validate_for_size(self, size: int) -> None:
        """Raise if ``rho`` violates positive definiteness at this size."""
        lower = self.rho_lower(size)
        if not lower < self.rho < 1.0:
            msg = (
                f"{self.structure} rho={self.rho} is not positive definite for a "
                f"block of size {size}: admissible interval is ({lower}, 1)"
            )
            raise PartitionError(msg)


@dataclass(frozen=True)
class Block:
    """One contiguous block of at least two response coordinates.

    ``structure`` names the working family fitted to the block, ``"ar1"``
    or ``"cs"``; the fit estimates its sigma and rho.
    """

    name: str
    size: int
    structure: Structure = AR1

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            msg = f"block name must be a non-empty string, got {self.name!r}"
            raise PartitionError(msg)
        if int(self.size) != self.size or self.size < 2:
            msg = f"block {self.name!r}: size must be an integer >= 2, got {self.size!r}"
            raise PartitionError(msg)
        object.__setattr__(self, "size", int(self.size))
        if self.structure not in _STRUCTURES:
            msg = f"block {self.name!r}: structure must be one of {_STRUCTURES}, got {self.structure!r}"
            raise PartitionError(msg)


@dataclass(frozen=True)
class BlockPartition:
    """Ordered partition of the M response coordinates into blocks.

    Blocks are contiguous and listed in coordinate order: block j covers
    positions ``offset_j .. offset_j + size_j - 1`` with offsets implied
    by the cumulative sizes. Names must be unique; they name the blocks
    a sub-group selects (:func:`dimm.integrate.weight_matrix`).

    Examples
    --------
    >>> part = BlockPartition.from_sizes([3, 2], structure="ar1")
    >>> part.names
    ('block1', 'block2')
    >>> part.total_size
    5
    """

    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        blocks = tuple(self.blocks)
        if not blocks:
            msg = "a partition needs at least one block"
            raise PartitionError(msg)
        for b in blocks:
            if not isinstance(b, Block):
                msg = f"partition entries must be Block instances, got {type(b).__name__}"
                raise PartitionError(msg)
        names = [b.name for b in blocks]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            msg = f"block names must be unique; duplicated: {dupes}"
            raise PartitionError(msg)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_sizes(
        cls,
        sizes: Sequence[int],
        *,
        structure: str | Sequence[str] = AR1,
        names: Sequence[str] | None = None,
    ) -> BlockPartition:
        """Build a partition from block sizes and one family name, or one per block."""
        sizes = list(sizes)
        if names is None:
            names = [f"block{j + 1}" for j in range(len(sizes))]
        if isinstance(structure, str):
            structures = [structure] * len(sizes)
        else:
            structures = list(structure)
        if not (len(names) == len(sizes) == len(structures)):
            msg = "sizes, names, and structures must have equal lengths"
            raise PartitionError(msg)
        return cls(tuple(Block(n, m, s) for n, m, s in zip(names, sizes, structures)))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(b.size for b in self.blocks)

    @property
    def total_size(self) -> int:
        return sum(self.sizes)

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.sizes[:-1], initial=0))

    @property
    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(off, off + m) for off, m in zip(self.offsets, self.sizes))

    def check_covers(self, n_coordinates: int) -> None:
        """Raise PartitionError unless the blocks cover ``n_coordinates``."""
        if self.total_size != n_coordinates:
            msg = (
                f"partition covers {self.total_size} coordinates but the panel "
                f"has M={n_coordinates}"
            )
            raise PartitionError(msg)


@dataclass(frozen=True, eq=False)
class PanelDataset:
    """Immutable N-subject panel: responses and per-coordinate covariates.

    Parameters
    ----------
    responses : ndarray, shape (N, M)
        One row per subject, one column per response coordinate.
    covariates : ndarray, shape (N, M, p)
        Covariate rows ``x_{i,m}`` aligned with the responses. Subject
        level covariates are simply repeated across the M rows.

    Raises
    ------
    DataError
        On shape mismatch, non-finite values, or a stacked (N M, p)
        design that does not identify the mean parameters by the Gram
        rule of :func:`check_identified` with N M rows; this fails fast at
        construction.

    A panel is validated once, here, where it enters. Its arrays are
    C-ordered copies, read-only like the Gram ``design_gram = X'X`` its
    identifiability rule reads (:func:`dimm._util.frozen`), so the block
    fits read views of them, and :mod:`dimm.pairwise` and
    :mod:`dimm.baselines` may cache what they compute from a panel for as
    long as it lives; each block's own identifiability is checked there.
    """

    responses: np.ndarray
    covariates: np.ndarray
    design_gram: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        y = np.array(self.responses, dtype=np.float64, copy=True, order="C")
        x = np.array(self.covariates, dtype=np.float64, copy=True, order="C")
        if y.ndim != 2:
            msg = f"responses must be a 2-d (N, M) array, got shape {y.shape}"
            raise DataError(msg)
        if x.ndim != 3:
            msg = f"covariates must be a 3-d (N, M, p) array, got shape {x.shape}"
            raise DataError(msg)
        n, m = y.shape
        if x.shape[:2] != (n, m):
            msg = (
                f"covariates shape {x.shape} does not align with responses "
                f"shape {y.shape}: leading dimensions must match"
            )
            raise DataError(msg)
        if n < 1 or m < 2 or x.shape[2] < 1:
            msg = f"need N >= 1 subjects, M >= 2 coordinates, p >= 1 covariates; got N={n}, M={m}, p={x.shape[2]}"
            raise DataError(msg)
        if not np.isfinite(y).all():
            msg = "responses contain non-finite values"
            raise DataError(msg)
        if not np.isfinite(x).all():
            msg = "covariates contain non-finite values"
            raise DataError(msg)
        design = x.reshape(n * m, x.shape[2])
        gram = design.T @ design
        check_identified(gram, n * m, "panel")
        for name, arr in (("responses", y), ("covariates", x), ("design_gram", gram)):
            object.__setattr__(self, name, frozen(arr))

    @property
    def n_subjects(self) -> int:
        return self.responses.shape[0]

    @property
    def n_coordinates(self) -> int:
        return self.responses.shape[1]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[2]


def check_identified(gram: np.ndarray, n_rows: int, label: str) -> None:
    """Refuse a design whose Gram does not identify the mean parameters.

    ``gram`` is the p x p Gram ``X'X`` of a design summed over ``n_rows``
    rows, and ``label`` names the design in the error: ``"panel"`` for a
    whole panel, ``"block 'name'"`` for one block of it. The design is
    refused with a :class:`DataError` when a column is zero, or when the
    eigenvalues of the equilibrated ``D^-1/2 G D^-1/2`` (``D = diag(G)``)
    have ``lambda_min / lambda_max <= n_rows eps``: ``n_rows eps`` bounds
    the roundoff of a Gram summed over that many rows, so an exactly
    collinear design cannot pass on roundoff. The rule does not change
    when a column is rescaled. Because G squares the condition number of
    the design, it also refuses an equilibrated design whose condition
    number exceeds about ``1 / sqrt(n_rows eps)`` (1.5e5 for the 200,000
    rows of ``table1_full``), a near-collinear design that an SVD rank
    test would still call full rank.
    """
    scale = np.sqrt(np.diag(gram))
    scale[scale == 0.0] = 1.0  # a zero column keeps a zero eigenvalue
    eig = np.linalg.eigvalsh(gram / np.outer(scale, scale))
    tol = n_rows * np.finfo(np.float64).eps
    if not eig[0] > tol * eig[-1]:
        msg = (
            f"{label}: the design is rank deficient, its equilibrated Gram has "
            f"eigenvalues from {eig[0]:.3g} to {eig[-1]:.3g} (ratio at most "
            f"{n_rows} rows * eps = {tol:.3g}); the mean parameters are not identified"
        )
        raise DataError(msg)


def partition_dataset(data: PanelDataset, partition: BlockPartition) -> list[PanelDataset]:
    """Split a panel into per-block panels, in block order.

    The block datasets carry copies of the corresponding coordinate
    slices, each validated as a panel of its own; concatenating them in
    order reconstructs the original data bit-exactly. A library helper
    only: :func:`dimm.pairwise.fit_blocks` reads the blocks as views of
    the panel and does not call it.

    Raises
    ------
    PartitionError
        If the partition sizes do not sum to the panel's M.
    """
    partition.check_covers(data.n_coordinates)
    return [
        PanelDataset(data.responses[:, sl], data.covariates[:, sl, :])
        for sl in partition.slices
    ]


def _corr_at_lags(dep: Dependence, lags: np.ndarray) -> np.ndarray:
    """Vectorized correlation function over a nonnegative integer lag grid."""
    if dep.structure == AR1:
        return np.power(float(dep.rho), lags.astype(np.float64))
    return np.where(lags == 0, 1.0, float(dep.rho))


def assemble_kronecker(
    between: np.ndarray,
    blocks: Sequence[Dependence],
    sizes: Sequence[int],
) -> np.ndarray:
    """Assemble a full M x M covariance from between- and within-block parts.

    Block (j, k) of the output is ``S[j, k] * A_jk`` where the within
    factor has entries ``A_jk[r, t] = sigma_j * sigma_k * c_jk(|r - t|)``.
    For j == k (and whenever the two blocks' correlation functions agree
    at a lag), ``c_jk`` is the blocks' own correlation function; where
    two heterogeneous blocks disagree, the geometric mean
    ``sqrt(c_j * c_k)`` bridges them, which requires a nonnegative
    product. When every block shares one spec and one size, the result
    equals the literal Kronecker product of S with that block's within
    matrix.

    Parameters
    ----------
    between : ndarray, shape (J, J)
        Symmetric positive definite between-block scale matrix S.
    blocks : sequence of Dependence
        Per-block within specs, length J.
    sizes : sequence of int
        Block sizes m_j, length J.

    Returns
    -------
    ndarray, shape (M, M) with M = sum(sizes)
        The assembled covariance. Validated by a Cholesky factorization.

    Raises
    ------
    CovarianceError
        On malformed inputs, an impossible heterogeneous bridge, or a
        non-positive-definite result.
    """
    s_mat = np.asarray(between, dtype=np.float64)
    blocks = list(blocks)
    sizes = [int(m) for m in sizes]
    j_n = len(sizes)
    if len(blocks) != j_n:
        msg = f"got {len(blocks)} block specs for {j_n} sizes"
        raise CovarianceError(msg)
    if s_mat.shape != (j_n, j_n):
        msg = f"between-block matrix has shape {s_mat.shape}, expected ({j_n}, {j_n})"
        raise CovarianceError(msg)
    # A non-finite entry is left for the positive-definiteness rule to name.
    if np.isfinite(s_mat).all() and not np.allclose(s_mat, s_mat.T, rtol=0.0, atol=1e-12):
        msg = "between-block matrix must be symmetric"
        raise CovarianceError(msg)
    s_mat = (s_mat + s_mat.T) / 2.0
    cholesky(s_mat, "between-block matrix", CovarianceError)
    for dep, m in zip(blocks, sizes):
        if m < 2:
            msg = f"block sizes must be >= 2, got {m}"
            raise CovarianceError(msg)
        try:
            dep.validate_for_size(m)
        except PartitionError as exc:
            raise CovarianceError(str(exc)) from None

    offsets = np.concatenate([[0], np.cumsum(sizes)])
    m_total = int(offsets[-1])
    out = np.empty((m_total, m_total), dtype=np.float64)
    for j in range(j_n):
        rows = slice(offsets[j], offsets[j + 1])
        for k in range(j, j_n):
            cols = slice(offsets[k], offsets[k + 1])
            if j != k and s_mat[j, k] == 0.0:
                out[rows, cols] = 0.0
                out[cols, rows] = 0.0
                continue
            lags = np.abs(np.subtract.outer(np.arange(sizes[j]), np.arange(sizes[k])))
            cj = _corr_at_lags(blocks[j], lags)
            if j == k:
                cc = cj
            else:
                ck = _corr_at_lags(blocks[k], lags)
                same = np.isclose(cj, ck, rtol=0.0, atol=1e-15)
                prod = cj * ck
                if np.any(~same & (prod < 0.0)):
                    msg = (
                        f"blocks {j} and {k} have correlation functions of opposite "
                        "sign at some lag; no positive-definite bridge exists"
                    )
                    raise CovarianceError(msg)
                cc = np.where(same, cj, np.sqrt(np.abs(prod)))
            a_block = (blocks[j].sigma * blocks[k].sigma) * cc
            out[rows, cols] = s_mat[j, k] * a_block
            if k != j:
                out[cols, rows] = out[rows, cols].T
    cholesky(out, "assembled covariance", CovarianceError)
    return out
