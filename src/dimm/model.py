"""Data model: correlated Gaussian panels, block partitions, covariances.

The estimation problem is a linear mean model for a high-dimensional
correlated Gaussian response: subject ``i`` contributes an ``M``-vector
``y_i`` with ``E[y_i] = X_i beta`` for an ``M x p`` covariate matrix
``X_i``. The response coordinates are split into ``J`` contiguous blocks;
within a block the second-moment structure is a single-variance working
family (AR(1) or compound symmetry) with parameters ``gamma_j = (sigma,
rho)``, defined in :class:`Dependence` alone. Between-block dependence
is captured by a ``J x J`` positive definite matrix ``S`` that scales
per-block within factors into a full ``M x M`` covariance (a blockwise
Kronecker-style product, used by the simulation harness and the oracle
baseline). A config's or scenario's block layout is read by the codec of
:mod:`dimm._util` as :class:`Block` records; :class:`BlockPartition`
alone holds the layout rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Literal, get_args

import numpy as np

from dimm._util import Report, check_symmetric, cholesky, frozen
from dimm.errors import CovarianceError, DataError, PartitionError

if TYPE_CHECKING:
    from collections.abc import Callable, Hashable, Sequence

__all__ = [
    "AR1",
    "CS",
    "Block",
    "BlockPartition",
    "ColumnSplit",
    "Dependence",
    "PanelDataset",
    "Structure",
    "assemble_kronecker",
    "check_identified",
    "partition_dataset",
]

# The working families, as the JSON records type them, stated once here.
Structure = Literal["ar1", "cs"]
AR1, CS = get_args(Structure)


@dataclass(frozen=True)
class Dependence(Report):
    """Within-block working family ``structure`` with parameters ``(sigma, rho)``.

    The one owner of the working families, ``"ar1"`` and ``"cs"``
    (compound symmetry): each family's correlation at a lag, its rho-slope
    (:meth:`lag_correlations`) and its admissible rho interval
    (:meth:`rho_lower`) are stated here alone, and the block fit, the
    covariance assembly, the covariate recipes and GEE read them here. Both
    families share one marginal standard deviation ``sigma > 0``. A codec
    record: its family names and number types are checked as a
    :class:`Block`'s are.
    """

    ERROR = PartitionError

    structure: Structure
    sigma: float = 1.0
    rho: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not math.isfinite(self.sigma) or self.sigma <= 0.0:
            msg = f"sigma must be a finite positive number, got {self.sigma!r}"
            raise PartitionError(msg)
        if not math.isfinite(self.rho) or not -1.0 < self.rho < 1.0:
            msg = f"rho must lie in (-1, 1), got {self.rho!r}"
            raise PartitionError(msg)

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

    def lag_correlations(
        self, lags: np.ndarray, rho: float | np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The correlation ``c`` at each lag ``d >= 0`` and its slope ``dc/drho``,
        shape ``rho.shape + lags.shape``, at this record's rho by default:
        AR(1) has ``c = rho^d`` and slope ``d c_{d-1}`` (0 at lag 0), read
        from a running product over the lags 0 .. max(lags), which is many
        times cheaper than a float power; compound symmetry ``c = rho`` off
        lag 0. The lags are integers."""
        rho = np.asarray(self.rho if rho is None else rho, dtype=np.float64)
        if self.structure == AR1:
            powers = np.ones(rho.shape + (int(np.max(lags, initial=0)) + 1,))
            powers[..., 1:] = rho[..., None]
            np.cumprod(powers, axis=-1, out=powers)
            return np.take(powers, lags, -1), lags * np.take(powers, np.maximum(lags - 1, 0), -1)
        rho = rho.reshape(rho.shape + (1,) * np.ndim(lags))
        at_zero = lags == 0
        return np.where(at_zero, 1.0, rho), np.where(at_zero, 0.0, np.ones_like(rho))

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
class Block(Report):
    """One contiguous block of response coordinates and the name of the
    working family fitted to it, ``"ar1"`` or ``"cs"`` (the fit estimates
    its sigma and rho); :class:`BlockPartition` checks the layout.
    """

    ERROR = PartitionError

    name: str
    size: int
    structure: Structure


@dataclass(frozen=True)
class BlockPartition(Report):
    """Ordered partition of the M response coordinates into blocks.

    Blocks are contiguous and listed in coordinate order: block j covers
    positions ``offset_j .. offset_j + size_j - 1`` with offsets implied
    by the cumulative sizes. The layout rule is checked here alone: one
    block or more, sizes of at least 2, and names that are non-empty and
    unique, since a sub-group selects by them (:func:`dimm.integrate.weight_matrix`).

    Examples
    --------
    >>> part = BlockPartition.from_sizes([3, 2], structure="ar1")
    >>> part.names
    ('block1', 'block2')
    >>> part.total_size
    5
    """

    ERROR = PartitionError

    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.blocks:
            msg = "a partition needs at least one block"
            raise PartitionError(msg)
        for b in self.blocks:
            if not b.name:
                msg = f"block name must be a non-empty string, got {b.name!r}"
                raise PartitionError(msg)
            if b.size < 2:
                msg = f"block {b.name!r}: size must be an integer >= 2, got {b.size!r}"
                raise PartitionError(msg)
        names = self.names
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            msg = f"block names must be unique; duplicated: {dupes}"
            raise PartitionError(msg)

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


@dataclass(frozen=True, eq=False, init=False)
class PanelDataset:
    """Immutable N-subject panel: responses and per-coordinate covariates.

    Parameters
    ----------
    responses : ndarray, shape (N, M)
        One row per subject, one column per response coordinate.
    covariates : ndarray, shape (N, M, p)
        Covariate rows ``x_{i,m}`` aligned with the responses. A subject
        level covariate ``a_i`` is repeated across the M rows, or
        broadcast over them.

    Raises
    ------
    DataError
        On shape mismatch, non-finite values, or a stacked (N M, p)
        design that does not identify the mean parameters by the Gram
        rule of :func:`check_identified` with N M rows; this fails fast at
        construction.

    A panel is validated once, here, where it enters, and keeps its
    design in one form, the :class:`ColumnSplit` :attr:`split` that every
    fit reads. Its (p,) mask :attr:`subject_level` marks the columns that
    are constant over the M coordinates for every subject, ``X_i[:, k] =
    a_ik 1``: found by value, or with no scan for an input broadcast over M
    (stride 0). ``design_gram = X'X``, which the identifiability rule
    reads, is formed from the split in closed form. The arrays are
    read-only copies (:func:`dimm._util.frozen`), so the block fits read
    views of them; each block's own identifiability is checked there. The
    full design :attr:`covariates` is built on first read, for callers
    that need it whole; no fit reads it.

    The one caching rule: what the fits work out from a panel is kept on
    it for as long as it lives, by :meth:`derived`: each block's moments
    (:mod:`dimm.pairwise`) and the GEE fits' pooled start
    (:mod:`dimm.baselines`). The panel cannot change, so none goes stale.
    """

    responses: np.ndarray
    split: ColumnSplit = field(repr=False)
    subject_level: np.ndarray = field(repr=False)
    design_gram: np.ndarray = field(repr=False)
    _derived: dict = field(repr=False)

    def __init__(self, responses: np.ndarray, covariates: np.ndarray) -> None:
        y = np.array(responses, dtype=np.float64, copy=True, order="C")
        x = np.asarray(covariates, dtype=np.float64)
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
        mask = _subject_level(x)
        split = ColumnSplit.of(x, mask)
        a, u = split.a, split.u  # every value of x is in one: a NaN never equals itself
        if not (np.isfinite(a).all() and np.isfinite(u).all()):
            msg = "covariates contain non-finite values"
            raise DataError(msg)
        flat = u.reshape(n * m, -1)
        gram = split.join_symmetric(m * (a.T @ a), a.T @ u.sum(axis=1), flat.T @ flat)
        check_identified(gram, n * m, "panel")
        for name, value in zip(
            ("responses", "split", "subject_level", "design_gram", "_derived"),
            (frozen(y), split, frozen(mask, bool), frozen(gram), {}),
        ):
            object.__setattr__(self, name, value)

    @property
    def n_subjects(self) -> int:
        return self.responses.shape[0]

    @property
    def n_coordinates(self) -> int:
        return self.responses.shape[1]

    @property
    def n_covariates(self) -> int:
        return self.subject_level.size

    @cached_property
    def covariates(self) -> np.ndarray:
        """The full (N, M, p) design, read-only, built from :attr:`split` on first read."""
        split = self.split
        a = np.broadcast_to(split.a[:, None, :], (*self.responses.shape, split.s.size))
        return frozen(split.join(a, split.u))

    def derived(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``, run once per ``key`` and kept on the panel; a build
        that raises keeps nothing. A key names its owner first, for example
        ``(_BlockMoments, start, stop)``, so no two owners' keys collide."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]


def _subject_level(x: np.ndarray) -> np.ndarray:
    """Which columns of design ``x`` (N, M, p) hold one value per subject."""
    if x.strides[1] == 0:  # broadcast over the coordinates
        return np.ones(x.shape[2], bool)
    mask = (x[:, 1] == x[:, 0]).all(axis=0)  # rules out most other columns at once
    step = 64  # subjects per comparison, which keeps it in cache
    for start in range(0, x.shape[0], step):
        if not mask.any():
            break
        chunk = x[start : start + step, :, mask]
        mask[mask] = (chunk == chunk[:, :1]).all(axis=(0, 1))
    return mask


class ColumnSplit:
    """A design (N, m, p) read as its subject-level and coordinate-level columns.

    ``a`` (N, ps) holds each subject's value of the subject-level columns,
    which sit at positions ``s`` of the design, and ``u`` (N, m, pc) the
    other columns, at positions ``c``, as they are. Every per-subject form
    of a subject-level column collapses: ``X_i' e_i`` takes ``a_i (1'e_i)``
    there and ``X_i' K X_i`` takes ``(1'K1) a_i a_i'``. So the fits spend
    O(N m) work on those columns where the full design costs O(N m^2).
    A design with no subject-level column has ``ps = 0`` and is read as it
    is; one with only subject-level columns has ``pc = 0``. :meth:`of`
    writes read-only copies (:func:`dimm._util.frozen`) in one memory
    order, whatever the design's: ``a`` by column, ``u`` C-ordered.

    Each subject's design factors as ``X_i = [1 | U_i] L_i``: the q x p
    matrix ``L_i``, ``q = [ps > 0] + pc``, holds ``a_i`` in one row at
    positions ``s`` and the identity on the positions ``c``. So ``X_i' K
    X_i = L_i' Phi_i L_i`` with the q x q core ``Phi_i = [1 | U_i]' K [1 |
    U_i]``; :meth:`lift` applies ``L_i'`` through :meth:`join`, and no (N, p,
    p) array of the ``H_i`` is built.
    """

    def __init__(self, a: np.ndarray, u: np.ndarray, s: np.ndarray, c: np.ndarray) -> None:
        self.a, self.u, self.s, self.c = a, u, s, c

    @classmethod
    def of(cls, x: np.ndarray, subject_level: np.ndarray) -> ColumnSplit:
        """The split of design ``x`` (N, m, p) by the mask ``subject_level``."""
        s, c = np.flatnonzero(subject_level), np.flatnonzero(~subject_level)
        a, u = np.asfortranarray(x[:, 0, s]), np.ascontiguousarray(x[:, :, c])
        return cls(frozen(a), frozen(u), frozen(s, np.intp), frozen(c, np.intp))

    def residuals(self, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """``y_i - X_i beta`` of every subject, (N, m)."""
        e = y - (self.a @ beta[self.s])[:, None]
        for k, column in zip(self.c, np.moveaxis(self.u, 2, 0)):
            e -= beta[k] * column
        return e

    def cross(self, e: np.ndarray) -> np.ndarray:
        """``X_i' e_i`` of every subject, (N, p), from e (N, m)."""
        return self.join(self.a * e.sum(axis=1)[:, None], (e[:, None, :] @ self.u)[:, 0, :])

    def join(self, s_part: np.ndarray, c_part: np.ndarray) -> np.ndarray:
        """The (..., p) array with ``s_part`` at positions ``s`` and ``c_part`` at ``c``."""
        out = np.empty(s_part.shape[:-1] + (self.s.size + self.c.size,))
        out[..., self.s] = s_part
        out[..., self.c] = c_part
        return out

    def join_symmetric(self, ss: np.ndarray, sc: np.ndarray, cc: np.ndarray) -> np.ndarray:
        """The symmetric (..., p, p) matrix with blocks ``ss``, ``sc`` (and its
        transpose) and ``cc``; the leading shape is that of ``ss``."""
        s, c = self.s, self.c
        out = np.empty(ss.shape[:-2] + (s.size + c.size,) * 2)
        out[..., s[:, None], s] = ss
        out[..., s[:, None], c] = sc
        out[..., c[:, None], s] = np.swapaxes(sc, -1, -2)
        out[..., c[:, None], c] = cc
        return out

    def lift(self, x: np.ndarray) -> np.ndarray:
        """``L_i' x_i`` of every subject i, (N, ..., p), from x (N, ..., q)."""
        k, a = min(self.s.size, 1), self.a
        a = a.reshape(a.shape[:1] + (1,) * (x.ndim - 2) + a.shape[1:])
        return self.join(x[..., :k] * a, x[..., k:])


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
    check_symmetric(s_mat, "between-block matrix", CovarianceError)
    s_mat = (s_mat + s_mat.T) / 2.0
    cholesky(s_mat, "between-block matrix", CovarianceError)
    for dep, m in zip(blocks, sizes):
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
            cj, _ = blocks[j].lag_correlations(lags)
            if j == k:
                cc = cj
            else:
                ck, _ = blocks[k].lag_correlations(lags)
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
