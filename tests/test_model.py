"""Model-layer tests: dependence families, partitions, covariance assembly.

Every numerical check here is against an independent re-computation
(elementwise loops, ``np.kron``) or a hand-frozen constant, never against
the code path under test.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from dimm.errors import CovarianceError, DataError, PartitionError
from dimm.model import (
    AR1,
    CS,
    Block,
    BlockPartition,
    Dependence,
    PanelDataset,
    assemble_kronecker,
    pair_correlation,
    pair_covariance,
    partition_dataset,
)

# ---------------------------------------------------------------------------
# Dependence and pair-level pieces
# ---------------------------------------------------------------------------


def test_dependence_defaults_and_fields() -> None:
    dep = Dependence(AR1)
    assert dep.structure == "ar1"
    assert dep.sigma == 1.0
    assert dep.rho == 0.0


@pytest.mark.parametrize(
    ("structure", "sigma", "rho"),
    [
        ("ar2", 1.0, 0.0),  # unknown family
        ("ar1", 0.0, 0.0),  # sigma must be positive
        ("ar1", -1.0, 0.0),
        ("ar1", 1.0, 1.0),  # serial correlation must stay inside (-1, 1)
        ("ar1", 1.0, -1.0),
        ("cs", 1.0, 1.0),
        ("ar1", math.nan, 0.0),
        ("ar1", 1.0, math.nan),
    ],
)
def test_dependence_rejects_bad_values(structure: str, sigma: float, rho: float) -> None:
    with pytest.raises(PartitionError):
        Dependence(structure, sigma, rho)


def test_cs_lower_bound_depends_on_block_size() -> None:
    # Exchangeable correlation must exceed -1/(m-1) for an m-coordinate block.
    dep = Dependence(CS, 1.0, -0.4)
    dep.validate_for_size(3)  # -1/2 < -0.4: fine
    with pytest.raises(PartitionError):
        dep.validate_for_size(5)  # -1/4 > -0.4: impossible


@pytest.mark.parametrize(
    ("dep", "lag", "expected"),
    [
        # Frozen by hand: serial family decays geometrically in the lag.
        (Dependence(AR1, 1.0, 0.5), 1, 0.5),
        (Dependence(AR1, 1.0, 0.5), 2, 0.25),
        (Dependence(AR1, 1.0, 0.5), 3, 0.125),
        (Dependence(AR1, 2.0, -0.5), 3, -0.125),
        # Exchangeable family is flat across nonzero lags.
        (Dependence(CS, 1.0, 0.3), 1, 0.3),
        (Dependence(CS, 1.0, 0.3), 7, 0.3),
        (Dependence(CS, 3.0, -0.2), 2, -0.2),
    ],
)
def test_pair_correlation_frozen_values(dep: Dependence, lag: int, expected: float) -> None:
    assert pair_correlation(dep, lag) == pytest.approx(expected, abs=1e-15)


def test_pair_correlation_needs_two_distinct_positions() -> None:
    # A "pair" is two distinct coordinates, so lag 0 is meaningless.
    with pytest.raises(ValueError, match="positive integer"):
        pair_correlation(Dependence(AR1, 1.0, 0.5), 0)


def test_pair_covariance_matrix_shape() -> None:
    cov = pair_covariance(Dependence(AR1, 2.0, 0.5), 2)
    expected = 4.0 * np.array([[1.0, 0.25], [0.25, 1.0]])
    np.testing.assert_allclose(cov.matrix, expected, rtol=0.0, atol=1e-15)
    assert cov.sigma == 2.0
    assert cov.corr == 0.25


def test_pair_covariance_rejects_lag_zero() -> None:
    with pytest.raises(ValueError, match="positive integer"):
        pair_covariance(Dependence(AR1, 1.0, 0.999999), 0)


# ---------------------------------------------------------------------------
# Blocks and partitions
# ---------------------------------------------------------------------------


def test_block_partition_from_sizes_layout() -> None:
    part = BlockPartition.from_sizes([3, 2, 4], structure=AR1)
    assert part.names == ("block1", "block2", "block3")
    assert part.sizes == (3, 2, 4)
    assert part.total_size == 9
    assert part.offsets == (0, 3, 5)
    assert [
        (s.start, s.stop) for s in part.slices
    ] == [(0, 3), (3, 5), (5, 9)]
    assert part.index_of("block2") == 1


def test_block_partition_mixed_structures() -> None:
    part = BlockPartition.from_sizes(
        [2, 3], structure=[Dependence(AR1, 1.0, 0.1), "cs"], names=["a", "b"]
    )
    assert part.blocks[0].structure.structure == "ar1"
    assert part.blocks[1].structure.structure == "cs"
    assert part.blocks[1].structure.sigma == 1.0


def test_block_partition_subset_preserves_order() -> None:
    part = BlockPartition.from_sizes([2, 2, 2], names=["a", "b", "c"])
    sub = part.subset(["c", "a"])
    # Selection is by name but the result keeps the original block order.
    assert sub.names == ("a", "c")


@pytest.mark.parametrize(
    "bad",
    [
        [],  # no blocks at all
        [("a", 1)],  # a block must contain at least one pair
        [("a", 2), ("a", 3)],  # duplicate names
    ],
)
def test_block_partition_rejects_bad_layouts(bad: list[tuple[str, int]]) -> None:
    with pytest.raises(PartitionError):
        BlockPartition(tuple(Block(n, m) for n, m in bad))


def test_partition_index_of_unknown_name() -> None:
    part = BlockPartition.from_sizes([2, 2])
    with pytest.raises(PartitionError):
        part.index_of("nope")


# ---------------------------------------------------------------------------
# PanelDataset and splitting
# ---------------------------------------------------------------------------


def test_panel_dataset_shape_checks() -> None:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
    y = rng.standard_normal((4, 3))
    x = rng.standard_normal((4, 3, 2))
    data = PanelDataset(responses=y, covariates=x)
    assert data.n_subjects == 4
    assert data.n_coordinates == 3
    assert data.n_covariates == 2

    with pytest.raises(DataError):
        PanelDataset(responses=y, covariates=rng.standard_normal((5, 3, 2)))
    with pytest.raises(DataError):
        PanelDataset(responses=y, covariates=rng.standard_normal((4, 2, 2)))
    bad = y.copy()
    bad[0, 0] = np.nan
    with pytest.raises(DataError):
        PanelDataset(responses=bad, covariates=x)


def test_panel_dataset_rejects_rank_deficient_design() -> None:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(6)))
    y = rng.standard_normal((4, 3))
    x = rng.standard_normal((4, 3, 2))
    x[:, :, 1] = 2.0 * x[:, :, 0]  # duplicate column: mean not identified
    with pytest.raises(DataError, match="rank"):
        PanelDataset(responses=y, covariates=x)


def test_partition_dataset_round_trip_bit_exact() -> None:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(11)))
    y = rng.standard_normal((7, 9))
    x = rng.standard_normal((7, 9, 3))
    data = PanelDataset(responses=y, covariates=x)
    part = BlockPartition.from_sizes([4, 2, 3])
    pieces = partition_dataset(data, part)
    assert [b.n_coordinates for b in pieces] == [4, 2, 3]
    rebuilt_y = np.hstack([b.responses for b in pieces])
    rebuilt_x = np.concatenate([b.covariates for b in pieces], axis=1)
    assert np.array_equal(rebuilt_y, y)
    assert np.array_equal(rebuilt_x, x)


def test_partition_dataset_size_mismatch() -> None:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(8)))
    data = PanelDataset(
        responses=rng.standard_normal((3, 5)),
        covariates=rng.standard_normal((3, 5, 1)),
    )
    part = BlockPartition.from_sizes([4, 2])  # 6 != 5
    with pytest.raises(PartitionError):
        partition_dataset(data, part)


# ---------------------------------------------------------------------------
# Covariance assembly
# ---------------------------------------------------------------------------


def _oracle_assemble(
    between: np.ndarray, deps: list[Dependence], sizes: list[int]
) -> np.ndarray:
    """Elementwise re-computation of the assembled covariance.

    Walks every (row, col) of the output, identifies the owning blocks
    and within-block positions, and applies the documented rule: within
    a block (or wherever the two correlation functions agree at the lag)
    use the block's own correlation; across heterogeneous blocks bridge
    with sqrt(c_j * c_k); a zero between-block scale zeroes the slab.
    """

    def corr(dep: Dependence, lag: int) -> float:
        if dep.structure == "ar1":
            return float(dep.rho) ** lag
        return 1.0 if lag == 0 else float(dep.rho)

    offsets = np.concatenate([[0], np.cumsum(sizes)])
    m_total = int(offsets[-1])

    def owner(idx: int) -> tuple[int, int]:
        for j in range(len(sizes)):
            if offsets[j] <= idx < offsets[j + 1]:
                return j, idx - int(offsets[j])
        raise AssertionError

    out = np.empty((m_total, m_total))
    for row in range(m_total):
        for col in range(m_total):
            j, r = owner(row)
            k, t = owner(col)
            if j != k and between[j, k] == 0.0:
                out[row, col] = 0.0
                continue
            lag = abs(r - t)
            cj = corr(deps[j], lag)
            ck = corr(deps[k], lag)
            if j == k or math.isclose(cj, ck, rel_tol=0.0, abs_tol=1e-15):
                bridge = cj
            else:
                prod = cj * ck
                assert prod >= 0.0, "oracle hit an impossible bridge"
                bridge = math.sqrt(abs(prod))
            out[row, col] = between[j, k] * deps[j].sigma * deps[k].sigma * bridge
    return out


def test_assemble_equals_literal_kronecker_for_identical_blocks() -> None:
    # Three same-size same-spec blocks: the assembly must equal np.kron.
    dep = Dependence(AR1, 1.5, 0.4)
    m = 4
    s = np.array(
        [
            [1.0, 0.3, 0.1],
            [0.3, 1.0, 0.2],
            [0.1, 0.2, 1.0],
        ]
    )
    within = np.empty((m, m))
    for r in range(m):
        for t in range(m):
            within[r, t] = dep.sigma**2 * dep.rho ** abs(r - t)
    expected = np.kron(s, within)
    got = assemble_kronecker(s, [dep, dep, dep], [m, m, m])
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-14)


def test_assemble_heterogeneous_matches_elementwise_oracle() -> None:
    deps = [
        Dependence(AR1, 1.0, 0.5),
        Dependence(CS, 2.0, 0.3),
        Dependence(AR1, 0.7, 0.25),
    ]
    sizes = [3, 4, 2]
    s = np.array(
        [
            [1.0, 0.25, 0.1],
            [0.25, 1.0, 0.15],
            [0.1, 0.15, 1.0],
        ]
    )
    got = assemble_kronecker(s, deps, sizes)
    expected = _oracle_assemble(s, deps, sizes)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-14)
    # And the result must be a valid covariance.
    np.linalg.cholesky(got)
    np.testing.assert_allclose(got, got.T, rtol=0.0, atol=0.0)


def test_assemble_zero_between_scale_skips_impossible_bridge() -> None:
    # Opposite-sign serial correlations admit no bridge, but a zero
    # between-block scale makes the cross slab identically zero, so the
    # assembly must succeed and place exact zeros there.
    deps = [Dependence(AR1, 1.0, 0.5), Dependence(AR1, 1.0, -0.5)]
    sizes = [3, 3]
    s = np.eye(2)
    got = assemble_kronecker(s, deps, sizes)
    assert np.all(got[:3, 3:] == 0.0)
    assert np.all(got[3:, :3] == 0.0)
    expected = _oracle_assemble(s, deps, sizes)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-14)


def test_assemble_rejects_opposite_sign_bridge() -> None:
    deps = [Dependence(AR1, 1.0, 0.5), Dependence(AR1, 1.0, -0.5)]
    s = np.array([[1.0, 0.2], [0.2, 1.0]])
    with pytest.raises(CovarianceError, match="opposite"):
        assemble_kronecker(s, deps, [3, 3])


def test_assemble_rejects_bad_between_matrix() -> None:
    dep = Dependence(AR1, 1.0, 0.2)
    with pytest.raises(CovarianceError):
        assemble_kronecker(np.array([[1.0, 0.5]]), [dep, dep], [2, 2])  # not square
    asym = np.array([[1.0, 0.5], [0.1, 1.0]])
    with pytest.raises(CovarianceError):
        assemble_kronecker(asym, [dep, dep], [2, 2])
    not_pd = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(CovarianceError):
        assemble_kronecker(not_pd, [dep, dep], [2, 2])


def test_assemble_rejects_non_pd_result() -> None:
    # A strong between-block scale with sharply mismatched within
    # correlations pushes the bridged matrix outside the positive
    # definite cone even though S itself is fine.
    deps = [Dependence(AR1, 1.0, 0.95), Dependence(CS, 1.0, 0.1)]
    s = np.array([[1.0, 0.95], [0.95, 1.0]])
    with pytest.raises(CovarianceError, match="not positive definite"):
        assemble_kronecker(s, deps, [6, 6])
