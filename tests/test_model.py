"""Model-layer tests: dependence families, partitions, covariance assembly.

Every numerical check here is against an independent re-computation
(elementwise loops, ``np.kron``) or a hand-frozen constant, never against
the code path under test.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest

from dimm.baselines import gee_fit, gls_oracle
from dimm.errors import CovarianceError, DataError, PartitionError
from dimm.integrate import integrate_fits
from dimm.model import (
    AR1,
    CS,
    Block,
    BlockPartition,
    Dependence,
    PanelDataset,
    assemble_kronecker,
    partition_dataset,
)
from dimm.pairwise import fit_blocks
from dimm.simulate import bundled_scenario, generate_replicate
from tests.oracles import pair_correlation, pair_covariance

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


def test_dependence_and_block_share_one_spelling_rule() -> None:
    for name in ("AR1", "Cs", " ar1"):
        with pytest.raises(PartitionError, match=r"structure must be one of \('ar1', 'cs'\)"):
            Dependence(name)
        with pytest.raises(PartitionError, match=r"structure must be one of \('ar1', 'cs'\)"):
            Block("a", 3, name)


def test_cs_lower_bound_depends_on_block_size() -> None:
    # Exchangeable correlation must exceed -1/(m-1) for an m-coordinate block.
    dep = Dependence(CS, 1.0, -0.4)
    dep.validate_for_size(3)  # -1/2 < -0.4: fine
    with pytest.raises(PartitionError):
        dep.validate_for_size(5)  # -1/4 > -0.4: impossible


@pytest.mark.parametrize("structure", [AR1, CS])
@pytest.mark.parametrize("size", [1, 0, -2])
def test_dependence_refuses_a_block_below_two_coordinates(structure: str, size: int) -> None:
    # Such a block has no pair, so no admissible rho: a typed refusal, not
    # a ZeroDivisionError (cs at size 1) or an interval like (1.0, 1).
    dep = Dependence(structure, 1.0, 0.2)
    expected = f"a block needs at least 2 coordinates, got size {size}"
    with pytest.raises(PartitionError, match=expected):
        dep.rho_lower(size)
    with pytest.raises(PartitionError, match=expected):
        dep.validate_for_size(size)


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


@pytest.mark.parametrize(
    ("structure", "rhos"),
    [(AR1, (-0.7, -0.15, 0.0, 0.3, 0.85)), (CS, (-0.15, 0.0, 0.3, 0.85))],
)
def test_lag_correlations_match_the_pair_enumeration_and_their_slope(
    structure: str, rhos: tuple[float, ...]
) -> None:
    # Lags 0 .. m - 1 of a 6-coordinate block; -0.15 is inside cs's (-1/5, 1).
    # At rho = 0 an AR(1) slope that evaluated rho^-1 at lag 0 would warn,
    # and a RuntimeWarning fails the test.
    m, h = 6, 1e-6
    lags = np.arange(m)
    for rho in rhos:
        dep = Dependence(structure, 2.0, rho)
        c, dc = dep.lag_correlations(lags)
        assert c.shape == dc.shape == (m,)
        assert (c[0], dc[0]) == (1.0, 0.0)
        expected = [pair_correlation(dep, d) for d in range(1, m)]
        np.testing.assert_allclose(c[1:], expected, rtol=1e-15, atol=0.0)
        up, _ = dep.lag_correlations(lags, rho + h)
        down, _ = dep.lag_correlations(lags, rho - h)
        np.testing.assert_allclose(dc, (up - down) / (2.0 * h), rtol=0.0, atol=1e-8)
    # rho's shape leads the lags', here a vector of rho against a lag matrix.
    lag_matrix = np.abs(np.subtract.outer(np.arange(3), np.arange(m)))
    c, dc = dep.lag_correlations(lag_matrix, np.array(rhos))
    assert c.shape == dc.shape == (len(rhos), 3, m)
    for k, rho in enumerate(rhos):
        one, slope = Dependence(structure, rho=rho).lag_correlations(lag_matrix)
        np.testing.assert_allclose(c[k], one, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(dc[k], slope, rtol=1e-15, atol=0.0)


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


def test_block_partition_mixed_structures() -> None:
    part = BlockPartition.from_sizes([2, 3], structure=[AR1, "cs"], names=["a", "b"])
    # A block's structure is the family name alone; the fit estimates sigma and rho.
    assert [b.structure for b in part.blocks] == ["ar1", "cs"]
    assert BlockPartition.from_sizes([4]).blocks[0].structure == "ar1"


@pytest.mark.parametrize(
    "bad",
    [
        [],  # no blocks at all
        [("a", 1, AR1)],  # a block must contain at least one pair
        [("a", 2, AR1), ("a", 3, AR1)],  # duplicate names
        [("a", 3, Dependence(AR1, 1.0, 0.5))],  # a structure is a family name, not parameters
        [("a", 3, "toeplitz")],  # not a working family
    ],
)
def test_block_partition_rejects_bad_layouts(bad: list[tuple]) -> None:
    with pytest.raises(PartitionError):
        BlockPartition(tuple(Block(*spec) for spec in bad))


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


def test_panel_dataset_arrays_cannot_be_made_writeable() -> None:
    # Block fits cache moments per panel, so a panel must not change.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(9)))
    data = PanelDataset(rng.standard_normal((4, 3)), rng.standard_normal((4, 3, 2)))
    for arr in (data.responses, data.covariates):
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr.setflags(write=True)


def test_panel_dataset_keeps_its_design_gram_read_only() -> None:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(10)))
    x = rng.standard_normal((4, 3, 2))
    data = PanelDataset(rng.standard_normal((4, 3)), x)
    flat = x.reshape(12, 2)
    np.testing.assert_array_equal(data.design_gram, flat.T @ flat)
    with pytest.raises(ValueError):
        data.design_gram.setflags(write=True)


def test_panel_numbers_do_not_depend_on_the_input_memory_layout() -> None:
    # A Fortran-ordered input (a transposed loadtxt, a pandas .values
    # array) used to give a non-C panel whose fits moved by up to 3.8e-14.
    # An M-major design, which numpy's fancy indexing along M returns,
    # must not give an M-major split either: its block scores moved in the
    # last bit. The split's order is fixed: each subject-level column of a
    # in one run, u C-ordered. table1_full is all subject-level, eeg_mimic
    # mixed.
    for name in ("table1_full", "eeg_mimic"):
        scn = bundled_scenario(name)
        c_panel = generate_replicate(scn, 0)
        x = c_panel.covariates
        panels = (
            c_panel,
            PanelDataset(np.asfortranarray(c_panel.responses), np.asfortranarray(x)),
            PanelDataset(c_panel.responses, np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)),
        )
        for panel in panels:
            assert panel.responses.flags.c_contiguous
            assert panel.split.a.flags.f_contiguous
            assert panel.split.u.flags.c_contiguous
        c_dimm, *others = (
            integrate_fits(fit_blocks(panel, scn.partition_for("dimm"))) for panel in panels
        )
        for other in others:
            for attr in ("beta_dimm", "covariance", "covariance_asymptotic"):
                np.testing.assert_array_equal(getattr(other, attr), getattr(c_dimm, attr))
            assert other.q_stat == c_dimm.q_stat
        for fit in (
            partial(gee_fit, working="independence"),
            partial(gee_fit, working="exchangeable"),
            partial(gls_oracle, covariance=scn.covariance_matrix),
        ):
            c_fit, *other_fits = (fit(panel) for panel in panels)
            for other in other_fits:
                np.testing.assert_array_equal(other.beta_hat, c_fit.beta_hat)
                np.testing.assert_array_equal(other.covariance, c_fit.covariance)


def test_panel_dataset_rejects_rank_deficient_design() -> None:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(6)))
    y = rng.standard_normal((4, 3))
    x = rng.standard_normal((4, 3, 2))
    x[:, :, 1] = 2.0 * x[:, :, 0]  # duplicate column: mean not identified
    with pytest.raises(DataError, match="rank"):
        PanelDataset(responses=y, covariates=x)


@pytest.mark.parametrize("scale", [1.0, 1e6])
@pytest.mark.parametrize(("delta", "refused"), [(1e-6, True), (1e-4, False)])
def test_panel_dataset_refuses_near_collinear_design_beyond_the_gram_cut(
    delta, refused, scale
) -> None:
    # table1_full replicate 0 with a seventh column x1 + delta * z. At
    # delta = 1e-6 the equilibrated Gram's eigenvalue ratio is 1.5e-13,
    # below the cut N*M*eps = 4.4e-11, though an SVD rank test still
    # finds 7 of 7; at 1e-4 it is 1.5e-9. Rescaling the column by 1e6
    # does not change the verdict.
    data = generate_replicate(bundled_scenario("table1_full"), 0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(25)))
    z = rng.standard_normal(data.responses.shape)
    extra = scale * (data.covariates[..., 1] + delta * z)
    x = np.concatenate([data.covariates, extra[..., None]], axis=2)
    if refused:
        with pytest.raises(DataError, match="rank"):
            PanelDataset(data.responses, x)
    else:
        assert PanelDataset(data.responses, x).n_covariates == 7


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


def test_assemble_symmetry_rule_is_free_of_scale() -> None:
    # Roundoff asymmetry passes at any scale, a 1e-3 relative one fails at any.
    dep = Dependence(AR1, 1.0, 0.2)
    between = np.array([[1.0, 0.3], [0.3, 1.0]])
    rounded = between.copy()
    rounded[0, 1] *= 1.0 + 1e-15
    asymmetric = between.copy()
    asymmetric[0, 1] += 1e-3
    exact = assemble_kronecker(between, [dep, dep], [2, 3])
    for scale in (1e-12, 1e-6, 1.0, 1e6):
        got = assemble_kronecker(scale * rounded, [dep, dep], [2, 3])
        np.testing.assert_allclose(got, scale * exact, rtol=1e-14, atol=0.0)
        with pytest.raises(CovarianceError, match="^between-block matrix must be symmetric$"):
            assemble_kronecker(scale * asymmetric, [dep, dep], [2, 3])


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
    # Symmetric, and a lower Cholesky factor alone would accept the inf.
    non_finite = np.array([[1.0, 0.0], [0.0, np.inf]])
    with pytest.raises(CovarianceError, match="between-block matrix is not positive definite"):
        assemble_kronecker(non_finite, [dep, dep], [2, 2])
    # NaN never compares equal, so it must not be reported as asymmetry.
    for nan_at in ((0, 0), (0, 1)):
        with_nan = np.eye(2)
        with_nan[nan_at] = np.nan
        with pytest.raises(CovarianceError, match="between-block matrix is not positive definite"):
            assemble_kronecker(with_nan, [dep, dep], [2, 2])


def test_assemble_rejects_non_pd_result() -> None:
    # A strong between-block scale with sharply mismatched within
    # correlations pushes the bridged matrix outside the positive
    # definite cone even though S itself is fine.
    deps = [Dependence(AR1, 1.0, 0.95), Dependence(CS, 1.0, 0.1)]
    s = np.array([[1.0, 0.95], [0.95, 1.0]])
    with pytest.raises(CovarianceError, match="not positive definite"):
        assemble_kronecker(s, deps, [6, 6])


@pytest.mark.parametrize("structure", [AR1, CS])
def test_assemble_rejects_a_block_below_two_coordinates(structure: str) -> None:
    # The size rule of Dependence.rho_lower, raised as a CovarianceError.
    dep = Dependence(structure, 1.0, 0.2)
    with pytest.raises(CovarianceError, match="^a block needs at least 2 coordinates, got size 1$"):
        assemble_kronecker(np.eye(2), [dep, dep], [3, 1])
