"""Distribution utility checks against a frozen high-precision oracle.

The reference values below were produced by an independent 50-digit
mpmath computation (regularized lower incomplete gamma for the
chi-square CDF, mp.ncdf for the normal CDF) and frozen here; the
implementation must agree to 1e-12 absolute error. The chi-square
survival function is checked against mpmath at run time, to a relative
error, down to about 1e-300.
"""

from __future__ import annotations

import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimm.special import chi2_cdf, chi2_quantile, chi2_sf, normal_cdf

# (x, df, P(X <= x)) from mpmath at dps=50.
CHI2_ORACLE = [
    (1e-06, 1, 0.00079788442782212515),
    (0.001, 1, 0.025227120630039612),
    (0.5, 1, 0.52049987781304654),
    (1.0, 1, 0.6826894921370859),
    (3.841458820694124, 1, 0.94999999999999994),
    (10.0, 1, 0.99843459774199745),
    (0.1, 2, 0.048770575499285994),
    (2.0, 2, 0.63212055882855768),
    (5.991464547107979, 2, 0.94999999999999993),
    (0.5, 3, 0.081108588345324141),
    (7.814727903251179, 3, 0.94999999999999998),
    (4.0, 4, 0.59399415029016192),
    (9.487729036781154, 4, 0.94999999999999994),
    (11.070497693516351, 5, 0.94999999999999995),
    (3.0, 8, 0.065642454378450091),
    (15.507313055865453, 8, 0.94999999999999998),
    (12.0, 12, 0.55432035863538876),
    (21.02606981748307, 12, 0.95000000000000006),
    (31.410432844230918, 20, 0.9499999999999999),
    (150.0, 100, 0.99909606795764599),
]

# (z, Phi(z)) from mpmath at dps=50.
NORMAL_ORACLE = [
    (-8.0, 6.2209605742717841e-16),
    (-5.0, 2.8665157187919391e-07),
    (-3.0, 0.0013498980316300945),
    (-1.959963984540054, 0.025000000000000011),
    (-1.0, 0.15865525393145705),
    (-0.5, 0.3085375387259869),
    (-0.1, 0.46017216272297102),
    (0.0, 0.5),
    (0.1, 0.53982783727702898),
    (0.5, 0.6914624612740131),
    (1.0, 0.84134474606854295),
    (1.2815515655446004, 0.89999999999999998),
    (1.644853626951472, 0.94999999999999992),
    (1.959963984540054, 0.97499999999999999),
    (2.5758293035489004, 0.99499999999999999),
    (3.0, 0.99865010196836991),
    (4.0, 0.99996832875816688),
    (5.0, 0.99999971334842812),
    (6.0, 0.99999999901341235),
    (8.0, 0.99999999999999938),
]


@pytest.mark.parametrize(("x", "df", "expected"), CHI2_ORACLE)
def test_chi2_cdf_matches_oracle(x, df, expected):
    assert chi2_cdf(x, df) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    ("x", "df"), [(x, df) for x, df, want in CHI2_ORACLE if abs(want - 0.95) < 1e-15]
)
def test_chi2_quantile_matches_oracle_95_percent_points(x, df):
    assert chi2_quantile(0.95, df) == pytest.approx(x, rel=1e-12)


def test_chi2_quantile_domain_and_boundary():
    assert chi2_quantile(0.0, 4) == 0.0
    for p in (-0.1, 1.0, math.nan):
        with pytest.raises(ValueError):
            chi2_quantile(p, 4)
    with pytest.raises(ValueError):
        chi2_quantile(0.5, 0.0)


@pytest.mark.parametrize("df", [0.5, 1.0, 4.0, 68.0])
@pytest.mark.parametrize("p", [0.95, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-14])
def test_chi2_quantile_matches_mpmath_near_one(p, df):
    # One 40-digit Newton step on the survival function from the returned
    # x lands on mpmath's root to second order in the error, so the step
    # is the error. 1 - p is exact in binary for p >= 1/2.
    x = chi2_quantile(p, df)
    with mpmath.workdps(40):
        a, h = mpmath.mpf(df) / 2, mpmath.mpf(x) / 2
        sf = mpmath.gammainc(a, h, mpmath.inf, regularized=True)
        density = mpmath.exp((a - 1) * mpmath.log(h) - h - mpmath.loggamma(a)) / 2
        rel_step = (sf - (1 - mpmath.mpf(p))) / (density * x)
    assert abs(float(rel_step)) < 1e-9


@given(
    st.floats(min_value=1e-6, max_value=0.999),
    st.floats(min_value=0.5, max_value=400.0),
)
def test_chi2_quantile_inverts_the_cdf(p, df):
    assert chi2_cdf(chi2_quantile(p, df), df) == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize(("z", "expected"), NORMAL_ORACLE)
def test_normal_cdf_matches_oracle(z, expected):
    assert normal_cdf(z) == pytest.approx(expected, abs=1e-12)


def test_chi2_upper_tail_near_conventional_cutoffs():
    # Rounded 95% quantiles: the upper tail should come out at ~0.05.
    assert abs((1.0 - chi2_cdf(9.488, 4)) - 0.05) < 1e-4
    assert abs((1.0 - chi2_cdf(3.841, 1)) - 0.05) < 1e-4


@pytest.mark.parametrize("df", [0.5, 1.0, 4.0, 68.0, 300.0])
def test_chi2_sf_matches_mpmath_into_the_far_tail(df):
    # Relative error, from the centre down to about 1e-300, where
    # 1 - chi2_cdf cancels to 0 long before.
    xs = [df * f for f in (0.01, 0.5, 1.0, 1.5, 2.0, 3.0)]
    xs += [10.0, 50.0, 100.0, 200.0, 300.0, 500.0, 800.0, 1100.0, 1300.0, 1600.0, 2000.0, 2200.0]
    smallest = 1.0
    with mpmath.workdps(40):
        for x in xs:
            want = float(mpmath.gammainc(df / 2, x / 2, mpmath.inf, regularized=True))
            if want < 1e-300:
                continue
            smallest = min(smallest, want)
            assert chi2_sf(x, df) == pytest.approx(want, rel=1e-10), (x, df)
    assert smallest < 1e-250


def test_chi2_sf_does_not_floor_at_zero():
    assert 1.0 - chi2_cdf(300.0, 68) == 0.0  # the cancellation chi2_sf avoids
    assert chi2_sf(300.0, 68) > 6e-31
    assert chi2_sf(0.0, 3) == 1.0
    with pytest.raises(ValueError):
        chi2_sf(-1.0, 3)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0.0)


def test_chi2_cdf_domain_errors():
    with pytest.raises(ValueError):
        chi2_cdf(-0.5, 3)
    with pytest.raises(ValueError):
        chi2_cdf(1.0, 0.0)
    with pytest.raises(ValueError):
        chi2_cdf(1.0, -2)
    with pytest.raises(ValueError):
        chi2_cdf(math.nan, 3)


def test_chi2_cdf_boundary_values():
    assert chi2_cdf(0.0, 4) == 0.0
    assert chi2_cdf(1e6, 4) == pytest.approx(1.0, abs=1e-15)


def test_normal_cdf_extremes():
    assert normal_cdf(math.inf) == 1.0
    assert normal_cdf(-math.inf) == 0.0
    with pytest.raises(ValueError):
        normal_cdf(math.nan)


@given(
    st.floats(min_value=0.0, max_value=500.0),
    st.floats(min_value=0.0, max_value=500.0),
    st.floats(min_value=0.5, max_value=60.0),
)
def test_chi2_cdf_monotone_and_bounded(x1, x2, df):
    lo, hi = sorted((x1, x2))
    a, b = chi2_cdf(lo, df), chi2_cdf(hi, df)
    assert 0.0 <= a <= b <= 1.0


@given(st.floats(min_value=-12.0, max_value=12.0))
def test_normal_cdf_symmetry(z):
    assert normal_cdf(z) + normal_cdf(-z) == pytest.approx(1.0, abs=1e-14)
