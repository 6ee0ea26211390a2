"""Scalar distribution utilities: chi-square and standard normal CDFs.

The CDFs target absolute error below 1e-12 across their domains so
p-values reported by the inference layer are trustworthy well past any
conventional significance threshold.

The chi-square CDF is the regularized lower incomplete gamma function
P(df/2, x/2), computed by the classic two-regime scheme: a power series
for x < a + 1 and a modified Lentz continued fraction for the tail. The
continued fraction gives the upper function Q = 1 - P itself, so the
chi-square survival function, from which the p-values come, takes it
directly and keeps its relative accuracy deep into the tail, where
``1 - chi2_cdf`` cancels to 0. The normal CDF delegates to the
platform's complementary error function, which is correctly rounded on
every libm this package targets.
"""

from __future__ import annotations

import math

__all__ = ["chi2_cdf", "chi2_quantile", "chi2_sf", "normal_cdf"]

_MAX_ITER = 600
_EPS = 1.0e-16
_TINY = 1.0e-300


def _gamma_p_series(a: float, x: float) -> float:
    """Lower regularized incomplete gamma by power series; needs x < a + 1."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    msg = f"incomplete gamma series failed to converge for a={a}, x={x}"
    raise RuntimeError(msg)


def _gamma_q_contfrac(a: float, x: float) -> float:
    """Upper regularized incomplete gamma by continued fraction; x >= a + 1."""
    # Modified Lentz evaluation of the standard continued fraction for Q(a, x).
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    msg = f"incomplete gamma continued fraction failed to converge for a={a}, x={x}"
    raise RuntimeError(msg)


def _gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0."""
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return min(_gamma_p_series(a, x), 1.0)
    return max(0.0, 1.0 - _gamma_q_contfrac(a, x))


def chi2_cdf(x: float, df: float) -> float:
    """Chi-square cumulative distribution function.

    Parameters
    ----------
    x : float
        Evaluation point, must be >= 0.
    df : float
        Degrees of freedom, must be > 0.

    Returns
    -------
    float
        P(X <= x) for X ~ chi-square(df), absolute error <= 1e-12.

    Raises
    ------
    ValueError
        If ``x`` is negative or non-finite, or ``df`` is not positive.
    """
    a, h = _gamma_args(x, df)
    return _gamma_p(a, h)


def chi2_sf(x: float, df: float) -> float:
    """Chi-square survival function P(X > x), the upper-tail p-value.

    The upper regularized incomplete gamma Q(df/2, x/2): the continued
    fraction itself in the tail (x/2 >= df/2 + 1), where it keeps a
    relative error near 1e-13 down to the smallest normal float, and
    ``1 - P`` from the series below it, where Q exceeds 0.08 for df >= 1.
    Same arguments and errors as :func:`chi2_cdf`.
    """
    a, h = _gamma_args(x, df)
    if h < a + 1.0:
        return 1.0 - _gamma_p(a, h)
    return _gamma_q_contfrac(a, h)


def _gamma_args(x: float, df: float) -> tuple[float, float]:
    """The incomplete gamma arguments (df/2, x/2) of a chi-square at x."""
    x = float(x)
    df = float(df)
    if not math.isfinite(x) or x < 0.0:
        msg = f"x must be finite and >= 0, got {x!r}"
        raise ValueError(msg)
    if not math.isfinite(df) or df <= 0.0:
        msg = f"df must be finite and > 0, got {df!r}"
        raise ValueError(msg)
    return df / 2.0, x / 2.0


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def normal_cdf(z: float) -> float:
    """Standard normal cumulative distribution function.

    Computed as ``erfc(-z / sqrt(2)) / 2``; absolute error <= 1e-12 over
    the full real line (the tails degrade gracefully to 0 and 1).

    Parameters
    ----------
    z : float
        Evaluation point; any finite real (or +-inf).

    Returns
    -------
    float
        P(Z <= z) for Z ~ N(0, 1).
    """
    z = float(z)
    if math.isnan(z):
        msg = "z must not be NaN"
        raise ValueError(msg)
    return 0.5 * math.erfc(-z * _INV_SQRT2)


# Abramowitz & Stegun 26.2.23: the upper-tail normal quantile to 4.5e-4.
_AS_NUM = (2.515517, 0.802853, 0.010328)
_AS_DEN = (1.432788, 0.189269, 0.001308)
# A Newton step this short (relative) leaves an error of its square.
_STEP_RTOL = 1.0e-14
# Below math.exp's overflow; a step this long leaves the bracket anyway.
_EXP_MAX = 700.0


def chi2_quantile(p: float, df: float) -> float:
    """Chi-square quantile (inverse of :func:`chi2_cdf` in x).

    Starts from the Wilson-Hilferty cube-root approximation, with the
    normal quantile from Abramowitz & Stegun 26.2.23, and takes Newton
    steps in ``log x`` on the log of the nearer tail, ``chi2_cdf`` against
    p up to p = 1/2 and ``chi2_sf`` against the exact ``1 - p`` above,
    with the chi-square density giving the slope: the left tail, where
    the CDF grows like ``x^(df/2)``, is then a straight line, and near p
    = 1 the survival function keeps the relative accuracy that the CDF
    rounds away. Every evaluation narrows a bracket on the root; a step
    that leaves the bracket is replaced by bisection. It stops once a
    step moves x by at most 1e-14 relative, so its accuracy is inherited
    from the tail function.

    Parameters
    ----------
    p : float
        Probability in [0, 1). ``p = 0`` returns 0.0.
    df : float
        Degrees of freedom, > 0.

    Returns
    -------
    float
        The x with ``chi2_cdf(x, df) = p``.
    """
    p = float(p)
    if not math.isfinite(p) or p < 0.0 or p >= 1.0:
        msg = f"p must lie in [0, 1), got {p!r}"
        raise ValueError(msg)
    if not math.isfinite(df) or df <= 0.0:
        msg = f"df must be finite and > 0, got {df!r}"
        raise ValueError(msg)
    if p == 0.0:
        return 0.0
    # The tail read, its target, and its direction in x.
    tail, target, sign = (chi2_sf, 1.0 - p, -1.0) if p > 0.5 else (chi2_cdf, p, 1.0)
    hi = df + 10.0 * math.sqrt(2.0 * df) + 20.0
    while sign * (tail(hi, df) - target) < 0.0:
        hi *= 2.0
    lo = 0.0
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = t - (_AS_NUM[0] + t * (_AS_NUM[1] + t * _AS_NUM[2])) / (
        1.0 + t * (_AS_DEN[0] + t * (_AS_DEN[1] + t * _AS_DEN[2]))
    )
    h = 2.0 / (9.0 * df)
    x = df * (1.0 - h + math.copysign(z, p - 0.5) * math.sqrt(h)) ** 3
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    half = df / 2.0
    log_norm = half * math.log(2.0) + math.lgamma(half)
    log_target = math.log(target)
    for _ in range(_MAX_ITER):
        value = tail(x, df)
        if value == target:
            return x
        if sign * (value - target) < 0.0:
            lo = x
        else:
            hi = x
        x_new = lo  # forces bisection where the tail underflows
        if value > 0.0:
            # Newton in u = log x on log T: d(log T)/du = sign x f(x) / T(x),
            # and log(x f(x)) = (df/2) log x - x/2 - log_norm.
            log_value = math.log(value)
            log_xf = half * math.log(x) - x / 2.0 - log_norm
            du = sign * (log_target - log_value) * math.exp(min(log_value - log_xf, _EXP_MAX))
            x_new = x * math.exp(min(du, _EXP_MAX))
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= _STEP_RTOL * x or x_new in (lo, hi):
            return x_new
        x = x_new
    msg = f"chi-square quantile failed to converge for p={p}, df={df}"
    raise RuntimeError(msg)
