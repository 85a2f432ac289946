"""Binomial distribution utilities.

The assessor's outlier test (Eq. 1 of the paper) requires the cumulative
distribution function of a binomial random variable whose parameters change
at every assessment step.  We implement the distribution from first
principles (log-space for numerical stability) so the core library has no
hard dependency on scipy; tests cross-check against exact rational sums.

The exact CDF evaluates one ``lgamma`` term at the boundary of the smaller
tail and walks outward by the PMF ratio recurrence: O(√(n·p·(1-p))) terms
instead of O(k).  Above a configurable cut-off a normal approximation with
continuity correction is used instead.
"""

from __future__ import annotations

import math

#: Number of trials above which :func:`binomial_cdf` switches to the normal
#: approximation by default.  The approximation error is far below the
#: θ_out = 0.05 decision threshold at this size.
NORMAL_APPROXIMATION_CUTOFF = 20_000


def log_binomial_coefficient(n: int, k: int) -> float:
    """Natural log of the binomial coefficient C(n, k).

    Uses ``math.lgamma`` for stability at large ``n``.
    """
    if k < 0 or k > n:
        return float("-inf")
    if k == 0 or k == n:
        return 0.0
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


def binomial_pmf(k: int, n: int, p: float) -> float:
    """Probability mass P(X = k) for X ~ bin(n, p)."""
    _validate(n, p)
    if k < 0 or k > n:
        return 0.0
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    log_pmf = (
        log_binomial_coefficient(n, k)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )
    return math.exp(log_pmf)


def binomial_cdf(
    k: int, n: int, p: float, exact_cutoff: int = NORMAL_APPROXIMATION_CUTOFF
) -> float:
    """Cumulative probability P(X <= k) for X ~ bin(n, p).

    Parameters
    ----------
    k, n, p:
        The observation and the distribution parameters.
    exact_cutoff:
        For ``n`` at or below this value the CDF is computed by exact
        summation of the PMF; above it the normal approximation with
        continuity correction is used.  Pass ``float('inf')`` (or a huge
        int) to force exact summation.
    """
    _validate(n, p)
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    if n > exact_cutoff:
        return normal_approx_cdf(k, n, p)
    # Walk the smaller tail away from the mode, so each term is smaller than
    # the last, until a term can no longer change the total in double
    # precision.  A boundary term that underflows makes the tail 0, as a
    # term-by-term sum would.
    if k <= n * p:
        i = k
        term = total = binomial_pmf(i, n, p)
        odds = (1.0 - p) / p
        while i > 0 and term > total * 1e-17:
            term *= i * odds / (n - i + 1)
            total += term
            i -= 1
        return min(total, 1.0)
    i = k + 1
    term = total = binomial_pmf(i, n, p)
    odds = p / (1.0 - p)
    while i < n and term > total * 1e-17:
        term *= (n - i) * odds / (i + 1)
        total += term
        i += 1
    return max(0.0, 1.0 - total)


def binomial_sf(k: int, n: int, p: float) -> float:
    """Survival function P(X > k) for X ~ bin(n, p)."""
    return max(0.0, 1.0 - binomial_cdf(k, n, p))


def normal_approx_cdf(k: int, n: int, p: float) -> float:
    """Normal approximation (with continuity correction) to the binomial CDF."""
    _validate(n, p)
    mean = n * p
    variance = n * p * (1.0 - p)
    if variance <= 0.0:
        return 1.0 if k >= mean else 0.0
    z = (k + 0.5 - mean) / math.sqrt(variance)
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def binomial_mean(n: int, p: float) -> float:
    """Mean n*p of bin(n, p)."""
    _validate(n, p)
    return n * p


def binomial_variance(n: int, p: float) -> float:
    """Variance n*p*(1-p) of bin(n, p)."""
    _validate(n, p)
    return n * p * (1.0 - p)


def _validate(n: int, p: float) -> None:
    if n < 0:
        raise ValueError(f"number of trials must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
