"""Probability and streaming-statistics substrate.

Everything the MAR assessor needs to decide whether the observed join result
size is "statistically significantly" behind expectation:

* an exact (and normal-approximated) binomial distribution —
  :mod:`repro.stats.binomial`;
* the result-size model of Sec. 3.2 (``O_n ~ bin(n, n/|R|)``) and the
  outlier test of Eq. 1 — :mod:`repro.stats.completeness`;
* sliding-window counters used by the ``µ`` predicates —
  :mod:`repro.stats.windows`.
"""

from repro.stats.binomial import (
    binomial_cdf,
    binomial_pmf,
    binomial_sf,
    log_binomial_coefficient,
    normal_approx_cdf,
)
from repro.stats.completeness import (
    CompletenessModel,
    ResultSizeObservation,
    binomial_outlier_probability,
    is_result_size_outlier,
)
from repro.stats.windows import BooleanHistory, SlidingWindowCounter

__all__ = [
    "binomial_pmf",
    "binomial_cdf",
    "binomial_sf",
    "log_binomial_coefficient",
    "normal_approx_cdf",
    "CompletenessModel",
    "ResultSizeObservation",
    "binomial_outlier_probability",
    "is_result_size_outlier",
    "SlidingWindowCounter",
    "BooleanHistory",
]
