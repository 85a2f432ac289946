"""Tests for the binomial distribution utilities (cross-checked against exact sums)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.stats.binomial as binomial_module
from repro.stats.binomial import (
    binomial_cdf,
    binomial_mean,
    binomial_pmf,
    binomial_sf,
    binomial_variance,
    log_binomial_coefficient,
    normal_approx_cdf,
)


def exact_pmf(k, n, p):
    p = Fraction(p)
    return float(math.comb(n, k) * p**k * (1 - p) ** (n - k))


class TestLogBinomialCoefficient:
    def test_small_values(self):
        assert math.isclose(math.exp(log_binomial_coefficient(5, 2)), 10.0)
        assert math.isclose(math.exp(log_binomial_coefficient(10, 0)), 1.0)
        assert math.isclose(math.exp(log_binomial_coefficient(10, 10)), 1.0)

    def test_out_of_range_is_minus_infinity(self):
        assert log_binomial_coefficient(5, 6) == float("-inf")
        assert log_binomial_coefficient(5, -1) == float("-inf")

    def test_symmetry(self):
        assert log_binomial_coefficient(20, 7) == pytest.approx(
            log_binomial_coefficient(20, 13)
        )


class TestPmf:
    @pytest.mark.parametrize("n,p", [(10, 0.3), (50, 0.5), (200, 0.05), (17, 0.9)])
    def test_matches_exact_reference(self, n, p):
        for k in range(0, n + 1, max(1, n // 7)):
            assert binomial_pmf(k, n, p) == pytest.approx(
                exact_pmf(k, n, p), rel=1e-9, abs=1e-12
            )

    def test_sums_to_one(self):
        total = sum(binomial_pmf(k, 40, 0.37) for k in range(41))
        assert total == pytest.approx(1.0)

    def test_out_of_range_is_zero(self):
        assert binomial_pmf(-1, 10, 0.5) == 0.0
        assert binomial_pmf(11, 10, 0.5) == 0.0

    def test_degenerate_probabilities(self):
        assert binomial_pmf(0, 10, 0.0) == 1.0
        assert binomial_pmf(10, 10, 1.0) == 1.0
        assert binomial_pmf(3, 10, 0.0) == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            binomial_pmf(1, -1, 0.5)
        with pytest.raises(ValueError):
            binomial_pmf(1, 10, 1.5)


class TestCdf:
    @pytest.mark.parametrize("n,p", [(10, 0.3), (100, 0.5), (500, 0.02), (37, 0.77)])
    def test_matches_exact_reference(self, n, p, reference_binomial_cdf):
        for k in range(0, n + 1, max(1, n // 9)):
            assert binomial_cdf(k, n, p) == pytest.approx(
                reference_binomial_cdf(k, n, p), rel=1e-9, abs=1e-300
            )

    def test_boundaries(self):
        assert binomial_cdf(-1, 10, 0.5) == 0.0
        assert binomial_cdf(10, 10, 0.5) == 1.0
        assert binomial_cdf(25, 10, 0.5) == 1.0

    def test_monotone_in_k(self):
        values = [binomial_cdf(k, 60, 0.4) for k in range(61)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_degenerate_probabilities(self):
        assert binomial_cdf(5, 10, 0.0) == 1.0
        assert binomial_cdf(5, 10, 1.0) == 0.0

    def test_survival_function_complements_cdf(self):
        assert binomial_sf(7, 20, 0.4) == pytest.approx(1 - binomial_cdf(7, 20, 0.4))

    def test_normal_approximation_close_for_large_n(self, summed_binomial_cdf):
        n, p = 50_000, 0.3
        k = int(n * p - 2 * math.sqrt(n * p * (1 - p)))
        exact = summed_binomial_cdf(k, n, p, exact_cutoff=10**9)
        approx = normal_approx_cdf(k, n, p)
        assert approx == pytest.approx(exact, abs=5e-3)

    def test_cdf_switches_to_normal_approximation_above_cutoff(self):
        n, p = 30_000, 0.4
        k = int(n * p)
        assert binomial_cdf(k, n, p) == pytest.approx(normal_approx_cdf(k, n, p))

    def test_exact_cutoff_can_be_forced(self, reference_binomial_cdf):
        n, p, k = 25_000, 0.5, 12_400
        forced_exact = binomial_cdf(k, n, p, exact_cutoff=10**9)
        assert forced_exact == pytest.approx(reference_binomial_cdf(k, n, p), rel=1e-9)


@st.composite
def cdf_arguments(draw):
    n = draw(st.integers(min_value=1, max_value=400))
    p = draw(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
    )
    k = draw(st.integers(min_value=-1, max_value=n + 1))
    return k, n, p


class TestTailWalkAccuracy:
    """The tail walk against exact sums and against the term-by-term sum."""

    @settings(max_examples=200, deadline=None)
    @given(cdf_arguments())
    def test_matches_exact_reference(self, reference_binomial_cdf, arguments):
        k, n, p = arguments
        assert binomial_cdf(k, n, p) == pytest.approx(
            reference_binomial_cdf(k, n, p), rel=1e-9, abs=1e-300
        )

    @pytest.mark.parametrize("n", [2_000, 20_000])
    @pytest.mark.parametrize("p", [0.02, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("tail_probability", [0.05, 0.95])
    def test_matches_summed_cdf_near_decision_quantiles(
        self, n, p, tail_probability, summed_binomial_cdf
    ):
        # 0.05 sits below the mean (lower-tail walk), 0.95 above it (upper).
        z = 1.6448536269514722 * (1 if tail_probability > 0.5 else -1)
        centre = int(n * p + z * math.sqrt(n * p * (1 - p)))
        for k in range(centre - 2, centre + 3):
            assert (k <= n * p) == (tail_probability < 0.5)
            walked = binomial_cdf(k, n, p)
            assert walked == pytest.approx(summed_binomial_cdf(k, n, p), rel=1e-9)
            assert abs(walked - tail_probability) < 0.1


class CountingMath:
    """Stands in for the ``math`` module and counts ``lgamma`` calls."""

    def __init__(self):
        self.lgamma_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def lgamma(self, x):
        self.lgamma_calls += 1
        return math.lgamma(x)


class TestCost:
    # Sizes no other test in this module evaluates, so a memoised
    # coefficient could not hide per-term work.
    @pytest.mark.parametrize("n", [3_000, 15_000])
    @pytest.mark.parametrize("k_fraction", [0.0, 0.49, 0.5, 0.51, 0.99])
    def test_one_cdf_call_makes_at_most_three_lgamma_calls(
        self, monkeypatch, n, k_fraction
    ):
        counting = CountingMath()
        monkeypatch.setattr(binomial_module, "math", counting)
        binomial_cdf(int(n * k_fraction), n, 0.5)
        assert counting.lgamma_calls <= 3


class TestMoments:
    def test_mean_and_variance(self):
        assert binomial_mean(100, 0.3) == pytest.approx(30.0)
        assert binomial_variance(100, 0.3) == pytest.approx(21.0)
