"""Tests for the set/token-based similarity measures."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.similarity.qgrams import qgram_set
from repro.similarity.setsim import (
    cosine_qgram_similarity,
    dice_similarity,
    jaccard_from_shared,
    jaccard_match_threshold,
    jaccard_qgram_similarity,
    jaccard_similarity,
    overlap_coefficient,
)


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard_similarity({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint_sets(self):
        assert jaccard_similarity({"a"}, {"b"}) == 0.0

    def test_partial_overlap(self):
        assert jaccard_similarity({"a", "b", "c"}, {"b", "c", "d"}) == pytest.approx(0.5)

    def test_both_empty(self):
        assert jaccard_similarity([], []) == 1.0

    def test_one_empty(self):
        assert jaccard_similarity({"a"}, set()) == 0.0

    def test_accepts_any_iterables(self):
        assert jaccard_similarity(["a", "a", "b"], ("b", "a")) == 1.0


class TestJaccardFromShared:
    def test_two_empty_sets_are_identical(self):
        assert jaccard_from_shared(0, 0, 0) == 1.0

    def test_counts(self):
        assert jaccard_from_shared(0, 3, 4) == 0.0
        assert jaccard_from_shared(2, 3, 3) == 0.5
        assert jaccard_from_shared(5, 5, 5) == 1.0

    @given(
        st.frozensets(st.integers(0, 30), max_size=20),
        st.frozensets(st.integers(0, 30), max_size=20),
    )
    def test_equals_jaccard_of_the_sets(self, left, right):
        # The verification loop's formula must reproduce the set definition
        # bit for bit, including the empty/empty convention.
        shared = len(left & right)
        assert jaccard_from_shared(shared, len(left), len(right)) == (
            jaccard_similarity(left, right)
        )


class TestJaccardOverQgrams:
    def test_identical_strings(self):
        assert jaccard_qgram_similarity("GENOVA", "GENOVA") == 1.0

    def test_symmetric(self):
        left, right = "LIG GE GENOVA", "LIG GE GENOVy"
        assert jaccard_qgram_similarity(left, right) == pytest.approx(
            jaccard_qgram_similarity(right, left)
        )

    def test_single_typo_similarity_formula(self):
        # One substitution in the middle of a string of length L perturbs 3
        # padded grams: similarity = (L - 1) / (L + 5).
        clean = "TAA BZ SANTA CRISTINA VALGARDENA"
        variant = "TAA BZ SANTA CRISTINx VALGARDENA"
        length = len(clean)
        expected = (length - 1) / (length + 5)
        assert jaccard_qgram_similarity(clean, variant) == pytest.approx(expected)

    def test_unrelated_strings_have_low_similarity(self):
        assert jaccard_qgram_similarity("LIG GE GENOVA", "SIC PA PALERMO") < 0.3

    def test_empty_strings(self):
        assert jaccard_qgram_similarity("", "") == 1.0
        assert jaccard_qgram_similarity("", "abc") == 0.0


class TestOtherCoefficients:
    def test_overlap_coefficient(self):
        assert overlap_coefficient({"a", "b"}, {"a", "b", "c", "d"}) == 1.0
        assert overlap_coefficient({"a"}, {"b"}) == 0.0
        assert overlap_coefficient(set(), set()) == 1.0
        assert overlap_coefficient(set(), {"a"}) == 0.0

    def test_dice(self):
        assert dice_similarity({"a", "b"}, {"a", "b"}) == 1.0
        assert dice_similarity({"a", "b", "c"}, {"b", "c", "d"}) == pytest.approx(
            2 * 2 / 6
        )
        assert dice_similarity(set(), set()) == 1.0

    def test_cosine_qgram(self):
        assert cosine_qgram_similarity("GENOVA", "GENOVA") == pytest.approx(1.0)
        assert cosine_qgram_similarity("", "") == 1.0
        assert cosine_qgram_similarity("", "abc") == 0.0
        value = cosine_qgram_similarity("LIG GE GENOVA", "LIG GE GENOVy")
        assert 0.5 < value < 1.0

    def test_dice_between_jaccard_and_overlap(self):
        left = qgram_set("LIG GE GENOVA")
        right = qgram_set("LIG GE GENOVy")
        jaccard = jaccard_similarity(left, right)
        dice = dice_similarity(left, right)
        overlap = overlap_coefficient(left, right)
        assert jaccard <= dice <= overlap


class TestMatchThreshold:
    def test_threshold_counts_required_shared_grams(self):
        # g = len + q - 1 grams; at theta=0.85 the requirement is ceil(0.85*g).
        assert jaccard_match_threshold(25, 3, 0.85) == math.ceil(0.85 * 27)

    def test_threshold_at_one_requires_all_grams(self):
        assert jaccard_match_threshold(10, 3, 1.0) == 12

    def test_threshold_is_at_least_one(self):
        assert jaccard_match_threshold(1, 3, 0.01) == 1

    def test_zero_length_value(self):
        assert jaccard_match_threshold(0, 3, 0.85) == 0

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            jaccard_match_threshold(10, 3, 1.5)
