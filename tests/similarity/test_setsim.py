"""Tests for the set/token-based similarity measures."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.similarity.setsim import (
    jaccard_from_shared,
    jaccard_qgram_similarity,
    jaccard_similarity,
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

    @pytest.mark.parametrize(
        "left, right, q, padded, expected",
        [
            # {ab, bc, cd} vs {ab, bc, ce}
            ("abcd", "abce", 2, False, Fraction(2, 4)),
            # Both strings have the gram set {ab, ba}.
            ("abab", "baba", 2, False, Fraction(1)),
            ("ab", "cd", 2, False, Fraction(0)),
            # Shorter than q, unpadded: the whole string is the one gram.
            ("a", "a", 3, False, Fraction(1)),
            # {¤¤A, ¤AB, AB¤, B¤¤} vs {¤¤A, ¤AC, AC¤, C¤¤}
            ("AB", "AC", 3, True, Fraction(1, 7)),
            # {¤¤A, ¤AB, ABC, BC¤, C¤¤} vs {¤¤A, ¤AB, ABD, BD¤, D¤¤}
            ("ABC", "ABD", 3, True, Fraction(2, 8)),
            # AAAA repeats the gram AAA: both sets are {¤¤A, ¤AA, AAA, AA¤, A¤¤}.
            ("AAAA", "AAA", 3, True, Fraction(1)),
            # q = 1 has no padding: the character sets are equal.
            ("ROMA", "AMOR", 1, True, Fraction(1)),
            # A trailing space replaces VA¤ and A¤¤ by VA␣, A␣¤ and ␣¤¤.
            ("GENOVA", "GENOVA ", 3, True, Fraction(6, 11)),
        ],
        ids=[
            "unpadded-one-gram-differs",
            "unpadded-same-set",
            "unpadded-disjoint",
            "unpadded-shorter-than-q",
            "padded-two-characters",
            "padded-last-character",
            "padded-repeated-gram",
            "q1-anagram",
            "padded-trailing-space",
        ],
    )
    def test_known_values(self, left, right, q, padded, expected):
        assert jaccard_qgram_similarity(left, right, q=q, padded=padded) == (
            pytest.approx(float(expected))
        )
