"""Tests for the edit-distance references (``tests/conftest.py``) the
data-generator tests check one-edit variants against."""

import pytest


class TestLevenshtein:
    def test_identical_strings(self, levenshtein_distance):
        assert levenshtein_distance("GENOVA", "GENOVA") == 0

    def test_single_substitution(self, levenshtein_distance):
        assert levenshtein_distance("GENOVA", "GENOVX") == 1

    def test_single_insertion_and_deletion(self, levenshtein_distance):
        assert levenshtein_distance("GENOVA", "GENOVVA") == 1
        assert levenshtein_distance("GENOVA", "GENOA") == 1

    def test_empty_strings(self, levenshtein_distance):
        assert levenshtein_distance("", "") == 0
        assert levenshtein_distance("", "abc") == 3
        assert levenshtein_distance("abc", "") == 3

    def test_classic_example(self, levenshtein_distance):
        assert levenshtein_distance("kitten", "sitting") == 3

    def test_symmetry(self, levenshtein_distance):
        assert levenshtein_distance("abcdef", "azced") == levenshtein_distance(
            "azced", "abcdef"
        )

    def test_triangle_inequality_spot_check(self, levenshtein_distance):
        a, b, c = "ROMA", "ROMANO", "MILANO"
        assert levenshtein_distance(a, c) <= (
            levenshtein_distance(a, b) + levenshtein_distance(b, c)
        )

    def test_transposition_costs_two(self, levenshtein_distance):
        assert levenshtein_distance("AB", "BA") == 2

    @pytest.mark.parametrize(
        "left, right, distance",
        [
            ("flaw", "lawn", 2),
            ("intention", "execution", 5),
            ("saturday", "sunday", 3),
            ("book", "back", 2),
            ("LIG GE GENOVA", "LIG GE GENOVy", 1),
        ],
        ids=[
            "flaw-lawn",
            "intention-execution",
            "saturday-sunday",
            "book-back",
            "one-typo",
        ],
    )
    def test_known_values(self, levenshtein_distance, left, right, distance):
        assert levenshtein_distance(left, right) == distance
        assert levenshtein_distance(right, left) == distance


class TestDamerauLevenshtein:
    def test_transposition_costs_one(self, damerau_levenshtein_distance):
        assert damerau_levenshtein_distance("AB", "BA") == 1

    def test_matches_levenshtein_without_transpositions(
        self, damerau_levenshtein_distance
    ):
        assert damerau_levenshtein_distance("kitten", "sitting") == 3

    def test_identical_and_empty(self, damerau_levenshtein_distance):
        assert damerau_levenshtein_distance("x", "x") == 0
        assert damerau_levenshtein_distance("", "ab") == 2

    def test_never_exceeds_levenshtein(
        self, damerau_levenshtein_distance, levenshtein_distance
    ):
        pairs = [("GENOVA", "GENOAV"), ("MILANO", "MLIANO"), ("ROMA", "AMOR")]
        for left, right in pairs:
            assert damerau_levenshtein_distance(left, right) <= levenshtein_distance(
                left, right
            )

    @pytest.mark.parametrize(
        "left, right, distance",
        [
            ("MILANO", "MLIANO", 1),
            ("abcdef", "abdcef", 1),
            # Two separate transpositions.
            ("abcdef", "badcef", 2),
            # The restricted variant edits no substring twice: 3, not 2.
            ("ca", "abc", 3),
        ],
        ids=[
            "one-transposition",
            "inner-transposition",
            "two-transpositions",
            "restricted-variant",
        ],
    )
    def test_known_values(self, damerau_levenshtein_distance, left, right, distance):
        assert damerau_levenshtein_distance(left, right) == distance
