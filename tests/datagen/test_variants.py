"""Tests for variant (typo) injection."""

import random

import pytest

from repro.datagen.variants import (
    VARIANT_OPERATORS,
    delete_character,
    insert_character,
    make_variant,
    substitute_character,
    transpose_characters,
)


@pytest.fixture
def rng():
    return random.Random(99)


class TestOperators:
    def test_substitute_changes_exactly_one_character(self, rng, levenshtein_distance):
        value = "TAA BZ SANTA CRISTINA VALGARDENA"
        variant = substitute_character(value, rng)
        assert variant != value
        assert len(variant) == len(value)
        assert levenshtein_distance(value, variant) == 1

    def test_delete_removes_one_character(self, rng, levenshtein_distance):
        value = "LIG GE GENOVA"
        variant = delete_character(value, rng)
        assert len(variant) == len(value) - 1
        assert levenshtein_distance(value, variant) == 1

    def test_delete_of_single_character_falls_back_to_substitution(self, rng):
        variant = delete_character("A", rng)
        assert len(variant) == 1
        assert variant != "A"

    def test_insert_adds_one_character(self, rng, levenshtein_distance):
        value = "LIG GE GENOVA"
        variant = insert_character(value, rng)
        assert len(variant) == len(value) + 1
        assert levenshtein_distance(value, variant) == 1

    def test_transpose_swaps_adjacent_characters(
        self, rng, damerau_levenshtein_distance
    ):
        value = "LIG GE GENOVA"
        variant = transpose_characters(value, rng)
        assert variant != value
        assert sorted(variant) == sorted(value)
        assert damerau_levenshtein_distance(value, variant) == 1

    def test_transpose_on_uniform_string_falls_back_to_substitution(self, rng):
        variant = transpose_characters("AAAA", rng)
        assert variant != "AAAA"

    def test_operator_registry_complete(self):
        assert set(VARIANT_OPERATORS) == {"substitute", "delete", "insert", "transpose"}


class TestMakeVariant:
    def test_always_differs_from_original(self, rng):
        value = "LOM MI MILANO CENTRO"
        for _ in range(50):
            assert make_variant(value, rng) != value

    def test_default_operator_is_substitution(self, rng, levenshtein_distance):
        value = "LOM MI MILANO CENTRO"
        for _ in range(20):
            variant = make_variant(value, rng)
            assert len(variant) == len(value)
            assert levenshtein_distance(value, variant) == 1

    def test_edit_distance_one_with_all_operators(
        self, rng, damerau_levenshtein_distance
    ):
        value = "VEN VE VENEZIA MESTRE"
        operators = ("substitute", "delete", "insert", "transpose")
        for _ in range(40):
            variant = make_variant(value, rng, operators=operators)
            assert damerau_levenshtein_distance(value, variant) == 1

    def test_reproducible_with_seeded_rng(self):
        value = "PIE TO TORINO AURORA"
        first = [make_variant(value, random.Random(7)) for _ in range(3)]
        second = [make_variant(value, random.Random(7)) for _ in range(3)]
        assert first == second

    def test_empty_string_returned_unchanged(self, rng):
        assert make_variant("", rng) == ""

    def test_unknown_operator_rejected(self, rng):
        with pytest.raises(ValueError):
            make_variant("ABC", rng, operators=("scramble",))

    def test_variant_defeats_exact_match_but_not_similarity(self, rng):
        from repro.similarity.setsim import jaccard_qgram_similarity

        value = "TAA BZ SANTA CRISTINA VALGARDENA"
        variant = make_variant(value, rng)
        assert variant != value
        assert jaccard_qgram_similarity(value, variant) > 0.7
