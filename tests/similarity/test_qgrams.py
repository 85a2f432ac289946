"""Tests for q-gram tokenisation."""

import pytest

from repro.similarity.qgrams import PADDING_CHAR, qgram_set, qgrams


class TestUnpaddedQgrams:
    def test_basic_sliding_window(self):
        assert qgrams("abcde", q=3, padded=False) == ["abc", "bcd", "cde"]

    def test_string_shorter_than_q(self):
        assert qgrams("ab", q=3, padded=False) == ["ab"]

    def test_empty_string(self):
        assert qgrams("", q=3, padded=False) == []

    def test_q_equals_one_gives_characters(self):
        assert qgrams("abc", q=1, padded=False) == ["a", "b", "c"]


class TestPaddedQgrams:
    def test_count_matches_paper_formula(self):
        # |jA| + q - 1 grams for a value of length |jA| (paper Table 1).
        for text in ("a", "abc", "GENOVA", "TAA BZ SANTA CRISTINA VALGARDENA"):
            assert len(qgrams(text, q=3)) == len(text) + 3 - 1

    def test_padding_character_present_at_edges(self):
        grams = qgrams("ab", q=3)
        assert grams[0].startswith(PADDING_CHAR * 2)
        assert grams[-1].endswith(PADDING_CHAR * 2)

    def test_empty_string_has_no_grams(self):
        assert qgrams("", q=3) == []

    def test_none_treated_as_empty(self):
        assert qgrams(None, q=3) == []

    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            qgrams("abc", q=0)


class TestDerivedStructures:
    def test_qgram_set_removes_duplicates(self):
        grams = qgrams("aaaa", q=2, padded=False)
        assert len(grams) == 3
        assert qgram_set("aaaa", q=2, padded=False) == frozenset({"aa"})


class TestSingleEditImpact:
    """A single substitution perturbs at most q padded grams (the property
    the variant generator and the threshold tuning rely on)."""

    @pytest.mark.parametrize(
        "clean, variant",
        [
            ("TAA BZ SANTA CRISTINA VALGARDENA", "TAA BZ SANTA CRISTINx VALGARDENA"),
            ("LIG GE GENOVA", "LIG GE GENOVy"),
            ("LOM MI MILANO", "LOM MI MxLANO"),
        ],
    )
    def test_substitution_changes_at_most_q_grams(self, clean, variant):
        q = 3
        clean_set = qgram_set(clean, q=q)
        variant_set = qgram_set(variant, q=q)
        assert len(clean_set - variant_set) <= q
        assert len(variant_set - clean_set) <= q
