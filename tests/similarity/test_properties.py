"""Property-based tests (hypothesis) for the similarity substrate."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity.qgrams import qgram_set, qgrams
from repro.similarity.setsim import jaccard_qgram_similarity

# Alphabet similar to the join-attribute values (upper-case words + spaces).
text = st.text(alphabet=string.ascii_uppercase + " ", max_size=40)
short_text = st.text(alphabet=string.ascii_uppercase + " ", min_size=0, max_size=20)


class TestQgramProperties:
    @given(text, st.integers(min_value=1, max_value=5))
    def test_padded_gram_count_formula(self, value, q):
        grams = qgrams(value, q=q, padded=True)
        expected = 0 if not value else len(value) + q - 1
        assert len(grams) == expected

    @given(text, st.integers(min_value=1, max_value=5))
    def test_every_gram_has_width_q(self, value, q):
        for gram in qgrams(value, q=q, padded=True):
            assert len(gram) == q

    @given(text)
    def test_gram_set_is_subset_of_gram_list(self, value):
        assert qgram_set(value) == frozenset(qgrams(value))


class TestSimilarityProperties:
    @given(text, text)
    def test_jaccard_symmetric_and_bounded(self, left, right):
        forward = jaccard_qgram_similarity(left, right)
        backward = jaccard_qgram_similarity(right, left)
        assert abs(forward - backward) < 1e-12
        assert 0.0 <= forward <= 1.0

    @given(text)
    def test_jaccard_reflexive(self, value):
        assert jaccard_qgram_similarity(value, value) == 1.0


class TestEditDistanceProperties:
    @given(short_text, short_text)
    def test_levenshtein_symmetry_and_identity(
        self, levenshtein_distance, left, right
    ):
        assert levenshtein_distance(left, right) == levenshtein_distance(right, left)
        assert levenshtein_distance(left, left) == 0

    @given(short_text, short_text)
    def test_levenshtein_bounded_by_longer_length(
        self, levenshtein_distance, left, right
    ):
        assert levenshtein_distance(left, right) <= max(len(left), len(right))

    @given(short_text, short_text)
    def test_levenshtein_lower_bound_length_difference(
        self, levenshtein_distance, left, right
    ):
        assert levenshtein_distance(left, right) >= abs(len(left) - len(right))

    @settings(max_examples=50)
    @given(short_text, short_text, short_text)
    def test_levenshtein_triangle_inequality(self, levenshtein_distance, a, b, c):
        assert levenshtein_distance(a, c) <= (
            levenshtein_distance(a, b) + levenshtein_distance(b, c)
        )

    @given(short_text, short_text)
    def test_damerau_never_exceeds_levenshtein(
        self, damerau_levenshtein_distance, levenshtein_distance, left, right
    ):
        assert damerau_levenshtein_distance(left, right) <= levenshtein_distance(
            left, right
        )
