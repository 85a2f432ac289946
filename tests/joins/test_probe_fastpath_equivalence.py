"""Randomized equivalence tests: fast-path probe vs. the naive seed probe.

The fast-path probe pipeline (interned grams, bitset verification, length
filter, cached probe plans) must be *observably indistinguishable* from the
pre-refactor implementation kept in
:class:`repro.joins.fastpath.NaiveQGramProber`:

* with the length filter disabled, the match lists (ordinals, similarities
  and order) and the full :class:`~repro.joins.base.OperationCounters` must
  be identical, probe for probe;
* with the length filter enabled, the match lists must still be identical —
  the filter may only shrink ``T(t)``.

The inputs are randomized but seeded, across θ ∈ {0.6, 0.8, 0.85, 0.9,
1.0} and q ∈ {2, 3, 4}, with both toggles of the prefix filter and of the
strict Jaccard verification.  The q = 4 input draws long values from a wide
alphabet, so its gram vocabulary passes 4096 interned grams: the bitset
width grows with that vocabulary, and this regime must stay bit-identical
to the seed too.

The fast path's count filter verifies only candidates that hit at least
``k − (g − s)`` of the ``s`` grams it scanned.  Its edge cases have their
own inputs: values with g ≤ 2 grams, where ``k = 1`` leaves no extension
gram to scan, and probes whose extension gram has an empty bucket.
"""

import math
import random
import string

import pytest

from repro.engine.tuples import Record, Schema
from repro.joins.base import JoinSide, SideState
from repro.joins.fastpath import (
    GramInterner,
    NaiveQGramProber,
    distinct_qgrams,
    jaccard_length_bounds,
)

SCHEMA = Schema(["row_id", "value"], name="rows")

#: Small alphabet (with spaces) so random values share plenty of grams and
#: the candidate sets are non-trivial.
ALPHABET = "ABCDEFGH "

#: Wide alphabet for the large-vocabulary input: almost every q-gram of a
#: long value is new to the interner.
WIDE_ALPHABET = string.ascii_letters + string.digits + " "


def make_values(
    rng: random.Random, count: int, alphabet=ALPHABET, max_length=28, bases=None
):
    """Random values: a pool of base strings plus single-edit variants.

    ``bases`` reuses an existing pool (e.g. the stored values, so that the
    probes are near-duplicates of them) instead of drawing a fresh one.
    """
    if bases is None:
        bases = []
        for _ in range(max(8, count // 4)):
            length = rng.randint(0, max_length)
            bases.append("".join(rng.choice(alphabet) for _ in range(length)))
    values = []
    for _ in range(count):
        base = rng.choice(bases)
        roll = rng.random()
        if roll < 0.4 or not base:
            values.append(base)
        elif roll < 0.7:  # substitution
            pos = rng.randrange(len(base))
            values.append(base[:pos] + rng.choice(alphabet) + base[pos + 1 :])
        elif roll < 0.85:  # insertion
            pos = rng.randrange(len(base) + 1)
            values.append(base[:pos] + rng.choice(alphabet) + base[pos:])
        else:  # deletion
            pos = rng.randrange(len(base))
            values.append(base[:pos] + base[pos + 1 :])
    return values


def build_pair(stored_values, q, padded=True):
    """A fast-path side and a naive prober loaded with the same values."""
    side = SideState(JoinSide.LEFT, "value", q=q, padded_qgrams=padded)
    naive = NaiveQGramProber(q=q, padded=padded)
    for row_id, value in enumerate(stored_values):
        side.add(Record(SCHEMA, {"row_id": row_id, "value": value}))
        naive.add(value)
    side.catch_up_qgram()
    return side, naive


def as_pairs(fast_matches):
    return [(stored.ordinal, similarity) for stored, similarity in fast_matches]


def assert_equivalent(stored_values, probe_values, theta, q=3, padded=True):
    """Every toggle: identical match lists, and identical counters with the
    length filter off; returns the fast side of the last combination."""
    for verify_jaccard in (False, True):
        for use_prefix_filter in (True, False):
            for use_length_filter in (False, True):
                side, naive = build_pair(stored_values, q, padded)
                for probe in probe_values:
                    fast = side.probe_qgram(
                        probe,
                        theta,
                        verify_jaccard=verify_jaccard,
                        use_prefix_filter=use_prefix_filter,
                        use_length_filter=use_length_filter,
                    )
                    reference = naive.probe(
                        probe,
                        theta,
                        verify_jaccard=verify_jaccard,
                        use_prefix_filter=use_prefix_filter,
                    )
                    assert as_pairs(fast) == reference, probe
                if not use_length_filter:
                    assert side.counters.as_dict() == naive.counters.as_dict()
    return side


@pytest.mark.parametrize("theta", [0.6, 0.8, 0.85, 0.9, 1.0])
@pytest.mark.parametrize("q", [2, 3, 4])
class TestFastPathEquivalence:
    def inputs(self, theta, q):
        """Seeded (stored, probe) values; q = 4 is the wide-vocabulary input."""
        rng = random.Random(20260726 + q * 1000 + int(theta * 100))
        if q < 4:
            return make_values(rng, 150), make_values(rng, 100)
        stored = make_values(rng, 600, alphabet=WIDE_ALPHABET, max_length=60)
        return stored, make_values(rng, 100, alphabet=WIDE_ALPHABET, bases=stored)

    def test_matches_and_counters_identical_without_length_filter(self, theta, q):
        """Identical matches on every toggle, identical counters filter off."""
        stored_values, probe_values = self.inputs(theta, q)
        side = assert_equivalent(stored_values, probe_values, theta, q)
        assert q < 4 or len(side.interner) > 4096

    def test_length_filter_preserves_matches_and_shrinks_candidates(self, theta, q):
        """Filter on: identical match lists, never-larger T(t)."""
        stored_values, probe_values = self.inputs(theta, q)
        filtered, naive = build_pair(stored_values, q)
        assert q < 4 or len(filtered.interner) > 4096
        for probe in probe_values:
            fast = filtered.probe_qgram(probe, theta, use_length_filter=True)
            reference = naive.probe(probe, theta)
            assert as_pairs(fast) == reference
        assert (
            filtered.counters.candidate_set_size <= naive.counters.candidate_set_size
        )
        # The filter never changes how many candidates reach verification
        # under the counter-test semantics (it removes only sub-threshold
        # candidates), so the Table-1 operation-4 accounting is unchanged.
        assert (
            filtered.counters.approx_verifications
            == naive.counters.approx_verifications
        )


class TestCountFilterEdges:
    """Probes where the count filter has no extension gram, or an empty one."""

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.85, 1.0])
    @pytest.mark.parametrize("q, padded", [(2, True), (2, False), (3, False)])
    def test_values_with_at_most_two_grams(self, theta, q, padded):
        # Padded q = 2 turns one character into 2 grams; unpadded, values no
        # longer than q + 1 have 1 or 2.  With k = 1 the prefix is every
        # gram, so there is no extension gram to scan.
        rng = random.Random(20261019 + q * 10 + int(theta * 100))
        short = [
            "".join(rng.choice("ABC") for _ in range(rng.randint(0, q + 1 - padded)))
            for _ in range(60)
        ]
        side = assert_equivalent(short, short[:40], theta, q, padded)
        assert any(
            len(distinct_qgrams(v, q=q, padded=padded)) in (1, 2) for v in short
        )
        assert side.counters.approx_verifications > 0

    @pytest.mark.parametrize("theta", [0.5, 0.85])
    def test_extension_gram_with_an_empty_bucket(self, theta):
        # Each probe keeps a few stored grams and adds many unseen ones, so
        # the rarest buckets (the prefix and the next one) are empty.
        stored = ["GENOVA", "MILANO", "TORINO", "GENOVESE"]
        probes = ["GENOVAXYZQWKJ", "XYZQWKJ GENOVA", "MILANOXYZQW", "QWERTYUIOP"]
        assert_equivalent(stored, probes, theta)
        side, _ = build_pair(stored, 3)
        ordered, lengths, _ = side._probe_plan("GENOVAXYZQWKJ")
        required = math.ceil(theta * len(ordered))
        assert lengths[len(ordered) - required + 1] == 0


class TestFastPathBuildingBlocks:
    def test_interner_assigns_dense_round_trip_ids(self):
        interner = GramInterner(q=3)
        ids = [interner.intern(g) for g in ("abc", "bcd", "abc", "cde")]
        assert ids == [0, 1, 0, 2]
        assert interner.gram(1) == "bcd"
        assert interner.lookup("cde") == 2
        assert interner.lookup("zzz") is None
        assert len(interner) == 3

    def test_intern_value_is_cached_and_deterministic(self):
        interner = GramInterner(q=3)
        first = interner.intern_value("GENOVA")
        assert first == interner.intern_value("GENOVA")
        assert list(first) == [
            interner.lookup(g) for g in distinct_qgrams("GENOVA", q=3)
        ]

    def test_interner_value_cache_bounded(self):
        interner = GramInterner(q=2, value_cache_limit=4)
        values = [f"VALUE {i}" for i in range(10)]
        ids = [interner.intern_value(v) for v in values]
        # Ids survive cache eviction: re-interning yields the same ids.
        assert [interner.intern_value(v) for v in values] == ids

    def test_mismatched_interner_rejected(self):
        with pytest.raises(ValueError):
            SideState(JoinSide.LEFT, "value", q=3, interner=GramInterner(q=2))

    def test_gram_verification_accepts_only_bitset(self):
        SideState(JoinSide.LEFT, "value", gram_verification="bitset")
        for mode in ("auto", "array", "numpy-bitset"):
            with pytest.raises(ValueError, match="gram_verification"):
                SideState(JoinSide.LEFT, "value", gram_verification=mode)

    def test_length_bounds_counter_semantics(self):
        lo, hi = jaccard_length_bounds(20, 0.85, verify_jaccard=False)
        assert lo == 17  # ceil(0.85 * 20)
        assert hi > 10**9  # unbounded without the strict Jaccard test

    def test_length_bounds_jaccard(self):
        lo, hi = jaccard_length_bounds(20, 0.85, verify_jaccard=True)
        assert lo == 17
        assert hi == 23  # floor(20 / 0.85)

    def test_length_bounds_boundary_not_lost_to_float_rounding(self):
        # 17 / 0.85 = 20 exactly in the reals; the float guard must keep
        # the candidate sitting on the bound.
        lo, hi = jaccard_length_bounds(17, 0.85, verify_jaccard=True)
        assert hi >= 20

    def test_probe_plan_cached_until_index_grows(self):
        side = SideState(JoinSide.LEFT, "value", q=3)
        for row_id, value in enumerate(["GENOVA", "MILANO"]):
            side.add(Record(SCHEMA, {"row_id": row_id, "value": value}))
        side.catch_up_qgram()
        ordered, lengths, bits = side._probe_plan("GENOVA")
        assert side._probe_plan("GENOVA")[0] is ordered  # cache hit
        # Ids in ascending bucket length, each with its bucket's length;
        # the bitset is the interner's cached one.
        assert list(lengths) == sorted(lengths)
        assert list(lengths) == [len(side._qgram_index.get(i, ())) for i in ordered]
        assert bits is side.interner.entry("GENOVA")[1]
        side.add(Record(SCHEMA, {"row_id": 2, "value": "GENOVA"}))
        side.catch_up_qgram()
        ordered_two, lengths_two, bits_two = side._probe_plan("GENOVA")
        assert ordered_two is not ordered  # stamp invalidated the plan
        assert sorted(ordered_two) == sorted(ordered)  # same grams
        assert list(lengths_two) == [length + 1 for length in lengths]
        assert bits_two is bits
