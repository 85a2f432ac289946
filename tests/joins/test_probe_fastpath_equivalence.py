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

The inputs are randomized but seeded, across θ ∈ {0.6, 0.8, 0.9} and
q ∈ {2, 3, 4}, with both toggles of the prefix filter and of the strict
Jaccard verification.  The q = 4 input draws long values from a wide
alphabet, so its gram vocabulary passes 4096 interned grams: the bitset
width grows with that vocabulary, and this regime must stay bit-identical
to the seed too.
"""

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


def build_pair(stored_values, q):
    """A fast-path side and a naive prober loaded with the same values."""
    side = SideState(JoinSide.LEFT, "value", q=q)
    naive = NaiveQGramProber(q=q)
    for row_id, value in enumerate(stored_values):
        side.add(Record(SCHEMA, {"row_id": row_id, "value": value}))
        naive.add(value)
    side.catch_up_qgram()
    return side, naive


def as_pairs(fast_matches):
    return [(stored.ordinal, similarity) for stored, similarity in fast_matches]


@pytest.mark.parametrize("theta", [0.6, 0.8, 0.9])
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
        """Filter off: probe-for-probe identical matches AND counters."""
        stored_values, probe_values = self.inputs(theta, q)
        for verify_jaccard in (False, True):
            for use_prefix_filter in (True, False):
                side, naive = build_pair(stored_values, q)
                assert q < 4 or len(side.interner) > 4096
                for probe in probe_values:
                    fast = side.probe_qgram(
                        probe,
                        theta,
                        verify_jaccard=verify_jaccard,
                        use_prefix_filter=use_prefix_filter,
                        use_length_filter=False,
                    )
                    reference = naive.probe(
                        probe,
                        theta,
                        verify_jaccard=verify_jaccard,
                        use_prefix_filter=use_prefix_filter,
                    )
                    assert as_pairs(fast) == reference
                # Bit-identical elementary-operation accounting (Table 1).
                assert side.counters.as_dict() == naive.counters.as_dict()

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
        plan_one = side._probe_plan("GENOVA")
        assert side._probe_plan("GENOVA") is not None
        assert side._probe_plan("GENOVA")[0] is plan_one[0]  # cache hit
        side.add(Record(SCHEMA, {"row_id": 2, "value": "TORINO"}))
        side.catch_up_qgram()
        plan_two = side._probe_plan("GENOVA")
        assert plan_two[0] is not plan_one[0]  # stamp invalidated the plan
        assert sorted(plan_two[0]) == sorted(plan_one[0])  # same grams
