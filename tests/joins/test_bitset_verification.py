"""Gram-bitset verification against the naive seed prober.

``SideState.probe_qgram`` recovers every candidate's shared-gram count
from cached gram bitsets (one big-int AND + ``bit_count``); there is no
other verification path.  These tests pin that path against
:class:`~repro.joins.fastpath.NaiveQGramProber` — matches, similarities,
emission order and Table-1 counters — on edge-case probes, on indexes
that grow between probes (the bitset width follows the *global* gram
vocabulary, past 4096 grams here), and on random workloads.  They also
pin the ``gram_verification`` compatibility keyword: ``"bitset"`` is the
only value ``SideState`` and ``SymmetricJoinEngine`` accept.
"""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.streams import ListStream
from repro.engine.tuples import Record, Schema
from repro.joins.base import JoinAttribute, JoinMode, JoinSide, SideState
from repro.joins.engine import SymmetricJoinEngine
from repro.joins.fastpath import NaiveQGramProber
from repro.joins.shjoin import SHJoin
from repro.joins.sshjoin import SSHJoin

SCHEMA = Schema(["value"], name="values")

#: Modes other verification tiers once accepted; all are refused now.
RETIRED_MODES = ["auto", "array", "numpy-bitset", "numpy-array", "magic"]

values_strategy = st.lists(
    st.text(alphabet="abcdef", min_size=0, max_size=14), min_size=1, max_size=40
)
probes_strategy = st.lists(
    st.text(alphabet="abcdef", min_size=0, max_size=14), min_size=1, max_size=20
)


def _values(count, seed, alphabet="abcdefghijklmnop", length=12):
    rng = random.Random(seed)
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(4, length)))
        for _ in range(count)
    ]


def _records(values):
    return [Record(SCHEMA, {"value": value}) for value in values]


def _load(side, naive, values):
    for record in _records(values):
        side.add(record)
        naive.add(record["value"])
    side.catch_up_qgram()


def _probe_both(side, naive, probes, theta, verify_jaccard=False):
    """Probe both structures; return (fast, naive) ``(probe, ordinal, sim)`` lists."""
    fast, reference = [], []
    for probe in probes:
        for stored, similarity in side.probe_qgram(
            probe, theta, verify_jaccard=verify_jaccard, use_length_filter=False
        ):
            fast.append((probe, stored.ordinal, similarity))
        for ordinal, similarity in naive.probe(
            probe, theta, verify_jaccard=verify_jaccard
        ):
            reference.append((probe, ordinal, similarity))
    return fast, reference


class TestBitsetMatchesNaive:
    @pytest.mark.parametrize("theta", [0.7, 0.85])
    @pytest.mark.parametrize("q", [3, 4])
    @pytest.mark.parametrize("verify_jaccard", [False, True])
    def test_matches_and_counters_identical(self, theta, q, verify_jaccard):
        stored = _values(120, seed=q * 100 + int(theta * 100))
        # Exact duplicates of stored values plus empty and sub-q probes.
        probes = _values(60, seed=q) + stored[:10] + ["", "ab"]
        side = SideState(JoinSide.LEFT, "value", q=q)
        naive = NaiveQGramProber(q=q)
        _load(side, naive, stored)
        fast, reference = _probe_both(side, naive, probes, theta, verify_jaccard)
        assert fast == reference
        assert any(similarity == 1.0 for _, _, similarity in fast)
        assert side.counters.as_dict() == naive.counters.as_dict()

    def test_incremental_indexing_stays_equivalent(self):
        stored = _values(80, seed=5)
        probes = _values(30, seed=6)
        side = SideState(JoinSide.LEFT, "value")
        naive = NaiveQGramProber()
        for start in range(0, 80, 20):
            _load(side, naive, stored[start:start + 20])
            fast, reference = _probe_both(side, naive, probes, 0.8)
            assert fast == reference
        assert side.counters.as_dict() == naive.counters.as_dict()

    def test_probe_plans_survive_vocabulary_growth(self):
        # Probes repeat across rounds while the interner grows past 4096
        # grams: cached probe bitsets stay valid (ids are never reused) and
        # stale orderings are rebuilt, so every round matches the seed.
        alphabet = string.ascii_letters + string.digits
        stored = _values(600, seed=31, alphabet=alphabet, length=40)
        probes = stored[:25] + _values(25, seed=32, alphabet=alphabet, length=40)
        side = SideState(JoinSide.LEFT, "value", q=4)
        naive = NaiveQGramProber(q=4)
        vocabulary = []
        for start in range(0, 600, 150):
            _load(side, naive, stored[start:start + 150])
            fast, reference = _probe_both(side, naive, probes, 0.75)
            assert fast == reference
            vocabulary.append(len(side.interner))
        assert vocabulary[0] < 4096 < vocabulary[-1]
        assert side.counters.as_dict() == naive.counters.as_dict()


class TestBitsetProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        values_strategy,
        probes_strategy,
        st.sampled_from([0.5, 0.7, 0.85, 1.0]),
        st.integers(min_value=2, max_value=4),
        st.booleans(),
    )
    def test_matches_and_counters_equal_naive(
        self, values, probes, theta, q, verify_jaccard
    ):
        side = SideState(JoinSide.LEFT, "value", q=q)
        naive = NaiveQGramProber(q=q)
        _load(side, naive, values)
        fast, reference = _probe_both(side, naive, probes, theta, verify_jaccard)
        assert fast == reference
        assert side.counters.as_dict() == naive.counters.as_dict()

    @settings(max_examples=25, deadline=None)
    @given(values_strategy, probes_strategy, st.sampled_from([0.6, 0.85]), st.booleans())
    def test_length_filter_keeps_the_naive_matches(
        self, values, probes, theta, verify_jaccard
    ):
        side = SideState(JoinSide.LEFT, "value")
        naive = NaiveQGramProber()
        _load(side, naive, values)
        for probe in probes:
            got = [
                (stored.ordinal, similarity)
                for stored, similarity in side.probe_qgram(
                    probe, theta, verify_jaccard=verify_jaccard
                )
            ]
            assert got == naive.probe(probe, theta, verify_jaccard=verify_jaccard)
        assert side.counters.candidate_set_size <= naive.counters.candidate_set_size

    @settings(max_examples=20, deadline=None)
    @given(values_strategy, probes_strategy)
    def test_incremental_indexing_equals_naive(self, values, probes):
        side = SideState(JoinSide.LEFT, "value")
        naive = NaiveQGramProber()
        half = max(1, len(values) // 2)
        for chunk in (values[:half], values[half:]):
            _load(side, naive, chunk)
            fast, reference = _probe_both(side, naive, probes, 0.8)
            assert fast == reference
        assert side.counters.as_dict() == naive.counters.as_dict()


class TestCompatKeyword:
    @pytest.mark.parametrize("mode", RETIRED_MODES)
    def test_side_state_refuses_other_modes(self, mode):
        with pytest.raises(ValueError, match="gram_verification"):
            SideState(JoinSide.LEFT, "value", gram_verification=mode)

    @pytest.mark.parametrize("mode", RETIRED_MODES)
    def test_engine_refuses_other_modes(self, mode):
        with pytest.raises(ValueError, match="gram_verification"):
            SymmetricJoinEngine(
                ListStream(SCHEMA, []),
                ListStream(SCHEMA, []),
                JoinAttribute("value", "value"),
                gram_verification=mode,
            )

    def test_engine_bitset_keyword_is_the_default(self):
        left_values = _values(60, seed=21)
        right_values = _values(60, seed=22) + left_values[:15]

        def run(**kwargs):
            engine = SymmetricJoinEngine(
                ListStream(SCHEMA, _records(left_values)),
                ListStream(SCHEMA, _records(right_values)),
                JoinAttribute("value", "value"),
                similarity_threshold=0.75,
                q=4,
                left_mode=JoinMode.APPROXIMATE,
                right_mode=JoinMode.APPROXIMATE,
                **kwargs,
            )
            matches = [
                (event.pair_key(), event.similarity)
                for event in engine.run_to_completion()
            ]
            return matches, engine.counters().as_dict()

        named = run(gram_verification="bitset")
        assert named == run()
        assert len(named[0]) >= 15

    @pytest.mark.parametrize("operator", [SSHJoin, SHJoin])
    def test_operators_no_longer_take_the_keyword(self, operator):
        with pytest.raises(TypeError, match="gram_verification"):
            operator(
                ListStream(SCHEMA, []),
                ListStream(SCHEMA, []),
                "value",
                gram_verification="bitset",
            )

    def test_env_var_no_longer_selects_a_mode(self, monkeypatch, small_dataset):
        from repro.runtime.config import RunConfig
        from repro.runtime.session import JoinSession

        def run():
            session = JoinSession(
                small_dataset.parent,
                small_dataset.child,
                "location",
                RunConfig(policy="budget-greedy"),
            )
            result = session.run()
            return result.matched_pairs(), result.counters.as_dict()

        monkeypatch.delenv("REPRO_GRAM_VERIFICATION", raising=False)
        reference = run()
        monkeypatch.setenv("REPRO_GRAM_VERIFICATION", "array")
        assert RunConfig().gram_verification == "bitset"
        assert run() == reference
