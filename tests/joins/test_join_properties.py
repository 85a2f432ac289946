"""Property-based tests for the symmetric join operators.

These generate small random workloads (values with controlled typo
structure) and check the operator-level invariants the adaptive algorithm
relies on:

* SHJoin ≡ the exact nested-loop oracle;
* SSHJoin (strict-Jaccard mode) ≡ the nested-loop similarity oracle;
* the exact result is always a subset of the approximate result;
* pair uniqueness (no duplicates) under arbitrary mode-switch schedules.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.streams import TableStream
from repro.engine.table import Table
from repro.engine.tuples import Schema
from repro.joins.base import JoinAttribute, JoinMode
from repro.joins.baselines import hash_join_pairs
from repro.joins.engine import SymmetricJoinEngine
from repro.joins.shjoin import SHJoin
from repro.joins.sshjoin import SSHJoin
from repro.similarity.setsim import jaccard_qgram_similarity

SCHEMA = Schema(["row_id", "location"], name="rows")

# Location-like values: a handful of base strings plus random suffix words.
_BASE_VALUES = (
    "LIG GE GENOVA PEGLI",
    "LOM MI MILANO CENTRO",
    "LAZ RM ROMA CAPITALE",
    "TAA BZ SANTA CRISTINA",
    "VEN VE VENEZIA MESTRE",
)


@st.composite
def location_value(draw):
    base = draw(st.sampled_from(_BASE_VALUES))
    if draw(st.booleans()):
        return base
    # Introduce a single-character substitution at a random position.
    position = draw(st.integers(min_value=0, max_value=len(base) - 1))
    replacement = draw(st.sampled_from(string.ascii_lowercase))
    return base[:position] + replacement + base[position + 1 :]


@st.composite
def tables(draw, max_rows=14):
    left_values = draw(st.lists(location_value(), min_size=0, max_size=max_rows))
    right_values = draw(st.lists(location_value(), min_size=0, max_size=max_rows))
    left = Table.from_rows(SCHEMA, list(enumerate(left_values)))
    right = Table.from_rows(SCHEMA, list(enumerate(right_values)))
    return left, right


@settings(max_examples=40, deadline=None)
@given(tables())
def test_shjoin_equals_hash_join_oracle(pair):
    left, right = pair
    operator = SHJoin(left, right, "location")
    operator.run()
    assert set(operator.engine._emitted_pairs) == set(
        hash_join_pairs(left, right, "location")
    )


@settings(max_examples=30, deadline=None)
@given(tables(), st.sampled_from([0.6, 0.75, 0.9]))
def test_sshjoin_strict_mode_equals_similarity_oracle(pair, threshold):
    left, right = pair
    operator = SSHJoin(
        left, right, "location", similarity_threshold=threshold, verify_jaccard=True
    )
    operator.run()
    expected = {
        (i, j)
        for i, left_record in enumerate(left)
        for j, right_record in enumerate(right)
        if jaccard_qgram_similarity(
            left_record["location"], right_record["location"]
        )
        >= threshold
    }
    assert set(operator.engine._emitted_pairs) == expected


@settings(max_examples=30, deadline=None)
@given(tables())
def test_exact_result_is_subset_of_approximate_result(pair):
    left, right = pair
    exact = SHJoin(left, right, "location")
    exact.run()
    approximate = SSHJoin(left, right, "location", similarity_threshold=0.85)
    approximate.run()
    assert set(exact.engine._emitted_pairs).issubset(
        set(approximate.engine._emitted_pairs)
    )


@settings(max_examples=25, deadline=None)
@given(tables(), st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
def test_random_switch_schedules_never_duplicate_pairs(pair, period, rng):
    left, right = pair
    engine = SymmetricJoinEngine(
        TableStream(left),
        TableStream(right),
        JoinAttribute("location", "location"),
        similarity_threshold=0.85,
    )
    emitted = []
    step = 0
    while (batch := engine.run_batch(1)) is not None:
        emitted.extend(event.pair_key() for event in batch.match_events)
        step += 1
        if step % period == 0:
            engine.set_modes(
                rng.choice([JoinMode.EXACT, JoinMode.APPROXIMATE]),
                rng.choice([JoinMode.EXACT, JoinMode.APPROXIMATE]),
            )
    assert len(emitted) == len(set(emitted))
    # And whatever the schedule, every exact pair is present.
    assert set(hash_join_pairs(left, right, "location")).issubset(set(emitted))
