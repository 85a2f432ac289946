"""Tests for the per-side state of the symmetric joins (SideState)."""

import random

import pytest

from repro.engine.tuples import Record, Schema
from repro.joins.base import JoinMode, JoinSide, SideState

SCHEMA = Schema(["row_id", "location"], name="rows")


def make_side(attribute="location", q=3):
    return SideState(JoinSide.LEFT, attribute, q=q)


def record(row_id, location):
    return Record(SCHEMA, {"row_id": row_id, "location": location})


class TestTupleStore:
    def test_add_assigns_ordinals_in_arrival_order(self):
        side = make_side()
        first = side.add(record(1, "GENOVA"))
        second = side.add(record(2, "MILANO"))
        assert (first.ordinal, second.ordinal) == (0, 1)
        assert side.size == 2

    def test_add_does_not_index(self):
        side = make_side()
        side.add(record(1, "GENOVA"))
        assert side.exact_lag == 1
        assert side.qgram_lag == 1

    def test_none_value_stored_as_empty_string(self):
        schema = Schema(["location"])
        side = make_side()
        stored = side.add(Record(schema, {"location": None}))
        assert stored.value == ""

    def test_matched_flag_defaults_false(self):
        side = make_side()
        assert side.add(record(1, "GENOVA")).matched_exactly is False

    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            SideState(JoinSide.LEFT, "location", q=0)


class TestIndexMaintenance:
    def test_catch_up_exact_counts_tuples(self):
        side = make_side()
        for i in range(5):
            side.add(record(i, f"VALUE {i}"))
        assert side.catch_up_exact() == 5
        assert side.exact_lag == 0
        # A second catch-up has nothing to do.
        assert side.catch_up_exact() == 0

    def test_catch_up_qgram_counts_tuples(self):
        side = make_side()
        for i in range(4):
            side.add(record(i, f"VALUE {i}"))
        assert side.catch_up_qgram() == 4
        assert side.qgram_lag == 0

    def test_index_for_mode_selects_right_index(self):
        side = make_side()
        side.add(record(1, "GENOVA"))
        assert side.index_for_mode(JoinMode.EXACT) == 1
        assert side.exact_lag == 0
        assert side.qgram_lag == 1
        side.add(record(2, "MILANO"))
        assert side.index_for_mode(JoinMode.APPROXIMATE) == 2
        assert side.qgram_lag == 0

    def test_lazy_maintenance_tracks_lag_per_index(self):
        side = make_side()
        side.add(record(1, "GENOVA"))
        side.catch_up_exact()
        side.add(record(2, "MILANO"))
        side.add(record(3, "ROMA"))
        assert side.exact_lag == 2
        assert side.qgram_lag == 3

    def test_bucket_statistics(self):
        side = make_side()
        for i, value in enumerate(["GENOVA", "GENOVA", "MILANO"]):
            side.add(record(i, value))
        side.catch_up_exact()
        side.catch_up_qgram()
        # Two distinct values over three tuples.
        assert side.average_exact_bucket_length() == pytest.approx(1.5)
        # "GENOVA"'s grams sit in the two GENOVA tuples' buckets, and
        # MILANO shares none of them.
        _, lengths, _ = side._probe_plan("GENOVA")
        assert list(lengths) == [2] * len(lengths)
        assert side.average_qgram_bucket_length() >= 1.0

    def test_gram_frequency(self):
        side = make_side()
        side.add(record(1, "AAA"))
        side.add(record(2, "AAA"))
        side.catch_up_qgram()
        # Every gram of "AAA" is in both tuples; "ZZZ" shares none.
        _, lengths, _ = side._probe_plan("AAA")
        assert len(lengths) > 0 and set(lengths) == {2}
        assert side.average_qgram_bucket_length() == pytest.approx(2.0)
        _, lengths, _ = side._probe_plan("ZZZ")
        assert len(lengths) > 0 and set(lengths) == {0}


class TestExactProbe:
    def test_probe_returns_equal_values_only(self):
        side = make_side()
        side.add(record(1, "GENOVA"))
        side.add(record(2, "MILANO"))
        side.catch_up_exact()
        matches = side.probe_exact("GENOVA")
        assert [m.record["row_id"] for m in matches] == [1]
        assert side.probe_exact("TORINO") == []

    def test_probe_returns_all_duplicates(self):
        side = make_side()
        for i in range(3):
            side.add(record(i, "GENOVA"))
        side.catch_up_exact()
        assert len(side.probe_exact("GENOVA")) == 3

    def test_probe_counters(self):
        side = make_side()
        side.add(record(1, "GENOVA"))
        side.catch_up_exact()
        side.probe_exact("GENOVA")
        side.probe_exact("MILANO")
        assert side.counters.exact_probes == 2
        assert side.counters.exact_probe_work == 1
        assert side.counters.exact_hash_updates == 1


class TestQgramProbe:
    def test_finds_one_character_variant(self):
        side = make_side()
        side.add(record(1, "TAA BZ SANTA CRISTINA VALGARDENA"))
        side.catch_up_qgram()
        matches = side.probe_qgram("TAA BZ SANTA CRISTINx VALGARDENA", 0.85)
        assert len(matches) == 1
        stored, similarity = matches[0]
        assert stored.record["row_id"] == 1
        assert 0.0 < similarity < 1.0

    def test_exact_value_reports_similarity_one(self):
        side = make_side()
        side.add(record(1, "LIG GE GENOVA"))
        side.catch_up_qgram()
        matches = side.probe_qgram("LIG GE GENOVA", 0.85)
        assert len(matches) == 1
        assert matches[0][1] == pytest.approx(1.0)

    def test_unrelated_value_not_matched(self):
        side = make_side()
        side.add(record(1, "LIG GE GENOVA"))
        side.catch_up_qgram()
        assert side.probe_qgram("SIC PA PALERMO", 0.85) == []

    def test_empty_probe_value(self):
        side = make_side()
        side.add(record(1, "GENOVA"))
        side.catch_up_qgram()
        assert side.probe_qgram("", 0.85) == []

    def test_verify_jaccard_is_stricter(self):
        side = make_side()
        side.add(record(1, "TAA BZ SANTA CRISTINA VALGARDENA"))
        side.catch_up_qgram()
        probe = "TAA BZ SANTA CRISTINx VALGARDENA"
        # The counter criterion accepts the one-character variant at 0.85…
        assert side.probe_qgram(probe, 0.85, verify_jaccard=False)
        # …while the strict Jaccard test rejects it (similarity ≈ 0.84).
        assert not side.probe_qgram(probe, 0.85, verify_jaccard=True)

    def test_prefix_filter_produces_same_matches(self):
        side = make_side()
        values = [
            "TAA BZ SANTA CRISTINA VALGARDENA",
            "LIG GE GENOVA PEGLI",
            "LOM MI MILANO CENTRO",
            "LAZ RM ROMA CAPITALE",
        ]
        for i, value in enumerate(values):
            side.add(record(i, value))
        side.catch_up_qgram()
        probe = "TAA BZ SANTA CRISTINx VALGARDENA"
        with_filter = {
            m[0].ordinal for m in side.probe_qgram(probe, 0.85, use_prefix_filter=True)
        }
        without_filter = {
            m[0].ordinal for m in side.probe_qgram(probe, 0.85, use_prefix_filter=False)
        }
        assert with_filter == without_filter == {0}

    def test_probe_counters_accumulate(self):
        side = make_side()
        side.add(record(1, "LIG GE GENOVA"))
        side.catch_up_qgram()
        side.probe_qgram("LIG GE GENOVA", 0.85)
        counters = side.counters
        assert counters.approx_probes == 1
        assert counters.qgrams_obtained > 0
        assert counters.candidate_set_size >= 1
        assert counters.approx_hash_updates > 0

    def test_lower_threshold_matches_more(self):
        side = make_side()
        side.add(record(1, "LOM MI MILANO"))
        side.add(record(2, "LOM MI MILANO CENTRO"))
        side.catch_up_qgram()
        strict = side.probe_qgram("LOM MI MILANO", 0.95)
        loose = side.probe_qgram("LOM MI MILANO", 0.55)
        assert len(loose) >= len(strict)
        assert len(strict) >= 1

    def test_probing_leaves_the_side_unchanged(self):
        # A probe reads the index and the interner; it keeps nothing per
        # probe value.  Over a two-letter alphabet every gram the probes
        # have is interned by the stored values, so the shared interner
        # does not grow either.
        rng = random.Random(46)

        def ab_value(shortest):
            length = rng.randint(shortest, 12)
            return "".join(rng.choice("AB") for _ in range(length))

        side = make_side()
        for i in range(300):
            side.add(record(i, ab_value(6)))
        side.catch_up_qgram()
        probes = set()
        while len(probes) < 200:
            probes.add(ab_value(8))
        probes = sorted(probes)
        # Probe counters and the length filter's self-profiling are the
        # only state a probe may advance.
        moving = {
            "counters",
            "_length_filter_disabled",
            "_filter_probes",
            "_filter_scanned",
            "_filter_rejected",
        }

        def shape():
            return {
                name: len(value) if hasattr(value, "__len__") else value
                for name, value in vars(side).items()
                if name not in moving
            }

        before = shape()
        first = [side.probe_qgram(value, 0.6) for value in probes]
        assert shape() == before
        second = [side.probe_qgram(value, 0.6) for value in probes]
        assert shape() == before
        assert second == first
        assert any(first)
