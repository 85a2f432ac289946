"""Tests for the switchable symmetric-join engine (mode switches, catch-up)."""

import pytest

from repro.engine.streams import TableStream
from repro.engine.table import Table
from repro.engine.tuples import Schema
from repro.joins.base import JoinAttribute, JoinMode, JoinSide
from repro.joins.engine import SymmetricJoinEngine
from repro.joins.shjoin import SHJoin


def make_engine(left_table, right_table, **kwargs):
    return SymmetricJoinEngine(
        TableStream(left_table),
        TableStream(right_table),
        JoinAttribute("location", "location"),
        similarity_threshold=kwargs.pop("similarity_threshold", 0.85),
        **kwargs,
    )


def single_steps(engine):
    """Advance ``engine`` one step at a time: its batches of one, in order."""
    while (batch := engine.run_batch(1)) is not None:
        yield batch


def scanned_side(batch):
    """The input a batch of one scanned."""
    return JoinSide.LEFT if batch.left_steps else JoinSide.RIGHT


class TestStepping:
    def test_steps_alternate_sides(self, atlas_table, accidents_table):
        engine = make_engine(atlas_table, accidents_table)
        sides = [scanned_side(engine.run_batch(1)) for _ in range(4)]
        assert sides == [JoinSide.LEFT, JoinSide.RIGHT, JoinSide.LEFT, JoinSide.RIGHT]

    def test_drains_longer_input_after_shorter_is_exhausted(
        self, atlas_table, accidents_table
    ):
        engine = make_engine(atlas_table, accidents_table)
        batches = list(single_steps(engine))
        assert len(batches) == len(atlas_table) + len(accidents_table)
        tail = batches[-(len(accidents_table) - len(atlas_table)) :]
        assert {scanned_side(batch) for batch in tail} == {JoinSide.RIGHT}

    def test_step_returns_none_when_exhausted(self, atlas_table, accidents_table):
        engine = make_engine(atlas_table, accidents_table)
        list(single_steps(engine))
        assert engine.run_batch(1) is None
        assert engine.exhausted

    def test_step_count_equals_total_tuples(self, atlas_table, accidents_table):
        engine = make_engine(atlas_table, accidents_table)
        engine.run_to_completion()
        assert engine.step_count == len(atlas_table) + len(accidents_table)

    def test_matches_emitted_tracks_events(self, atlas_table, accidents_table):
        engine = make_engine(atlas_table, accidents_table)
        events = engine.run_to_completion()
        assert engine.matches_emitted == len(events)

    def test_run_batch_batches_without_changing_semantics(
        self, atlas_table, accidents_table
    ):
        batched = make_engine(atlas_table, accidents_table)
        stepped = make_engine(atlas_table, accidents_table)
        first = batched.run_batch(3)
        assert (first.first_step, first.count) == (1, 3)
        rest = batched.run_batch(10_000)
        assert rest.first_step == 4
        assert batched.exhausted
        assert batched.run_batch(5) is None
        steps = list(single_steps(stepped))
        assert first.count + rest.count == len(steps)
        assert first.left_steps + rest.left_steps == sum(b.left_steps for b in steps)
        assert [e.pair_key() for e in first.match_events + rest.match_events] == [
            e.pair_key() for batch in steps for e in batch.match_events
        ]
        assert batched.counters().as_dict() == stepped.counters().as_dict()

    @pytest.mark.parametrize("limit", [0, -1])
    def test_run_batch_rejects_non_positive_limit(
        self, atlas_table, accidents_table, limit
    ):
        engine = make_engine(atlas_table, accidents_table)
        with pytest.raises(ValueError):
            engine.run_batch(limit)

    def test_scan_batch_one_matches_default_read_ahead(
        self, atlas_table, accidents_table
    ):
        unbuffered = make_engine(atlas_table, accidents_table, scan_batch=1)
        buffered = make_engine(atlas_table, accidents_table)
        assert [e.pair_key() for e in unbuffered.run_to_completion()] == [
            e.pair_key() for e in buffered.run_to_completion()
        ]

    def test_invalid_scan_batch_rejected(self, atlas_table, accidents_table):
        with pytest.raises(ValueError):
            make_engine(atlas_table, accidents_table, scan_batch=0)

    def test_lazy_streams_are_never_read_ahead(self, atlas_table, accidents_table):
        """A live source must not be asked for records beyond the next step."""
        from repro.engine.streams import IteratorStream

        pulled = {"left": 0, "right": 0}

        def counting(records, key):
            for record in records:
                pulled[key] += 1
                yield record

        engine = SymmetricJoinEngine(
            IteratorStream(atlas_table.schema, counting(atlas_table.records, "left")),
            IteratorStream(
                accidents_table.schema, counting(accidents_table.records, "right")
            ),
            JoinAttribute("location", "location"),
        )
        engine.run_batch(1)
        assert pulled == {"left": 1, "right": 0}
        engine.run_batch(1)
        assert pulled == {"left": 1, "right": 1}

    def test_length_filter_ablation_same_result(self, atlas_table, accidents_table):
        with_filter = make_engine(
            atlas_table,
            accidents_table,
            left_mode=JoinMode.APPROXIMATE,
            right_mode=JoinMode.APPROXIMATE,
            use_length_filter=True,
        )
        without_filter = make_engine(
            atlas_table,
            accidents_table,
            left_mode=JoinMode.APPROXIMATE,
            right_mode=JoinMode.APPROXIMATE,
            use_length_filter=False,
        )
        assert sorted(e.pair_key() for e in with_filter.run_to_completion()) == sorted(
            e.pair_key() for e in without_filter.run_to_completion()
        )


class TestModeSwitching:
    def test_switch_reports_catch_up_size(self, atlas_table, accidents_table):
        engine = make_engine(atlas_table, accidents_table)
        engine.run_batch(8)
        # Switching the left side to approximate requires the RIGHT side's
        # q-gram index to be built over everything scanned from the right.
        switch = engine.set_mode(JoinSide.LEFT, JoinMode.APPROXIMATE)
        assert switch is not None
        assert switch.catch_up_tuples == engine.scanned(JoinSide.RIGHT)

    def test_switch_to_same_mode_is_noop(self, atlas_table, accidents_table):
        engine = make_engine(atlas_table, accidents_table)
        assert engine.set_mode(JoinSide.LEFT, JoinMode.EXACT) is None
        assert engine.switches == []

    def test_set_modes_reports_only_actual_changes(self, atlas_table, accidents_table):
        engine = make_engine(atlas_table, accidents_table)
        switches = engine.set_modes(JoinMode.APPROXIMATE, JoinMode.EXACT)
        assert len(switches) == 1
        assert switches[0].side is JoinSide.LEFT

    def test_second_switch_catches_up_only_new_tuples(
        self, atlas_table, accidents_table
    ):
        engine = make_engine(atlas_table, accidents_table)
        engine.run_batch(6)
        engine.set_mode(JoinSide.LEFT, JoinMode.APPROXIMATE)
        engine.set_mode(JoinSide.LEFT, JoinMode.EXACT)
        engine.run_batch(4)
        second_switch = engine.set_mode(JoinSide.LEFT, JoinMode.APPROXIMATE)
        # Only the right-side tuples scanned since the first switch need to
        # be added to the q-gram index (Sec. 2.3: switch cost depends on the
        # tuples seen since the last switch, not on the whole history).
        assert second_switch.catch_up_tuples <= 2

    def test_no_matches_lost_across_switches(self, small_dataset):
        """Switching operators at quiescent points never loses exact matches."""
        parent, child = small_dataset.parent, small_dataset.child
        exact = SHJoin(parent, child, "location")
        exact.run()
        exact_pairs = set(exact.engine._emitted_pairs)

        engine = make_engine(parent, child)
        events = []
        step = 0
        for batch in single_steps(engine):
            events.extend(batch.match_events)
            step += 1
            if step % 50 == 0:
                # Alternate all four configurations over the run.
                cycle = (step // 50) % 4
                modes = [
                    (JoinMode.EXACT, JoinMode.EXACT),
                    (JoinMode.APPROXIMATE, JoinMode.EXACT),
                    (JoinMode.EXACT, JoinMode.APPROXIMATE),
                    (JoinMode.APPROXIMATE, JoinMode.APPROXIMATE),
                ][cycle]
                engine.set_modes(*modes)
        switched_pairs = {event.pair_key() for event in events}
        # Every exact match is found no matter how often we switch (the
        # approximate operator subsumes the exact one), so switching can only
        # add matches, never lose them.
        assert exact_pairs.issubset(switched_pairs)

    def test_all_approximate_switching_never_duplicates_pairs(self, small_dataset):
        engine = make_engine(small_dataset.parent, small_dataset.child)
        events = []
        step = 0
        for batch in single_steps(engine):
            events.extend(batch.match_events)
            step += 1
            if step % 30 == 0:
                target = (
                    JoinMode.APPROXIMATE if (step // 30) % 2 == 0 else JoinMode.EXACT
                )
                engine.set_modes(target, target)
        keys = [event.pair_key() for event in events]
        assert len(keys) == len(set(keys))


class TestHybridConfigurations:
    def test_hybrid_configuration_uses_different_operators_per_side(
        self, atlas_table, accidents_table
    ):
        engine = make_engine(
            atlas_table,
            accidents_table,
            left_mode=JoinMode.EXACT,
            right_mode=JoinMode.APPROXIMATE,
        )
        events = engine.run_to_completion()
        right_probe_modes = {
            e.mode for e in events if e.probe_side is JoinSide.RIGHT
        }
        left_probe_modes = {e.mode for e in events if e.probe_side is JoinSide.LEFT}
        assert right_probe_modes <= {JoinMode.APPROXIMATE}
        assert left_probe_modes <= {JoinMode.EXACT}

    def test_lex_rap_recovers_child_variants_probed_from_child(self):
        schema = Schema(["row_id", "location"])
        parent = Table.from_rows(schema, [(1, "TAA BZ SANTA CRISTINA VALGARDENA")])
        child = Table.from_rows(schema, [(2, "TAA BZ SANTA CRISTINx VALGARDENA")])
        # Parent arrives first (left), the variant child probes approximately.
        engine = make_engine(
            parent, child, left_mode=JoinMode.EXACT, right_mode=JoinMode.APPROXIMATE
        )
        events = engine.run_to_completion()
        assert len(events) == 1
        assert events[0].probe_side is JoinSide.RIGHT
        assert not events[0].exact_value_match

    def test_counters_merge_both_sides(self, atlas_table, accidents_table):
        engine = make_engine(atlas_table, accidents_table)
        engine.run_to_completion()
        merged = engine.counters()
        left = engine.sides[JoinSide.LEFT].counters
        right = engine.sides[JoinSide.RIGHT].counters
        assert merged.exact_probes == left.exact_probes + right.exact_probes


class TestEvidenceAttribution:
    def test_variant_evidence_points_to_probing_side(self):
        schema = Schema(["row_id", "location"])
        parent = Table.from_rows(schema, [(1, "LAZ RM ROMA CAPITALE")])
        child = Table.from_rows(
            schema,
            [(10, "LAZ RM ROMA CAPITALE"), (11, "LAZ RM ROMA CAPITALx")],
        )
        engine = make_engine(
            parent,
            child,
            left_mode=JoinMode.APPROXIMATE,
            right_mode=JoinMode.APPROXIMATE,
        )
        events = engine.run_to_completion()
        variant_events = [e for e in events if not e.exact_value_match]
        assert len(variant_events) == 1
        # The clean child matched the parent exactly first, so when the
        # variant child probes, the parent carries the flag and the evidence
        # points at the child (right) input.
        assert variant_events[0].variant_evidence is JoinSide.RIGHT

    def test_no_evidence_when_partner_never_matched_exactly(self):
        schema = Schema(["row_id", "location"])
        parent = Table.from_rows(schema, [(1, "LAZ RM ROMA CAPITALE")])
        child = Table.from_rows(schema, [(11, "LAZ RM ROMA CAPITALx")])
        engine = make_engine(
            parent,
            child,
            left_mode=JoinMode.APPROXIMATE,
            right_mode=JoinMode.APPROXIMATE,
        )
        events = engine.run_to_completion()
        assert len(events) == 1
        assert events[0].variant_evidence is None

    def test_symmetric_evidence_when_probe_has_flag(self):
        schema = Schema(["row_id", "location"])
        # Both children arrive BEFORE their parent; when the parent finally
        # probes, it matches its clean child exactly and the variant child
        # approximately in the same step, so the evidence points at the
        # stored (right) side.
        parent = Table.from_rows(
            schema,
            [
                (0, "ZZZ XX PLACEHOLDER ROW"),
                (1, "ZZZ XX PLACEHOLDER TWO"),
                (2, "LAZ RM ROMA CAPITALE"),
            ],
        )
        child = Table.from_rows(
            schema,
            [(11, "LAZ RM ROMA CAPITALx"), (10, "LAZ RM ROMA CAPITALE")],
        )
        engine = make_engine(
            parent,
            child,
            left_mode=JoinMode.APPROXIMATE,
            right_mode=JoinMode.APPROXIMATE,
        )
        events = engine.run_to_completion()
        variant_events = [e for e in events if not e.exact_value_match]
        assert len(variant_events) == 1
        assert variant_events[0].variant_evidence is JoinSide.RIGHT


class TestEagerIndexing:
    def test_eager_indexing_produces_same_result(self, atlas_table, accidents_table):
        lazy = make_engine(atlas_table, accidents_table)
        lazy_events = lazy.run_to_completion()
        eager = make_engine(atlas_table, accidents_table, eager_indexing=True)
        eager_events = eager.run_to_completion()
        assert {e.pair_key() for e in lazy_events} == {
            e.pair_key() for e in eager_events
        }

    def test_eager_indexing_makes_switches_free(self, atlas_table, accidents_table):
        engine = make_engine(atlas_table, accidents_table, eager_indexing=True)
        engine.run_batch(10)
        switch = engine.set_mode(JoinSide.LEFT, JoinMode.APPROXIMATE)
        assert switch.catch_up_tuples == 0
