"""Tests for record streams."""

import pytest

from repro.engine.streams import (
    GeneratorStream,
    IteratorStream,
    ListStream,
    TableStream,
    interleave,
)
from repro.engine.table import Table
from repro.engine.tuples import Record, Schema


@pytest.fixture
def schema():
    return Schema(["value"])


def _records(schema, values):
    return [Record(schema, {"value": v}) for v in values]


class TestBulkPull:
    def test_next_records_returns_up_to_limit(self, schema):
        stream = ListStream(schema, _records(schema, [1, 2, 3]))
        batch = stream.next_records(2)
        assert [r["value"] for r in batch] == [1, 2]
        assert stream.delivered == 2
        assert not stream.exhausted

    def test_short_batch_latches_exhaustion(self, schema):
        stream = ListStream(schema, _records(schema, [1, 2, 3]))
        batch = stream.next_records(10)
        assert [r["value"] for r in batch] == [1, 2, 3]
        assert stream.exhausted
        assert stream.next_records(5) == []

    def test_bulk_and_single_pulls_interleave(self, schema):
        stream = ListStream(schema, _records(schema, [1, 2, 3, 4]))
        assert stream.next_record()["value"] == 1
        assert [r["value"] for r in stream.next_records(2)] == [2, 3]
        assert stream.next_record()["value"] == 4

    def test_generic_fallback_on_iterator_stream(self, schema):
        stream = IteratorStream(schema, iter(_records(schema, [1, 2])))
        assert [r["value"] for r in stream.next_records(5)] == [1, 2]
        assert stream.exhausted

    def test_negative_limit_rejected(self, schema):
        stream = ListStream(schema, _records(schema, [1]))
        with pytest.raises(ValueError):
            stream.next_records(-1)
        with pytest.raises(ValueError):
            IteratorStream(schema, iter(())).next_records(-1)

    def test_zero_limit_is_a_no_op(self, schema):
        stream = ListStream(schema, _records(schema, [1]))
        assert stream.next_records(0) == []
        assert not stream.exhausted


class TestListStream:
    def test_delivers_in_order(self, schema):
        stream = ListStream(schema, _records(schema, [1, 2, 3]))
        assert [r["value"] for r in stream] == [1, 2, 3]

    def test_exhaustion_latches(self, schema):
        stream = ListStream(schema, _records(schema, [1]))
        assert stream.next_record() is not None
        assert stream.next_record() is None
        assert stream.exhausted
        assert stream.next_record() is None

    def test_delivered_and_remaining(self, schema):
        stream = ListStream(schema, _records(schema, [1, 2, 3]))
        stream.next_record()
        assert stream.delivered == 1
        assert stream.remaining == 2
        assert len(stream) == 3

    def test_empty_stream(self, schema):
        stream = ListStream(schema, [])
        assert stream.next_record() is None
        assert stream.exhausted


class TestTableStream:
    def test_wraps_table(self, schema):
        table = Table(schema, _records(schema, [5, 6]))
        stream = TableStream(table)
        assert [r["value"] for r in stream] == [5, 6]
        assert stream.schema == schema


class TestIteratorAndGeneratorStreams:
    def test_iterator_stream(self, schema):
        stream = IteratorStream(schema, iter(_records(schema, [1, 2])))
        assert stream.next_record()["value"] == 1
        assert stream.next_record()["value"] == 2
        assert stream.next_record() is None

    def test_generator_stream_is_lazy(self, schema):
        calls = []

        def factory():
            calls.append(True)
            return _records(schema, [9])

        stream = GeneratorStream(schema, factory)
        assert calls == []
        assert stream.next_record()["value"] == 9
        assert calls == [True]


class TestInterleave:
    def test_alternates_sides(self, schema):
        left = _records(schema, [1, 2])
        right = _records(schema, [10, 20])
        schedule = interleave(left, right)
        sides = [side for side, _ in schedule]
        assert sides == ["left", "right", "left", "right"]

    def test_drains_longer_side(self, schema):
        left = _records(schema, [1, 2, 3])
        right = _records(schema, [10])
        schedule = interleave(left, right)
        assert [side for side, _ in schedule] == ["left", "right", "left", "left"]
        assert len(schedule) == 4

    def test_empty_inputs(self, schema):
        assert interleave([], []) == []
