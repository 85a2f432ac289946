"""The ``MatchEvent`` contract: fields, immutability, identity and pickling."""

import inspect
import pickle

import pytest

from repro.engine.tuples import Record, Schema
from repro.joins.base import JoinMode, JoinSide, MatchEvent, StoredTuple

SCHEMA = Schema(["row_id", "location"], name="rows")

FIELDS = (
    "step",
    "probe_side",
    "mode",
    "left",
    "right",
    "similarity",
    "exact_value_match",
    "variant_evidence",
)


def stored(ordinal, value):
    record = Record(SCHEMA, {"row_id": ordinal, "location": value})
    return StoredTuple(record=record, value=value, ordinal=ordinal)


def make_event(**overrides):
    fields = dict(
        step=7,
        probe_side=JoinSide.RIGHT,
        mode=JoinMode.APPROXIMATE,
        left=stored(2, "LIG GE GENOVA"),
        right=stored(5, "LIG GE GENOVAA"),
        similarity=0.9,
        exact_value_match=False,
        variant_evidence=JoinSide.RIGHT,
    )
    fields.update(overrides)
    return MatchEvent(**fields)


class TestFields:
    def test_field_names_order_and_defaults(self):
        parameters = inspect.signature(MatchEvent).parameters
        assert tuple(parameters) == FIELDS
        defaults = {
            name: parameter.default
            for name, parameter in parameters.items()
            if parameter.default is not inspect.Parameter.empty
        }
        assert defaults == {"variant_evidence": None}

    def test_positional_construction_matches_keywords(self):
        event = make_event()
        assert MatchEvent(*(getattr(event, name) for name in FIELDS)) == event


class TestImmutability:
    @pytest.mark.parametrize("name", FIELDS)
    def test_assigning_a_field_raises(self, name):
        event = make_event()
        before = getattr(event, name)
        with pytest.raises(AttributeError):
            setattr(event, name, None)
        assert getattr(event, name) is before

    def test_no_new_attributes(self):
        event = make_event()
        with pytest.raises(AttributeError):
            event.extra = 1


class TestIdentity:
    def test_pair_key_is_left_then_right_ordinal(self):
        assert make_event().pair_key() == (2, 5)

    def test_output_record_joins_left_then_right(self):
        output_schema = SCHEMA.concat(SCHEMA, name="join")
        record = make_event().output_record(output_schema)
        assert record.values == (2, "LIG GE GENOVA", 5, "LIG GE GENOVAA")

    def test_equality_is_field_wise(self):
        event = make_event()
        assert event == make_event(left=event.left, right=event.right)
        assert event != make_event(
            left=event.left, right=event.right, similarity=0.95
        )

    def test_pickle_round_trip(self):
        event = make_event()
        clone = pickle.loads(pickle.dumps(event, pickle.HIGHEST_PROTOCOL))
        assert type(clone) is MatchEvent
        assert clone == event
        assert clone.pair_key() == event.pair_key()
        assert clone.probe_side is JoinSide.RIGHT
        assert clone.mode is JoinMode.APPROXIMATE
