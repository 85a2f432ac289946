"""Tests for the runtime event bus."""

import pytest

from repro.core.events import AssessmentEvent, TransitionEvent
from repro.runtime.events import EventBus


class Ping:
    pass


class Pong:
    pass


class TestEventBus:
    def test_publish_without_subscribers_is_a_noop(self):
        EventBus().publish(Ping())

    def test_dispatch_by_concrete_type(self):
        bus = EventBus()
        pings, pongs = [], []
        bus.subscribe(Ping, pings.append)
        bus.subscribe(Pong, pongs.append)
        ping, pong = Ping(), Pong()
        bus.publish(ping)
        bus.publish(pong)
        assert pings == [ping]
        assert pongs == [pong]

    def test_handlers_run_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(Ping, lambda _: order.append("first"))
        bus.subscribe(Ping, lambda _: order.append("second"))
        bus.subscribe(Ping, lambda _: order.append("third"))
        bus.publish(Ping())
        assert order == ["first", "second", "third"]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        handler = bus.subscribe(Ping, seen.append)
        bus.publish(Ping())
        bus.unsubscribe(Ping, handler)
        bus.publish(Ping())
        assert len(seen) == 1
        assert not bus.has_subscribers(Ping)

    def test_unsubscribe_unknown_handler_is_a_noop(self):
        bus = EventBus()
        bus.unsubscribe(Ping, lambda _: None)
        bus.subscribe(Ping, lambda _: None)
        bus.unsubscribe(Ping, lambda _: None)
        assert bus.has_subscribers(Ping)

    def test_has_subscribers_and_count(self):
        bus = EventBus()
        assert not bus.has_subscribers(Ping)
        assert bus.subscriber_count(Ping) == 0
        bus.subscribe(Ping, lambda _: None)
        bus.subscribe(Ping, lambda _: None)
        assert bus.has_subscribers(Ping)
        assert bus.subscriber_count(Ping) == 2

    def test_non_callable_handler_rejected(self):
        with pytest.raises(TypeError):
            EventBus().subscribe(Ping, "not callable")

    def test_no_superclass_dispatch(self):
        class Special(Ping):
            pass

        bus = EventBus()
        seen = []
        bus.subscribe(Ping, seen.append)
        bus.publish(Special())
        assert seen == []


class TestEventTypes:
    def test_transition_event_catch_up_total(self):
        from repro.core.state_machine import JoinState
        from repro.joins.base import JoinMode, JoinSide
        from repro.joins.engine import SwitchRecord

        switches = (
            SwitchRecord(10, JoinSide.LEFT, JoinMode.EXACT, JoinMode.APPROXIMATE, 4),
            SwitchRecord(10, JoinSide.RIGHT, JoinMode.EXACT, JoinMode.APPROXIMATE, 6),
        )
        event = TransitionEvent(
            step=10,
            from_state=JoinState.LEX_REX,
            to_state=JoinState.LAP_RAP,
            switches=switches,
        )
        assert event.catch_up_tuples == 10

    def test_events_are_immutable(self):
        from repro.core.state_machine import JoinState

        event = TransitionEvent(1, JoinState.LEX_REX, JoinState.LAP_RAP, ())
        with pytest.raises(AttributeError):
            event.step = 2
        assessment_event = AssessmentEvent(None, None, JoinState.LEX_REX, JoinState.LEX_REX)
        with pytest.raises(AttributeError):
            assessment_event.state_before = JoinState.LAP_RAP
