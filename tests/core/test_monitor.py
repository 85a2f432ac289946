"""Tests for the MAR monitor."""

import random
from typing import NamedTuple

import pytest

from repro.core.monitor import Monitor
from repro.engine.tuples import Record, Schema
from repro.joins.base import JoinMode, JoinSide, MatchEvent, StoredTuple
from repro.joins.engine import StepBatch

SCHEMA = Schema(["row_id", "location"])


def stored(ordinal, value):
    record = Record(SCHEMA, {"row_id": ordinal, "location": value})
    return StoredTuple(record=record, value=value, ordinal=ordinal)


def match_event(step, probe_side, similarity, exact, evidence=None):
    left = stored(step, "LEFT VALUE")
    right = stored(step, "RIGHT VALUE" if not exact else "LEFT VALUE")
    return MatchEvent(
        step=step,
        probe_side=probe_side,
        mode=JoinMode.APPROXIMATE,
        left=left,
        right=right,
        similarity=similarity,
        exact_value_match=exact,
        variant_evidence=evidence,
    )


class Step(NamedTuple):
    """One engine step's fields, as :meth:`Monitor.observe_step` takes them."""

    step: int
    side: JoinSide
    mode: JoinMode
    matches: list


class TestCounting:
    def test_counts_scanned_tuples_per_side(self):
        monitor = Monitor(window_size=10)
        monitor.observe_step(1, JoinSide.LEFT, JoinMode.EXACT, [])
        monitor.observe_step(2, JoinSide.RIGHT, JoinMode.EXACT, [])
        monitor.observe_step(3, JoinSide.LEFT, JoinMode.EXACT, [])
        assert monitor.scanned(JoinSide.LEFT) == 2
        assert monitor.scanned(JoinSide.RIGHT) == 1
        assert monitor.step == 3

    def test_counts_observed_matches(self):
        monitor = Monitor(window_size=10)
        matches = [match_event(1, JoinSide.RIGHT, 1.0, exact=True)]
        monitor.observe_step(1, JoinSide.RIGHT, JoinMode.EXACT, matches)
        monitor.observe_step(2, JoinSide.LEFT, JoinMode.EXACT, [])
        assert monitor.observed_matches == 1

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            Monitor(window_size=0)


class TestApproximateMatchWindows:
    def test_exact_matches_do_not_raise_windows(self):
        monitor = Monitor(window_size=5)
        matches = [match_event(1, JoinSide.RIGHT, 1.0, exact=True)]
        monitor.observe_step(1, JoinSide.RIGHT, JoinMode.APPROXIMATE, matches)
        observation = monitor.observation()
        assert observation.approx_window_counts[JoinSide.LEFT] == 0
        assert observation.approx_window_counts[JoinSide.RIGHT] == 0

    def test_attributed_event_raises_only_that_side(self):
        monitor = Monitor(window_size=5)
        matches = [
            match_event(1, JoinSide.RIGHT, 0.9, exact=False, evidence=JoinSide.RIGHT)
        ]
        monitor.observe_step(1, JoinSide.RIGHT, JoinMode.APPROXIMATE, matches)
        observation = monitor.observation()
        assert observation.approx_window_counts[JoinSide.RIGHT] == 1
        assert observation.approx_window_counts[JoinSide.LEFT] == 0

    def test_unattributed_event_ignored_by_default(self):
        monitor = Monitor(window_size=5)
        matches = [match_event(1, JoinSide.RIGHT, 0.9, exact=False, evidence=None)]
        monitor.observe_step(1, JoinSide.RIGHT, JoinMode.APPROXIMATE, matches)
        observation = monitor.observation()
        assert observation.approx_window_counts[JoinSide.LEFT] == 0
        assert observation.approx_window_counts[JoinSide.RIGHT] == 0

    def test_unattributed_event_counts_against_both_when_configured(self):
        monitor = Monitor(window_size=5, count_unattributed_against_both=True)
        matches = [match_event(1, JoinSide.RIGHT, 0.9, exact=False, evidence=None)]
        monitor.observe_step(1, JoinSide.RIGHT, JoinMode.APPROXIMATE, matches)
        observation = monitor.observation()
        assert observation.approx_window_counts[JoinSide.LEFT] == 1
        assert observation.approx_window_counts[JoinSide.RIGHT] == 1

    def test_window_fraction_uses_window_size(self):
        monitor = Monitor(window_size=4)
        for step in range(1, 3):
            matches = [
                match_event(step, JoinSide.RIGHT, 0.9, False, JoinSide.RIGHT)
            ]
            monitor.observe_step(step, JoinSide.RIGHT, JoinMode.APPROXIMATE, matches)
        observation = monitor.observation()
        assert observation.approx_window_fractions[JoinSide.RIGHT] == pytest.approx(0.5)

    def test_events_fall_out_of_window(self):
        monitor = Monitor(window_size=2)
        matches = [match_event(1, JoinSide.RIGHT, 0.9, False, JoinSide.RIGHT)]
        monitor.observe_step(1, JoinSide.RIGHT, JoinMode.APPROXIMATE, matches)
        for step in (2, 3):
            monitor.observe_step(step, JoinSide.LEFT, JoinMode.APPROXIMATE, [])
        assert monitor.observation().approx_window_counts[JoinSide.RIGHT] == 0


class TestEvidenceAvailability:
    def test_no_evidence_while_fully_exact(self):
        monitor = Monitor(window_size=5)
        monitor.observe_step(1, JoinSide.LEFT, JoinMode.EXACT, [])
        assert monitor.observation().evidence_available is False

    def test_evidence_available_when_approximate_steps_in_window(self):
        monitor = Monitor(window_size=5)
        monitor.observe_step(1, JoinSide.LEFT, JoinMode.APPROXIMATE, [])
        assert monitor.observation().evidence_available is True

    def test_evidence_expires_with_the_window(self):
        monitor = Monitor(window_size=2)
        monitor.observe_step(1, JoinSide.LEFT, JoinMode.APPROXIMATE, [])
        monitor.observe_step(2, JoinSide.LEFT, JoinMode.EXACT, [])
        monitor.observe_step(3, JoinSide.LEFT, JoinMode.EXACT, [])
        assert monitor.observation().evidence_available is False


class TestSimilarityWindow:
    def test_min_similarity_tracked(self):
        monitor = Monitor(window_size=5)
        matches = [match_event(1, JoinSide.RIGHT, 0.87, exact=False)]
        monitor.observe_step(1, JoinSide.RIGHT, JoinMode.APPROXIMATE, matches)
        assert monitor.observation().min_window_similarity == pytest.approx(0.87)

    def test_min_similarity_defaults_to_one(self):
        monitor = Monitor(window_size=5)
        monitor.observe_step(1, JoinSide.LEFT, JoinMode.EXACT, [])
        assert monitor.observation().min_window_similarity == 1.0

    def test_reset_windows(self):
        monitor = Monitor(window_size=5)
        matches = [match_event(1, JoinSide.RIGHT, 0.9, False, JoinSide.RIGHT)]
        monitor.observe_step(1, JoinSide.RIGHT, JoinMode.APPROXIMATE, matches)
        monitor.reset_windows()
        observation = monitor.observation()
        assert observation.approx_window_counts[JoinSide.RIGHT] == 0
        assert observation.evidence_available is False
        # Totals survive a window reset.
        assert monitor.observed_matches == 1


def random_steps(rng, first_step, count, left_mode, right_mode):
    """``count`` step results mixing no, exact and approximate matches."""
    results = []
    for step in range(first_step, first_step + count):
        side = rng.choice(list(JoinSide))
        matches = []
        for _ in range(rng.choice([0, 0, 1, 2])):
            if rng.random() < 0.5:
                matches.append(match_event(step, side, 1.0, exact=True))
            else:
                matches.append(
                    match_event(
                        step,
                        side,
                        rng.choice([0.86, 0.9, 1.0]),
                        exact=False,
                        evidence=rng.choice([None, JoinSide.LEFT, JoinSide.RIGHT]),
                    )
                )
        mode = left_mode if side is JoinSide.LEFT else right_mode
        results.append(Step(step, side, mode, matches))
    return results


class TestBatchObservation:
    @pytest.mark.parametrize("both", [False, True])
    @pytest.mark.parametrize("seed", range(10))
    def test_observe_batch_equals_observe_step_loop(self, seed, both):
        rng = random.Random(seed)
        stepped = Monitor(window_size=6, count_unattributed_against_both=both)
        batched = Monitor(window_size=6, count_unattributed_against_both=both)
        first_step = 1
        for _ in range(12):
            left_mode, right_mode = rng.choice(list(JoinMode)), rng.choice(
                list(JoinMode)
            )
            results = random_steps(
                rng, first_step, rng.randint(1, 9), left_mode, right_mode
            )
            for result in results:
                stepped.observe_step(*result)
            left_steps = sum(r.side is JoinSide.LEFT for r in results)
            batched.observe_batch(
                StepBatch(
                    first_step=first_step,
                    count=len(results),
                    left_steps=left_steps,
                    right_steps=len(results) - left_steps,
                    left_mode=left_mode,
                    right_mode=right_mode,
                    match_events=[e for r in results for e in r.matches],
                    sides=tuple(r.side for r in results)
                    if left_mode is not right_mode
                    else None,
                )
            )
            assert batched.observation() == stepped.observation()
            first_step += len(results)
