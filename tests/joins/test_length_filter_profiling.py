"""Self-profiling of the Jaccard length filter.

Each ``SideState`` samples its first ``LENGTH_FILTER_SAMPLE_PROBES``
filtered probes; if the filter rejected fewer than
``LENGTH_FILTER_MIN_REJECT_RATE`` of the scanned bucket entries, it is
switched off for the rest of the run.  The verdict is sticky, depends only
on the probe stream (so reruns agree), and never changes the match set.
"""

import random
import string

import pytest

from repro.engine.tuples import Record, Schema
from repro.joins.base import LENGTH_FILTER_SAMPLE_PROBES, JoinSide, SideState

SCHEMA = Schema(["value"], name="values")


def _uniform_workload(count, length=8, seed=3):
    """Equal-length values: the filter's bounds can (almost) never reject."""
    rng = random.Random(seed)
    return [
        "".join(rng.choice(string.ascii_lowercase[:6]) for _ in range(length))
        for _ in range(count)
    ]


def _bimodal_workload(count, seed):
    """Values of length 4 or 30: long probes reject the short entries."""
    rng = random.Random(seed)
    return [
        "".join(rng.choice("abc") for _ in range(rng.choice((4, 30))))
        for _ in range(count)
    ]


def _build(values, q=3):
    side = SideState(JoinSide.LEFT, "value", q=q)
    for value in values:
        side.add(Record(SCHEMA, {"value": value}))
    side.catch_up_qgram()
    return side


def _probe_all(side, probes, theta, **kwargs):
    results = []
    for probe in probes:
        for stored, similarity in side.probe_qgram(probe, theta, **kwargs):
            results.append((probe, stored.ordinal, similarity))
    return results


@pytest.mark.parametrize("q", [2, 3, 4])
def test_unproductive_filter_disables_after_sampling(q):
    side = _build(_uniform_workload(200), q=q)
    for probe in _uniform_workload(LENGTH_FILTER_SAMPLE_PROBES + 10, seed=4):
        side.probe_qgram(probe, 0.7)
    assert side.length_filter_disabled


@pytest.mark.parametrize("q", [2, 3, 4])
def test_productive_filter_stays_enabled(q):
    side = _build(_bimodal_workload(200, seed=9), q=q)
    for probe in _bimodal_workload(LENGTH_FILTER_SAMPLE_PROBES + 10, seed=10):
        side.probe_qgram(probe, 0.9)
    assert not side.length_filter_disabled
    assert side._filter_rejected > 0


def test_verdict_waits_for_the_full_sample():
    side = _build(_uniform_workload(200))
    probes = _uniform_workload(LENGTH_FILTER_SAMPLE_PROBES, seed=4)
    for probe in probes[:-1]:
        side.probe_qgram(probe, 0.7)
    assert not side.length_filter_disabled
    side.probe_qgram(probes[-1], 0.7)
    assert side.length_filter_disabled


def test_unfiltered_probes_are_not_sampled():
    side = _build(_uniform_workload(200))
    for probe in _uniform_workload(LENGTH_FILTER_SAMPLE_PROBES * 2, seed=4):
        side.probe_qgram(probe, 0.7, use_length_filter=False)
    assert side._filter_probes == 0
    assert not side.length_filter_disabled


def test_disabled_filter_is_sticky():
    side = _build(_uniform_workload(200))
    for probe in _uniform_workload(LENGTH_FILTER_SAMPLE_PROBES, seed=4):
        side.probe_qgram(probe, 0.7)
    assert side.length_filter_disabled
    sampled = side._filter_probes
    # The index turns filter-friendly, but the verdict stands: probes are
    # no longer sampled and cannot switch the filter back on.
    for value in _bimodal_workload(200, seed=9):
        side.add(Record(SCHEMA, {"value": value}))
    side.catch_up_qgram()
    for probe in _bimodal_workload(LENGTH_FILTER_SAMPLE_PROBES, seed=10):
        side.probe_qgram(probe, 0.9)
    assert side.length_filter_disabled
    assert side._filter_probes == sampled


@pytest.mark.parametrize("verify_jaccard", [False, True])
def test_disable_does_not_change_matches(verify_jaccard):
    values = _uniform_workload(150)
    # Stored values probe both before and after the filter switches off,
    # so the run has matches on either side of the verdict.
    probes = values[:10] + _uniform_workload(LENGTH_FILTER_SAMPLE_PROBES, seed=5)
    probes += values[10:20]
    filtered = _build(values)
    unfiltered = _build(values)
    filtered_results = _probe_all(
        filtered, probes, 0.7, verify_jaccard=verify_jaccard
    )
    unfiltered_results = _probe_all(
        unfiltered, probes, 0.7, verify_jaccard=verify_jaccard, use_length_filter=False
    )
    assert filtered.length_filter_disabled
    assert filtered_results == unfiltered_results
    assert filtered_results


def test_disable_is_deterministic_across_reruns():
    values = _uniform_workload(150)
    probes = _uniform_workload(LENGTH_FILTER_SAMPLE_PROBES + 5, seed=6)

    def profile():
        side = _build(values)
        for probe in probes:
            side.probe_qgram(probe, 0.7)
        return (
            side.length_filter_disabled,
            side._filter_probes,
            side._filter_scanned,
            side._filter_rejected,
            side.counters.as_dict(),
        )

    assert profile() == profile()
