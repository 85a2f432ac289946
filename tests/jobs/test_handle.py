"""Tests for JobHandle: streaming, cancellation, progress and lifecycle."""

import pytest

from repro.core.thresholds import Thresholds
from repro.jobs import LinkageJob, StreamedMatch
from repro.linkage.api import link_tables

FAST = Thresholds(delta_adapt=25, window_size=25)


def _job(dataset, **kwargs):
    job = (
        LinkageJob.between(dataset.parent, dataset.child)
        .on("location")
        .thresholds(FAST)
    )
    for name, value in kwargs.items():
        getattr(job, name)(*value if isinstance(value, tuple) else (value,))
    return job


class TestRunParity:
    """handle.run() reproduces link_tables exactly (it IS link_tables now)."""

    @pytest.mark.parametrize(
        "strategy", ["exact", "approximate", "blocking", "adaptive"]
    )
    def test_every_strategy_matches_link_tables(
        self, strategy, atlas_table, accidents_table
    ):
        direct = link_tables(
            atlas_table,
            accidents_table,
            "location",
            strategy=strategy,
            similarity_threshold=0.8,
        )
        handled = (
            LinkageJob.between(atlas_table, accidents_table)
            .on("location")
            .strategy(strategy)
            .threshold(0.8)
            .build()
            .run()
        )
        assert handled.pairs == direct.pairs
        assert handled.pair_count == direct.pair_count
        assert [r.values for r in handled.records] == [
            r.values for r in direct.records
        ]

    def test_sharded_run_matches_link_tables(self, small_dataset):
        direct = link_tables(
            small_dataset.parent,
            small_dataset.child,
            "location",
            thresholds=FAST,
            shards=3,
            partitioner="gram-prefix",
        )
        handled = (
            _job(small_dataset)
            .sharded(3, partitioner="gram-prefix")
            .build()
            .run()
        )
        assert handled.pairs == direct.pairs
        assert handled.statistics["shards"] == 3
        assert handled.statistics["partitioner"] == "gram-prefix"


class TestStreaming:
    def test_first_match_arrives_before_the_session_finishes(
        self, small_dataset
    ):
        """The acceptance bar: stream_matches() is incremental, not a
        materialise-then-iterate façade."""
        handle = _job(small_dataset).with_progress().build()
        stream = handle.stream_matches(batch_size=16)
        first = next(stream)
        assert isinstance(first, StreamedMatch)
        snapshot = handle.progress()
        total = len(small_dataset.parent) + len(small_dataset.child)
        assert snapshot.total_steps == total
        # The session has barely started when the first match surfaces.
        assert 0 < snapshot.steps < total
        assert handle.state == "running"
        rest = list(stream)
        assert handle.state == "finished"
        assert handle.progress().steps == total
        assert len(rest) + 1 == handle.result().pair_count

    def test_streamed_pairs_equal_the_blocking_run(self, small_dataset):
        reference = _job(small_dataset).build().run()
        streamed = list(_job(small_dataset).build().stream_matches())
        assert [match.pair for match in streamed] == reference.pairs

    @pytest.mark.parametrize("partitioner", ["hash", "gram-prefix"])
    def test_sharded_stream_equals_the_serial_merge(
        self, small_dataset, partitioner
    ):
        """Sharded streaming is the serial-merge path, match for match —
        global pair identities, first-shard-wins dedup, shard-id order."""
        reference = (
            _job(small_dataset)
            .sharded(4, partitioner=partitioner)
            .build()
            .run()
        )
        streamed = list(
            _job(small_dataset)
            .sharded(4, partitioner=partitioner)
            .build()
            .stream_matches()
        )
        assert [match.pair for match in streamed] == reference.pairs
        assert all(match.shard_id is not None for match in streamed)

    def test_stream_result_statistics_flag_streamed(self, small_dataset):
        handle = _job(small_dataset).build()
        list(handle.stream_matches())
        assert handle.result().statistics["streamed"] is True

    def test_streaming_rejects_baseline_strategies(
        self, atlas_table, accidents_table
    ):
        handle = (
            LinkageJob.between(atlas_table, accidents_table)
            .on("location")
            .strategy("exact")
            .build()
        )
        with pytest.raises(ValueError, match="adaptive"):
            handle.stream_matches()

    def test_parallel_backend_stream_warns_and_equals_the_serial_merge(
        self, small_dataset
    ):
        handle = _job(small_dataset).sharded(2, backend="process").build()
        # Streaming always takes the serial-merge path; configuring a
        # parallel backend alongside it warns rather than silently
        # dropping the parallelism.
        with pytest.warns(UserWarning, match="serial-merge"):
            stream = handle.stream_matches(batch_size=64)
        pairs = [match.pair for match in stream]
        assert handle.state == "finished"
        reference = _job(small_dataset).sharded(2).build().run()
        assert pairs == reference.pairs


class TestCancellation:
    def test_cancel_mid_stream_returns_partial_flagged_result(
        self, small_dataset
    ):
        handle = _job(small_dataset).build()
        stream = handle.stream_matches(batch_size=16)
        consumed = [next(stream) for _ in range(3)]
        handle.cancel()
        tail = list(stream)  # drains the in-flight batch, then stops
        result = handle.result()
        assert result.cancelled is True
        assert handle.state == "cancelled"
        assert result.pair_count == len(consumed) + len(tail)
        full = _job(small_dataset).build().run()
        assert 0 < result.pair_count < full.pair_count
        assert result.pairs == full.pairs[: result.pair_count]

    def test_closing_a_drained_stream_is_not_a_cancel(self, small_dataset):
        """Close landing on the final yield of a finished session: the run
        completed — the result must not be flagged cancelled.

        The ``fixed`` policy declares no activation boundaries, so the
        whole 800-step run is one engine batch and every match is
        yielded *after* the session has drained — deterministically.
        """
        full = _job(small_dataset, policy="fixed").build().run()
        handle = _job(small_dataset, policy="fixed").build()
        stream = handle.stream_matches(batch_size=10**6)
        got = [next(stream) for _ in range(full.pair_count)]
        stream.close()
        assert handle.state == "finished"
        result = handle.result()
        assert result.cancelled is False
        assert [match.pair for match in got] == result.pairs == full.pairs

    def test_closing_a_drained_sharded_stream_is_not_a_cancel(
        self, small_dataset
    ):
        full = _job(small_dataset, policy="fixed").sharded(2).build().run()
        handle = _job(small_dataset, policy="fixed").sharded(2).build()
        stream = handle.stream_matches(batch_size=10**6)
        got = [next(stream) for _ in range(full.pair_count)]
        stream.close()
        assert handle.state == "finished"
        result = handle.result()
        assert result.cancelled is False
        assert result.statistics["shards"] == 2
        assert [match.pair for match in got] == result.pairs == full.pairs

    def test_closing_the_stream_early_cancels_the_job(self, small_dataset):
        handle = _job(small_dataset).build()
        stream = handle.stream_matches(batch_size=16)
        first = next(stream)
        stream.close()
        assert handle.cancelled is True
        assert handle.state == "cancelled"
        result = handle.result()
        assert result.cancelled is True
        assert result.pairs[0] == first.pair

    def test_cancel_before_run_executes_nothing(self, small_dataset):
        handle = _job(small_dataset).build()
        handle.cancel()
        result = handle.run()
        assert result.cancelled is True
        assert result.pair_count == 0
        assert result.records == []

    def test_cancel_mid_sharded_stream_keeps_partial_shards(
        self, small_dataset
    ):
        handle = _job(small_dataset).sharded(4).build()
        stream = handle.stream_matches(batch_size=16)
        next(stream)
        handle.cancel()
        list(stream)
        result = handle.result()
        assert result.cancelled is True
        assert result.statistics["cancelled"] is True
        assert 1 <= result.statistics["shards"] < 4
        full = _job(small_dataset).sharded(4).build().run()
        assert result.pair_count < full.pair_count

class TestProgress:
    def test_progress_requires_opt_in(self, small_dataset):
        handle = _job(small_dataset).build()
        with pytest.raises(RuntimeError, match="with_progress"):
            handle.progress()

    def test_progress_counts_a_blocking_run(self, small_dataset):
        handle = _job(small_dataset).with_progress().build()
        result = handle.run()
        snapshot = handle.progress()
        total = len(small_dataset.parent) + len(small_dataset.child)
        assert snapshot.steps == total
        assert snapshot.total_steps == total
        assert snapshot.matches == result.pair_count
        assert snapshot.fraction == 1.0
        assert snapshot.elapsed_seconds >= 0.0
        assert "steps" in snapshot.describe()

    def test_progress_counts_shards(self, small_dataset):
        handle = _job(small_dataset).sharded(3).with_progress().build()
        handle.run()
        snapshot = handle.progress()
        assert snapshot.shards_done == 3
        assert snapshot.total_shards == 3
        assert "shards 3/3" in snapshot.describe()

    def test_progress_under_replication_does_not_overreport(
        self, small_dataset
    ):
        """Prefix-gram replication makes |L|+|R| a wrong total: the
        fraction must come from completed shards, never read 100% mid-run."""
        handle = (
            _job(small_dataset)
            .sharded(4, partitioner="gram-prefix")
            .with_progress()
            .build()
        )
        stream = handle.stream_matches(batch_size=64)
        next(stream)
        snapshot = handle.progress()
        assert snapshot.total_steps is None  # unknowable before the plan
        assert snapshot.fraction < 1.0  # falls back to shards done
        list(stream)
        assert handle.progress().fraction == 1.0
        total = len(small_dataset.parent) + len(small_dataset.child)
        assert handle.progress().steps > total  # replicated volume visible

    def test_progress_is_adaptive_only(self, atlas_table, accidents_table):
        job = (
            LinkageJob.between(atlas_table, accidents_table)
            .on("location")
            .strategy("exact")
            .with_progress()
        )
        with pytest.raises(ValueError, match="adaptive"):
            job.build()

    def test_progress_counts_shards_on_the_process_backend(self, small_dataset):
        handle = (
            _job(small_dataset)
            .sharded(3, backend="process")
            .with_progress()
            .build()
        )
        result = handle.run()
        snapshot = handle.progress()
        assert snapshot.shards_done == 3
        assert snapshot.matches == result.statistics["raw_result_size"]


class TestLifecycle:
    def test_handles_are_one_shot(self, atlas_table, accidents_table):
        handle = (
            LinkageJob.between(atlas_table, accidents_table)
            .on("location")
            .build()
        )
        handle.run()
        with pytest.raises(RuntimeError, match="one-shot"):
            handle.run()
        with pytest.raises(RuntimeError, match="one-shot"):
            handle.stream_matches()

    def test_result_before_run_is_an_error(self, atlas_table, accidents_table):
        handle = (
            LinkageJob.between(atlas_table, accidents_table)
            .on("location")
            .build()
        )
        with pytest.raises(RuntimeError, match="pending"):
            handle.result()
