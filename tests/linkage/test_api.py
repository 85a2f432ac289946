"""Tests for the high-level link_tables API."""

import pytest

from repro.core.thresholds import Thresholds
from repro.linkage.api import STRATEGIES, link_tables
from repro.linkage.evaluation import evaluate_pairs


class TestStrategies:
    def test_unknown_strategy_rejected(self, atlas_table, accidents_table):
        with pytest.raises(ValueError):
            link_tables(atlas_table, accidents_table, "location", strategy="magic")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_strategy_returns_pairs_and_records(
        self, strategy, atlas_table, accidents_table
    ):
        result = link_tables(
            atlas_table,
            accidents_table,
            "location",
            strategy=strategy,
            similarity_threshold=0.8,
        )
        assert result.strategy == strategy
        assert result.pair_count == len(result.pairs)
        assert len(result.records) == len(result.pairs)
        assert result.statistics["result_size"] == len(result.records)

    def test_exact_strategy_finds_only_exact_pairs(self, atlas_table, accidents_table):
        result = link_tables(atlas_table, accidents_table, "location", strategy="exact")
        assert result.pair_count == 5

    def test_approximate_strategy_recovers_variants(self, atlas_table, accidents_table):
        exact = link_tables(atlas_table, accidents_table, "location", strategy="exact")
        approx = link_tables(
            atlas_table,
            accidents_table,
            "location",
            strategy="approximate",
            similarity_threshold=0.8,
        )
        assert approx.pair_count > exact.pair_count
        assert set(exact.pairs).issubset(set(approx.pairs))

    def test_adaptive_strategy_accepts_policy_and_budget(self, small_dataset):
        fast = Thresholds(delta_adapt=25, window_size=25)
        fixed = link_tables(
            small_dataset.parent,
            small_dataset.child,
            "location",
            strategy="adaptive",
            thresholds=fast,
            policy="fixed",
        )
        assert fixed.statistics["policy"] == "fixed"
        assert fixed.statistics["trace"]["transitions"] == 0
        greedy = link_tables(
            small_dataset.parent,
            small_dataset.child,
            "location",
            strategy="adaptive",
            thresholds=fast,
            policy="budget-greedy",
            budget=0.3,
        )
        assert greedy.statistics["policy"] == "budget-greedy"
        assert greedy.statistics["budget_exhausted"] is True
        assert greedy.pair_count >= fixed.pair_count

    def test_adaptive_strategy_accepts_a_full_run_config(self, small_dataset):
        from repro.runtime.config import RunConfig

        result = link_tables(
            small_dataset.parent,
            small_dataset.child,
            "location",
            strategy="adaptive",
            config=RunConfig.from_thresholds(
                Thresholds(delta_adapt=25, window_size=25), policy="fixed"
            ),
        )
        assert result.statistics["policy"] == "fixed"

    def test_adaptive_strategy_reports_trace(self, small_dataset):
        result = link_tables(
            small_dataset.parent,
            small_dataset.child,
            "location",
            strategy="adaptive",
            thresholds=Thresholds(delta_adapt=25, window_size=25),
        )
        trace = result.statistics["trace"]
        assert trace["total_steps"] == len(small_dataset.parent) + len(
            small_dataset.child
        )
        assert result.statistics["final_state"] in (
            "lex/rex",
            "lap/rex",
            "lex/rap",
            "lap/rap",
        )

    def test_blocking_strategy_reports_comparisons(self, atlas_table, accidents_table):
        result = link_tables(
            atlas_table, accidents_table, "location", strategy="blocking"
        )
        assert result.statistics["comparisons"] > 0


class TestLazyRecords:
    """LinkageResult.records materialises on first access, never for
    pairs-only consumers (the PR-5 regression)."""

    def test_adaptive_records_are_lazy(self, small_dataset, monkeypatch):
        from repro.joins.base import MatchEvent

        def explode(self, output_schema):
            raise AssertionError(
                "output_record() called for a pairs-only consumer"
            )

        monkeypatch.setattr(MatchEvent, "output_record", explode)
        # A pairs-only consumer: joined records must never be built.
        result = link_tables(
            small_dataset.parent,
            small_dataset.child,
            "location",
            strategy="adaptive",
            thresholds=Thresholds(delta_adapt=25, window_size=25),
        )
        assert result.pair_count > 0
        assert result.records_materialized is False
        # First touch builds them (and here, trips the sentinel).
        with pytest.raises(AssertionError, match="pairs-only"):
            result.records

    def test_sharded_records_are_lazy_too(self, small_dataset, monkeypatch):
        from repro.joins.base import MatchEvent

        monkeypatch.setattr(
            MatchEvent,
            "output_record",
            lambda self, schema: (_ for _ in ()).throw(AssertionError("eager")),
        )
        result = link_tables(
            small_dataset.parent,
            small_dataset.child,
            "location",
            thresholds=Thresholds(delta_adapt=25, window_size=25),
            shards=2,
        )
        assert result.pair_count > 0
        assert result.records_materialized is False

    @pytest.mark.parametrize("strategy", ["exact", "approximate"])
    def test_baseline_records_are_lazy_and_unchanged(
        self, strategy, atlas_table, accidents_table, monkeypatch
    ):
        from repro.joins.base import MatchEvent
        from repro.joins.shjoin import SHJoin
        from repro.joins.sshjoin import SSHJoin

        operator = {"exact": SHJoin, "approximate": SSHJoin}[strategy]
        kwargs = {} if strategy == "exact" else {"similarity_threshold": 0.8}
        expected = operator(atlas_table, accidents_table, "location", **kwargs).run()
        built = []
        original = MatchEvent.output_record

        def counting(self, schema):
            built.append(self)
            return original(self, schema)

        monkeypatch.setattr(MatchEvent, "output_record", counting)
        result = link_tables(
            atlas_table,
            accidents_table,
            "location",
            strategy=strategy,
            similarity_threshold=0.8,
        )
        assert result.pair_count > 0
        assert result.records_materialized is False and not built
        assert [r.values for r in result.records] == [r.values for r in expected]
        assert result.statistics["result_size"] == len(expected)

    def test_records_are_cached_after_first_access(
        self, atlas_table, accidents_table
    ):
        result = link_tables(atlas_table, accidents_table, "location")
        first = result.records
        assert result.records_materialized is True
        assert result.records is first  # cached, not rebuilt

    def test_old_positional_construction_fails_loudly(self):
        from repro.linkage.api import LinkageResult

        # The pre-jobs dataclass took records third: that call shape must
        # raise, never silently land records in statistics.
        with pytest.raises(TypeError):
            LinkageResult("exact", [(0, 0)], ["record"], {"result_size": 1})

    def test_equality_ignores_records_materialisation(self):
        from repro.linkage.api import LinkageResult

        first = LinkageResult.lazy("exact", [(0, 0)], lambda: ["r"])
        second = LinkageResult.lazy("exact", [(0, 0)], lambda: ["r"])
        assert first == second
        first.records  # materialise one side's cache
        assert first == second


class TestWrapperParity:
    """link_tables is a thin wrapper over LinkageJob (same behaviour)."""

    def test_wrapper_equals_the_builder(self, small_dataset):
        from repro.jobs import LinkageJob

        fast = Thresholds(delta_adapt=25, window_size=25)
        wrapped = link_tables(
            small_dataset.parent, small_dataset.child, "location",
            thresholds=fast, shards=2, partitioner="gram-prefix",
        )
        built = (
            LinkageJob.between(small_dataset.parent, small_dataset.child)
            .on("location")
            .thresholds(fast)
            .sharded(2, partitioner="gram-prefix")
            .build()
            .run()
        )
        assert wrapped.pairs == built.pairs

        def stable(statistics):
            """Statistics minus the wall-clock timing noise."""
            out = dict(statistics)
            out["per_shard"] = [
                {k: v for k, v in row.items() if k != "wall_seconds"}
                for row in out["per_shard"]
            ]
            return out

        assert stable(wrapped.statistics) == stable(built.statistics)

    def test_zero_shards_still_rejected(self, atlas_table, accidents_table):
        with pytest.raises(ValueError, match="at least 1"):
            link_tables(atlas_table, accidents_table, "location", shards=0)

    def test_sharded_baseline_still_rejected(self, atlas_table, accidents_table):
        with pytest.raises(ValueError, match="adaptive"):
            link_tables(
                atlas_table, accidents_table, "location",
                strategy="exact", shards=2,
            )

    def test_unconsumed_parameters_stay_ignored(
        self, atlas_table, accidents_table
    ):
        """Parameters the old implementation never read must not start
        raising: exact ignores the threshold; config overrides budget."""
        from repro.runtime.config import RunConfig

        result = link_tables(
            atlas_table, accidents_table, "location",
            strategy="exact", similarity_threshold=1.5,
        )
        assert result.pair_count == 5
        overridden = link_tables(
            atlas_table, accidents_table, "location",
            config=RunConfig.from_thresholds(
                Thresholds(delta_adapt=25, window_size=25)
            ),
            budget=5.0,  # documented to be overridden by config, not read
            policy="nonexistent-policy",
        )
        assert overridden.statistics["policy"] == "mar"

    def test_process_backend_reachable_through_the_wrapper(self, small_dataset):
        fast = Thresholds(delta_adapt=25, window_size=25)
        serial = link_tables(
            small_dataset.parent, small_dataset.child, "location",
            thresholds=fast, shards=2, backend="serial",
        )
        viaprocess = link_tables(
            small_dataset.parent, small_dataset.child, "location",
            thresholds=fast, shards=2, backend="process",
        )
        assert viaprocess.pairs == serial.pairs
        assert viaprocess.statistics["backend"] == "process"


class TestEndToEndQuality:
    def test_adaptive_quality_between_exact_and_approximate(self, small_dataset):
        thresholds = Thresholds(delta_adapt=25, window_size=25)
        truth = small_dataset.true_pairs
        recalls = {}
        for strategy in ("exact", "approximate", "adaptive"):
            result = link_tables(
                small_dataset.parent,
                small_dataset.child,
                "location",
                strategy=strategy,
                thresholds=thresholds,
            )
            recalls[strategy] = evaluate_pairs(result.pairs, truth).recall
        assert recalls["exact"] <= recalls["adaptive"] <= recalls["approximate"]
        assert recalls["approximate"] > recalls["exact"]

    def test_precision_stays_high_for_all_strategies(self, small_dataset):
        truth = small_dataset.true_pairs
        for strategy in ("exact", "approximate", "adaptive"):
            result = link_tables(
                small_dataset.parent, small_dataset.child, "location", strategy=strategy
            )
            evaluation = evaluate_pairs(result.pairs, truth)
            assert evaluation.precision > 0.95
