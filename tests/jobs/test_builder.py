"""Tests for the fluent LinkageJob builder and its compilation to RunConfig."""

import pytest

from repro.core.state_machine import JoinState
from repro.core.thresholds import Thresholds
from repro.jobs import LinkageJob, STRATEGIES
from repro.joins.base import JoinAttribute, JoinSide
from repro.runtime.config import RunConfig

FAST = Thresholds(delta_adapt=25, window_size=25)


class TestFluentValidation:
    """Every fluent call validates immediately, at the call site."""

    def test_between_rejects_missing_inputs(self, atlas_table):
        with pytest.raises(ValueError, match="two inputs"):
            LinkageJob.between(atlas_table, None)

    def test_unknown_strategy_rejected(self, atlas_table, accidents_table):
        with pytest.raises(ValueError, match="unknown strategy"):
            LinkageJob.between(atlas_table, accidents_table).strategy("magic")

    def test_strategies_cover_the_link_tables_tuple(
        self, atlas_table, accidents_table
    ):
        for name in STRATEGIES:
            job = LinkageJob.between(atlas_table, accidents_table).strategy(name)
            assert job is not None

    def test_unknown_policy_rejected(self, atlas_table, accidents_table):
        with pytest.raises(ValueError, match="unknown switch policy"):
            LinkageJob.between(atlas_table, accidents_table).policy("bogus")

    def test_unknown_backend_and_partitioner_rejected(
        self, atlas_table, accidents_table
    ):
        job = LinkageJob.between(atlas_table, accidents_table)
        for backend in ("gpu", "thread", "async"):
            with pytest.raises(ValueError, match="unknown execution backend"):
                job.sharded(2, backend=backend)
        with pytest.raises(ValueError, match="unknown partitioner"):
            job.sharded(2, partitioner="psychic")

    def test_shards_and_workers_bounds(self, atlas_table, accidents_table):
        job = LinkageJob.between(atlas_table, accidents_table)
        with pytest.raises(ValueError, match="at least 1"):
            job.sharded(0)
        with pytest.raises(ValueError, match="max_workers"):
            job.sharded(2, max_workers=0)

    def test_threshold_bounds(self, atlas_table, accidents_table):
        job = LinkageJob.between(atlas_table, accidents_table)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            job.threshold(0.0)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            job.threshold(1.5)

    def test_budget_and_deadline_bounds(self, atlas_table, accidents_table):
        job = LinkageJob.between(atlas_table, accidents_table)
        with pytest.raises(ValueError, match="budget_fraction"):
            job.budget(0.0)
        with pytest.raises(ValueError, match="deadline_seconds"):
            job.deadline(-1.0)

    def test_on_accepts_names_and_join_attributes(
        self, atlas_table, accidents_table
    ):
        job = LinkageJob.between(atlas_table, accidents_table)
        assert job.on("location")._attribute == JoinAttribute(
            "location", "location"
        )
        assert job.on("a", "b")._attribute == JoinAttribute("a", "b")
        attr = JoinAttribute("x", "y")
        assert job.on(attr)._attribute is attr
        with pytest.raises(ValueError, match="not both"):
            job.on(attr, "z")
        with pytest.raises(ValueError, match="non-empty"):
            job.on("")

    def test_build_requires_an_attribute(self, atlas_table, accidents_table):
        with pytest.raises(ValueError, match=r"\.on\("):
            LinkageJob.between(atlas_table, accidents_table).build()


class TestCrossFieldValidation:
    def test_sharding_requires_adaptive(self, atlas_table, accidents_table):
        job = (
            LinkageJob.between(atlas_table, accidents_table)
            .on("location")
            .strategy("exact")
            .sharded(2)
        )
        with pytest.raises(ValueError, match="adaptive"):
            job.build()

    def test_explicit_adaptive_knobs_rejected_for_baselines(
        self, atlas_table, accidents_table
    ):
        job = (
            LinkageJob.between(atlas_table, accidents_table)
            .on("location")
            .policy("deadline", seconds=1.0)
            .strategy("exact")
        )
        with pytest.raises(ValueError, match="adaptive"):
            job.build()

    def test_default_adaptive_knobs_ride_along_silently(
        self, atlas_table, accidents_table
    ):
        # No explicit policy/budget/deadline: a baseline build is fine
        # (this is what keeps the link_tables wrapper backward compatible).
        handle = (
            LinkageJob.between(atlas_table, accidents_table)
            .on("location")
            .strategy("exact")
            .build()
        )
        assert handle.spec.run_config is None


class TestCompilation:
    def test_compiles_to_the_expected_run_config(
        self, atlas_table, accidents_table
    ):
        config = (
            LinkageJob.between(atlas_table, accidents_table)
            .on("location")
            .thresholds(FAST)
            .parent(JoinSide.RIGHT)
            .policy("budget-greedy", budget=0.4)
            .compile()
        )
        assert isinstance(config, RunConfig)
        assert config.thresholds == FAST
        assert config.parent_side is JoinSide.RIGHT
        assert config.policy == "budget-greedy"
        assert config.budget_fraction == 0.4

    def test_threshold_seeds_default_thresholds(
        self, atlas_table, accidents_table
    ):
        config = (
            LinkageJob.between(atlas_table, accidents_table)
            .on("location")
            .threshold(0.7)
            .compile()
        )
        assert config.thresholds.theta_sim == 0.7

    def test_policy_seconds_maps_to_deadline(self, atlas_table, accidents_table):
        config = (
            LinkageJob.between(atlas_table, accidents_table)
            .on("location")
            .policy("deadline", seconds=2.5)
            .compile()
        )
        assert config.policy == "deadline"
        assert config.deadline_seconds == 2.5

    def test_explicit_config_wins_outright(self, atlas_table, accidents_table):
        override = RunConfig(
            policy="fixed", initial_state=JoinState.LAP_RAP, thresholds=FAST
        )
        config = (
            LinkageJob.between(atlas_table, accidents_table)
            .on("location")
            .policy("mar")
            .config(override)
            .compile()
        )
        assert config is override

    def test_baselines_compile_to_none(self, atlas_table, accidents_table):
        assert (
            LinkageJob.between(atlas_table, accidents_table)
            .on("location")
            .strategy("blocking")
            .compile()
            is None
        )

    def test_builder_is_reusable_across_builds(
        self, atlas_table, accidents_table
    ):
        job = (
            LinkageJob.between(atlas_table, accidents_table)
            .on("location")
            .threshold(0.8)
        )
        first = job.build()
        second = job.build()
        assert first is not second
        assert first.run().pairs == second.run().pairs
