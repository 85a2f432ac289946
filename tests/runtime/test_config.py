"""Tests for the declarative run configuration."""

import pytest

from repro.core.budget import CostBudget
from repro.core.cost_model import CostModel
from repro.core.state_machine import JoinState
from repro.core.thresholds import Thresholds
from repro.engine.streams import IteratorStream, ListStream
from repro.runtime.config import RunConfig, input_size


class TestConstruction:
    def test_paper_defaults(self):
        config = RunConfig.paper_defaults()
        assert config.thresholds == Thresholds()
        assert config.policy == "mar"
        assert config.initial_state is None
        assert config.use_length_filter
        assert config.scan_batch == 32

    def test_from_thresholds(self):
        thresholds = Thresholds(theta_sim=0.75, delta_adapt=50)
        config = RunConfig.from_thresholds(thresholds, policy="fixed")
        assert config.thresholds is thresholds
        assert config.policy == "fixed"

    def test_from_thresholds_none_uses_paper_defaults(self):
        assert RunConfig.from_thresholds(None).thresholds == Thresholds()

    def test_with_overrides(self):
        config = RunConfig()
        other = config.with_overrides(scan_batch=1, policy="fixed")
        assert other.scan_batch == 1
        assert other.policy == "fixed"
        assert config.scan_batch == 32  # the original is untouched (frozen)

    def test_as_dict_is_flat_and_json_friendly(self):
        import json

        config = RunConfig(budget_fraction=0.5, initial_state=JoinState.LAP_RAP)
        payload = config.as_dict()
        assert payload["policy"] == "mar"
        assert payload["budget_fraction"] == 0.5
        assert payload["initial_state"] == "lap/rap"
        assert payload["theta_sim"] == 0.85
        json.dumps(payload)

    def test_gram_verification_is_a_bitset_constant_not_a_field(self):
        from dataclasses import fields

        assert RunConfig.gram_verification == RunConfig().gram_verification == "bitset"
        assert "gram_verification" not in {f.name for f in fields(RunConfig)}
        assert "gram_verification" not in RunConfig().as_dict()
        with pytest.raises(TypeError):
            RunConfig(gram_verification="bitset")


class TestValidation:
    def test_rejects_empty_policy(self):
        with pytest.raises(ValueError):
            RunConfig(policy="")

    def test_rejects_non_positive_parent_size(self):
        with pytest.raises(ValueError):
            RunConfig(parent_size=0)

    def test_rejects_bad_scan_batch(self):
        with pytest.raises(ValueError):
            RunConfig(scan_batch=0)

    def test_rejects_budget_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            RunConfig(budget_fraction=0.0)
        with pytest.raises(ValueError):
            RunConfig(budget_fraction=1.5)

    def test_rejects_absolute_and_relative_budget_together(self):
        with pytest.raises(ValueError):
            RunConfig(
                cost_budget=CostBudget(max_absolute_cost=10.0),
                budget_fraction=0.5,
            )


class TestInputSize:
    def test_table_and_sized_stream(self, small_dataset):
        assert input_size(small_dataset.parent) == len(small_dataset.parent)
        stream = ListStream(small_dataset.parent.schema, small_dataset.parent.records)
        assert input_size(stream) == len(small_dataset.parent)

    def test_unsized_stream_is_none(self, small_dataset):
        stream = IteratorStream(
            small_dataset.parent.schema, iter(small_dataset.parent.records)
        )
        assert input_size(stream) is None


class TestParentSizeResolution:
    def test_explicit_size_wins(self, small_dataset):
        config = RunConfig(parent_size=42)
        assert config.resolve_parent_size(small_dataset.parent) == 42

    def test_inferred_from_table(self, small_dataset):
        config = RunConfig()
        assert config.resolve_parent_size(small_dataset.parent) == len(
            small_dataset.parent
        )

    def test_unsized_stream_raises_an_error_naming_the_parameter(self, small_dataset):
        stream = IteratorStream(
            small_dataset.parent.schema, iter(small_dataset.parent.records)
        )
        with pytest.raises(ValueError, match="parent_size"):
            RunConfig().resolve_parent_size(stream)


class TestBudgetResolution:
    def test_no_budget(self):
        assert RunConfig().resolve_budget(1000) is None

    def test_absolute_budget_passes_through(self):
        budget = CostBudget(max_absolute_cost=123.0)
        assert RunConfig(cost_budget=budget).resolve_budget(1000) is budget

    def test_fraction_resolves_against_the_cost_gap(self):
        model = CostModel()
        config = RunConfig(budget_fraction=0.5, cost_model=model)
        resolved = config.resolve_budget(200)
        expected = CostBudget.relative(0.5, 200, cost_model=model)
        assert resolved.max_absolute_cost == pytest.approx(
            expected.max_absolute_cost
        )

    def test_fraction_with_unknown_size_raises(self):
        with pytest.raises(ValueError, match="cost_budget"):
            RunConfig(budget_fraction=0.5).resolve_budget(None)
