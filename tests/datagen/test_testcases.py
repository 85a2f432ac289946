"""Tests for the evaluation test-case generator (accidents workload)."""

import pytest

from repro.datagen.accidents import ACCIDENT_SCHEMA, generate_accidents
from repro.datagen.testcases import (
    STANDARD_TEST_CASES,
    TestCaseSpec,
    generate_all_standard_cases,
    generate_test_case,
)


class TestAccidentsGenerator:
    def test_schema_and_count(self):
        table = generate_accidents(["A ONE", "B TWO"], count=50, seed=1)
        assert table.schema == ACCIDENT_SCHEMA
        assert len(table) == 50

    def test_locations_drawn_from_parent_values(self):
        locations = ["A ONE", "B TWO", "C THREE"]
        table = generate_accidents(locations, count=100, seed=2)
        assert set(table.column("location")).issubset(set(locations))

    def test_payload_attributes_plausible(self):
        table = generate_accidents(["A ONE"], count=20, seed=3)
        for record in table:
            assert record["severity"] in ("minor", "moderate", "severe", "fatal")
            assert 1 <= record["vehicles"] <= 4
            assert record["date"].startswith("2008-")

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_accidents([], count=10)
        with pytest.raises(ValueError):
            generate_accidents(["A"], count=0)


class TestStandardTestCases:
    def test_eight_standard_cases(self):
        assert len(STANDARD_TEST_CASES) == 8
        for name, spec in STANDARD_TEST_CASES.items():
            assert spec.name == name
            assert spec.variants_in in ("child", "both")
            assert spec.variant_rate == pytest.approx(0.10)

    def test_every_pattern_in_both_flavours(self):
        patterns = {spec.pattern for spec in STANDARD_TEST_CASES.values()}
        assert patterns == {"uniform", "interleaved_low", "few_high", "many_high"}
        for pattern in patterns:
            assert f"{pattern}_child" in STANDARD_TEST_CASES
            assert f"{pattern}_both" in STANDARD_TEST_CASES


class TestSpecValidation:
    def test_invalid_variants_in(self):
        with pytest.raises(ValueError):
            TestCaseSpec(name="x", pattern="uniform", variants_in="neither")

    def test_invalid_pattern(self):
        with pytest.raises(ValueError):
            TestCaseSpec(name="x", pattern="zigzag", variants_in="child")

    def test_invalid_sizes_and_rate(self):
        with pytest.raises(ValueError):
            TestCaseSpec(name="x", pattern="uniform", variants_in="child", parent_size=0)
        with pytest.raises(ValueError):
            TestCaseSpec(
                name="x", pattern="uniform", variants_in="child", variant_rate=1.5
            )

    def test_scaled_copy(self):
        spec = STANDARD_TEST_CASES["uniform_child"].scaled(100, 200)
        assert spec.parent_size == 100
        assert spec.child_size == 200
        assert spec.pattern == "uniform"


class TestGeneratedDataset:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_test_case(
            STANDARD_TEST_CASES["few_high_child"], parent_size=400, child_size=800
        )

    def test_sizes(self, dataset):
        assert len(dataset.parent) == 400
        assert len(dataset.child) == 800
        assert len(dataset.true_pairs) == 800
        assert dataset.expected_result_size == 800

    def test_ground_truth_references_valid_indices(self, dataset):
        for parent_index, child_index in dataset.true_pairs:
            assert 0 <= parent_index < len(dataset.parent)
            assert 0 <= child_index < len(dataset.child)

    def test_child_variant_rate_close_to_ten_percent(self, dataset):
        rate = dataset.child_variant_count / len(dataset.child)
        assert rate == pytest.approx(0.10, abs=0.04)

    def test_child_only_case_has_clean_parent(self, dataset):
        assert dataset.parent_variant_count == 0

    def test_variants_are_single_edits_of_their_parent(
        self, dataset, levenshtein_distance
    ):
        parent_locations = dataset.parent.column("location")
        for (parent_index, child_index) in dataset.true_pairs:
            child_location = dataset.child[child_index]["location"]
            if dataset.child_variant_flags[child_index]:
                assert child_location != parent_locations[parent_index]
                assert (
                    levenshtein_distance(child_location, parent_locations[parent_index])
                    == 1
                )
            else:
                assert child_location == parent_locations[parent_index]

    def test_exactly_matchable_pairs_excludes_variants(self, dataset):
        matchable = dataset.exactly_matchable_pairs()
        assert len(matchable) == len(dataset.true_pairs) - dataset.child_variant_count

    def test_deterministic_regeneration(self):
        spec = STANDARD_TEST_CASES["uniform_both"]
        first = generate_test_case(spec, parent_size=200, child_size=300)
        second = generate_test_case(spec, parent_size=200, child_size=300)
        assert first.child.column("location") == second.child.column("location")
        assert first.parent.column("location") == second.parent.column("location")
        assert first.true_pairs == second.true_pairs

    def test_both_flavour_perturbs_parent_too(self):
        dataset = generate_test_case(
            STANDARD_TEST_CASES["uniform_both"], parent_size=400, child_size=400
        )
        assert dataset.parent_variant_count > 0
        rate = dataset.parent_variant_count / len(dataset.parent)
        assert rate == pytest.approx(0.10, abs=0.05)

    def test_parent_flavour_extension(self):
        spec = TestCaseSpec(
            name="parent_only",
            pattern="uniform",
            variants_in="parent",
            parent_size=300,
            child_size=300,
            seed=3,
        )
        dataset = generate_test_case(spec)
        assert dataset.child_variant_count == 0
        assert dataset.parent_variant_count > 0

    def test_generate_all_standard_cases_at_reduced_scale(self):
        datasets = generate_all_standard_cases(parent_size=60, child_size=90)
        assert len(datasets) == 8
        for dataset in datasets.values():
            assert len(dataset.parent) == 60
            assert len(dataset.child) == 90
