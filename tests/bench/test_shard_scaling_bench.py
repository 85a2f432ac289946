"""Regression tests for the shard-scaling benchmark script.

The script lives in ``benchmarks/`` (outside the package), so it is
loaded by path; these tests pin the recall arithmetic — most importantly
that a workload whose unsharded reference finds *no* matches reports
recall 1.0 (nothing to lose) instead of crashing with a
``ZeroDivisionError``.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.engine.table import Table
from repro.engine.tuples import Schema
from repro.runtime.config import RunConfig

BENCH_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_shard_scaling.py"
)


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench_shard_scaling", BENCH_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def matchless_dataset():
    """Two tables whose join values share nothing — zero matches any way."""
    schema = Schema(["row_id", "location"], name="rows")
    parent = Table.from_rows(
        schema, [(index, f"AAAA {index}") for index in range(12)], name="parent"
    )
    child = Table.from_rows(
        schema, [(index, f"ZZZZ {index}") for index in range(12)], name="child"
    )
    return SimpleNamespace(parent=parent, child=child)


class TestRecallHelper:
    def test_empty_reference_reports_full_recall(self, bench):
        assert bench._recall(frozenset(), frozenset()) == 1.0
        assert bench._recall(frozenset({(0, 0)}), frozenset()) == 1.0

    def test_partial_and_full_overlap(self, bench):
        reference = frozenset({(0, 0), (1, 1)})
        assert bench._recall(frozenset({(0, 0)}), reference) == 0.5
        assert bench._recall(reference, reference) == 1.0
        assert bench._recall(frozenset(), reference) == 0.0


class TestMatchFreeWorkloads:
    def test_bench_shard_counts_survives_zero_reference_matches(
        self, bench, matchless_dataset
    ):
        entries = bench.bench_shard_counts(
            matchless_dataset, RunConfig(), (1, 2), ("serial",)
        )
        assert [entry["matches"] for entry in entries] == [0, 0]
        assert all(
            entry["match_recall_vs_unsharded"] == 1.0 for entry in entries
        )

    def test_recall_probe_survives_zero_reference_matches(
        self, bench, matchless_dataset
    ):
        rows = bench.recall_probe(matchless_dataset, (2,))
        assert rows[0]["hash"]["match_recall_vs_unsharded"] == 1.0
        assert rows[0]["gram-prefix"]["match_recall_vs_unsharded"] == 1.0


class TestRecallProbeStructure:
    def test_probe_reports_gram_prefix_at_full_recall_with_costs(self, bench):
        dataset = bench._probe_dataset(300)
        rows = bench.recall_probe(dataset, (2, 4))
        assert [row["shards"] for row in rows] == [2, 4]
        for row in rows:
            prefix = row["gram-prefix"]
            assert prefix["match_recall_vs_unsharded"] == 1.0
            assert prefix["raw_matches"] >= prefix["matches"]
            assert prefix["replication_factor"] >= 1.0
            assert 0.0 <= row["hash"]["match_recall_vs_unsharded"] <= 1.0
