"""Smoke test of the end-to-end benchmark (collected by the tier-1 command).

Runs both passes of ``run.py --smoke`` (sizes / 10, a handful of ops) and
checks the benchmark against its own contract: every metric
``BENCHMARK.json`` names is printed exactly once per workload with its
declared unit, the spans nest, the oracle rejects corrupted output, and
``compare.py`` flags a regression.
"""

from __future__ import annotations

import copy
import gc
import importlib.util
import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.datagen.testcases import STANDARD_TEST_CASES, generate_test_case

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def load(name: str):
    """Import a sibling module by path (``trace`` would shadow the stdlib's)."""
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = load("oracle")
trace = load("trace")
compare = load("compare")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Both smoke passes, run side by side; ``{trace flag: (stdout, document)}``."""
    out = tmp_path_factory.mktemp("e2e-smoke")
    processes = {
        flag: subprocess.Popen(
            [
                sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "7",
                "--trace", str(flag), "--output", str(out / f"pass{flag}" / "r.json"),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        for flag in (0, 1)
    }
    results = {}
    for flag, process in processes.items():
        stdout, _ = process.communicate(timeout=120)
        assert process.returncode == 0, stdout
        document = json.loads((out / f"pass{flag}" / "r.json").read_text())
        results[flag] = (stdout, document)
    results["spans"] = json.loads((out / "pass1" / "spans.json").read_text())
    yield results
    # The documents and span lists are ~10^5 small objects.  Collect them
    # here, or the full collection they make due lands later, inside some
    # millisecond-scale timing assertion (tests/bench compares single-shot
    # run times) and fails it.
    results.clear()
    gc.collect()


@pytest.mark.parametrize("flag, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_once_per_workload(smoke, flag, section):
    stdout, document = smoke[flag]
    units = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    if flag == 0:
        units["failed_fraction"] = "fraction"
    printed = Counter()
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] in WORKLOADS:
            assert units[parts[1]] == parts[3], line
            printed[(parts[0], parts[1])] += 1
    assert printed == Counter(
        {(workload, metric): 1 for workload in WORKLOADS for metric in units}
    )
    for name in list(units) + WORKLOADS:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    assert document["claim"] is None
    for workload in WORKLOADS:
        report = document["workloads"][workload]
        assert report["failed"] == 0 and report["attempted"] >= 1
        assert set(report["metrics"]) == set(units)


def test_result_line_and_end_to_end_values(smoke):
    stdout, document = smoke[0]
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for workload in WORKLOADS:
        metrics = document["workloads"][workload]["metrics"]
        for metric in SPEC["end_to_end"]:
            assert metrics[metric["name"]]["value"] > 0
        assert 0.85 < metrics["recall"]["value"] <= 1.0


def test_traced_pass_marks_bypassed_layers_null(smoke):
    _, document = smoke[1]
    by_workload = {w: document["workloads"][w] for w in WORKLOADS}
    for report in by_workload.values():
        assert report["metrics"]["trace.overhead_ratio"]["value"] is not None
        assert report["metrics"]["joins.engine_run_s"]["value"] > 0
    clean = by_workload["adaptive_clean_48k"]
    assert "joins.candidates_per_probe" in clean["bypassed"]
    assert clean["metrics"]["core.exact_step_fraction"]["value"] == 1.0
    sharded = by_workload["sharded_approx_16k"]["metrics"]
    assert sharded["sharding.replication_factor"]["value"] > 1.0
    assert sharded["parallel.execute_s"]["value"] > 0
    assert "parallel.execute_s" in by_workload["approx_uniform_16k"]["bypassed"]
    assert by_workload["http_small_jobs"]["metrics"]["server.op_p90_s"]["value"] > 0


def test_spans_nest_and_self_times_are_non_negative(smoke):
    for workload in WORKLOADS:
        spans = smoke["spans"][workload]
        assert spans and trace.nesting_problems(spans) == []
        assert min(trace.self_times(spans)) > -1e-6
        roots = [i for i, span in enumerate(spans) if span["name"] == "jobs.run"]
        assert roots, workload
        for root in roots:  # the layers inside the op nest under the op's span
            assert any(span["parent"] == root for span in spans), workload
    broken = copy.deepcopy(smoke["spans"][WORKLOADS[0]])
    child = next(span for span in broken if span["parent"] is not None)
    child["end"] = broken[child["parent"]]["end"] + 1.0
    assert trace.nesting_problems(broken)


def test_oracle_rejects_corrupted_pairs():
    dataset = generate_test_case(STANDARD_TEST_CASES["uniform_child"], 60, 80)
    reference = oracle.Reference(dataset, "location", 0.85)
    good = sorted(reference.exact_pairs)
    assert oracle.check_pairs(reference, good) == []
    assert any("duplicate" in p for p in oracle.check_pairs(reference, good + good[:1]))
    assert any("missing" in p for p in oracle.check_pairs(reference, good[1:]))
    stranger = next(
        (parent, child)
        for parent in range(60)
        for child in range(80)
        if (reference.left_masks[parent] & reference.right_masks[child]).bit_count() < 3
    )
    assert any("shares fewer" in p for p in oracle.check_pairs(reference, good + [stranger]))
    rows = range(0, 80, 8)
    reference.sample_rows = set(rows)
    reference.sample_pairs = oracle.brute_force_pairs(reference, rows)
    assert reference.exact_pairs & reference.sample_pairs
    dropped = [pair for pair in good if pair not in reference.sample_pairs]
    assert any("child sample" in p for p in oracle.check_pairs(reference, dropped))


def test_compare_flags_a_regression(smoke, tmp_path, capsys):
    _, base = smoke[0]
    slower = copy.deepcopy(base)
    slower["workloads"][WORKLOADS[0]]["metrics"]["op_p50_s"]["value"] *= 1.5
    paths = []
    for name, document in (("base", base), ("slower", slower)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(document))
    assert compare.main([str(paths[0]), str(paths[0])]) == 0
    assert compare.main([str(paths[0]), str(paths[1])]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([str(paths[1]), str(paths[0])]) == 0


def test_single_workload_result_line_and_missing_program(tmp_path):
    command = ["--workload", WORKLOADS[0], "--seed", "3", "--seconds", "1",
               "--trace", "0", "--smoke", "--output", str(tmp_path / "r.json")]
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py")] + command, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(set(cell) == {"value", "unit"} for cell in result["metrics"].values())
    # A checkout holding only the benchmark's own files has no program to
    # measure: the command must fail without printing a result.
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    completed = subprocess.run(
        [sys.executable, str(bare / "benchmarks" / "e2e" / "run.py")] + command[:-2],
        capture_output=True, text=True, cwd=bare, env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
