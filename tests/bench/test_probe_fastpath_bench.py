"""Regression tests for the probe fast-path benchmark script.

The script lives in ``benchmarks/`` (outside the package), so it is loaded
by path.  These tests pin the probe-path entry's keys (one verification
tier: no per-mode sweep) and its naive-vs-fast equality guard, which
compares ordinals, similarities and (length filter off) the operation
counters.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_probe_fastpath.py"
)

PROBE_PATH_KEYS = {
    "stored",
    "probes",
    "matches",
    "fast_seconds",
    "fast_index_seconds",
    "fast_probe_seconds",
    "fast_no_length_filter_seconds",
    "naive_seconds",
    "naive_probe_seconds",
    "speedup",
    "length_filter_disabled",
}

STORED = ["LIG GE GENOVA", "LOM MI MILANO", "PIE TO TORINO", "LAZ RM ROMA"] * 5
PROBES = ["LIG GE GENOVx", "LOM MI MILANO", "SIC PA PALERMO", "PIE TO TORINq"]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_probe_fastpath", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_path_entry_has_no_mode_sweep(bench):
    entry = bench.bench_probe_path(STORED, PROBES)
    assert set(entry) == PROBE_PATH_KEYS
    assert entry["stored"] == len(STORED)
    assert entry["probes"] == len(PROBES)
    assert entry["matches"] > 0


def test_probe_path_refuses_a_diverging_reference(bench, monkeypatch):
    monkeypatch.setattr(bench.NaiveQGramProber, "probe", lambda *args, **kw: [])
    with pytest.raises(AssertionError, match="diverged"):
        bench.bench_probe_path(STORED, PROBES)


def test_probe_path_refuses_diverging_similarities(bench, monkeypatch):
    probe = bench.NaiveQGramProber.probe

    def shifted(self, *args, **kwargs):
        return [(ordinal, sim / 2) for ordinal, sim in probe(self, *args, **kwargs)]

    monkeypatch.setattr(bench.NaiveQGramProber, "probe", shifted)
    with pytest.raises(AssertionError, match="diverged"):
        bench.bench_probe_path(STORED, PROBES)


def test_probe_path_refuses_diverging_counters(bench, monkeypatch):
    probe = bench.NaiveQGramProber.probe

    def overcounting(self, *args, **kwargs):
        self.counters.candidate_scan_work += 1
        return probe(self, *args, **kwargs)

    monkeypatch.setattr(bench.NaiveQGramProber, "probe", overcounting)
    with pytest.raises(AssertionError, match="counters diverged"):
        bench.bench_probe_path(STORED, PROBES)
