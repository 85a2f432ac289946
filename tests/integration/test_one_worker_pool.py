"""Shards run on one worker pool, and no pool outlives its process.

The first test reads ``src/repro`` with :mod:`ast` and fails when more
than one module constructs a ``ProcessPoolExecutor``: library runs, the
streaming surface and the server all submit to
:class:`repro.runtime.pool.WorkerPool`, and a second pool would be a
second shard loop growing back.  The second runs a ``process``-backend
job in a child interpreter and checks that none of its pool workers is
alive 5 s after the child exits, whether it exits normally or is
SIGKILLed.
"""

from __future__ import annotations

import ast
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def _constructs_a_process_pool(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            if name == "ProcessPoolExecutor":
                return True
    return False


def test_one_module_constructs_a_process_pool():
    constructors = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "repro").rglob("*.py"))
        if _constructs_a_process_pool(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert len(constructors) <= 1, (
        f"ProcessPoolExecutor is constructed in {constructors}; submit "
        f"shards to repro.runtime.pool.WorkerPool instead"
    )


_CHILD_SCRIPT = """\
import multiprocessing, sys, time
from repro.datagen.testcases import TestCaseSpec, generate_test_case
from repro.jobs import LinkageJob

dataset = generate_test_case(TestCaseSpec(
    name="small", pattern="few_high", variants_in="child",
    parent_size=300, child_size=500, seed=17,
))
result = (
    LinkageJob.between(dataset.parent, dataset.child)
    .on("location")
    .sharded(2, backend="process")
    .build()
    .run()
)
assert result.pair_count > 0
pids = [child.pid for child in multiprocessing.active_children()]
print(" ".join(map(str, pids)), flush=True)
if sys.argv[1] == "wait":
    time.sleep(600)
"""


@pytest.mark.parametrize("ending", ["exit", "sigkill"])
def test_no_pool_worker_outlives_its_process(ending, process_alive):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT, "wait" if ending == "sigkill" else "exit"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    survivors = []
    try:
        workers = [int(pid) for pid in child.stdout.readline().split()]
        assert workers, "the child ran no pool worker"
        if ending == "sigkill":
            child.send_signal(signal.SIGKILL)
        child.wait(timeout=60)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(process_alive, workers)):
            time.sleep(0.05)
        survivors = [pid for pid in workers if process_alive(pid)]
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    for pid in survivors:  # never leave a stray worker behind
        os.kill(pid, signal.SIGKILL)
    assert child.returncode == (-signal.SIGKILL if ending == "sigkill" else 0)
    assert survivors == []
