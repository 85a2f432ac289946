"""The base install is stdlib-only, checked on the real import graph.

A fresh interpreter imports ``repro`` and runs a small adaptive
``link_tables`` job whose policy keeps both sides approximate, so the
q-gram index, candidate generation and bitset verification all run.
Afterwards no third-party numeric package may be loaded.  The same check
runs over the other linkage strategies, a sharded process-backend job and
the server/lint entry points.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC_DIR = pathlib.Path(__file__).resolve().parents[2] / "src"

_DATASET = textwrap.dedent(
    """
    import sys

    import repro
    from repro.datagen.testcases import STANDARD_TEST_CASES, generate_test_case

    dataset = generate_test_case(
        STANDARD_TEST_CASES["uniform_child"], parent_size=200, child_size=200
    )
    """
)

_PROBE = _DATASET + textwrap.dedent(
    """
    result = repro.link_tables(
        dataset.parent, dataset.child, "location", policy="budget-greedy"
    )
    assert result.pairs, "the approximate run found no matches"
    assert "numpy" not in sys.modules, "numpy was imported"
    """
)

#: Other entry points, each run in its own interpreter after ``_DATASET``.
_JOBS = {
    "approximate-strategy": (
        'result = repro.link_tables(dataset.parent, dataset.child, "location",'
        ' strategy="approximate")\nassert result.pairs'
    ),
    "blocking-strategy": (
        'result = repro.link_tables(dataset.parent, dataset.child, "location",'
        ' strategy="blocking")\nassert result.pairs'
    ),
    "adaptive-mar": (
        'result = repro.link_tables(dataset.parent, dataset.child, "location")'
        "\nassert result.pairs"
    ),
    "sharded-process": (
        'result = repro.link_tables(dataset.parent, dataset.child, "location",'
        ' policy="budget-greedy", shards=2, backend="process",'
        ' partitioner="gram")\nassert result.pairs'
    ),
    "server-and-lint": "import repro.server, repro.devtools.lint",
}


def _run(code):
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )


def test_adaptive_link_imports_no_numpy():
    proc = _run(_PROBE)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("job", sorted(_JOBS))
def test_entry_point_imports_no_numpy(job):
    code = (
        _DATASET
        + _JOBS[job]
        + '\nassert "numpy" not in sys.modules, "numpy was imported"\n'
    )
    proc = _run(code)
    assert proc.returncode == 0, proc.stderr
