"""The two shard backends, as every public surface sees them.

``ParallelExecutor`` runs shards on ``serial`` (the reference) or
``process`` (the parallel path).  The former ``thread`` and ``async``
backends, the backend registry and the async driver's sleep-hint
protocol are gone: every entry point that takes a backend name refuses
the removed ones with the list of what is available, and nothing in the
package brings their machinery back.
"""

import pathlib

import pytest

import repro.runtime
import repro.runtime.events
import repro.runtime.parallel
from repro.cli import build_parser
from repro.jobs import JobHandle, PayloadError, build_job
from repro.linkage.api import link_tables

SRC_DIR = pathlib.Path(__file__).resolve().parents[2] / "src"

REMOVED_BACKENDS = ["thread", "async"]

#: Names that only the removed backends (or the registry and sleep-hint
#: protocol behind them) used.  None may reappear in the package source.
RETIRED_NAMES = [
    "ThreadPoolExecutor",
    "asyncio",
    "register_backend",
    "_ASYNC_BATCH",
    "_drain",
    "drive_shard",
    "stream_matches_async",
    'backend="thread"',
    'backend="async"',
]


@pytest.mark.parametrize("backend", REMOVED_BACKENDS)
def test_link_tables_rejects_a_removed_backend(
    backend, atlas_table, accidents_table
):
    with pytest.raises(ValueError, match="unknown execution backend") as excinfo:
        link_tables(
            atlas_table, accidents_table, "location", shards=2, backend=backend
        )
    assert "'process', 'serial'" in str(excinfo.value)


@pytest.mark.parametrize("backend", REMOVED_BACKENDS)
def test_job_payload_with_a_removed_backend_is_invalid(backend):
    payload = {
        "left": {"columns": ["location"], "rows": [["A"]]},
        "right": {"columns": ["location"], "rows": [["A"]]},
        "attribute": "location",
        "shards": 2,
        "backend": backend,
    }
    with pytest.raises(PayloadError, match=backend):
        build_job(payload)


@pytest.mark.parametrize("command", ["link", "experiment"])
@pytest.mark.parametrize("backend", REMOVED_BACKENDS)
def test_cli_refuses_a_removed_backend(command, backend, capsys):
    positional = ["a", "b", "--attribute", "x"] if command == "link" else []
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(
            [command, *positional, "--shards", "2", "--backend", backend]
        )
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_runtime_does_not_export_a_backend_registry():
    assert "register_backend" not in repro.runtime.__all__
    assert not hasattr(repro.runtime, "register_backend")
    assert not hasattr(repro.runtime.parallel, "register_backend")


@pytest.mark.parametrize("name", ["ShardCompleted", "ShardEvent"])
def test_parallel_does_not_reexport_shard_events(name):
    assert name not in repro.runtime.parallel.__all__
    assert hasattr(repro.runtime.events, name)


def test_job_handle_streams_synchronously_only():
    assert hasattr(JobHandle, "stream_matches")
    assert not hasattr(JobHandle, "stream_matches_async")


@pytest.mark.parametrize("name", RETIRED_NAMES)
def test_no_source_file_uses_a_retired_name(name):
    offenders = [
        str(path.relative_to(SRC_DIR))
        for path in sorted(SRC_DIR.rglob("*.py"))
        if name in path.read_text(encoding="utf-8")
    ]
    assert offenders == []
