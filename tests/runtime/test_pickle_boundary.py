"""Pickle-boundary audit: every registry class round-trips the boundary.

``repro.devtools.pickle_boundary.PICKLE_BOUNDARY`` names every class
that crosses the process boundary (task payloads, descriptors, the
shard-error family, fault plans, run configuration).  RL005 statically
bans unpicklable fields on those classes; this test is the dynamic half
of that contract:

* every registered class round-trips through ``pickle`` in-process with
  its state intact, and
* the classes a *worker* must be able to raise or rebuild
  (``SUBPROCESS_CLASSES``) additionally round-trip through a spawned
  fresh interpreter — the same leg a process-pool result travels.

If a class is added to the boundary (a new task payload, a new error
subtype) this test fails until a builder is registered here, keeping the
static registry, the runtime classes and the audit in lockstep.
"""

from __future__ import annotations

import base64
import importlib
from array import array
import pickle
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from repro.devtools.pickle_boundary import (
    PICKLE_BOUNDARY,
    SUBPROCESS_CLASSES,
    registry_by_module,
)
from repro.core.state_machine import JoinState
from repro.core.trace import ExecutionTrace
from repro.engine.tuples import Schema
from repro.joins.base import JoinAttribute, OperationCounters
from repro.runtime.config import RunConfig
from repro.runtime.errors import (
    ShardError,
    ShardExecutionError,
    ShardTimeoutError,
)
from repro.runtime.failures import ShardFailure
from repro.runtime.faults import FaultPlan, FaultSpec, InjectedFaultError
from repro.runtime.handoff import BlockDescriptor
from repro.runtime.parallel import ShardInputPayload, _ShardTask
from repro.runtime.shard_result import ShardResult

REPO_ROOT = Path(__file__).resolve().parents[2]

SCHEMA = Schema(["row_id", "location"], name="audit_rows")


def _payload() -> ShardInputPayload:
    return ShardInputPayload(
        schema=Schema(["location"], name="audit_rows"),
        keys=["LIG GE GENOVA", "PIE TO TORINO"],
    )


def _descriptor(name: str) -> BlockDescriptor:
    return BlockDescriptor(
        name=name,
        schema_attributes=("location",),
        schema_name="audit_rows",
        row_count=4,
        payload_size=128,
        shard_extents=(2, 2),
    )


def _shard_result() -> ShardResult:
    trace = ExecutionTrace()
    trace.total_steps = 9
    trace.total_matches = 2
    return ShardResult(
        array("i", [0, 3]),
        array("i", [1, 1]),
        array("d", [1.0, 0.875]),
        array("q", [2, 9]),
        bytes([0x24, 0x7B]),
        OperationCounters(exact_probes=4, matches_emitted=2),
        trace,
        JoinState.LEX_RAP,
        SCHEMA.concat(SCHEMA, name="join"),
        cancelled=True,
    )


# One representative, fully-populated instance per registered class.
# Keyed by (module, class name) so completeness against PICKLE_BOUNDARY
# can be asserted exactly.
def _build_instances():
    fault_plan = FaultPlan(
        (
            FaultSpec(0, "fail", attempt=1, after_batches=2),
            FaultSpec(1, "hang", attempt=None, after_batches=0),
        )
    )
    return {
        ("repro.runtime.config", "RunConfig"): RunConfig(),
        ("repro.runtime.errors", "ShardError"): ShardError("boundary audit"),
        ("repro.runtime.errors", "ShardExecutionError"): ShardExecutionError(
            3, 2, 5, "ValueError: injected"
        ),
        ("repro.runtime.errors", "ShardTimeoutError"): ShardTimeoutError(
            4, 1, 7, 0.25, "deadline tripped"
        ),
        ("repro.runtime.faults", "InjectedFaultError"): InjectedFaultError(
            "fault for shard 2"
        ),
        ("repro.runtime.faults", "FaultSpec"): FaultSpec(
            2, "fail", attempt=3, after_batches=1
        ),
        ("repro.runtime.faults", "FaultPlan"): fault_plan,
        ("repro.runtime.failures", "ShardFailure"): ShardFailure(
            shard_id=2,
            attempts=3,
            error_type="ShardTimeoutError",
            message="exceeded the per-shard timeout",
            batches=4,
            timed_out=True,
            left_records=10,
            right_records=12,
        ),
        ("repro.runtime.handoff", "BlockDescriptor"): _descriptor("audit_seg"),
        ("repro.runtime.parallel", "ShardInputPayload"): _payload(),
        # A worker's return: match columns plus counters and trace.
        ("repro.runtime.shard_result", "ShardResult"): _shard_result(),
        # Both side-payload kinds in one task: a shared-memory descriptor
        # on the left, shipped keys on the right.
        ("repro.runtime.parallel", "_ShardTask"): _ShardTask(
            shard_id=0,
            attribute=JoinAttribute("location", "location"),
            config=RunConfig(),
            left=_descriptor("left_seg"),
            right=_payload(),
            left_name="left",
            right_name="right",
            attempt=2,
            timeout_seconds=1.5,
            faults=fault_plan,
            cancel_flag="cancel_seg",
            max_batch=64,
            batch_delay=0.01,
        ),
    }


INSTANCES = _build_instances()


def _state(obj):
    """A comparable snapshot of an instance's externally visible state."""
    if isinstance(obj, BaseException):
        return (type(obj).__name__, obj.args, str(obj))
    if is_dataclass(obj):
        return {
            field.name: _state(getattr(obj, field.name))
            for field in fields(obj)
        }
    if hasattr(type(obj), "__slots__") and not hasattr(obj, "__dict__"):
        return {
            slot: _state(getattr(obj, slot)) for slot in type(obj).__slots__
        }
    if isinstance(obj, (tuple, list)):
        return type(obj)(_state(item) for item in obj)
    if isinstance(obj, dict):
        return {key: _state(value) for key, value in obj.items()}
    if type(obj).__module__.startswith("repro") and hasattr(obj, "__dict__"):
        # Plain repro objects without __eq__ (e.g. CostModel): compare by
        # type and instance attributes instead of identity.
        return (type(obj).__name__, _state(vars(obj)))
    return obj


class TestRegistryShape:
    def test_builders_cover_registry_exactly(self):
        assert set(INSTANCES) == set(PICKLE_BOUNDARY), (
            "PICKLE_BOUNDARY and the audit builders disagree; register a "
            "representative instance for every boundary class"
        )

    def test_registered_classes_exist_in_their_modules(self):
        for module_name, class_name in PICKLE_BOUNDARY:
            module = importlib.import_module(module_name)
            cls = getattr(module, class_name)
            assert cls.__module__ == module_name

    def test_registry_by_module_matches_flat_registry(self):
        grouped = registry_by_module()
        flattened = {
            (module, name)
            for module, names in grouped.items()
            for name in names
        }
        assert flattened == set(PICKLE_BOUNDARY)

    def test_subprocess_classes_are_registered(self):
        registered = {name for _, name in PICKLE_BOUNDARY}
        assert set(SUBPROCESS_CLASSES) <= registered


class TestInProcessRoundTrip:
    @pytest.mark.parametrize(
        "key", sorted(INSTANCES), ids=lambda key: f"{key[0]}.{key[1]}"
    )
    def test_round_trip_preserves_state(self, key):
        original = INSTANCES[key]
        clone = pickle.loads(pickle.dumps(original, pickle.HIGHEST_PROTOCOL))
        assert type(clone) is type(original)
        assert _state(clone) == _state(original)

    def test_shard_task_payload_keys_survive(self):
        task = INSTANCES[("repro.runtime.parallel", "_ShardTask")]
        clone = pickle.loads(pickle.dumps(task))
        assert clone.left.name == "left_seg"
        assert clone.right.schema.attributes == ("location",)
        assert clone.right.keys == ["LIG GE GENOVA", "PIE TO TORINO"]

    def test_timeout_error_args_match_constructor(self):
        # The re-raise across a process pool calls type(err)(*err.args); the
        # constructor-compatible .args contract is what makes that safe.
        error = INSTANCES[("repro.runtime.errors", "ShardTimeoutError")]
        rebuilt = type(error)(*error.args)
        assert _state(rebuilt) == _state(error)


_SUBPROCESS_SCRIPT = """\
import base64
import pickle
import sys

blob = base64.b64decode(sys.stdin.readline())
obj = pickle.loads(blob)
sys.stdout.write(
    base64.b64encode(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)).decode()
)
"""


class TestSubprocessLeg:
    @pytest.mark.parametrize("class_name", sorted(SUBPROCESS_CLASSES))
    def test_fresh_interpreter_round_trip(self, class_name):
        key = next(
            key for key in INSTANCES if key[1] == class_name
        )
        original = INSTANCES[key]
        blob = base64.b64encode(
            pickle.dumps(original, pickle.HIGHEST_PROTOCOL)
        )
        completed = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SCRIPT],
            input=blob + b"\n",
            capture_output=True,
            cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr.decode()
        clone = pickle.loads(base64.b64decode(completed.stdout))
        assert type(clone) is type(original)
        assert _state(clone) == _state(original)
