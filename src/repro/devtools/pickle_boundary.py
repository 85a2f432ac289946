"""The process-boundary class registry (rule RL005 + the pickle audit).

Every class listed here crosses the process-backend worker boundary by
``pickle`` — as a task payload, a shared-memory handle, a configuration,
or an error travelling back from a worker.  Two guards keep the registry
honest:

* :mod:`repro.devtools.lint` rule **RL005** statically forbids the
  listed classes from carrying unpicklable baggage (lambda fields or
  defaults, local-class definitions);
* ``tests/runtime/test_pickle_boundary.py`` round-trips a live instance
  of every entry through ``pickle`` (and, for the classes that actually
  cross a worker boundary today, through a spawned subprocess), so the
  registry and reality cannot drift apart — adding a boundary class
  without registering it here fails the audit's coverage check, and
  registering one that stops pickling fails the round-trip.

The registry is pure data (module path, class name); nothing in
``repro.devtools`` imports the classes themselves, keeping the tooling
layer import-free (see the package docstring).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

#: ``(module, class name)`` pairs of every type that crosses the process
#: boundary.  Private names (``_ShardTask`` …) are deliberately listed:
#: being private to the coordinator does not exempt a class from the
#: pickling contract.
PICKLE_BOUNDARY: Tuple[Tuple[str, str], ...] = (
    ("repro.runtime.config", "RunConfig"),
    ("repro.runtime.errors", "ShardError"),
    ("repro.runtime.errors", "ShardExecutionError"),
    ("repro.runtime.errors", "ShardTimeoutError"),
    ("repro.runtime.faults", "InjectedFaultError"),
    ("repro.runtime.faults", "FaultSpec"),
    ("repro.runtime.faults", "FaultPlan"),
    ("repro.runtime.failures", "ShardFailure"),
    ("repro.runtime.handoff", "BlockDescriptor"),
    ("repro.runtime.parallel", "ShardInputPayload"),
    ("repro.runtime.parallel", "_ShardTask"),
    ("repro.runtime.shard_result", "ShardResult"),
)

#: The subset that crosses a *spawned worker* boundary in production (the
#: process backend ships these through ``multiprocessing``); the audit
#: test gives exactly these a subprocess round-trip leg on top of the
#: in-process one.
SUBPROCESS_CLASSES: Tuple[str, ...] = (
    "BlockDescriptor",
    "ShardError",
    "ShardExecutionError",
    "ShardTimeoutError",
    "InjectedFaultError",
    "ShardResult",
)


def registry_by_module() -> Dict[str, Set[str]]:
    """The registry keyed by module, for per-file AST checks."""
    grouped: Dict[str, Set[str]] = {}
    for module, class_name in PICKLE_BOUNDARY:
        grouped.setdefault(module, set()).add(class_name)
    return grouped
