"""High-level record-linkage API.

:func:`link_tables` is the one-call entry point a downstream user starts
with: give it two tables, the join attribute and a strategy name, and it
returns the matched pairs together with run statistics.  Strategies:

``"exact"``
    All-exact symmetric hash join (fast, misses variants).
``"approximate"``
    All-approximate symmetric set hash join (complete, expensive).
``"adaptive"``
    The paper's contribution: the MAR-controlled hybrid join.
``"blocking"``
    Conventional offline blocking + within-block similarity comparison.

Migration note
--------------
``link_tables`` is now a thin compatibility wrapper over the job layer:
it builds a :class:`repro.jobs.LinkageJob` and blocks on
``.build().run()``.  Same parameters, same :class:`LinkageResult` (whose
``records`` are now built lazily on first access), same statistics —
every existing call site keeps working.  Parameters a strategy never
consumed are still ignored (an out-of-range ``similarity_threshold``
with ``strategy="exact"``, a ``budget`` next to a full ``config``); a
nonsense value for a parameter the run *does* consume now raises a
clear ``ValueError`` from the builder instead of silently producing an
empty or meaningless result.  New code that wants more than a blocking
call should use the builder directly, which additionally offers::

    from repro.jobs import LinkageJob

    handle = (LinkageJob.between(left, right).on("location")
              .policy("deadline", seconds=2.0)
              .sharded(8, partitioner="gram-prefix")
              .with_progress()
              .build())
    handle.stream_matches()        # lazy match iterator
    handle.progress()              # live steps/matches/shards snapshot
    handle.cancel()                # stop mid-run, keep the partial result

Example
-------
>>> from repro.datagen import generate_test_case, STANDARD_TEST_CASES
>>> dataset = generate_test_case(
...     STANDARD_TEST_CASES["few_high_child"], parent_size=300, child_size=200)
>>> result = link_tables(dataset.parent, dataset.child, "location",
...                      strategy="adaptive")
>>> result.pair_count > 0
True
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.thresholds import Thresholds
from repro.engine.table import Table
from repro.jobs import STRATEGIES, LinkageJob, LinkageResult
from repro.joins.base import JoinAttribute, JoinSide
from repro.runtime.config import RunConfig
from repro.runtime.failures import FailurePolicy
from repro.runtime.faults import FaultPlan

__all__ = ["STRATEGIES", "LinkageResult", "link_tables"]


def link_tables(
    left: Table,
    right: Table,
    attribute: Union[str, JoinAttribute],
    strategy: str = "adaptive",
    similarity_threshold: float = 0.85,
    thresholds: Optional[Thresholds] = None,
    parent_side: JoinSide = JoinSide.LEFT,
    policy: str = "mar",
    budget: Optional[float] = None,
    deadline: Optional[float] = None,
    config: Optional[RunConfig] = None,
    shards: int = 1,
    backend: str = "serial",
    partitioner: str = "hash",
    handoff: str = "auto",
    on_failure: Union[str, FailurePolicy, None] = None,
    retries: Optional[int] = None,
    shard_timeout: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
) -> LinkageResult:
    """Link two tables on ``attribute`` with the chosen strategy.

    A compatibility wrapper over :class:`repro.jobs.LinkageJob` (see the
    module docstring's migration note); every parameter maps onto one
    builder call and all validation lives in the builder / RunConfig.
    ``similarity_threshold`` is ``θ_sim`` (prefer ``thresholds`` for the
    adaptive strategy); ``policy`` / ``budget`` / ``deadline`` /
    ``config`` configure the adaptive run; ``shards`` / ``backend`` /
    ``partitioner`` request sharded execution of the adaptive strategy
    (``backend``: serial / process; ``partitioner``:
    hash preserves exact semantics, gram-prefix preserves full
    approximate recall via prefix-gram replication — see ARCHITECTURE.md
    "Sharded execution").  ``handoff``
    selects the shard-input representation (``auto`` / ``pickle`` /
    ``shared-memory``; see ARCHITECTURE.md "Shard handoff") — a
    performance knob only, results are bit-identical either way.

    ``on_failure`` / ``retries`` / ``shard_timeout`` configure the
    failure policy of the sharded execution layer (``fail-fast`` —
    the default — ``retry``, ``degrade``; see ARCHITECTURE.md "Failure
    semantics").  A degraded run reports the dropped shards, an
    ``estimated_recall`` and per-side ``coverage`` in its statistics.
    ``faults`` injects a deterministic
    :class:`~repro.runtime.faults.FaultPlan` (testing harness).
    """
    job = (
        LinkageJob.between(left, right)
        .on(attribute)
        .strategy(strategy)
        .parent(parent_side)
    )
    # Parameters a strategy does not consume are left unset, exactly as
    # the old implementation ignored them: the exact strategy never reads
    # the threshold, and a full `config` is documented to override
    # thresholds/policy/budget/deadline outright.
    if thresholds is not None:
        job.thresholds(thresholds)
    elif strategy != "exact":
        job.threshold(similarity_threshold)
    if strategy == "adaptive":
        if config is not None:
            job.config(config)
        else:
            job.policy(policy, budget=budget, seconds=deadline)
    if shards != 1:
        job.sharded(
            shards, backend=backend, partitioner=partitioner, handoff=handoff
        )
    if on_failure is not None or retries is not None or shard_timeout is not None:
        if on_failure is None:
            # A bare `retries=` implies the retry policy; a bare
            # `shard_timeout=` keeps the fail-fast default (timeouts
            # apply to every policy).
            on_failure = "retry" if retries is not None else "fail-fast"
        job.on_failure(on_failure, retries=retries, shard_timeout=shard_timeout)
    if faults is not None:
        job.inject_faults(faults)
    return job.build().run()
