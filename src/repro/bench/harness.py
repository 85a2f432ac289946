"""Experiment harness for the gain/cost evaluation (Figs. 6-8).

For one generated test case the harness runs three strategies over the same
inputs:

* the **all-exact** symmetric hash join → result size ``r`` and (by the
  Sec. 4.3 cost model) the best cost ``c``;
* the **all-approximate** symmetric set hash join → result size ``R`` and
  the worst cost ``C``;
* the **adaptive** join → result size ``r_abs``, execution trace, weighted
  cost ``c_abs``.

It then assembles the :class:`~repro.core.metrics.GainCostReport` of Fig. 6
and keeps the trace around for the Fig. 7 (state occupancy) and Fig. 8
(weighted cost breakdown) benchmarks.  Wall-clock timings of the three runs
are recorded as well, as a machine-level sanity check of the weighted model.

Experiment scale
----------------
The paper's full scale (8082 parent rows) is expensive for a pure-Python
all-approximate baseline, so the default benchmark scale is reduced to
1500 parent × 3000 child rows (the fan-out of two accidents per
municipality mirrors the paper's scenario, where the accidents table
outgrows the street atlas); the environment variables
``REPRO_BENCH_PARENT_SIZE`` and ``REPRO_BENCH_CHILD_SIZE`` override it (set
them to 8082 / 16000 to run at paper scale).  The *shape* of the results —
who wins, by what factor — is insensitive to this scale, as EXPERIMENTS.md
documents.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.cost_model import CostModel
from repro.core.metrics import GainCostReport
from repro.core.thresholds import Thresholds
from repro.datagen.testcases import (
    STANDARD_TEST_CASES,
    GeneratedDataset,
    TestCaseSpec,
    generate_test_case,
)
from repro.joins.base import JoinSide
from repro.joins.shjoin import SHJoin
from repro.joins.sshjoin import SSHJoin
from repro.linkage.evaluation import LinkageEvaluation, evaluate_pairs
from repro.runtime.config import RunConfig
from repro.runtime.parallel import run_sharded
from repro.runtime.session import AdaptiveJoinResult, JoinSession
from repro.runtime.sharding import ShardedJoinResult


def _environment_size(name: str, default: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        parsed = int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if parsed <= 0:
        raise ValueError(f"{name} must be positive, got {parsed}")
    return parsed


#: Default benchmark scale (overridable via environment, see module docstring).
DEFAULT_BENCH_PARENT_SIZE = _environment_size("REPRO_BENCH_PARENT_SIZE", 1500)
DEFAULT_BENCH_CHILD_SIZE = _environment_size("REPRO_BENCH_CHILD_SIZE", 3000)


@dataclass
class ExperimentOutcome:
    """Everything measured for one test case."""

    dataset: GeneratedDataset
    report: GainCostReport
    #: The adaptive run's result: a single-session result, or a merged
    #: :class:`ShardedJoinResult` when the experiment ran sharded (the two
    #: expose the same trace / matches / result-size surface).
    adaptive: "AdaptiveJoinResult | ShardedJoinResult"
    #: Completeness of each strategy against the generator's ground truth.
    evaluations: Dict[str, LinkageEvaluation]
    #: Wall-clock seconds per strategy.
    wall_clock: Dict[str, float]

    @property
    def test_case(self) -> str:
        """Name of the test case."""
        return self.dataset.spec.name

    def fig6_row(self) -> Dict[str, object]:
        """One column of Fig. 6 as a flat row."""
        row = self.report.as_dict()
        row["recall_exact"] = self.evaluations["exact"].recall
        row["recall_adaptive"] = self.evaluations["adaptive"].recall
        row["recall_approximate"] = self.evaluations["approximate"].recall
        return row

    def fig7_row(self) -> Dict[str, object]:
        """One group of Fig. 7 bars (step counts per state + transitions)."""
        trace = self.adaptive.trace
        row: Dict[str, object] = {"test_case": self.test_case}
        for state, steps in trace.steps_per_state.items():
            row[f"steps_{state.short_label}"] = steps
        row["transitions"] = trace.transition_count
        row["exact_step_fraction"] = trace.exact_step_fraction()
        return row

    def fig8_row(self, cost_model: Optional[CostModel] = None) -> Dict[str, object]:
        """One group of Fig. 8 bars (weighted cost per state + transition cost)."""
        model = cost_model or CostModel()
        breakdown = model.breakdown(self.adaptive.trace)
        row: Dict[str, object] = {"test_case": self.test_case}
        for state, cost in breakdown.state_costs.items():
            row[f"cost_{state.short_label}"] = cost
        row["transition_cost"] = breakdown.total_transition_cost
        row["total_cost"] = breakdown.total
        return row


def run_experiment(
    spec: TestCaseSpec,
    parent_size: Optional[int] = None,
    child_size: Optional[int] = None,
    thresholds: Optional[Thresholds] = None,
    cost_model: Optional[CostModel] = None,
    allow_source_identification: bool = True,
    dataset: Optional[GeneratedDataset] = None,
    policy: str = "mar",
    budget: Optional[float] = None,
    deadline: Optional[float] = None,
    shards: int = 1,
    backend: str = "serial",
    partitioner: str = "hash",
    handoff: str = "auto",
) -> ExperimentOutcome:
    """Run the three strategies for one test case and assemble the outcome.

    Parameters
    ----------
    spec:
        The test-case specification (pattern + variant placement).
    parent_size, child_size:
        Optional scale overrides; default to the benchmark scale.
    thresholds:
        Adaptive configuration (defaults to the paper's operating point).
    cost_model:
        Cost model used for ``c``, ``C`` and ``c_abs`` (defaults to the
        paper-calibrated weights).
    allow_source_identification:
        Forwarded to the adaptive run (False = two-state ablation).
    dataset:
        Pre-generated dataset to reuse (skips regeneration); must match the
        spec when provided.
    policy:
        Switch policy for the adaptive run (default ``"mar"``; the other
        registered policies open non-paper scenarios, e.g.
        ``"budget-greedy"``).
    budget:
        Optional relative cost budget in ``(0, 1]`` for the adaptive run.
    deadline:
        Optional wall-clock budget in seconds (the ``deadline`` policy).
    shards, backend, partitioner:
        Sharded execution of the adaptive run (``shards > 1``): the
        inputs are partitioned, one session runs per shard on ``backend``
        and the merged result is measured.  ``partitioner="gram-prefix"``
        replicates records across the shards owning their prefix grams,
        so the adaptive run's recall is shard-count-independent
        (duplicates removed at merge).  The baselines always run
        unsharded — they are the reference costs the gain/cost report
        compares against.
    handoff:
        Shard-input representation for the sharded run (``"auto"`` /
        ``"pickle"`` / ``"shared-memory"``; performance knob only, see
        ARCHITECTURE.md "Shard handoff").
    """
    if shards < 1:
        raise ValueError(f"shards must be at least 1, got {shards}")
    if dataset is None:
        dataset = generate_test_case(
            spec,
            parent_size=parent_size or DEFAULT_BENCH_PARENT_SIZE,
            child_size=child_size or DEFAULT_BENCH_CHILD_SIZE,
        )
    thresholds = thresholds or Thresholds()
    model = cost_model or CostModel()
    wall_clock: Dict[str, float] = {}

    # -- all-exact baseline -------------------------------------------------------
    started = time.perf_counter()
    exact_join = SHJoin(dataset.parent, dataset.child, "location")
    exact_records = exact_join.run()
    wall_clock["exact"] = time.perf_counter() - started
    exact_pairs = sorted(exact_join.engine._emitted_pairs)
    exact_size = len(exact_records)

    # -- all-approximate baseline ---------------------------------------------------
    started = time.perf_counter()
    approx_join = SSHJoin(
        dataset.parent,
        dataset.child,
        "location",
        similarity_threshold=thresholds.theta_sim,
        q=thresholds.q,
    )
    approx_records = approx_join.run()
    wall_clock["approximate"] = time.perf_counter() - started
    approx_pairs = sorted(approx_join.engine._emitted_pairs)
    approx_size = len(approx_records)

    # -- adaptive run ---------------------------------------------------------------
    run_config = RunConfig.from_thresholds(
        thresholds,
        parent_side=JoinSide.LEFT,
        allow_source_identification=allow_source_identification,
        cost_model=model,
        policy=policy,
        budget_fraction=budget,
        deadline_seconds=deadline,
    )
    started = time.perf_counter()
    if shards > 1:
        adaptive_result = run_sharded(
            dataset.parent,
            dataset.child,
            "location",
            run_config,
            shards=shards,
            partitioner=partitioner,
            backend=backend,
            handoff=handoff,
        )
    else:
        session = JoinSession(dataset.parent, dataset.child, "location", run_config)
        adaptive_result = session.run()
    wall_clock["adaptive"] = time.perf_counter() - started

    total_steps = adaptive_result.trace.total_steps
    report = GainCostReport(
        test_case=spec.name,
        exact_result_size=exact_size,
        approximate_result_size=approx_size,
        adaptive_result_size=adaptive_result.result_size,
        exact_cost=model.all_exact_cost(total_steps),
        approximate_cost=model.all_approximate_cost(total_steps),
        adaptive_cost=model.absolute_cost(adaptive_result.trace),
    )

    truth = dataset.true_pairs
    evaluations = {
        "exact": evaluate_pairs(exact_pairs, truth),
        "approximate": evaluate_pairs(approx_pairs, truth),
        "adaptive": evaluate_pairs(adaptive_result.matched_pairs(), truth),
    }

    return ExperimentOutcome(
        dataset=dataset,
        report=report,
        adaptive=adaptive_result,
        evaluations=evaluations,
        wall_clock=wall_clock,
    )


def run_all_standard_experiments(
    parent_size: Optional[int] = None,
    child_size: Optional[int] = None,
    thresholds: Optional[Thresholds] = None,
    test_cases: Optional[List[str]] = None,
) -> Dict[str, ExperimentOutcome]:
    """Run :func:`run_experiment` for every (selected) standard test case."""
    names = test_cases or list(STANDARD_TEST_CASES)
    outcomes: Dict[str, ExperimentOutcome] = {}
    for name in names:
        outcomes[name] = run_experiment(
            STANDARD_TEST_CASES[name],
            parent_size=parent_size,
            child_size=child_size,
            thresholds=thresholds,
        )
    return outcomes
