"""repro — reproduction of *Time-completeness trade-offs in record linkage
using Adaptive Query Processing* (Lengu, Missier, Fernandes, Guerrini,
Mesiti — EDBT 2009).

The package is organised in layers, bottom-up:

``repro.engine``
    A small pipelined, iterator-based query-engine substrate: records,
    schemas, in-memory tables, streaming sources and the classical
    OPEN/NEXT/CLOSE protocol with explicit quiescent states (the property
    that makes safe operator replacement possible).

``repro.similarity``
    String-similarity substrate: q-gram tokenisation and Jaccard similarity
    (the measure used by the paper).

``repro.stats``
    Probability and streaming-statistics substrate: binomial distribution,
    outlier detection of the observed join-result size, sliding-window
    counters.

``repro.joins``
    The physical join operators: the exact symmetric hash join ``SHJoin``,
    the approximate symmetric set hash join ``SSHJoin`` (pipelined SSJoin),
    hybrid per-side configurations, the switch/catch-up machinery and the
    non-adaptive baselines.

``repro.core``
    The paper's contribution: the Monitor-Assess-Respond adaptive control
    loop, the four-state machine (``lex/rex``, ``lap/rex``, ``lex/rap``,
    ``lap/rap``), the cost model and the gain/cost/efficiency metrics of
    Sec. 4.  (The paper-facing ``AdaptiveJoinProcessor`` façade lives in
    ``repro.runtime.adaptive``.)

``repro.runtime``
    The composition layer: ``RunConfig`` (one declarative description of
    an execution), ``JoinSession`` (builds and drives engine + control
    stack; the single construction path used by the processor façade,
    ``link_tables``, the bench harness and the CLI), the pluggable
    ``SwitchPolicy`` registry (``mar``, ``fixed``, ``budget-greedy``) and
    the ``EventBus`` the engine publishes step/match/switch events onto.

``repro.linkage``
    A thin record-linkage toolkit layer (evaluation against ground truth)
    and the high-level ``link_tables`` entry point (a compatibility wrapper
    over the jobs layer).

``repro.jobs``
    The job-oriented public API: the fluent ``LinkageJob`` builder
    (compiles to a frozen ``RunConfig``) and the ``JobHandle`` it
    returns — blocking ``run()``, lazy ``stream_matches()``, live
    ``progress()`` and mid-run ``cancel()`` with partial results.

``repro.datagen``
    The synthetic workload generator of Sec. 4.1: municipality-style parent
    tables, accident-style child tables, variant injection and the four
    perturbation patterns of Fig. 5.

``repro.bench``
    The experiment drivers that regenerate every table and figure of the
    paper's evaluation (see DESIGN.md and EXPERIMENTS.md).
"""

from repro.core.metrics import GainCostReport
from repro.core.state_machine import JoinState
from repro.core.thresholds import Thresholds
from repro.engine.table import Table
from repro.engine.tuples import Record, Schema
from repro.jobs import JobHandle, LinkageJob, LinkageResult, StreamedMatch
from repro.joins.shjoin import SHJoin
from repro.joins.sshjoin import SSHJoin
from repro.linkage.api import link_tables
from repro.runtime.adaptive import AdaptiveJoinProcessor, AdaptiveJoinResult
from repro.runtime.config import RunConfig
from repro.runtime.events import EventBus
from repro.runtime.policy import available_policies, register_policy
from repro.runtime.session import JoinSession

__version__ = "1.2.0"

__all__ = [
    "AdaptiveJoinProcessor",
    "AdaptiveJoinResult",
    "Thresholds",
    "JoinState",
    "GainCostReport",
    "Table",
    "Record",
    "Schema",
    "SHJoin",
    "SSHJoin",
    "link_tables",
    "LinkageJob",
    "JobHandle",
    "LinkageResult",
    "StreamedMatch",
    "RunConfig",
    "JoinSession",
    "EventBus",
    "register_policy",
    "available_policies",
    "__version__",
]
