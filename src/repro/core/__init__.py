"""The paper's contribution: adaptive join processing for record linkage.

This package implements the Monitor-Assess-Respond (MAR) control loop of
Secs. 2-3 of the paper on top of the switchable symmetric-join engine of
:mod:`repro.joins`:

* :mod:`repro.core.thresholds` — the tunable parameters of Table 3
  (``W``, ``θ_sim``, ``δ_adapt``, ``θ_out``, ``θ_curpert``, ``θ_pastpert``).
* :mod:`repro.core.state_machine` — the four processor states of Fig. 4 and
  the transition guards ``φ_0..φ_3``.
* :mod:`repro.core.monitor` — observation of result size, per-side
  approximate-match windows and perturbation evidence.
* :mod:`repro.core.assessor` — the ``σ``, ``µ_i`` and ``π_i`` predicates of
  Table 2.
* :mod:`repro.core.responder` — mapping of assessments onto state
  transitions.
* :class:`AdaptiveJoinProcessor` — the paper-facing façade over
  :class:`repro.runtime.JoinSession` — lives in
  :mod:`repro.runtime.adaptive` (it *builds* a runtime session, so it
  belongs above this layer).
* :mod:`repro.core.trace` — per-run execution traces (state occupancy,
  transitions, assessments) feeding Figs. 7-8.
* :mod:`repro.core.cost_model` — the weighted cost model of Sec. 4.3.
* :mod:`repro.core.metrics` — relative gain, relative cost and efficiency.
"""

from repro.core.assessor import Assessment, Assessor
from repro.core.budget import CostBudget
from repro.core.cost_model import (
    PAPER_STATE_WEIGHTS,
    PAPER_TRANSITION_WEIGHTS,
    CostBreakdown,
    CostModel,
)
from repro.core.metrics import GainCostReport, efficiency, relative_cost, relative_gain
from repro.core.monitor import Monitor, Observation
from repro.core.responder import Responder
from repro.core.state_machine import JoinState, StateMachine, TransitionGuards
from repro.core.thresholds import Thresholds
from repro.core.trace import (
    AssessmentRecord,
    ExecutionTrace,
    TransitionRecord,
    merge_traces,
)

__all__ = [
    "Assessment",
    "Assessor",
    "CostBudget",
    "CostBreakdown",
    "CostModel",
    "PAPER_STATE_WEIGHTS",
    "PAPER_TRANSITION_WEIGHTS",
    "GainCostReport",
    "relative_gain",
    "relative_cost",
    "efficiency",
    "Monitor",
    "Observation",
    "Responder",
    "JoinState",
    "StateMachine",
    "TransitionGuards",
    "Thresholds",
    "ExecutionTrace",
    "TransitionRecord",
    "AssessmentRecord",
    "merge_traces",
]
