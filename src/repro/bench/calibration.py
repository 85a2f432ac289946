"""Machine-specific calibration of the cost-model weights (Sec. 4.3).

The paper determines the unit step weights ``w_i`` (one per state) and the
transition weights ``v_i`` experimentally, by timing steps and transitions
and normalising by the unit step cost of the all-exact state ``lex/rex``.
This module repeats that procedure on the current machine and
implementation:

* **step weights** — the engine is run in each of the four fixed
  configurations over the same inputs; the average per-step wall-clock time
  of each configuration, divided by the ``lex/rex`` average, gives ``w_i``;
* **transition weights** — switches into each state are forced half-way
  through a run and the catch-up time is measured, again normalised by the
  ``lex/rex`` step time.

The calibrated weights can be passed to
:class:`~repro.core.cost_model.CostModel` to recompute the Fig. 8 breakdown
with machine-measured instead of paper-reported weights; EXPERIMENTS.md
records both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.state_machine import JoinState
from repro.datagen.testcases import GeneratedDataset, TestCaseSpec, generate_test_case
from repro.engine.streams import TableStream
from repro.joins.base import JoinAttribute
from repro.joins.engine import SymmetricJoinEngine


@dataclass
class WeightCalibration:
    """Measured per-state step weights and per-transition weights."""

    state_weights: Dict[JoinState, float]
    transition_weights: Dict[JoinState, float]
    #: Raw mean step time (seconds) of the lex/rex configuration, i.e. the
    #: unit every other number is normalised by.
    unit_step_seconds: float

    def as_rows(self) -> list:
        """Rows comparing measured weights with the paper's (for reports)."""
        from repro.core.cost_model import PAPER_STATE_WEIGHTS, PAPER_TRANSITION_WEIGHTS

        rows = []
        for state in JoinState:
            rows.append(
                {
                    "state": state.label,
                    "measured_step_weight": self.state_weights[state],
                    "paper_step_weight": PAPER_STATE_WEIGHTS[state],
                    "measured_transition_weight": self.transition_weights[state],
                    "paper_transition_weight": PAPER_TRANSITION_WEIGHTS[state],
                }
            )
        return rows


def _fresh_engine(dataset: GeneratedDataset, state: JoinState,
                  similarity_threshold: float, q: int) -> SymmetricJoinEngine:
    return SymmetricJoinEngine(
        TableStream(dataset.parent),
        TableStream(dataset.child),
        JoinAttribute("location", "location"),
        similarity_threshold=similarity_threshold,
        q=q,
        left_mode=state.left_mode,
        right_mode=state.right_mode,
    )


def _measure_steps(engine: SymmetricJoinEngine, max_steps: int) -> float:
    """Average wall-clock seconds per step over at most ``max_steps`` steps."""
    started = time.perf_counter()
    batch = engine.run_batch(max_steps) if max_steps > 0 else None
    elapsed = time.perf_counter() - started
    executed = batch.count if batch is not None else 0
    return elapsed / max(executed, 1)


def _measure_transition(
    dataset: GeneratedDataset,
    target: JoinState,
    warm_up_steps: int,
    similarity_threshold: float,
    q: int,
) -> float:
    """Seconds spent switching into ``target`` after a warm-up in the opposite modes."""
    source = JoinState.LAP_RAP if target is JoinState.LEX_REX else JoinState.LEX_REX
    engine = _fresh_engine(dataset, source, similarity_threshold, q)
    if warm_up_steps > 0:
        engine.run_batch(warm_up_steps)
    started = time.perf_counter()
    engine.set_modes(target.left_mode, target.right_mode)
    return time.perf_counter() - started


def calibrate_weights(
    parent_size: int = 600,
    child_size: int = 400,
    max_steps: int = 400,
    similarity_threshold: float = 0.85,
    q: int = 3,
    dataset: Optional[GeneratedDataset] = None,
) -> WeightCalibration:
    """Measure state and transition weights on the current machine.

    Parameters mirror the experiment scale; the default is intentionally
    small because only *relative* times are needed and they stabilise
    quickly.
    """
    if dataset is None:
        spec = TestCaseSpec(
            name="calibration",
            pattern="uniform",
            variants_in="both",
            parent_size=parent_size,
            child_size=child_size,
            seed=97,
        )
        dataset = generate_test_case(spec)

    per_state_seconds: Dict[JoinState, float] = {}
    for state in JoinState:
        engine = _fresh_engine(dataset, state, similarity_threshold, q)
        per_state_seconds[state] = _measure_steps(engine, max_steps)

    unit = per_state_seconds[JoinState.LEX_REX] or 1e-9
    state_weights = {
        state: seconds / unit for state, seconds in per_state_seconds.items()
    }

    warm_up = min(max_steps, parent_size + child_size) // 2
    transition_weights = {
        state: _measure_transition(dataset, state, warm_up, similarity_threshold, q)
        / unit
        for state in JoinState
    }

    return WeightCalibration(
        state_weights=state_weights,
        transition_weights=transition_weights,
        unit_step_seconds=unit,
    )
