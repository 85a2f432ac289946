"""Control-loop event dataclasses shared across the layer boundary.

:class:`TransitionEvent` and :class:`AssessmentEvent` are *published* by
the runtime's switch policies but *consumed* by core observers — the
:class:`~repro.core.trace.ExecutionTrace` records both.  They originally
lived in :mod:`repro.runtime.events`, which made ``repro.core.trace``
import upward from ``repro.runtime`` — the one layering inversion the
``repro lint`` RL002 sweep flagged.  They are plain leaf data (their
fields reference only ``core`` and ``joins`` types, both at or below
this layer), so they live here, and every importer — runtime included
— imports them from this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.assessor import Assessment
    from repro.core.state_machine import JoinState, TransitionGuards
    from repro.joins.engine import SwitchRecord

__all__ = ["AssessmentEvent", "TransitionEvent"]


@dataclass(frozen=True, slots=True)
class TransitionEvent:
    """One state-machine transition enacted by a switch policy."""

    step: int
    from_state: "JoinState"
    to_state: "JoinState"
    #: The per-side engine switches the transition caused (with catch-up).
    switches: Tuple["SwitchRecord", ...]

    @property
    def catch_up_tuples(self) -> int:
        """Tuples re-indexed by the hash-table catch-up of this transition."""
        return sum(switch.catch_up_tuples for switch in self.switches)


@dataclass(frozen=True, slots=True)
class AssessmentEvent:
    """One control-loop activation (assessment + guard evaluation)."""

    assessment: "Assessment"
    guards: "TransitionGuards"
    state_before: "JoinState"
    state_after: "JoinState"
