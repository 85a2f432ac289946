"""Declarative run configuration for adaptive join executions.

Before the runtime layer existed, every entry point — the adaptive
processor, ``link_tables``, the bench harness and the CLI — hand-threaded
the same dozen knobs (thresholds, q/θ, parent side and size, initial
state, cost model, budget, engine filters, batch size) through its own
parameter list.  :class:`RunConfig` unifies them in one frozen dataclass:
a configuration is *declared* once and handed to
:class:`~repro.runtime.session.JoinSession`, which builds the whole
engine + control stack from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Dict, Optional

from repro.core.budget import CostBudget
from repro.core.cost_model import CostModel
from repro.core.state_machine import JoinState
from repro.core.thresholds import Thresholds
from repro.engine.table import Table
from repro.joins.base import JoinSide


def input_size(source: object) -> Optional[int]:
    """The number of records ``source`` will produce, or ``None`` if unknown.

    Tables and sized streams (``ListStream``, ``TableStream``) report their
    length; lazy/live streams (``IteratorStream``, network sources) do not,
    and callers that need a size must be given one explicitly.
    """
    if isinstance(source, Table):
        return len(source)
    try:
        return len(source)  # type: ignore[arg-type]
    except TypeError:
        return None


@dataclass(frozen=True)
class RunConfig:
    """One complete, immutable description of an adaptive join execution.

    Attributes
    ----------
    thresholds:
        The paper's tuning parameters (Table 3): ``θ_sim``, ``q``, window
        size, ``δ_adapt`` and the σ/µ/π thresholds.  ``θ_sim`` and ``q``
        also configure the engine's approximate operator.
    policy:
        Name of the registered switch policy driving the run (see
        :mod:`repro.runtime.policy`).  ``"mar"`` — the paper's
        Monitor-Assess-Respond loop — is the default.
    parent_side:
        Which input plays the parent/reference role of the parent-child
        expectation (Sec. 3.2).
    parent_size:
        ``|R|``, the expected size of the parent table.  ``None`` means
        "infer from the parent input"; see :meth:`resolve_parent_size`.
    initial_state:
        Processor state at start.  ``None`` lets the policy choose its
        natural starting point (``lex/rex`` for MAR — the optimistic
        choice — and ``lap/rap`` for the budget-greedy policy).
    allow_source_identification:
        Forwarded to the MAR responder; ``False`` restricts the machine to
        the two symmetric states (the two-state ablation).
    cost_budget:
        Optional absolute cap on the weighted execution cost.  Mutually
        exclusive with ``budget_fraction``.
    budget_fraction:
        Optional relative budget: the target ``c_rel`` ceiling in
        ``(0, 1]``, resolved against the cost gap ``C − c`` once the total
        step count is known (both inputs sized).  Mutually exclusive with
        ``cost_budget``.
    cost_model:
        Cost model used for budget accounting (paper weights by default).
    deadline_seconds:
        Optional wall-clock budget consumed by the ``deadline`` switch
        policy: once the projected completion time (under ``cost_model``)
        exceeds it, the run is pinned to the all-exact configuration.
        Ignored by policies that do not read it.
    verify_jaccard, use_prefix_filter, use_length_filter:
        Approximate-operator knobs, forwarded to the engine (the length
        filter is the PR-1 fast-path ablation toggle).
    gram_verification:
        Class constant ``"bitset"``, not a field: approximate probes always
        recover shared-gram counts from gram bitsets.  Kept readable for
        callers that forward it to ``SideState``/``SymmetricJoinEngine``.
    scan_batch:
        Engine read-ahead batch size (bulk stream pulls; ``1`` disables).
    eager_indexing:
        Keep every index of both sides current at every step (the
        pessimistic alternative of Sec. 2.3; ablation only).
    padded_qgrams, deduplicate:
        Remaining engine knobs, forwarded verbatim.
    """

    thresholds: Thresholds = field(default_factory=Thresholds)
    policy: str = "mar"
    parent_side: JoinSide = JoinSide.LEFT
    parent_size: Optional[int] = None
    initial_state: Optional[JoinState] = None
    allow_source_identification: bool = True
    cost_budget: Optional[CostBudget] = None
    budget_fraction: Optional[float] = None
    cost_model: CostModel = field(default_factory=CostModel)
    deadline_seconds: Optional[float] = None
    verify_jaccard: bool = False
    use_prefix_filter: bool = True
    use_length_filter: bool = True
    gram_verification: ClassVar[str] = "bitset"
    scan_batch: int = 32
    eager_indexing: bool = False
    padded_qgrams: bool = True
    deduplicate: bool = True

    def __post_init__(self) -> None:
        if not self.policy or not isinstance(self.policy, str):
            raise ValueError(f"policy must be a non-empty name, got {self.policy!r}")
        if self.parent_size is not None and self.parent_size <= 0:
            raise ValueError(f"parent_size must be positive, got {self.parent_size}")
        if self.scan_batch < 1:
            raise ValueError(f"scan_batch must be at least 1, got {self.scan_batch}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be positive, got {self.deadline_seconds}"
            )
        if self.budget_fraction is not None:
            if self.cost_budget is not None:
                raise ValueError(
                    "pass either cost_budget (absolute) or budget_fraction "
                    "(relative), not both"
                )
            if not 0.0 < self.budget_fraction <= 1.0:
                raise ValueError(
                    f"budget_fraction must be in (0, 1], got {self.budget_fraction}"
                )

    # -- constructors ----------------------------------------------------------------

    @classmethod
    def paper_defaults(cls, **overrides: Any) -> "RunConfig":
        """The paper's tuned operating point (Sec. 4.2), MAR policy."""
        return cls(**overrides)

    @classmethod
    def from_thresholds(
        cls, thresholds: Optional[Thresholds], **overrides: Any
    ) -> "RunConfig":
        """Build a configuration around an existing ``Thresholds`` instance.

        ``None`` falls back to the paper defaults; every other
        :class:`RunConfig` field can be overridden by keyword.
        """
        return cls(thresholds=thresholds or Thresholds(), **overrides)

    def with_overrides(self, **overrides: Any) -> "RunConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **overrides)

    # -- resolution helpers ------------------------------------------------------------

    def resolve_parent_size(self, parent_input: object) -> int:
        """``|R|`` for this run: the explicit ``parent_size``, else the input's length.

        Raises
        ------
        ValueError
            When no explicit ``parent_size`` was configured and the parent
            input is an unsized stream; the error names the parameter so
            the caller knows exactly what to provide.
        """
        if self.parent_size is not None:
            return self.parent_size
        size = input_size(parent_input)
        if size is None:
            raise ValueError(
                "the parent input is a stream of unknown length, so |R| cannot "
                "be inferred: pass parent_size= (the expected parent/reference "
                "table size) to RunConfig / JoinSession / AdaptiveJoinProcessor"
            )
        return size

    def resolve_budget(self, total_steps: Optional[int]) -> Optional[CostBudget]:
        """The effective :class:`CostBudget` of this run, if any.

        An absolute ``cost_budget`` is returned as-is.  A relative
        ``budget_fraction`` needs the total step count (the combined size
        of both inputs) to resolve the cost gap; pass ``None`` when the
        inputs are unsized and a clear error is raised.
        """
        if self.cost_budget is not None:
            return self.cost_budget
        if self.budget_fraction is None:
            return None
        if total_steps is None:
            raise ValueError(
                "budget_fraction needs the total input size to resolve the "
                "cost gap, but at least one input is an unsized stream: pass "
                "an absolute cost_budget instead"
            )
        return CostBudget.relative(
            self.budget_fraction, total_steps, cost_model=self.cost_model
        )

    # -- reporting ---------------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Flat summary used by benchmark reports and traces."""
        return {
            "policy": self.policy,
            "parent_side": self.parent_side.value,
            "parent_size": self.parent_size,
            "initial_state": (
                self.initial_state.label if self.initial_state else None
            ),
            "allow_source_identification": self.allow_source_identification,
            "budget_fraction": self.budget_fraction,
            "deadline_seconds": self.deadline_seconds,
            "max_absolute_cost": (
                self.cost_budget.max_absolute_cost if self.cost_budget else None
            ),
            "use_prefix_filter": self.use_prefix_filter,
            "use_length_filter": self.use_length_filter,
            "scan_batch": self.scan_batch,
            "eager_indexing": self.eager_indexing,
            **self.thresholds.as_dict(),
        }
