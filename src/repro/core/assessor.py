"""The Assessor of the MAR control loop (paper Sec. 3.2 and 3.5, Table 2).

The assessor turns the monitor's raw observations into the three predicate
families the responder needs:

``σ(t)``
    There is a statistically significant shortfall in the observed result
    size: under the parent-child binomial model of Sec. 3.2,
    ``P(O ≤ observed) ≤ θ_out`` (Eq. 1).

``µ_i(t)``
    Input ``i`` is *unlikely to be currently perturbed*: the fraction of
    window steps with an approximate match attributed to ``i`` is at most
    ``θ_curpert`` (count- or fraction-valued, see
    :class:`~repro.core.thresholds.Thresholds`).

``π_i(t)``
    Input ``i`` is *unlikely to have been perturbed in the past*: the number
    of past assessments at which ``i`` looked perturbed (``¬µ_i``) is at
    most ``θ_pastpert``.  (The paper's Table 2 literally sums ``I(µ_i)``,
    i.e. the *unperturbed* evaluations, but its prose — "how often in the
    past a high density of approximate matches have been observed" — makes
    clear the count is over perturbed evaluations; we follow the prose.)

The assessor is also the component that decides *when* the responder is
activated: only every ``δ_adapt`` steps (Sec. 3.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.monitor import Observation
from repro.core.thresholds import Thresholds
from repro.joins.base import JoinSide
from repro.stats.completeness import CompletenessModel, ResultSizeObservation
from repro.stats.windows import BooleanHistory


@dataclass(frozen=True)
class Assessment:
    """The assessor's verdict at one activation of the control loop."""

    step: int
    sigma: bool
    mu: Dict[JoinSide, bool]
    pi: Dict[JoinSide, bool]
    #: Whether approximate-match evidence could have been collected in the
    #: current window (False while only exact operators have been running).
    evidence_available: bool
    #: The left-tail probability of Eq. 1 (for reporting / traces).
    outlier_probability: float
    #: Expected minus observed matches under the binomial model.
    shortfall: float

    @property
    def mu_left(self) -> bool:
        """µ_left — the left input looks currently unperturbed."""
        return self.mu[JoinSide.LEFT]

    @property
    def mu_right(self) -> bool:
        """µ_right — the right input looks currently unperturbed."""
        return self.mu[JoinSide.RIGHT]

    @property
    def pi_left(self) -> bool:
        """π_left — the left input has rarely looked perturbed in the past."""
        return self.pi[JoinSide.LEFT]

    @property
    def pi_right(self) -> bool:
        """π_right — the right input has rarely looked perturbed in the past."""
        return self.pi[JoinSide.RIGHT]


class Assessor:
    """Evaluates the σ / µ / π predicates from monitor observations.

    Parameters
    ----------
    thresholds:
        The tuning parameters (Table 3).
    parent_size:
        ``|R|``, the size of the parent (reference) table, needed by the
        binomial completeness model.
    parent_side:
        Which join input plays the parent role (default: left).  The other
        side is the child whose tuples are each expected to match exactly
        one parent tuple.
    """

    def __init__(
        self,
        thresholds: Thresholds,
        parent_size: int,
        parent_side: JoinSide = JoinSide.LEFT,
    ) -> None:
        self.thresholds = thresholds
        self.parent_side = parent_side
        self.model = CompletenessModel(
            parent_size=parent_size, outlier_threshold=thresholds.theta_out
        )
        self._perturbation_history: Dict[JoinSide, BooleanHistory] = {
            side: BooleanHistory() for side in JoinSide
        }
        self._last_assessment_step: Optional[int] = None

    # -- activation gating ---------------------------------------------------------

    def should_assess(self, step: int) -> bool:
        """Whether the control loop should activate at ``step``.

        True every ``δ_adapt`` steps (and never twice for the same step).
        """
        if step <= 0 or step % self.thresholds.delta_adapt != 0:
            return False
        if self._last_assessment_step == step:
            return False
        return True

    # -- assessment ---------------------------------------------------------------

    def assess(self, observation: Observation) -> Assessment:
        """Evaluate all predicates for ``observation`` and update the histories."""
        self._last_assessment_step = observation.step

        child_side = self.parent_side.other
        result_observation = ResultSizeObservation(
            observed_matches=observation.observed_matches,
            child_scanned=observation.scanned(child_side),
            parent_scanned=observation.scanned(self.parent_side),
            step=observation.step,
        )
        child_scanned = result_observation.child_scanned
        outlier_probability = (
            self.model.observation_probability(result_observation)
            if child_scanned > 0
            else 1.0
        )
        # Eq. 1 on this probability: ``model.is_outlier`` would recompute the CDF.
        sigma = (
            child_scanned > 0 and outlier_probability <= self.model.outlier_threshold
        )
        shortfall = self.model.shortfall(result_observation)

        mu_threshold = self.thresholds.current_perturbation_fraction
        mu = {
            side: observation.approx_window_fractions[side] <= mu_threshold
            for side in JoinSide
        }
        evidence_available = observation.evidence_available

        # Update the perturbation histories only when the window actually
        # carried evidence; counting vacuous "unperturbed" verdicts would
        # dilute π for no reason.
        if evidence_available:
            for side in JoinSide:
                self._perturbation_history[side].record(not mu[side])

        pi = {
            side: self._perturbation_history[side].true_count
            <= self.thresholds.past_perturbation_limit
            for side in JoinSide
        }

        return Assessment(
            step=observation.step,
            sigma=sigma,
            mu=mu,
            pi=pi,
            evidence_available=evidence_available,
            outlier_probability=outlier_probability,
            shortfall=shortfall,
        )

    # -- introspection -------------------------------------------------------------

    def perturbed_assessments(self, side: JoinSide) -> int:
        """How many past assessments judged ``side`` to be perturbed."""
        return self._perturbation_history[side].true_count
