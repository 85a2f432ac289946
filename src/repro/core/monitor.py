"""The Monitor of the MAR control loop (paper Sec. 3, Fig. 1).

The monitor observes the query processor while it runs and exposes, at any
step ``t``:

* the observed result size ``O_t`` (matched pairs emitted so far);
* how many tuples have been scanned from each input;
* ``A_{t,W}`` — per input side, how many of the last ``W`` steps produced an
  approximate (non-exact) match attributable to that side;
* whether any approximate matching has actually been *possible* within the
  window (no approximate operator active ⇒ the ``µ`` predicates carry no
  evidence);
* the similarity values of recent matches (the "sliding window of similarity
  values" the paper mentions), summarised as the minimum similarity seen in
  the window.

Attribution of a non-exact match to a side follows Sec. 3.3: if the stored
partner of the pair had already been matched exactly before, the *probing*
(freshly scanned) tuple must be the variant and the event is attributed to
the probing side only (and symmetrically when the probing tuple is the one
with the exact-match flag).  Matches with no attribution evidence do not,
by default, count against either side's window: the ``µ`` predicates are
meant to capture *specific* evidence that one input is perturbed, and the
"assume variants occur in both tables" default of the paper is already
expressed by the responder's blanket transition to ``lap/rap``.  Pass
``count_unattributed_against_both=True`` to revert to the conservative
accounting in which unattributed approximate matches raise both windows
(this suppresses the hybrid states almost entirely; the choice is recorded
in DESIGN.md).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Deque, Dict, List, Sequence

from repro.joins.base import JoinMode, JoinSide, MatchEvent
from repro.joins.engine import StepBatch
from repro.stats.windows import SlidingWindowCounter


@dataclass(frozen=True)
class Observation:
    """A snapshot of the monitored variables at one step."""

    step: int
    observed_matches: int
    left_scanned: int
    right_scanned: int
    #: Per-side count of window steps with an attributed approximate match.
    approx_window_counts: Dict[JoinSide, int]
    #: Per-side ``A_{t,W} / W`` fraction.
    approx_window_fractions: Dict[JoinSide, float]
    #: Number of window steps during which an approximate operator was active.
    approx_active_steps: int
    #: Lowest similarity among matches produced inside the window (1.0 when
    #: the window holds no matches).
    min_window_similarity: float

    def scanned(self, side: JoinSide) -> int:
        """Tuples scanned from ``side`` so far."""
        return self.left_scanned if side is JoinSide.LEFT else self.right_scanned

    @property
    def evidence_available(self) -> bool:
        """Whether the window could have recorded approximate matches at all."""
        return self.approx_active_steps > 0


class Monitor:
    """Collects the observable quantities the assessor needs.

    Parameters
    ----------
    window_size:
        ``W``, the length (in steps) of the sliding windows.
    count_unattributed_against_both:
        Whether non-exact matches with no attribution evidence should raise
        both sides' windows (see module docstring).  Default False.
    """

    def __init__(
        self,
        window_size: int,
        count_unattributed_against_both: bool = False,
    ) -> None:
        if window_size <= 0:
            raise ValueError(f"window size must be positive, got {window_size}")
        self.window_size = window_size
        self.count_unattributed_against_both = count_unattributed_against_both
        self._approx_match_windows: Dict[JoinSide, SlidingWindowCounter] = {
            side: SlidingWindowCounter(window_size) for side in JoinSide
        }
        self._approx_active_window = SlidingWindowCounter(window_size)
        self._min_similarity_window: Deque[float] = deque(maxlen=window_size)
        self._observed_matches = 0
        self._scanned: Dict[JoinSide, int] = {JoinSide.LEFT: 0, JoinSide.RIGHT: 0}
        self._step = 0

    # -- observation -------------------------------------------------------------

    def attach(self, bus) -> "Monitor":
        """Subscribe this monitor to a runtime event bus.

        The monitor consumes the engine's aggregate
        :class:`~repro.joins.engine.StepBatch` events: every executed step
        is covered by exactly one published batch (single-stepping
        publishes batches of one), so batch observation is bit-identical
        to observing every step — see :meth:`observe_batch`.
        Returns ``self`` so construction and attachment chain.
        """
        bus.subscribe(StepBatch, self.observe_batch)
        return self

    def detach(self, bus) -> None:
        """Remove this monitor's subscription from ``bus`` (no-op if absent)."""
        bus.unsubscribe(StepBatch, self.observe_batch)

    def observe_step(
        self,
        step: int,
        side: JoinSide,
        mode: JoinMode,
        matches: Sequence[MatchEvent],
    ) -> None:
        """Record one engine step: the per-step reference for :meth:`observe_batch`.

        ``step`` is the 1-based step number, ``side`` the input it scanned,
        ``mode`` that side's matching mode and ``matches`` the events the
        step produced.
        """
        self._step = step
        self._scanned[side] += 1
        self._observed_matches += len(matches)

        attributed = {JoinSide.LEFT: False, JoinSide.RIGHT: False}
        step_min_similarity = 1.0
        for event in matches:
            step_min_similarity = min(step_min_similarity, event.similarity)
            if event.exact_value_match:
                continue
            if event.variant_evidence is not None:
                attributed[event.variant_evidence] = True
            elif self.count_unattributed_against_both:
                attributed[JoinSide.LEFT] = True
                attributed[JoinSide.RIGHT] = True
        for side in JoinSide:
            self._approx_match_windows[side].record(attributed[side])
        self._approx_active_window.record(mode is JoinMode.APPROXIMATE)
        # Track the lowest similarity inside the window with a bounded deque
        # (one entry per step; maxlen evicts the oldest automatically).
        self._min_similarity_window.append(
            step_min_similarity if matches else 1.0
        )

    def observe_batch(self, batch: StepBatch) -> None:
        """Record a contiguous run of engine steps in one update.

        Bit-identical to calling :meth:`observe_step` for each step of the
        batch: totals are simple sums, and the sliding windows advance by
        runs — steps without approximate matches form runs of identical
        window entries, so only the (typically sparse) steps that produced
        approximate matches are touched individually.  The
        approximate-activity window needs the per-step scan side only when
        the two sides run in different modes; the batch carries ``sides``
        exactly in that case.
        """
        count = batch.count
        if count <= 0:
            return
        self._step = batch.first_step + count - 1
        self._scanned[JoinSide.LEFT] += batch.left_steps
        self._scanned[JoinSide.RIGHT] += batch.right_steps
        matches = batch.match_events
        self._observed_matches += len(matches)

        left_approx = batch.left_mode is JoinMode.APPROXIMATE
        right_approx = batch.right_mode is JoinMode.APPROXIMATE
        if left_approx == right_approx:
            self._approx_active_window.record_run(left_approx, count)
        else:
            # Hybrid state: activity depends on which side each step scanned.
            record_active = self._approx_active_window.record
            for side in batch.sides:
                record_active(
                    left_approx if side is JoinSide.LEFT else right_approx
                )

        left_window = self._approx_match_windows[JoinSide.LEFT]
        right_window = self._approx_match_windows[JoinSide.RIGHT]
        if not matches:
            left_window.record_run(False, count)
            right_window.record_run(False, count)
            self._record_similarity_run(count)
            return

        # Group match events by step (events arrive in step order, so the
        # dict iterates in ascending step order): per match step we need the
        # two attribution booleans and the step's minimum similarity.
        per_step: Dict[int, List] = {}
        both = self.count_unattributed_against_both
        for event in matches:
            if event.exact_value_match and event.similarity == 1.0:
                continue  # updates the windows exactly as no match does
            entry = per_step.get(event.step)
            if entry is None:
                entry = per_step[event.step] = [False, False, 1.0]
            if event.similarity < entry[2]:
                entry[2] = event.similarity
            if event.exact_value_match:
                continue
            evidence = event.variant_evidence
            if evidence is not None:
                entry[0 if evidence is JoinSide.LEFT else 1] = True
            elif both:
                entry[0] = True
                entry[1] = True

        previous = batch.first_step - 1
        for step, (left_hit, right_hit, min_similarity) in per_step.items():
            gap = step - previous - 1
            if gap:
                left_window.record_run(False, gap)
                right_window.record_run(False, gap)
                self._record_similarity_run(gap)
            left_window.record(left_hit)
            right_window.record(right_hit)
            self._min_similarity_window.append(min_similarity)
            previous = step
        tail = self._step - previous
        if tail:
            left_window.record_run(False, tail)
            right_window.record_run(False, tail)
            self._record_similarity_run(tail)

    def _record_similarity_run(self, count: int) -> None:
        """Append ``count`` matchless-step entries (1.0) to the window."""
        window = self._min_similarity_window
        window.extend(repeat(1.0, min(count, self.window_size)))

    # -- reporting ---------------------------------------------------------------

    @property
    def step(self) -> int:
        """Most recent step observed."""
        return self._step

    @property
    def observed_matches(self) -> int:
        """Result size ``O_t`` observed so far."""
        return self._observed_matches

    def scanned(self, side: JoinSide) -> int:
        """Tuples scanned from ``side`` so far."""
        return self._scanned[side]

    def observation(self) -> Observation:
        """Return the current snapshot of all monitored variables."""
        counts = {
            side: self._approx_match_windows[side].positives for side in JoinSide
        }
        fractions = {
            side: self._approx_match_windows[side].fraction for side in JoinSide
        }
        return Observation(
            step=self._step,
            observed_matches=self._observed_matches,
            left_scanned=self._scanned[JoinSide.LEFT],
            right_scanned=self._scanned[JoinSide.RIGHT],
            approx_window_counts=counts,
            approx_window_fractions=fractions,
            approx_active_steps=self._approx_active_window.positives,
            min_window_similarity=(
                min(self._min_similarity_window)
                if self._min_similarity_window
                else 1.0
            ),
        )

    def reset_windows(self) -> None:
        """Clear the sliding windows (used by ablation variants)."""
        for window in self._approx_match_windows.values():
            window.reset()
        self._approx_active_window.reset()
        self._min_similarity_window.clear()
