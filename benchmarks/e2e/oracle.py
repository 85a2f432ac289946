"""The benchmark's own correctness check, independent of ``src/`` fast paths.

Nothing here calls the gram index, the interner or the similarity
package: q-grams are counted by the local :func:`gram_masks` and every
check is a set or bit operation over its output.  A result passes when

* no pair occurs twice;
* every pair of ``dataset.exactly_matchable_pairs()`` is present (an
  all-exact join finds those, so every strategy must);
* every pair shares at least ``ceil(theta * min(g_l, g_r))`` distinct
  padded 3-grams — the weakest floor any probe direction of the paper's
  counter test implies, so it holds for exact, approximate and adaptive
  runs alike;
* and, where the workload supplies one, the pairs agree with a stronger
  reference: a brute-force scan over a child sample
  (:func:`brute_force_pairs`), an unsharded run, or a pre-computed match
  sequence.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

Pair = Tuple[int, int]

#: Frames a value for padded q-grams; a private-use code point no
#: generated location string contains.
_PAD = "\ue000"


def gram_masks(
    values: Iterable[str], vocabulary: Dict[str, int], q: int = 3
) -> List[int]:
    """One bitmask per value: bit ``i`` is set iff the value has gram ``i``.

    ``vocabulary`` maps gram -> bit position and grows as new grams are
    seen; share one across both sides so their masks are comparable.
    ``mask.bit_count()`` is the distinct-gram count, and
    ``(a & b).bit_count()`` the number of shared grams.
    """
    masks = []
    frame = _PAD * (q - 1)
    for value in values:
        mask = 0
        if value:
            framed = frame + value + frame
            for start in range(len(value) + q - 1):
                gram = framed[start : start + q]
                bit = vocabulary.get(gram)
                if bit is None:
                    bit = vocabulary[gram] = len(vocabulary)
                mask |= 1 << bit
        masks.append(mask)
    return masks


def required_shared(theta: float, gram_count: int) -> int:
    """``k = ceil(theta * g)``, clamped to ``[1, g]`` as the operator does."""
    return min(max(1, math.ceil(theta * gram_count)), gram_count)


class Reference:
    """Everything the checks need about one generated dataset."""

    def __init__(self, dataset, attribute: str, theta: float) -> None:
        self.theta = theta
        self.true_pairs: Set[Pair] = set(dataset.true_pairs)
        self.exact_pairs: Set[Pair] = set(dataset.exactly_matchable_pairs())
        vocabulary: Dict[str, int] = {}
        self.left_masks = gram_masks(dataset.parent.column(attribute), vocabulary)
        self.right_masks = gram_masks(dataset.child.column(attribute), vocabulary)
        #: Optional stronger references, set by the workload's set-up.
        self.sample_rows: Optional[Set[int]] = None
        self.sample_pairs: Optional[Set[Pair]] = None
        self.expected_set: Optional[Set[Pair]] = None
        self.expected_sequence: Optional[List[Pair]] = None

    def recall_hits(self, pairs: Iterable[Pair]) -> int:
        """How many of ``pairs`` are true pairs (the numerator of recall)."""
        return len(self.true_pairs.intersection(pairs))


def brute_force_pairs(reference: Reference, sample_rows: Sequence[int]) -> Set[Pair]:
    """All-pairs scan of the sampled child rows against every parent row.

    Applies the paper's probe-directional counter test literally: the
    tuple that arrives second probes the other, and the pair matches when
    they share ``ceil(theta * g_probe)`` grams.  Arrival order is the
    engine's documented schedule — strict alternation starting on the
    left while both inputs last, then the survivor drains.
    """
    left, right = reference.left_masks, reference.right_masks
    both = min(len(left), len(right))

    def arrival(index: int, offset: int) -> int:
        return 2 * index + offset if index < both else both + index + 1

    left_counts = [mask.bit_count() for mask in left]
    found: Set[Pair] = set()
    for child in sample_rows:
        child_mask = right[child]
        child_count = child_mask.bit_count()
        child_arrival = arrival(child, 2)
        child_required = required_shared(reference.theta, child_count)
        for parent, parent_mask in enumerate(left):
            shared = (child_mask & parent_mask).bit_count()
            if not shared:
                continue
            if child_arrival > arrival(parent, 1):
                required = child_required
            else:
                required = required_shared(reference.theta, left_counts[parent])
            if shared >= required:
                found.add((parent, child))
    return found


def check_pairs(reference: Reference, pairs: Sequence[Pair]) -> List[str]:
    """Every way ``pairs`` violates the reference; empty when it passes."""
    problems: List[str] = []
    found = set(pairs)
    if len(found) != len(pairs):
        problems.append(f"{len(pairs) - len(found)} duplicate pair(s)")
    missing = reference.exact_pairs - found
    if missing:
        problems.append(
            f"{len(missing)} exactly matchable pair(s) missing, e.g. "
            f"{sorted(missing)[0]}"
        )
    left, right = reference.left_masks, reference.right_masks
    for pair in found:
        parent, child = pair
        if not (0 <= parent < len(left) and 0 <= child < len(right)):
            problems.append(f"pair {pair} is out of range")
            break
        floor = required_shared(
            reference.theta, min(left[parent].bit_count(), right[child].bit_count())
        )
        if (left[parent] & right[child]).bit_count() < floor:
            problems.append(f"pair {pair} shares fewer than {floor} grams")
            break
    if reference.sample_pairs is not None:
        sampled = {pair for pair in found if pair[1] in reference.sample_rows}
        if sampled != reference.sample_pairs:
            problems.append(
                f"child sample: {len(sampled - reference.sample_pairs)} pair(s) "
                f"the brute-force scan rejects, "
                f"{len(reference.sample_pairs - sampled)} it finds are missing"
            )
    if reference.expected_set is not None and found != reference.expected_set:
        problems.append(
            f"pair set differs from the reference run: "
            f"{len(found - reference.expected_set)} extra, "
            f"{len(reference.expected_set - found)} missing"
        )
    if (
        reference.expected_sequence is not None
        and list(pairs) != reference.expected_sequence
    ):
        problems.append("pair sequence differs from the reference stream")
    return problems
