"""Set- and token-based similarity measures.

The paper's operator decides matches with the Jaccard coefficient over
q-gram sets:

.. math::

    sim(s_1, s_2) = \\frac{|q(s_1) \\cap q(s_2)|}{|q(s_1) \\cup q(s_2)|}

Overlap, Dice and cosine variants are provided as well; they share the same
q-gram tokenisation and are interchangeable through the similarity registry
(the paper notes that "other similarity functions based on q-grams can be
exploited").
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Set

from repro.similarity.qgrams import qgram_multiset, qgram_set


def jaccard_similarity(left: Iterable, right: Iterable) -> float:
    """Jaccard coefficient of two token collections.

    Accepts any iterables of hashable tokens; duplicates are ignored (set
    semantics).  Two empty collections are defined to have similarity 1.0
    (they are indistinguishable), while an empty vs a non-empty collection
    has similarity 0.0.
    """
    left_set: Set = set(left)
    right_set: Set = set(right)
    if not left_set and not right_set:
        return 1.0
    union = len(left_set | right_set)
    if union == 0:
        return 1.0
    return len(left_set & right_set) / union


def jaccard_qgram_similarity(
    left: str, right: str, q: int = 3, padded: bool = True
) -> float:
    """Jaccard coefficient over the q-gram sets of two strings.

    This is the ``sim`` function of the paper (Sec. 2.2).

    Examples
    --------
    >>> jaccard_qgram_similarity("GENOVA", "GENOVA")
    1.0
    >>> 0.0 < jaccard_qgram_similarity("GENOVA", "GENOVa") < 1.0
    True
    """
    return jaccard_similarity(
        qgram_set(left, q=q, padded=padded), qgram_set(right, q=q, padded=padded)
    )


def overlap_coefficient(left: Iterable, right: Iterable) -> float:
    """Overlap (Szymkiewicz-Simpson) coefficient of two token collections.

    ``|A ∩ B| / min(|A|, |B|)``; 1.0 when either side is empty and the other
    is too, 0.0 when exactly one side is empty.
    """
    left_set: Set = set(left)
    right_set: Set = set(right)
    if not left_set and not right_set:
        return 1.0
    if not left_set or not right_set:
        return 0.0
    return len(left_set & right_set) / min(len(left_set), len(right_set))


def dice_similarity(left: Iterable, right: Iterable) -> float:
    """Sørensen-Dice coefficient of two token collections."""
    left_set: Set = set(left)
    right_set: Set = set(right)
    if not left_set and not right_set:
        return 1.0
    denominator = len(left_set) + len(right_set)
    if denominator == 0:
        return 1.0
    return 2.0 * len(left_set & right_set) / denominator


def cosine_qgram_similarity(
    left: str, right: str, q: int = 3, padded: bool = True
) -> float:
    """Cosine similarity between the q-gram frequency vectors of two strings.

    Unlike the Jaccard variant this respects gram multiplicities, which can
    matter for values with repeated substrings.
    """
    left_counts: Counter = qgram_multiset(left, q=q, padded=padded)
    right_counts: Counter = qgram_multiset(right, q=q, padded=padded)
    if not left_counts and not right_counts:
        return 1.0
    if not left_counts or not right_counts:
        return 0.0
    dot = sum(count * right_counts[gram] for gram, count in left_counts.items())
    left_norm = math.sqrt(sum(c * c for c in left_counts.values()))
    right_norm = math.sqrt(sum(c * c for c in right_counts.values()))
    if left_norm == 0.0 or right_norm == 0.0:
        return 0.0
    return dot / (left_norm * right_norm)


def jaccard_from_shared(shared: int, left_size: int, right_size: int) -> float:
    """Jaccard coefficient from a shared-count and the two set sizes.

    The formula the bitset verification loop of
    :meth:`repro.joins.base.SideState.probe_qgram` uses to turn a
    shared-gram count into the reported similarity:
    ``shared / (|A| + |B| − shared)``.  Two empty sets are defined to have
    similarity 1.0, matching :func:`jaccard_similarity`.
    """
    union = left_size + right_size - shared
    if union == 0:
        return 1.0
    return shared / union


def jaccard_match_threshold(
    value_length: int, q: int, similarity_threshold: float
) -> int:
    """Minimum number of shared q-grams required to reach a Jaccard threshold.

    SSHJoin prunes candidate tuples using a count threshold ``k`` on shared
    q-grams: a pair whose Jaccard similarity is at least ``θ_sim`` must
    share at least

    .. math::

        k = \\lceil \\theta_{sim} \\cdot g \\rceil

    grams, where ``g = |jA| + q − 1`` is the gram count of the probe value
    — because the union of the two gram sets is at least as large as the
    probe's own gram set.  The bound is conservative (never prunes a true
    match) but tight enough to keep candidate sets small.
    """
    if not 0.0 <= similarity_threshold <= 1.0:
        raise ValueError(
            f"similarity threshold must be in [0, 1], got {similarity_threshold}"
        )
    if value_length <= 0:
        return 0
    grams = value_length + q - 1
    return max(1, math.ceil(similarity_threshold * grams))
