"""Set- and token-based similarity measures.

The paper's operator decides matches with the Jaccard coefficient over
q-gram sets:

.. math::

    sim(s_1, s_2) = \\frac{|q(s_1) \\cap q(s_2)|}{|q(s_1) \\cup q(s_2)|}
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.similarity.qgrams import qgram_set


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
