"""Record-linkage toolkit layer.

A thin layer above the join operators that speaks the vocabulary of the
record-linkage literature the paper builds on: evaluation of a linkage
result against ground truth, and a high-level
:func:`~repro.linkage.api.link_tables` entry point that picks between the
exact, approximate, blocking and adaptive strategies.
"""

from repro.linkage.evaluation import LinkageEvaluation, evaluate_pairs
from repro.linkage.api import LinkageResult, link_tables

__all__ = [
    "LinkageEvaluation",
    "evaluate_pairs",
    "LinkageResult",
    "link_tables",
]
