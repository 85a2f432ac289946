"""Non-adaptive baseline join algorithms.

Three baselines accompany the adaptive operator:

* :class:`NestedLoopJoin` — the textbook exact nested-loop join.  Its only
  role is as a correctness oracle: any exact join must produce the same set
  of pairs.
* :class:`NestedLoopSimilarityJoin` — the naive O(n·m) similarity join that
  compares every pair with the q-gram Jaccard similarity directly.  It is the
  correctness oracle for SSHJoin (same result set) and the illustration of
  the quadratic cost the paper wants to avoid.
* :class:`BlockingLinkageJoin` — the conventional *offline* record-linkage
  approach: both tables are first partitioned into blocks by a blocking key
  and pairwise similarity comparison only happens within blocks.  It needs
  the full tables up front (exactly the assumption the paper drops), so it
  appears here only as a baseline, not as a competitor in the streaming
  setting.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Union

from repro.engine.iterators import Operator
from repro.engine.table import Table
from repro.engine.tuples import Record, Schema
from repro.joins.base import JoinAttribute
from repro.similarity.setsim import jaccard_qgram_similarity


def _resolve_attribute(attribute: Union[str, JoinAttribute]) -> JoinAttribute:
    if isinstance(attribute, str):
        return JoinAttribute(attribute, attribute)
    return attribute


def _join_schema(left: Table, right: Table) -> Schema:
    return left.schema.concat(right.schema, name="join")


class NestedLoopJoin(Operator):
    """Exact nested-loop join over two in-memory tables."""

    def __init__(
        self,
        left: Table,
        right: Table,
        attribute: Union[str, JoinAttribute],
        name: str = "",
    ) -> None:
        super().__init__(_join_schema(left, right), name=name or "NestedLoopJoin")
        self._left = left
        self._right = right
        self._attribute = _resolve_attribute(attribute)
        self._results: List[Record] = []
        self._cursor = 0

    def _do_open(self) -> None:
        self._results = []
        self._cursor = 0
        left_attr, right_attr = self._attribute.left, self._attribute.right
        for left_record in self._left:
            self.stats.tuples_read_left += 1
            for right_record in self._right:
                if left_record[left_attr] == right_record[right_attr]:
                    self._results.append(
                        Record.from_values(
                            self.output_schema,
                            list(left_record.values) + list(right_record.values),
                        )
                    )
        self.stats.tuples_read_right = len(self._right)

    def _do_next(self) -> Optional[Record]:
        if self._cursor >= len(self._results):
            return None
        record = self._results[self._cursor]
        self._cursor += 1
        return record


class NestedLoopSimilarityJoin(Operator):
    """Naive similarity join comparing every pair of tuples.

    Parameters
    ----------
    threshold:
        Minimum q-gram Jaccard similarity for a pair to be part of the
        result.
    """

    def __init__(
        self,
        left: Table,
        right: Table,
        attribute: Union[str, JoinAttribute],
        threshold: float = 0.85,
        name: str = "",
    ) -> None:
        super().__init__(
            _join_schema(left, right), name=name or "NestedLoopSimilarityJoin"
        )
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self._left = left
        self._right = right
        self._attribute = _resolve_attribute(attribute)
        self._threshold = threshold
        self._results: List[Record] = []
        self._cursor = 0
        self.comparisons = 0

    def _do_open(self) -> None:
        self._results = []
        self._cursor = 0
        self.comparisons = 0
        left_attr, right_attr = self._attribute.left, self._attribute.right
        for left_record in self._left:
            self.stats.tuples_read_left += 1
            left_value = str(left_record[left_attr])
            for right_record in self._right:
                self.comparisons += 1
                if (
                    jaccard_qgram_similarity(left_value, str(right_record[right_attr]))
                    >= self._threshold
                ):
                    self._results.append(
                        Record.from_values(
                            self.output_schema,
                            list(left_record.values) + list(right_record.values),
                        )
                    )
        self.stats.tuples_read_right = len(self._right)

    def _do_next(self) -> Optional[Record]:
        if self._cursor >= len(self._results):
            return None
        record = self._results[self._cursor]
        self._cursor += 1
        return record


def default_blocking_key(value: str) -> str:
    """Default blocking key: the first four characters, upper-cased.

    Crude but standard; the accidents workload joins on strings whose
    leading region/province prefix is rarely perturbed, so this key keeps
    most true pairs in the same block.
    """
    return str(value)[:4].upper()


class BlockingLinkageJoin(Operator):
    """Offline blocking-based similarity join.

    Both inputs are partitioned by ``blocking_key`` applied to the join
    attribute; pairwise similarity comparison happens only within blocks.
    This reproduces the conventional pre-deployment record-linkage pipeline
    the paper contrasts itself with: it is fast and fairly complete, but it
    requires the full tables before any result can be produced (no
    pipelining) and misses pairs whose blocking keys disagree.
    """

    def __init__(
        self,
        left: Table,
        right: Table,
        attribute: Union[str, JoinAttribute],
        threshold: float = 0.85,
        blocking_key: Callable[[str], str] = default_blocking_key,
        name: str = "",
    ) -> None:
        super().__init__(_join_schema(left, right), name=name or "BlockingLinkageJoin")
        self._left = left
        self._right = right
        self._attribute = _resolve_attribute(attribute)
        self._threshold = threshold
        self._blocking_key = blocking_key
        self._results: List[Record] = []
        self._cursor = 0
        self.comparisons = 0

    def _do_open(self) -> None:
        self._results = []
        self._cursor = 0
        self.comparisons = 0
        left_attr, right_attr = self._attribute.left, self._attribute.right
        blocks: Dict[str, List[Record]] = defaultdict(list)
        for left_record in self._left:
            self.stats.tuples_read_left += 1
            blocks[self._blocking_key(str(left_record[left_attr]))].append(left_record)
        for right_record in self._right:
            self.stats.tuples_read_right += 1
            right_value = str(right_record[right_attr])
            for left_record in blocks.get(self._blocking_key(right_value), ()):
                self.comparisons += 1
                if (
                    jaccard_qgram_similarity(str(left_record[left_attr]), right_value)
                    >= self._threshold
                ):
                    self._results.append(
                        Record.from_values(
                            self.output_schema,
                            list(left_record.values) + list(right_record.values),
                        )
                    )

    def _do_next(self) -> Optional[Record]:
        if self._cursor >= len(self._results):
            return None
        record = self._results[self._cursor]
        self._cursor += 1
        return record


def hash_join_pairs(
    left: Table, right: Table, attribute: Union[str, JoinAttribute]
) -> List[tuple]:
    """Utility: the set of exactly matching (left_index, right_index) pairs.

    Used by tests as a ground-truth oracle that is independent of the
    operator implementations.
    """
    attribute = _resolve_attribute(attribute)
    index: Dict[object, List[int]] = defaultdict(list)
    for i, record in enumerate(left):
        index[record[attribute.left]].append(i)
    pairs = []
    for j, record in enumerate(right):
        for i in index.get(record[attribute.right], ()):
            pairs.append((i, j))
    return pairs
