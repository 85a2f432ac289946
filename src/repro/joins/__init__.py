"""Physical join operators.

* :mod:`repro.joins.base` — shared machinery of the symmetric joins: the
  per-side tuple store with its two lazily-maintained hash indexes (on
  attribute values and on q-grams), the match-event model and the operation
  counters used to reproduce Table 1 of the paper.
* :mod:`repro.joins.engine` — the switchable symmetric-join engine that the
  adaptive processor drives step by step (one step = one quiescent-state to
  quiescent-state transition).
* :mod:`repro.joins.shjoin` — the exact symmetric hash join (SHJoin) as a
  pipelined iterator operator.
* :mod:`repro.joins.sshjoin` — the approximate symmetric set hash join
  (SSHJoin), the pipelined re-implementation of SSJoin.
* :mod:`repro.joins.baselines` — non-adaptive baselines: nested-loop exact
  and similarity joins and an offline blocking linkage join.
"""

from repro.joins.base import (
    JoinAttribute,
    JoinMode,
    JoinSide,
    MatchEvent,
    OperationCounters,
    SideState,
    StoredTuple,
)
from repro.joins.engine import SwitchRecord, SymmetricJoinEngine
from repro.joins.shjoin import SHJoin
from repro.joins.sshjoin import SSHJoin
from repro.joins.baselines import (
    BlockingLinkageJoin,
    NestedLoopJoin,
    NestedLoopSimilarityJoin,
)

__all__ = [
    "JoinAttribute",
    "JoinMode",
    "JoinSide",
    "MatchEvent",
    "OperationCounters",
    "SideState",
    "StoredTuple",
    "SymmetricJoinEngine",
    "SwitchRecord",
    "SHJoin",
    "SSHJoin",
    "NestedLoopJoin",
    "NestedLoopSimilarityJoin",
    "BlockingLinkageJoin",
]
