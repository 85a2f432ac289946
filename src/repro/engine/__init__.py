"""Pipelined, iterator-based query-engine substrate.

This package provides the minimal relational machinery the adaptive join
needs: typed records and schemas, in-memory tables that can also be consumed
as streams, the classical ``OPEN``/``NEXT``/``CLOSE`` iterator protocol with
explicit *quiescent states* (the hook exploited by adaptive operator
replacement, following Eurviriyanukul et al.), and the record streams the
symmetric join operators consume.
"""

from repro.engine.errors import EngineError, IteratorProtocolError, SchemaError
from repro.engine.iterators import Operator, OperatorState, OperatorStats
from repro.engine.streams import ListStream, RecordStream, interleave
from repro.engine.table import Table
from repro.engine.tuples import Record, Schema

__all__ = [
    "EngineError",
    "IteratorProtocolError",
    "SchemaError",
    "Operator",
    "OperatorState",
    "OperatorStats",
    "RecordStream",
    "ListStream",
    "interleave",
    "Table",
    "Record",
    "Schema",
]
