"""In-memory relations.

A :class:`Table` is an ordered, in-memory collection of
:class:`~repro.engine.tuples.Record` objects sharing one schema.  Tables can
be iterated or consumed as streams, which is the mode of use in the paper
(joins over inputs that "are actually data streams").
"""

from __future__ import annotations

import csv
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
)

from repro.engine.errors import SchemaError
from repro.engine.tuples import Record, Schema


class Table:
    """An ordered, in-memory relation.

    Parameters
    ----------
    schema:
        The schema all records must conform to.
    records:
        Optional initial records.  Records whose schema attributes differ
        from ``schema`` are rejected.
    name:
        Optional relation name (falls back to the schema name).

    Examples
    --------
    >>> schema = Schema(["id", "location"], name="atlas")
    >>> table = Table(schema)
    >>> _ = table.insert_values(1, "LIG GE GENOVA")
    >>> len(table)
    1
    """

    def __init__(
        self,
        schema: Schema,
        records: Optional[Iterable[Record]] = None,
        name: str = "",
    ) -> None:
        self._schema = schema
        self.name = name or schema.name or "table"
        self._records: List[Record] = []
        if records is not None:
            for record in records:
                self.insert(record)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dicts(
        cls,
        schema: Schema,
        rows: Iterable[Mapping[str, Any]],
        name: str = "",
    ) -> "Table":
        """Build a table from an iterable of dictionaries."""
        return cls(schema, (Record(schema, row) for row in rows), name=name)

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Iterable[Sequence[Any]],
        name: str = "",
    ) -> "Table":
        """Build a table from positional value sequences in schema order."""
        table = cls(schema, name=name)
        # Built under the table's own schema: no per-record insert check.
        table._records = [Record.from_values(schema, row) for row in rows]
        return table

    @classmethod
    def from_csv(
        cls,
        path: str,
        schema: Optional[Schema] = None,
        name: str = "",
        delimiter: str = ",",
    ) -> "Table":
        """Load a table from a CSV file with a header row.

        If ``schema`` is omitted it is derived from the header; all values
        are kept as strings in that case.
        """
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle, delimiter=delimiter)
            if reader.fieldnames is None:
                raise SchemaError(f"CSV file {path!r} has no header row")
            derived = schema or Schema(list(reader.fieldnames), name=name)
            rows = [{a: row.get(a, "") for a in derived.attributes} for row in reader]
        return cls.from_dicts(derived, rows, name=name)

    # -- basic container behaviour -------------------------------------------

    @property
    def schema(self) -> Schema:
        """The table schema."""
        return self._schema

    @property
    def records(self) -> List[Record]:
        """The records, in insertion order (a live list — do not mutate)."""
        return self._records

    def insert(self, record: Record) -> None:
        """Append ``record`` to the table (schema-checked)."""
        if record.schema.attributes != self._schema.attributes:
            raise SchemaError(
                f"record schema {record.schema.attributes} does not match "
                f"table schema {self._schema.attributes}"
            )
        self._records.append(record)

    def insert_dict(self, row: Mapping[str, Any]) -> Record:
        """Insert a record built from a mapping; return the record."""
        record = Record(self._schema, row)
        self._records.append(record)
        return record

    def insert_values(self, *values: Any) -> Record:
        """Insert a record built from positional values; return the record."""
        record = Record.from_values(self._schema, values)
        self._records.append(record)
        return record

    def extend(self, records: Iterable[Record]) -> None:
        """Insert every record of ``records``."""
        for record in records:
            self.insert(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __getitem__(self, index: int) -> Record:
        return self._records[index]

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self._records)} records)"

    # -- simple relational helpers --------------------------------------------

    def column(self, attribute: str) -> List[Any]:
        """Return all values of ``attribute`` in insertion order."""
        position = self._schema.position(attribute)
        return [record.values[position] for record in self._records]

    def distinct(self, attribute: str) -> List[Any]:
        """Return the distinct values of ``attribute``, preserving first-seen order."""
        seen: Dict[Any, None] = {}
        for value in self.column(attribute):
            seen.setdefault(value, None)
        return list(seen)

    def filter(self, predicate: Callable[[Record], bool], name: str = "") -> "Table":
        """Return a new table with the records satisfying ``predicate``."""
        return Table(
            self._schema,
            (r for r in self._records if predicate(r)),
            name=name or f"{self.name}_filtered",
        )

    def head(self, n: int) -> "Table":
        """Return a new table with the first ``n`` records."""
        return Table(self._schema, self._records[:n], name=f"{self.name}_head{n}")

    def sample(self, n: int, rng) -> "Table":
        """Return a new table with ``n`` records sampled without replacement.

        ``rng`` is a ``random.Random`` instance so sampling stays
        reproducible; the table itself never owns randomness.
        """
        chosen = rng.sample(self._records, min(n, len(self._records)))
        return Table(self._schema, chosen, name=f"{self.name}_sample{n}")

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Return the table contents as a list of plain dictionaries."""
        return [record.as_dict() for record in self._records]

    def to_csv(self, path: str, delimiter: str = ",") -> None:
        """Write the table to ``path`` as CSV with a header row."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, delimiter=delimiter)
            writer.writerow(self._schema.attributes)
            for record in self._records:
                writer.writerow(record.values)
