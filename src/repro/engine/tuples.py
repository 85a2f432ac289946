"""Records and schemas.

The engine manipulates *records*: immutable, schema-conforming mappings from
attribute names to Python values.  A :class:`Schema` declares the ordered
attribute names of a relation (and, optionally, loose type expectations); a
:class:`Record` is a single tuple conforming to a schema.

The adaptive join additionally needs a tiny bit of per-tuple bookkeeping —
the "matched at least once exactly" flag used in Sec. 3.3 of the paper to
attribute variants to one of the two inputs.  That flag is *not* part of the
record value (records stay immutable and hashable); it lives in the join
operators' own hash-table entries instead.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.engine.errors import SchemaError


class Schema:
    """An ordered set of attribute names describing a relation.

    Parameters
    ----------
    attributes:
        Ordered attribute names.  Names must be non-empty strings and
        unique.
    name:
        Optional relation name, used only for display and error messages.

    Examples
    --------
    >>> schema = Schema(["accident_id", "location"], name="accidents")
    >>> schema.attributes
    ('accident_id', 'location')
    >>> "location" in schema
    True
    """

    __slots__ = ("_attributes", "_positions", "name")

    def __init__(self, attributes: Sequence[str], name: str = "") -> None:
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError("a schema requires at least one attribute")
        for attribute in attrs:
            if not isinstance(attribute, str) or not attribute:
                raise SchemaError(
                    f"attribute names must be non-empty strings, got {attribute!r}"
                )
        if len(set(attrs)) != len(attrs):
            raise SchemaError(f"duplicate attribute names in {attrs!r}")
        self._attributes: Tuple[str, ...] = attrs
        self._positions: Dict[str, int] = {a: i for i, a in enumerate(attrs)}
        self.name = name

    @property
    def attributes(self) -> Tuple[str, ...]:
        """The ordered attribute names."""
        return self._attributes

    def position(self, attribute: str) -> int:
        """Return the ordinal position of ``attribute``.

        Raises :class:`SchemaError` if the attribute is unknown.
        """
        try:
            return self._positions[attribute]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {attribute!r}; schema has {self._attributes}"
            ) from None

    def __contains__(self, attribute: object) -> bool:
        return attribute in self._positions

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[str]:
        return iter(self._attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Schema({list(self._attributes)!r}{label})"

    def project(self, attributes: Sequence[str], name: str = "") -> "Schema":
        """Return a new schema restricted to ``attributes`` (in that order)."""
        for attribute in attributes:
            if attribute not in self:
                raise SchemaError(
                    f"cannot project on unknown attribute {attribute!r}"
                )
        return Schema(attributes, name=name or self.name)

    def rename(self, mapping: Mapping[str, str], name: str = "") -> "Schema":
        """Return a new schema with attributes renamed through ``mapping``.

        Attributes absent from ``mapping`` keep their names.
        """
        renamed = [mapping.get(a, a) for a in self._attributes]
        return Schema(renamed, name=name or self.name)

    def concat(self, other: "Schema", name: str = "") -> "Schema":
        """Concatenate two schemas, e.g. for a join output.

        Overlapping names from ``other`` are disambiguated with the other
        schema's relation name (``other.name + '.' + attr``) or, failing
        that, with a ``_2`` suffix.
        """
        merged = list(self._attributes)
        for attribute in other.attributes:
            if attribute not in self:
                merged.append(attribute)
                continue
            if other.name:
                candidate = f"{other.name}.{attribute}"
            else:
                candidate = f"{attribute}_2"
            suffix = 2
            while candidate in merged:
                suffix += 1
                candidate = f"{attribute}_{suffix}"
            merged.append(candidate)
        return Schema(merged, name=name)

    def validate(self, values: Mapping[str, Any]) -> None:
        """Check that ``values`` has exactly the schema's attributes."""
        missing = [a for a in self._attributes if a not in values]
        extra = [a for a in values if a not in self]
        if missing or extra:
            raise SchemaError(
                f"record does not match schema {self._attributes}: "
                f"missing={missing}, unexpected={extra}"
            )


class Record:
    """An immutable tuple conforming to a :class:`Schema`.

    Records compare and hash by *value* (schema attributes plus values), so
    they can safely be used as dictionary keys and set members — a property
    the join operators rely on for result de-duplication.

    Examples
    --------
    >>> schema = Schema(["id", "location"])
    >>> r = Record(schema, {"id": 7, "location": "LIG GE GENOVA"})
    >>> r["location"]
    'LIG GE GENOVA'
    >>> r.values
    (7, 'LIG GE GENOVA')
    """

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: Schema, values: Mapping[str, Any]) -> None:
        schema.validate(values)
        self._schema = schema
        self._values: Tuple[Any, ...] = tuple(values[a] for a in schema.attributes)

    @classmethod
    def from_values(cls, schema: Schema, values: Sequence[Any]) -> "Record":
        """Build a record from positional ``values`` following the schema order.

        The length check is the whole validation: a :class:`Schema` has
        unique attribute names, so the mapping :meth:`__init__` would
        build from ``values`` always holds exactly the schema's attributes.
        """
        if len(values) != len(schema):
            raise SchemaError(
                f"expected {len(schema)} values for schema {schema.attributes}, "
                f"got {len(values)}"
            )
        return cls.from_trusted(schema, tuple(values))

    @classmethod
    def from_trusted(cls, schema: Schema, values: Tuple[Any, ...]) -> "Record":
        """Build a record from an already-validated positional value tuple.

        Skips schema validation and the dict round-trip of
        :meth:`from_values`; the caller guarantees that ``values`` is a
        tuple with exactly one value per schema attribute, in order.  Used
        by :meth:`from_values` after its length check and by decoders that
        rebuild records from a representation they wrote themselves (e.g.
        the join-key shard handoff blocks), where re-validating every row
        would dominate the decode cost.
        """
        record = cls.__new__(cls)
        record._schema = schema
        record._values = values
        return record

    @property
    def schema(self) -> Schema:
        """The schema this record conforms to."""
        return self._schema

    @property
    def values(self) -> Tuple[Any, ...]:
        """The record values, in schema attribute order."""
        return self._values

    def __getitem__(self, attribute: str) -> Any:
        return self._values[self._schema.position(attribute)]

    def value_at(self, position: int) -> Any:
        """Positional access without the name→position lookup.

        Hot-path helper for callers that resolve an attribute's position
        once per schema (e.g. the join tuple stores) and then read it for
        every record.
        """
        return self._values[position]

    def get(self, attribute: str, default: Any = None) -> Any:
        """Return the value of ``attribute`` or ``default`` if unknown."""
        if attribute not in self._schema:
            return default
        return self[attribute]

    def as_dict(self) -> Dict[str, Any]:
        """Return a plain ``dict`` view of the record."""
        return dict(zip(self._schema.attributes, self._values))

    def project(self, attributes: Sequence[str]) -> "Record":
        """Return a new record restricted to ``attributes``."""
        schema = self._schema.project(attributes)
        return Record(schema, {a: self[a] for a in attributes})

    def concat(self, other: "Record", schema: Optional[Schema] = None) -> "Record":
        """Concatenate this record with ``other`` (e.g. to form a join result).

        If ``schema`` is not given, one is derived with
        :meth:`Schema.concat`.
        """
        if schema is None:
            schema = self._schema.concat(other.schema)
        values = list(self._values) + list(other.values)
        return Record.from_values(schema, values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return (
            self._schema.attributes == other._schema.attributes
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((self._schema.attributes, self._values))

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{a}={v!r}" for a, v in zip(self._schema.attributes, self._values)
        )
        return f"Record({pairs})"


def records_from_dicts(
    schema: Schema, rows: Iterable[Mapping[str, Any]]
) -> Iterator[Record]:
    """Yield :class:`Record` objects built from dictionaries.

    A convenience used by the data generator and by tests.
    """
    for row in rows:
        yield Record(schema, row)
