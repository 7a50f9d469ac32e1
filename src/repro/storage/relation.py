"""In-memory relations and databases.

Relations store rows as Python tuples of ints.  String values (e.g. Freebase
entity names) are dictionary-encoded at load time via :class:`Database`, the
standard trick in analytic engines; query constants are encoded the same way
at plan time so all runtime comparisons are int comparisons.  A Scan deals a
stored relation over the workers in the kernel backend's container
(:meth:`~repro.engine.cluster.Cluster.fragments`): under numpy the rows
become one column block there, once per Scan.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence, Union


class Relation:
    """An immutable bag of fixed-arity int tuples with named columns."""

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        rows: Iterable[tuple[int, ...]] = (),
    ) -> None:
        self.name = name
        self.columns = tuple(columns)
        if not self.columns:
            raise ValueError(f"relation {name} needs at least one column")
        self._rows: list[tuple[int, ...]] = list(rows)
        self._digest: Union[int, None] = None
        self._distinct: dict[tuple[int, ...], int] = {}
        arity = len(self.columns)
        for row in self._rows:
            if len(row) != arity:
                raise ValueError(
                    f"row {row} has arity {len(row)}, expected {arity} in {name}"
                )

    @classmethod
    def over_rows(
        cls, name: str, columns: Sequence[str], rows: Sequence[tuple[int, ...]]
    ) -> "Relation":
        """A relation over a row list the engine already owns and validated.

        Adopts ``rows`` as is — no copy, no per-row arity check — so it is
        only for internal callers whose rows came out of a relation or an
        operator (a frame's rows, a scan filter's output).  Rows arriving
        from outside go through the validating constructor.
        """
        relation = cls(name, columns, ())
        relation._rows = rows
        return relation

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self.columns)

    @property
    def rows(self) -> list[tuple[int, ...]]:
        """The rows, in load order."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return f"Relation({self.name}, {self.columns}, {len(self)} rows)"

    def content_digest(self) -> int:
        """A digest of this relation's rows, computed once and memoized.

        Relations are immutable by contract (mutation replaces the instance
        — see :meth:`with_rows`), so the digest is stable for the lifetime
        of the object.  The statistics catalog combines these into a
        database fingerprint for plan-cache invalidation.
        """
        if self._digest is None:
            self._digest = hash(tuple(self._rows))
        return self._digest

    def distinct_count(self, positions: Sequence[int]) -> int:
        """Distinct combinations of ``positions``, memoized like the digest.

        The empty prefix counts 1 for a non-empty relation.  Statistics
        catalogs are rebuilt per planning call while relations live as long
        as the database, so the count is cached here, on the immutable
        data it describes.
        """
        key = tuple(positions)
        count = self._distinct.get(key)
        if count is None:
            if not key:
                count = 1 if self._rows else 0
            else:
                count = len({tuple(row[p] for p in key) for row in self._rows})
            self._distinct[key] = count
        return count

    def with_rows(self, rows: Sequence[tuple[int, ...]]) -> "Relation":
        """Same schema over a subset of this relation's rows.

        Skips arity validation — the rows must come from this relation (a
        worker's fragment, a scan filter's output), where they were already
        validated; under numpy they may be a column block.
        """
        return Relation.over_rows(self.name, self.columns, rows)

    def renamed(self, name: str) -> "Relation":
        """The same rows under another name (the row storage is shared)."""
        return Relation.over_rows(name, self.columns, self._rows)


Value = Union[int, str]


class Database:
    """A named collection of relations plus a shared string dictionary.

    >>> db = Database()
    >>> db.add_encoded("Name", ["id", "name"], [(1, "Joe Pesci")])
    >>> db.encode("Joe Pesci") == db["Name"].rows[0][1]
    True
    """

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}
        self._dictionary: dict[str, int] = {}
        self._reverse: dict[int, str] = {}

    # -- string dictionary -------------------------------------------------

    def encode(self, value: Value) -> int:
        """Dictionary-encode a value; ints pass through unchanged."""
        if isinstance(value, int):
            return value
        if value not in self._dictionary:
            # Encoded strings live in a distinct high range so they never
            # collide with small integer ids used by generators.
            code = 1_000_000_000 + len(self._dictionary)
            self._dictionary[value] = code
            self._reverse[code] = value
        return self._dictionary[value]

    def decode(self, code: int) -> Value:
        """The string a code stands for; any other int is itself."""
        return self._reverse.get(code, code)

    # -- relations ----------------------------------------------------------

    def add(self, relation: Relation) -> None:
        """Store a relation under its name, replacing one of that name."""
        self._relations[relation.name] = relation

    def add_rows(
        self, name: str, columns: Sequence[str], rows: Iterable[tuple[int, ...]]
    ) -> Relation:
        """Add an int relation built from ``rows``; returns it."""
        relation = Relation(name, columns, rows)
        self.add(relation)
        return relation

    def add_encoded(
        self, name: str, columns: Sequence[str], rows: Iterable[Sequence[Value]]
    ) -> Relation:
        """Add rows that may contain strings; strings are dictionary-encoded."""
        encoded = (tuple(self.encode(value) for value in row) for row in rows)
        return self.add_rows(name, columns, encoded)

    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(
                f"unknown relation {name!r}; known: {sorted(self._relations)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def relations(self) -> Mapping[str, Relation]:
        """A copy of the name -> relation mapping."""
        return dict(self._relations)

    def total_rows(self) -> int:
        """Rows summed over every relation."""
        return sum(len(relation) for relation in self._relations.values())

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}[{len(r)}]" for n, r in self._relations.items())
        return f"Database({parts})"
