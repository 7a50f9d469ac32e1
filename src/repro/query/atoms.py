"""Conjunctive-query intermediate representation.

The paper (Sec. 2) works with full and non-full conjunctive queries written
in Datalog notation, e.g. the triangle query::

    T(x, y, z) :- R(x, y), S(y, z), T(z, x)

This module defines the building blocks of that IR:

- :class:`Variable` and :class:`Constant` terms,
- :class:`Atom` — one relational subgoal such as ``R(x, y)``,
- :class:`Comparison` — a non-relational predicate such as ``f1 > f2`` or
  ``y >= 1990`` (used by the paper's Q4 and Q7),
- :class:`ConjunctiveQuery` — the whole rule, with head variables.

Terms are hashable values so they can be used as dictionary keys throughout
the planner and the join algorithms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence, Union


@dataclass(frozen=True, order=True)
class Variable:
    """A named query variable, e.g. ``x`` in ``R(x, y)``."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Constant:
    """A constant term, e.g. ``"Joe Pesci"`` in ``ObjectName(a1, "Joe Pesci")``."""

    value: Union[int, str]

    def __repr__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


Term = Union[Variable, Constant]

_COMPARISON_OPS: Mapping[str, Callable[[int, int], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
}


@dataclass(frozen=True)
class Comparison:
    """A comparison predicate between a variable and a variable or constant.

    The paper's Q4 uses ``f1 > f2`` and Q7 uses ``y >= 1990 AND y < 2000``.
    Comparisons are evaluated as post-filters on candidate bindings.
    """

    left: Variable
    op: str
    right: Term

    def __post_init__(self) -> None:
        if self.op not in _COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator: {self.op!r}")

    def evaluate(self, binding: Mapping[Variable, int]) -> bool:
        """Evaluate this predicate under a (possibly partial) binding.

        Returns ``True`` when the predicate is satisfied *or* when one of its
        sides is not yet bound — unbound comparisons are deferred, which lets
        join operators apply filters as early as the bindings allow.
        """
        if self.left not in binding:
            return True
        left_value = binding[self.left]
        if isinstance(self.right, Constant):
            right_value = self.right.value
        elif self.right in binding:
            right_value = binding[self.right]
        else:
            return True
        return _COMPARISON_OPS[self.op](left_value, right_value)

    def variables(self) -> tuple[Variable, ...]:
        if isinstance(self.right, Variable):
            return (self.left, self.right)
        return (self.left,)

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"


@dataclass(frozen=True)
class Atom:
    """One relational subgoal: a relation name applied to a list of terms.

    ``alias`` distinguishes repeated uses of the same stored relation in a
    self-join (the paper writes ``Twitter_R``, ``Twitter_S``, ... for the
    three copies of the Twitter relation in the triangle query).  When no
    alias is given, the relation name itself is used.
    """

    relation: str
    terms: tuple[Term, ...]
    alias: str = ""

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError(f"atom {self.relation} must have at least one term")
        if not self.alias:
            object.__setattr__(self, "alias", self.relation)
        # the atom is frozen, so what planning asks of its terms thousands
        # of times per lowering is derived once (not fields: eq/hash/repr
        # stay those of relation, terms, alias)
        positions: dict[Term, list[int]] = {}
        for position, term in enumerate(self.terms):
            positions.setdefault(term, []).append(position)
        object.__setattr__(
            self,
            "_positions",
            {term: tuple(found) for term, found in positions.items()},
        )
        object.__setattr__(
            self,
            "_variables",
            tuple(term for term in positions if isinstance(term, Variable)),
        )
        object.__setattr__(
            self,
            "_constants",
            tuple(
                (position, term)
                for position, term in enumerate(self.terms)
                if isinstance(term, Constant)
            ),
        )

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> tuple[Variable, ...]:
        """The distinct variables of this atom, in first-occurrence order."""
        return self._variables

    def constants(self) -> tuple[tuple[int, Constant], ...]:
        """(position, constant) pairs for the constant terms of this atom."""
        return self._constants

    def positions_of(self, variable: Variable) -> tuple[int, ...]:
        """All argument positions where ``variable`` occurs."""
        return self._positions.get(variable, ())

    def selection(
        self, encoder: Callable[[Union[int, str]], int]
    ) -> tuple[tuple[Variable, ...], tuple[Comparison, ...]]:
        """The scan's pushed-down selections (paper footnote 3) as
        comparisons over the stored relation's columns: a constant's column
        equals the encoded constant, and a repeated variable's later columns
        equal its first.  Returns the column labels — ``#0``, ``#1``, ...,
        names the parser never gives a variable — and the comparisons, the
        arguments :func:`~repro.engine.kernels.select_rows` takes."""
        columns = tuple(Variable(f"#{position}") for position in range(self.arity))
        comparisons = [
            Comparison(columns[position], "=", Constant(encoder(constant.value)))
            for position, constant in self._constants
        ]
        for variable in self._variables:
            first, *repeats = self._positions[variable]
            comparisons += [
                Comparison(columns[position], "=", columns[first])
                for position in repeats
            ]
        return columns, tuple(comparisons)

    def __repr__(self) -> str:
        args = ", ".join(repr(term) for term in self.terms)
        if self.alias != self.relation:
            return f"{self.alias}:{self.relation}({args})"
        return f"{self.relation}({args})"


def _unique_aliases(atoms: Sequence[Atom]) -> None:
    seen: set[str] = set()
    for atom in atoms:
        if atom.alias in seen:
            raise ValueError(
                f"duplicate atom alias {atom.alias!r}; give self-join atoms "
                f"distinct aliases (e.g. Twitter_R, Twitter_S)"
            )
        seen.add(atom.alias)


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query (Datalog rule) with optional comparison filters.

    ``head`` lists the output variables; a query is *full* when the head
    contains every variable of the body.  Non-full queries imply a final
    duplicate-eliminating projection, which is how the paper evaluates e.g.
    Q3 (``CastMember(cast)``).
    """

    name: str
    head: tuple[Variable, ...]
    atoms: tuple[Atom, ...]
    comparisons: tuple[Comparison, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("a conjunctive query needs at least one atom")
        _unique_aliases(self.atoms)
        body_vars = set(self.variables())
        for head_var in self.head:
            if head_var not in body_vars:
                raise ValueError(f"head variable {head_var!r} not in the body")
        for comparison in self.comparisons:
            for comp_var in comparison.variables():
                if comp_var not in body_vars:
                    raise ValueError(
                        f"comparison variable {comp_var!r} not in the body"
                    )

    def variables(self) -> tuple[Variable, ...]:
        """All distinct body variables, in first-occurrence order."""
        seen: list[Variable] = []
        for atom in self.atoms:
            for variable in atom.variables():
                if variable not in seen:
                    seen.append(variable)
        return tuple(seen)

    def join_variables(self) -> tuple[Variable, ...]:
        """Variables occurring in at least two atoms (the 'join variables').

        Table 6 of the paper reports ``# Join Variables`` per query; this is
        that quantity.
        """
        counts: dict[Variable, int] = {}
        for atom in self.atoms:
            for variable in atom.variables():
                counts[variable] = counts.get(variable, 0) + 1
        return tuple(v for v in self.variables() if counts[v] >= 2)

    def is_full(self) -> bool:
        """True when every body variable appears in the head."""
        return set(self.head) == set(self.variables())

    def atoms_with(self, variable: Variable) -> tuple[Atom, ...]:
        return tuple(atom for atom in self.atoms if variable in atom.variables())

    def atom_by_alias(self, alias: str) -> Atom:
        for atom in self.atoms:
            if atom.alias == alias:
                return atom
        raise KeyError(f"no atom with alias {alias!r}")

    def relations(self) -> tuple[str, ...]:
        """The distinct stored relation names referenced by the body."""
        seen: list[str] = []
        for atom in self.atoms:
            if atom.relation not in seen:
                seen.append(atom.relation)
        return tuple(seen)

    def __repr__(self) -> str:
        head_args = ", ".join(repr(v) for v in self.head)
        body = ", ".join(repr(a) for a in self.atoms)
        if self.comparisons:
            body += ", " + ", ".join(repr(c) for c in self.comparisons)
        return f"{self.name}({head_args}) :- {body}"


def make_variables(names: Iterable[str]) -> tuple[Variable, ...]:
    """Convenience: build several variables at once.

    >>> x, y, z = make_variables("x y z".split())
    """
    return tuple(Variable(name) for name in names)
