"""Frames: variable-labelled tuple sets flowing between operators.

Once an atom's relation is scanned, columns stop being attribute names and
become *query variables*; every operator downstream of the scan (shuffles,
joins, projections) is defined over variables.  A :class:`Frame` is that
runtime unit: an ordered tuple of variables plus rows.

What ``rows`` *is* follows the kernel backend (:mod:`~repro.engine.kernels`).
Under ``python`` it is a list of tuples throughout.  Under ``numpy`` it is a
:class:`~repro.engine.kernels.ColumnBlock`, one int64 array per variable,
from the scan — which selects and projects a strided view of the block the
cluster deals (:meth:`~repro.engine.cluster.Cluster.fragments`) — until the
result is finalized.
Either way it is a ``Sequence`` of tuples of Python ints, nothing mutates it
once a frame holds it, and a frame is what every slot of a plan holds.

A frame a local operator routed for the regular shuffle that alone reads
it carries its :class:`Routing`: the rows sit in destination order, and
that exchange only assembles each consumer's runs
(:func:`~repro.engine.shuffle.regular_shuffle`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from ..query.atoms import Atom, Comparison, Variable
from ..storage.relation import Relation
from . import kernels

Encoder = Callable[[Union[int, str]], int]


@dataclass(frozen=True)
class Routing:
    """How a producer laid out its rows for a regular shuffle: hashed on
    ``key`` into ``workers`` destinations, destination ``b``'s rows being
    ``rows[cuts[b]:cuts[b + 1]]`` in scan order."""

    key: tuple[Variable, ...]
    workers: int
    cuts: tuple[int, ...]


@dataclass
class Frame:
    """Rows labelled by query variables, plus their :class:`Routing` once a
    producer routed them (not compared: two frames holding the same rows
    are equal however those rows came to be in that order)."""

    variables: tuple[Variable, ...]
    rows: Sequence[tuple[int, ...]] = field(default_factory=list)
    routing: Optional[Routing] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variables in frame: {self.variables}")

    def __len__(self) -> int:
        return len(self.rows)

    def index_of(self, variable: Variable) -> int:
        """Column position of ``variable`` (KeyError when absent)."""
        try:
            return self.variables.index(variable)
        except ValueError:
            raise KeyError(f"frame has no variable {variable!r}") from None

    def indices_of(self, variables: Sequence[Variable]) -> tuple[int, ...]:
        """Column positions of ``variables``, in the order given."""
        return tuple(self.index_of(v) for v in variables)

    def project(self, variables: Sequence[Variable], dedup: bool = False) -> "Frame":
        """Reorder/restrict columns to ``variables``; ``dedup`` drops
        duplicate rows while preserving first-seen order."""
        indices = self.indices_of(variables)
        return Frame(
            tuple(variables), kernels.project_rows(self.rows, indices, dedup=dedup)
        )

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.variables)
        return f"Frame([{names}], {len(self.rows)} rows)"


def atom_frames(
    atom: Atom,
    fragments: Sequence[Sequence[tuple[int, ...]]],
    encoder: Encoder,
    filters: Sequence[Comparison] = (),
) -> list[Frame]:
    """Scan an atom's fragments, one frame each: keep the rows that pass
    its selections (selection pushdown, paper footnote 3;
    :meth:`~repro.query.atoms.Atom.selection`), relabel columns as the
    atom's variables, then keep the rows that pass ``filters`` (comparisons
    over those variables).  The selection and the projection are derived
    from the atom once, for every fragment."""
    labels, selection = atom.selection(encoder)
    variables = atom.variables()
    indices = [atom.positions_of(v)[0] for v in variables]
    frames = []
    for rows in fragments:
        rows = kernels.select_rows(rows, labels, selection)
        rows = kernels.project_rows(rows, indices)
        frames.append(Frame(variables, kernels.select_rows(rows, variables, filters)))
    return frames


def atom_frame(
    atom: Atom,
    relation: Relation,
    encoder: Encoder,
) -> Frame:
    """Scan an atom over a whole relation: :func:`atom_frames` of one
    fragment."""
    return atom_frames(atom, [relation.rows], encoder)[0]


def frame_relation(frame: Frame, name: str) -> Relation:
    """View a frame as a storage relation (columns named by variables).

    Shares the frame's rows: frames are produced by the engine's own
    operators, so the rows need neither a copy nor re-validation.  Only the
    scalar reference path builds one — a
    :class:`~repro.leapfrog.tributary.TributaryJoin` per worker under the
    python backend, or when a batch's keys do not pack into 63 bits; the
    numpy walk reads the frames' columns directly
    (:func:`~repro.engine.local.local_tributary_joins`).
    """
    return Relation.over_rows(
        name, tuple(v.name for v in frame.variables), frame.rows
    )
