"""The points-to grammar ``Cpt`` (Figure 3), in normalized (binary) form.

The grammar of the paper is::

    Transfer    -> eps | Transfer Assign | Transfer Store[f] Alias Load[f]
    TransferBar -> eps | AssignBar TransferBar | LoadBar[f] Alias StoreBar[f] TransferBar
    Alias       -> TransferBar NewBar New Transfer
    FlowsTo     -> New Transfer

The CFL-reachability solvers consume productions with at most two symbols on
the right-hand side.  Both normalizations below split the heap step at the
abstract object the store and the load share, so ``Alias`` is never a
relation of its own; they share the per-field heap productions::

    StoreInto[f]  -> Store[f] FlowsToBar     (x stored into field f of o)
    LoadFrom[f]   -> FlowsTo Load[f]         (o's field f loaded into y)
    Heap[f]       -> StoreInto[f] LoadFrom[f]

and differ only in their head productions.  :func:`build_cpt_grammar` is
the paper's: it derives ``Transfer`` as a relation, and ``Transfer`` /
``TransferBar`` are nullable (:data:`NULLABLE`, realized by the solvers as
a self-loop on every node), so its closure holds all pairs of ``Transfer``::

    Transfer      -> Transfer Assign | Transfer Heap[f]
    FlowsTo       -> New Transfer

:func:`build_flows_to_grammar` derives ``FlowsTo`` directly, with nothing
nullable.  Since ``Transfer = (Assign | Heap[f])*``, ``FlowsTo = New
Transfer`` is the left-linear ``FlowsTo = New (Assign | Heap[f])*``, the
flowsTo form of Andersen's analysis as CFL reachability (Sridharan et al.,
OOPSLA 2005)::

    FlowsTo       -> New | FlowsTo Assign | FlowsTo Heap[f]

It derives the same ``FlowsTo``, ``StoreInto[f]``, ``LoadFrom[f]`` and
``Heap[f]`` relations and no ``Transfer`` at all;
:class:`~repro.pointsto.relations.PointsToResult` answers ``Transfer``
queries from the stored ``Assign`` and ``Heap[f]`` rows instead.  The
serving engine runs it; the reference oracle runs the paper's.

In both, the barred side is the :func:`mirror_production` of each
production (``A -> B C`` mirrors to ``Ā -> C̄ B̄``), among them
``FlowsToBar -> TransferBar NewBar``, the paper's left half of ``Alias``;
its right half is ``FlowsTo`` itself.  ``Alias(x, y)`` holds exactly when
some ``o`` has ``FlowsTo(o, x)`` and ``FlowsTo(o, y)``
(:meth:`repro.pointsto.relations.PointsToResult.aliased`).

Both grammars are closed under mirroring, so on a graph whose edges all
come with their mirrored twins every relation ``X̄`` of the closure is
``X`` transposed -- the property :class:`repro.solve.bitset.BitsetCFLSolver`
relies on to store each mirror pair once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.pointsto.labels import (
    ASSIGN,
    FLOWS_TO,
    FLOWS_TO_BAR,
    NEW,
    Symbol,
    TRANSFER,
    TRANSFER_BAR,
    heap,
    load,
    mirror,
    store,
)


@dataclass(frozen=True)
class Production:
    """A normalized production ``lhs -> rhs`` with ``len(rhs)`` in {1, 2}."""

    lhs: Symbol
    rhs: Tuple[Symbol, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.rhs) <= 2:
            raise ValueError("normalized productions must have one or two RHS symbols")

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.lhs} -> {' '.join(str(s) for s in self.rhs)}"


#: Nonterminals of :func:`build_cpt_grammar` that derive the empty string
#: (realized as self-loops); :func:`build_flows_to_grammar` has none.
NULLABLE = (TRANSFER, TRANSFER_BAR)


def mirror_production(production: Production) -> Optional[Production]:
    """``Ā -> C̄ B̄`` for ``A -> B C`` (``Ā -> B̄`` for ``A -> B``), or ``None``.

    ``None`` when some symbol of *production* has no :func:`mirror`.
    """
    lhs = mirror(production.lhs)
    rhs = tuple(mirror(symbol) for symbol in reversed(production.rhs))
    if lhs is None or None in rhs:
        return None
    return Production(lhs, rhs)


def _heap_productions(field_name: str) -> List[Production]:
    """The heap step for one field, split at the object o both halves reach.

    The paper's ``Transfer -> Transfer Store[f] Alias Load[f]`` is
    ``Store[f] FlowsToBar`` into o, then ``FlowsTo Load[f]`` out of it.
    """
    store_into = Symbol("StoreInto", field_name)
    load_from = Symbol("LoadFrom", field_name)
    return [
        Production(store_into, (store(field_name), FLOWS_TO_BAR)),
        Production(load_from, (FLOWS_TO, load(field_name))),
        Production(heap(field_name), (store_into, load_from)),
    ]


def build_cpt_grammar(fields: Iterable[str]) -> List[Production]:
    """Instantiate the paper's normalized ``Cpt`` grammar for the given field names.

    Field-parameterized productions are expanded per field; helper
    nonterminals carry the field so that stores and loads only match when
    they access the same field (field sensitivity).  ``Transfer`` and
    ``TransferBar`` are nullable (:data:`NULLABLE`).  The unbarred
    productions come first, then the mirror of each.
    """
    productions = [
        Production(TRANSFER, (TRANSFER, ASSIGN)),
        Production(FLOWS_TO, (NEW, TRANSFER)),
    ]
    for field_name in sorted(set(fields)):
        productions += _heap_productions(field_name)
        productions.append(Production(TRANSFER, (TRANSFER, heap(field_name))))
    return productions + [mirror_production(production) for production in productions]


def build_flows_to_grammar(fields: Iterable[str]) -> List[Production]:
    """The ``FlowsTo``-only normalization of ``Cpt`` for the given field names.

    ``FlowsTo -> New | FlowsTo Assign | FlowsTo Heap[f]`` with the same
    heap productions as :func:`build_cpt_grammar`, and nothing nullable:
    solve it with ``nullable=()``.  Its closure holds the same ``FlowsTo``,
    ``StoreInto[f]``, ``LoadFrom[f]`` and ``Heap[f]`` as the paper's and no
    ``Transfer``.  The unbarred productions come first, then the mirror of
    each.
    """
    productions = [
        Production(FLOWS_TO, (NEW,)),
        Production(FLOWS_TO, (FLOWS_TO, ASSIGN)),
    ]
    for field_name in sorted(set(fields)):
        productions += _heap_productions(field_name)
        productions.append(Production(FLOWS_TO, (FLOWS_TO, heap(field_name))))
    return productions + [mirror_production(production) for production in productions]


def grammar_fields(productions: Sequence[Production]) -> Tuple[str, ...]:
    """Field names mentioned by a normalized grammar (useful for debugging)."""
    names = {
        symbol.field
        for production in productions
        for symbol in (production.lhs, *production.rhs)
        if symbol.field is not None
    }
    return tuple(sorted(names))
