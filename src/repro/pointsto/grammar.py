"""The points-to grammar ``Cpt`` (Figure 3), in normalized (binary) form.

The grammar of the paper is::

    Transfer    -> eps | Transfer Assign | Transfer Store[f] Alias Load[f]
    TransferBar -> eps | AssignBar TransferBar | LoadBar[f] Alias StoreBar[f] TransferBar
    Alias       -> TransferBar NewBar New Transfer
    FlowsTo     -> New Transfer

The CFL-reachability solver consumes productions with at most two symbols on
the right-hand side.  The normalized form splits the heap step at the
abstract object the store and the load share, so ``Alias`` is never a
relation of its own::

    Transfer      -> Transfer Assign | Transfer Heap[f]
    FlowsTo       -> New Transfer
    StoreInto[f]  -> Store[f] FlowsToBar     (x stored into field f of o)
    LoadFrom[f]   -> FlowsTo Load[f]         (o's field f loaded into y)
    Heap[f]       -> StoreInto[f] LoadFrom[f]

and the barred side is the :func:`mirror_production` of each of these
(``A -> B C`` mirrors to ``Ā -> C̄ B̄``), among them ``FlowsToBar ->
TransferBar NewBar``, the paper's left half of ``Alias``; its right half
is ``FlowsTo`` itself.  The grammar derives the same words for
``Transfer``, ``TransferBar`` and ``FlowsTo`` as the paper's grammar, and
``Alias(x, y)`` holds exactly when some ``o`` has ``FlowsTo(o, x)`` and
``FlowsTo(o, y)`` (:meth:`repro.pointsto.relations.PointsToResult.aliased`).

The grammar is closed under mirroring, so on a graph whose edges all come
with their mirrored twins every relation ``X̄`` of the closure is ``X``
transposed -- the property :class:`repro.solve.bitset.BitsetCFLSolver`
relies on to store each mirror pair once.  Epsilon productions for
``Transfer`` / ``TransferBar`` are realized by the solvers as self-loops on
every graph node.
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


#: Nonterminals that derive the empty string (realized as self-loops).
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


def build_cpt_grammar(fields: Iterable[str]) -> List[Production]:
    """Instantiate the normalized ``Cpt`` grammar for the given field names.

    Field-parameterized productions are expanded per field; helper
    nonterminals carry the field so that stores and loads only match when
    they access the same field (field sensitivity).  The unbarred
    productions come first, then the mirror of each.
    """
    productions = [
        Production(TRANSFER, (TRANSFER, ASSIGN)),
        Production(FLOWS_TO, (NEW, TRANSFER)),
    ]
    for field_name in sorted(set(fields)):
        # Transfer -> Transfer Store[f] Alias Load[f], split at the object o
        # both Alias halves reach:  Store[f] FlowsToBar | FlowsTo Load[f]
        store_into = Symbol("StoreInto", field_name)
        load_from = Symbol("LoadFrom", field_name)
        heap_step = Symbol("Heap", field_name)
        productions.append(Production(store_into, (store(field_name), FLOWS_TO_BAR)))
        productions.append(Production(load_from, (FLOWS_TO, load(field_name))))
        productions.append(Production(heap_step, (store_into, load_from)))
        productions.append(Production(TRANSFER, (TRANSFER, heap_step)))
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
