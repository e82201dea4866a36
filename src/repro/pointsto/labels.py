"""Edge labels (terminals) and nonterminals of the points-to grammar.

Terminals follow Figure 2 of the paper: ``Assign``, ``New``, ``Store[f]``,
``Load[f]`` and their "barred" (reversed-edge) counterparts.  Nonterminals
follow Figure 3: ``Transfer``, the backwards ``TransferBar`` and the start
symbol ``FlowsTo``, plus the helpers of the normalized grammar
(:mod:`repro.pointsto.grammar`).  The paper's ``Alias`` is not a relation
here: it is answered from ``FlowsTo``
(:meth:`repro.pointsto.relations.PointsToResult.aliased`).

Every edge ``u --X--> v`` whose symbol has a :func:`mirror` comes with its
twin ``v --X̄--> u``; the solvers' ``add_edge`` records both.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class Symbol(NamedTuple):
    """A grammar symbol, optionally parameterized by a field name.

    ``Store`` and ``Load`` terminals (and the helper nonterminals introduced
    during normalization) carry the field they access; all other symbols have
    ``field is None``.  A tuple, so that building, hashing and comparing one
    runs in C; it hashes and compares like its ``(name, field)`` pair.
    """

    name: str
    field: Optional[str] = None

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        if self.field is None:
            return self.name
        return f"{self.name}[{self.field}]"


# Terminals ------------------------------------------------------------------
ASSIGN = Symbol("Assign")
ASSIGN_BAR = Symbol("AssignBar")
NEW = Symbol("New")
NEW_BAR = Symbol("NewBar")


def store(field: str) -> Symbol:
    """``Store[f]``: the label of an edge ``x --Store[f]--> y`` for ``y.f <- x``."""
    return Symbol("Store", field)


def store_bar(field: str) -> Symbol:
    return Symbol("StoreBar", field)


def load(field: str) -> Symbol:
    """``Load[f]``: the label of an edge ``x --Load[f]--> y`` for ``y <- x.f``."""
    return Symbol("Load", field)


def load_bar(field: str) -> Symbol:
    return Symbol("LoadBar", field)


_BAR_PAIRS = {
    "Assign": "AssignBar",
    "AssignBar": "Assign",
    "New": "NewBar",
    "NewBar": "New",
    "Store": "StoreBar",
    "StoreBar": "Store",
    "Load": "LoadBar",
    "LoadBar": "Load",
}


# Nonterminals ---------------------------------------------------------------
TRANSFER = Symbol("Transfer")
TRANSFER_BAR = Symbol("TransferBar")
FLOWS_TO = Symbol("FlowsTo")
FLOWS_TO_BAR = Symbol("FlowsToBar")


def heap(field: str) -> Symbol:
    """``Heap[f]``: the heap step ``x --Heap[f]--> y``.

    ``x`` is stored into field f of some object, and ``y`` is loaded from it.
    """
    return Symbol("Heap", field)


TERMINAL_NAMES = frozenset(_BAR_PAIRS)


def is_terminal(symbol: Symbol) -> bool:
    return symbol.name in TERMINAL_NAMES


# Mirrors --------------------------------------------------------------------
#: nonterminals whose relations come in transposed pairs with their ``…Bar``
_PAIRED_NONTERMINALS = ("Transfer", "FlowsTo", "StoreInto", "LoadFrom", "Heap")
_MIRROR_NAMES = dict(_BAR_PAIRS)
_MIRROR_NAMES.update({name: name + "Bar" for name in _PAIRED_NONTERMINALS})
_MIRROR_NAMES.update({name + "Bar": name for name in _PAIRED_NONTERMINALS})

#: names of the reversed side of every mirror pair
_BARRED_NAMES = frozenset(name for name in _MIRROR_NAMES if name.endswith("Bar"))


def mirror(symbol: Symbol) -> Optional[Symbol]:
    """The symbol ``X̄`` with ``X̄(v, u)`` for every ``X(u, v)``, or ``None``.

    Terminals pair through the bar table; of the nonterminals, ``Transfer``,
    ``FlowsTo``, ``StoreInto[f]``, ``LoadFrom[f]`` and ``Heap[f]`` pair with
    their ``…Bar``.  Any other symbol has no mirror.
    """
    name = _MIRROR_NAMES.get(symbol.name)
    return None if name is None else Symbol(name, symbol.field)


def is_barred(symbol: Symbol) -> bool:
    """Whether *symbol* is the reversed side of a mirror pair."""
    return symbol.name in _BARRED_NAMES
