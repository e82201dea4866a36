"""A generic context-free language reachability solver.

Given a labeled directed graph and a normalized context-free grammar, the
solver computes the least set of *summary edges*: an edge ``u --A--> v`` is
added whenever there is a path from ``u`` to ``v`` whose labels derive from
the nonterminal ``A``.  This is the standard worklist ("dynamic programming")
algorithm for CFL reachability (Melski & Reps); the paper's static analysis is
an instance of it with the grammar ``Cpt``.

Nodes and symbols are interned to integers internally so that the hot loop
manipulates plain ints and dicts.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.pointsto.grammar import NULLABLE, Production
from repro.pointsto.labels import Symbol, mirror


class CFLSolver:
    """Incremental CFL-reachability solver.

    Edges (and nodes) may be added after :meth:`solve` has run; calling
    :meth:`solve` again continues from the previous fixpoint.  This is what
    makes the on-the-fly call-graph construction in
    :mod:`repro.pointsto.andersen` cheap: newly discovered call edges are
    simply pushed into the existing solver.
    """

    def __init__(self, productions: Sequence[Production], nullable: Iterable[Symbol] = NULLABLE):
        self._symbol_ids: Dict[Symbol, int] = {}
        self._symbols: List[Symbol] = []
        self._node_ids: Dict[Hashable, int] = {}
        self._nodes: List[Hashable] = []

        # production indexes keyed by symbol id
        self._by_single: Dict[int, List[int]] = {}
        self._by_first: Dict[int, List[Tuple[int, int]]] = {}
        self._by_second: Dict[int, List[Tuple[int, int]]] = {}
        for production in productions:
            lhs = self._symbol_id(production.lhs)
            rhs = [self._symbol_id(symbol) for symbol in production.rhs]
            if len(rhs) == 1:
                self._by_single.setdefault(rhs[0], []).append(lhs)
            else:
                first, second = rhs
                self._by_first.setdefault(first, []).append((second, lhs))
                self._by_second.setdefault(second, []).append((first, lhs))

        self._nullable_ids = tuple(self._symbol_id(symbol) for symbol in nullable)

        self._edges: Set[Tuple[int, int, int]] = set()
        self._out: Dict[Tuple[int, int], Set[int]] = {}
        self._in: Dict[Tuple[int, int], Set[int]] = {}
        #: per-symbol edge index: symbol id -> {(source, target)}, so that
        #: ``edges``/``edge_count`` queries do not scan the whole edge set
        self._by_symbol: Dict[int, Set[Tuple[int, int]]] = {}
        self._worklist: deque = deque()

    # ------------------------------------------------------------------ interning
    def _symbol_id(self, symbol: Symbol) -> int:
        identifier = self._symbol_ids.get(symbol)
        if identifier is None:
            identifier = len(self._symbols)
            self._symbol_ids[symbol] = identifier
            self._symbols.append(symbol)
        return identifier

    def _node_id(self, node: Hashable) -> int:
        identifier = self._node_ids.get(node)
        if identifier is None:
            identifier = len(self._nodes)
            self._node_ids[node] = identifier
            self._nodes.append(node)
            for nullable in self._nullable_ids:
                self._push(identifier, nullable, identifier)
        return identifier

    # ------------------------------------------------------------------ public API
    def add_node(self, node: Hashable) -> None:
        """Register *node* (ensuring its nullable self-loops exist)."""
        self._node_id(node)

    def add_edge(self, source: Hashable, symbol: Symbol, target: Hashable) -> bool:
        """Add an edge and its mirrored twin; returns ``True`` if the edge was new.

        ``source --X--> target`` comes with ``target --X̄--> source`` whenever
        *symbol* has a :func:`~repro.pointsto.labels.mirror`.  Derived edges
        get no such help: barred relations are derived literally from the
        barred productions, which keeps this solver an independent oracle
        for :class:`repro.solve.bitset.BitsetCFLSolver`'s transposition.
        """
        source_id = self._node_id(source)
        target_id = self._node_id(target)
        added = self._push(source_id, self._symbol_id(symbol), target_id)
        twin = mirror(symbol)
        if twin is not None:
            self._push(target_id, self._symbol_id(twin), source_id)
        return added

    def solve(self) -> None:
        """Run the worklist to fixpoint (may be called repeatedly)."""
        worklist = self._worklist
        out_index = self._out
        in_index = self._in
        by_single = self._by_single
        by_first = self._by_first
        by_second = self._by_second
        push = self._push

        while worklist:
            source, symbol, target = worklist.popleft()

            for produced in by_single.get(symbol, ()):
                push(source, produced, target)

            # production A -> symbol C : extend to the right
            for follower, produced in by_first.get(symbol, ()):
                successors = out_index.get((target, follower))
                if successors:
                    for node in tuple(successors):
                        push(source, produced, node)

            # production A -> B symbol : extend to the left
            for leader, produced in by_second.get(symbol, ()):
                predecessors = in_index.get((source, leader))
                if predecessors:
                    for node in tuple(predecessors):
                        push(node, produced, target)

    # ------------------------------------------------------------------ queries
    def has_edge(self, source: Hashable, symbol: Symbol, target: Hashable) -> bool:
        source_id = self._node_ids.get(source)
        target_id = self._node_ids.get(target)
        symbol_id = self._symbol_ids.get(symbol)
        if source_id is None or target_id is None or symbol_id is None:
            return False
        return (source_id, symbol_id, target_id) in self._edges

    def successors(self, source: Hashable, symbol: Symbol) -> Set[Hashable]:
        source_id = self._node_ids.get(source)
        symbol_id = self._symbol_ids.get(symbol)
        if source_id is None or symbol_id is None:
            return set()
        return {self._nodes[t] for t in self._out.get((source_id, symbol_id), ())}

    def predecessors(self, target: Hashable, symbol: Symbol) -> Set[Hashable]:
        target_id = self._node_ids.get(target)
        symbol_id = self._symbol_ids.get(symbol)
        if target_id is None or symbol_id is None:
            return set()
        return {self._nodes[s] for s in self._in.get((target_id, symbol_id), ())}

    def reachable(self, source: Hashable, symbol: Symbol) -> Iterator[Hashable]:
        """Lazily iterate nodes reachable from *source* via *symbol*.

        Unlike :meth:`successors` this materializes no intermediate set --
        callers that only scan (or early-exit) pay for exactly what they
        consume.
        """
        source_id = self._node_ids.get(source)
        symbol_id = self._symbol_ids.get(symbol)
        if source_id is None or symbol_id is None:
            return iter(())
        nodes = self._nodes
        return (nodes[t] for t in self._out.get((source_id, symbol_id), ()))

    def reaching_sources(
        self, target: Hashable, symbol: Symbol, candidates: Iterable[Hashable]
    ) -> Iterator[Hashable]:
        """Bulk query: which *candidates* have a *symbol* edge into *target*?

        Filters the (typically small) candidate collection against the
        per-``(target, symbol)`` incoming-id index, so a caller asking "do any
        of these N nodes reach this target" never materializes the target's
        full predecessor set.
        """
        target_id = self._node_ids.get(target)
        symbol_id = self._symbol_ids.get(symbol)
        if target_id is None or symbol_id is None:
            return iter(())
        incoming = self._in.get((target_id, symbol_id))
        if not incoming:
            return iter(())
        node_ids = self._node_ids
        return (
            candidate
            for candidate in candidates
            if node_ids.get(candidate) in incoming
        )

    def edges(self, symbol: Symbol) -> Iterator[Tuple[Hashable, Hashable]]:
        """Iterate over all ``(source, target)`` pairs related by *symbol*."""
        symbol_id = self._symbol_ids.get(symbol)
        if symbol_id is None:
            return iter(())
        nodes = self._nodes
        return (
            (nodes[source], nodes[target])
            for (source, target) in self._by_symbol.get(symbol_id, ())
        )

    def edge_count(self, symbol: Symbol) -> int:
        symbol_id = self._symbol_ids.get(symbol)
        if symbol_id is None:
            return 0
        return len(self._by_symbol.get(symbol_id, ()))

    @property
    def total_edges(self) -> int:
        return len(self._edges)

    def nodes(self) -> Tuple[Hashable, ...]:
        return tuple(self._nodes)

    # ------------------------------------------------------------------ internals
    def _push(self, source: int, symbol: int, target: int) -> bool:
        edge = (source, symbol, target)
        if edge in self._edges:
            return False
        self._edges.add(edge)
        self._out.setdefault((source, symbol), set()).add(target)
        self._in.setdefault((target, symbol), set()).add(source)
        self._by_symbol.setdefault(symbol, set()).add((source, target))
        self._worklist.append(edge)
        return True
