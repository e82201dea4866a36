"""A compiled CFL-reachability solver over integer bitsets.

This is the hot-path twin of :class:`repro.pointsto.cfl.CFLSolver`: the same
normalized grammar, the same least fixpoint, the same query API -- but the
closure state is *dense*.  Nodes and symbols are interned to small integers
and every relation ``u --A--> *`` is one arbitrary-precision Python int used
as a bitmask, so the inner worklist loop propagates whole successor rows with
single ``|``/``& ~`` operations instead of element-wise set inserts.  Pure
stdlib: Python's bignums are the bitset type, which keeps the solver
dependency-free and picklable.

The worklist carries ``(source, symbol, delta_mask)`` triples: one entry may
represent many edges, and rule application combines masks in bulk.  Joins
are paid only where they happen.  The ``Cpt`` grammar instantiated over many
fields gives a symbol one partner relation per field (``Transfer`` is the
first symbol of ``Transfer -> Transfer Heap[f]`` for every ``f``), of which a
node typically touches one or two.  So every node carries a mask of the
symbol ids with an edge out of it and one of the symbol ids with an edge
into it, every symbol a mask of its production partners, and a popped delta
joins only with the partners in their intersection: ``out_symbols[target] &
partners`` per target bit for ``A -> symbol C``, ``in_symbols[source] &
partners`` for ``A -> B symbol``.

Two things the reference solver does not offer:

* :meth:`add_productions` -- field-parameterized productions may be added
  after edges exist.  Rule firing always consults the *index* (which holds
  every edge ever added, popped or not), and a binary rule ``A -> B C`` fires
  from either side, so only the edges already present on one side need to
  be re-enqueued: nothing when ``B`` or ``C`` has no edge yet (the rule fires
  once the missing side gets one), else the rows of the smaller side.  A
  unary ``A -> B`` re-enqueues the rows of ``B``.  No derivation is missed
  whatever the interleaving of productions and edges.
* :meth:`fork` -- a copy of the entire solver state in one dict copy per
  relation.  The production indexes are copy-on-write (:meth:`add_productions`
  replaces their inner tuples and dicts rather than mutating them), so a
  fork shares them.  The serving engine solves the invariant base program
  once, then forks the solved state per request (and forks cached
  per-program fixpoints for incremental re-solve) instead of re-deriving it.

Because the closure is a least fixpoint, the iteration order cannot change
the result -- which is what makes the bit-identical-flows guarantee against
the reference solver checkable rather than aspirational.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.pointsto.grammar import NULLABLE, Production
from repro.pointsto.labels import Symbol

#: a production index entry: (mask of partner symbol ids, partner -> LHS ids)
_Join = Tuple[int, Dict[int, Tuple[int, ...]]]


def _index_join(index: Dict[int, _Join], symbol: int, partner: int, produced: int) -> None:
    """Record ``produced`` under ``index[symbol]`` for *partner*, copy-on-write."""
    partners, produces = index.get(symbol, (0, {}))
    produces = dict(produces)
    produces[partner] = produces.get(partner, ()) + (produced,)
    index[symbol] = (partners | 1 << partner, produces)


class BitsetCFLSolver:
    """CFL-reachability over int-bitmask adjacency rows.

    API-compatible with :class:`repro.pointsto.cfl.CFLSolver` (``add_node``,
    ``add_edge``, ``solve``, and every query), so
    :class:`~repro.pointsto.relations.PointsToResult` and the taint client
    run unchanged on top of it.
    """

    def __init__(
        self,
        productions: Sequence[Production] = (),
        nullable: Iterable[Symbol] = NULLABLE,
    ):
        self._symbol_ids: Dict[Symbol, int] = {}
        self._symbols: List[Symbol] = []
        self._node_ids: Dict[Hashable, int] = {}
        self._nodes: List[Hashable] = []

        #: symbol id -> {source id: mask of target ids}
        self._out: Dict[int, Dict[int, int]] = {}
        #: symbol id -> {target id: mask of source ids}
        self._in: Dict[int, Dict[int, int]] = {}
        #: node id -> mask of the symbol ids with an edge out of / into it
        self._out_symbols: List[int] = []
        self._in_symbols: List[int] = []
        self._edge_counts: Dict[int, int] = {}
        self._total_edges = 0
        self._worklist: deque = deque()

        # production indexes keyed by symbol id, copy-on-write (see fork):
        # A -> B is by_single[B] = (A, ...); A -> B C is
        # by_first[B] = (mask of C ids, {C: (A, ...)}) and
        # by_second[C] = (mask of B ids, {B: (A, ...)})
        self._by_single: Dict[int, Tuple[int, ...]] = {}
        self._by_first: Dict[int, _Join] = {}
        self._by_second: Dict[int, _Join] = {}
        self._productions: FrozenSet[Production] = frozenset()
        self.add_productions(productions)

        self._nullable_ids = tuple(self._symbol_id(symbol) for symbol in nullable)

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
            self._out_symbols.append(0)
            self._in_symbols.append(0)
            bit = 1 << identifier
            for nullable in self._nullable_ids:
                self._push(identifier, nullable, bit)
        return identifier

    # ------------------------------------------------------------------ public API
    def add_productions(self, productions: Sequence[Production]) -> int:
        """Index *productions*, skipping any already present; returns how many were new.

        Existing edges are re-enqueued only where a new production can fire
        over them: the rows of ``B`` for ``A -> B``, and for ``A -> B C`` the
        rows of whichever of ``B`` and ``C`` has fewer edges -- or none when
        either has no edge, since the first edge the missing side gets fires
        the rule against the index.  Ordering of ``add_productions`` and
        ``add_edge`` therefore cannot lose derivations.  (Re-pushed masks that
        derive nothing new are dropped by the ``& ~have`` delta check, so this
        is idempotent.)
        """
        fresh = [
            production
            for production in dict.fromkeys(productions)
            if production not in self._productions
        ]
        if not fresh:
            return 0
        self._productions = self._productions.union(fresh)
        edge_counts = self._edge_counts
        requeue: Set[int] = set()
        for production in fresh:
            lhs = self._symbol_id(production.lhs)
            rhs = [self._symbol_id(symbol) for symbol in production.rhs]
            if len(rhs) == 1:
                (only,) = rhs
                self._by_single[only] = self._by_single.get(only, ()) + (lhs,)
                requeue.add(only)
                continue
            first, second = rhs
            _index_join(self._by_first, first, second, lhs)
            _index_join(self._by_second, second, first, lhs)
            first_edges = edge_counts.get(first, 0)
            second_edges = edge_counts.get(second, 0)
            if first_edges and second_edges:
                requeue.add(first if first_edges <= second_edges else second)
        worklist = self._worklist
        for symbol in requeue:
            for source, mask in self._out.get(symbol, {}).items():
                worklist.append((source, symbol, mask))
        return len(fresh)

    def add_node(self, node: Hashable) -> None:
        """Register *node* (ensuring its nullable self-loops exist)."""
        self._node_id(node)

    def add_edge(self, source: Hashable, symbol: Symbol, target: Hashable) -> bool:
        """Add an edge; returns ``True`` if it was new."""
        source_id = self._node_id(source)
        target_id = self._node_id(target)
        symbol_id = self._symbol_id(symbol)
        return self._push(source_id, symbol_id, 1 << target_id) > 0

    def solve(self) -> None:
        """Run the worklist to fixpoint (may be called repeatedly)."""
        worklist = self._worklist
        out_index = self._out
        in_index = self._in
        out_symbols = self._out_symbols
        in_symbols = self._in_symbols
        by_single = self._by_single
        by_first = self._by_first
        by_second = self._by_second
        push = self._push

        while worklist:
            source, symbol, mask = worklist.popleft()

            for produced in by_single.get(symbol, ()):
                push(source, produced, mask)

            # production A -> symbol C : extend each new target to the right,
            # joining only with the C relations that leave that target
            firsts = by_first.get(symbol)
            if firsts:
                partners, produces = firsts
                remaining = mask
                while remaining:
                    low = remaining & -remaining
                    target = low.bit_length() - 1
                    remaining ^= low
                    hits = out_symbols[target] & partners
                    while hits:
                        low = hits & -hits
                        follower = low.bit_length() - 1
                        hits ^= low
                        successors = out_index[follower][target]
                        for produced in produces[follower]:
                            push(source, produced, successors)

            # production A -> B symbol : every B-predecessor of source gains
            # the whole delta mask in one push, for each B entering source
            seconds = by_second.get(symbol)
            if seconds:
                partners, produces = seconds
                hits = in_symbols[source] & partners
                while hits:
                    low = hits & -hits
                    leader = low.bit_length() - 1
                    hits ^= low
                    remaining = in_index[leader][source]
                    while remaining:
                        low = remaining & -remaining
                        predecessor = low.bit_length() - 1
                        remaining ^= low
                        for produced in produces[leader]:
                            push(predecessor, produced, mask)

    # ------------------------------------------------------------------ queries
    def has_edge(self, source: Hashable, symbol: Symbol, target: Hashable) -> bool:
        source_id = self._node_ids.get(source)
        target_id = self._node_ids.get(target)
        symbol_id = self._symbol_ids.get(symbol)
        if source_id is None or target_id is None or symbol_id is None:
            return False
        row = self._out.get(symbol_id)
        if not row:
            return False
        return bool(row.get(source_id, 0) >> target_id & 1)

    def successors(self, source: Hashable, symbol: Symbol) -> Set[Hashable]:
        source_id = self._node_ids.get(source)
        symbol_id = self._symbol_ids.get(symbol)
        if source_id is None or symbol_id is None:
            return set()
        row = self._out.get(symbol_id)
        mask = row.get(source_id, 0) if row else 0
        return set(self._iter_mask(mask))

    def predecessors(self, target: Hashable, symbol: Symbol) -> Set[Hashable]:
        target_id = self._node_ids.get(target)
        symbol_id = self._symbol_ids.get(symbol)
        if target_id is None or symbol_id is None:
            return set()
        row = self._in.get(symbol_id)
        mask = row.get(target_id, 0) if row else 0
        return set(self._iter_mask(mask))

    def reachable(self, source: Hashable, symbol: Symbol) -> Iterator[Hashable]:
        """Lazily iterate nodes reachable from *source* via *symbol*."""
        source_id = self._node_ids.get(source)
        symbol_id = self._symbol_ids.get(symbol)
        if source_id is None or symbol_id is None:
            return iter(())
        row = self._out.get(symbol_id)
        return self._iter_mask(row.get(source_id, 0) if row else 0)

    def reaching_sources(
        self, target: Hashable, symbol: Symbol, candidates: Iterable[Hashable]
    ) -> Iterator[Hashable]:
        """Bulk query: which *candidates* have a *symbol* edge into *target*?"""
        target_id = self._node_ids.get(target)
        symbol_id = self._symbol_ids.get(symbol)
        if target_id is None or symbol_id is None:
            return iter(())
        row = self._in.get(symbol_id)
        incoming = row.get(target_id, 0) if row else 0
        if not incoming:
            return iter(())
        node_ids = self._node_ids
        return (
            candidate
            for candidate in candidates
            if (identifier := node_ids.get(candidate)) is not None
            and incoming >> identifier & 1
        )

    def edges(self, symbol: Symbol) -> Iterator[Tuple[Hashable, Hashable]]:
        """Iterate over all ``(source, target)`` pairs related by *symbol*."""
        symbol_id = self._symbol_ids.get(symbol)
        if symbol_id is None:
            return iter(())
        nodes = self._nodes
        return (
            (nodes[source], target)
            for source, mask in self._out.get(symbol_id, {}).items()
            for target in self._iter_mask(mask)
        )

    def edge_count(self, symbol: Symbol) -> int:
        symbol_id = self._symbol_ids.get(symbol)
        if symbol_id is None:
            return 0
        return self._edge_counts.get(symbol_id, 0)

    @property
    def total_edges(self) -> int:
        return self._total_edges

    def nodes(self) -> Tuple[Hashable, ...]:
        return tuple(self._nodes)

    # ------------------------------------------------------------------ forking
    def fork(self) -> "BitsetCFLSolver":
        """An independent copy of the full solver state.

        Rows are masks (immutable ints), so the copy is one dict copy per
        relation -- the cheap operation the per-request engine leans on.  The
        production indexes are copy-on-write and shared by a shallow copy.
        """
        clone = self.__class__.__new__(self.__class__)
        clone._symbol_ids = dict(self._symbol_ids)
        clone._symbols = list(self._symbols)
        clone._node_ids = dict(self._node_ids)
        clone._nodes = list(self._nodes)
        clone._out = {key: dict(row) for key, row in self._out.items()}
        clone._in = {key: dict(row) for key, row in self._in.items()}
        clone._out_symbols = list(self._out_symbols)
        clone._in_symbols = list(self._in_symbols)
        clone._edge_counts = dict(self._edge_counts)
        clone._total_edges = self._total_edges
        clone._worklist = deque(self._worklist)
        clone._by_single = dict(self._by_single)
        clone._by_first = dict(self._by_first)
        clone._by_second = dict(self._by_second)
        clone._productions = self._productions
        clone._nullable_ids = self._nullable_ids
        return clone

    # ------------------------------------------------------------------ internals
    def _iter_mask(self, mask: int) -> Iterator[Hashable]:
        nodes = self._nodes
        while mask:
            low = mask & -mask
            yield nodes[low.bit_length() - 1]
            mask ^= low

    def _push(self, source: int, symbol: int, mask: int) -> int:
        """Merge *mask* into ``out[symbol][source]``; returns how many bits were new."""
        row = self._out.setdefault(symbol, {})
        have = row.get(source, 0)
        new = mask & ~have
        if not new:
            return 0
        row[source] = have | new
        symbol_bit = 1 << symbol
        if not have:
            self._out_symbols[source] |= symbol_bit
        in_rows = self._in.setdefault(symbol, {})
        in_symbols = self._in_symbols
        bit = 1 << source
        remaining = new
        while remaining:
            low = remaining & -remaining
            target = low.bit_length() - 1
            remaining ^= low
            sources = in_rows.get(target, 0)
            if not sources:
                in_symbols[target] |= symbol_bit
            in_rows[target] = sources | bit
        count = new.bit_count()
        self._edge_counts[symbol] = self._edge_counts.get(symbol, 0) + count
        self._total_edges += count
        self._worklist.append((source, symbol, new))
        return count


__all__ = ["BitsetCFLSolver"]
