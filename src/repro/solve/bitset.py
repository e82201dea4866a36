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
are paid only where they happen.  A points-to grammar instantiated over many
fields gives a symbol one partner relation per field (``FlowsTo`` is the
first symbol of ``FlowsTo -> FlowsTo Heap[f]`` and ``LoadFrom[f] -> FlowsTo
Load[f]`` for every ``f`` in the engine's grammar, ``Transfer`` of ``Transfer
-> Transfer Heap[f]`` in the paper's), of which a node typically touches one
or two.  So every node carries a mask of the symbol ids with an edge out of
it and one of the symbol ids with an edge into it, every symbol a mask of
its production partners, and a popped delta joins only with the partners in
their intersection: ``out_symbols[target] & partners`` per target bit for
``A -> symbol C``, ``in_symbols[source] & partners`` for ``A -> B symbol``.

Each mirror pair is stored once.  ``add_edge`` records every edge whose
symbol has a :func:`~repro.pointsto.labels.mirror` together with its barred
twin, and the grammar is closed under mirroring, so every barred relation
``X̄`` of the closure is ``X`` transposed -- and ``in[X]`` already holds it.
A barred edge is stored as the transposed unbarred edge, a production with
a barred left-hand side is replaced by its unbarred mirror, and every query
on a barred symbol answers from the unbarred relation's other index
(``total_edges`` counts a mirrored edge twice, as the reference does).  The
one join with a barred operand, ``StoreInto[f] -> Store[f] FlowsToBar``,
reads ``FlowsTo``'s ``in`` rows.  The reference solver derives barred
relations literally, which is what keeps it an oracle for this.

Two things the reference solver does not offer:

* :meth:`add_productions` -- field-parameterized productions may be added
  after edges exist.  Rule firing always consults the *index* (which holds
  every edge ever added, popped or not), and a binary rule ``A -> B C`` fires
  from either side, so only the edges already present on one side need to
  be re-enqueued: nothing when ``B`` or ``C`` has no edge yet (the rule fires
  once the missing side gets one), else the rows of the smaller side.  A
  unary ``A -> B`` re-enqueues the rows of ``B``.  No derivation is missed
  whatever the interleaving of productions and edges.
* :meth:`fork` -- an independent solver that shares the solved rows.  Rows
  are copy-on-write per relation: a solver owns the relations it has
  written since it was created or last forked, a fork clears ownership on
  both sides, and :meth:`_push` copies a relation's ``out`` and ``in`` rows
  on the first write to one it does not own.  So a fork costs the node
  tables and one pointer per relation, and a solve after it copies only
  the relations it writes.  The production indexes are copy-on-write too
  (:meth:`add_productions` replaces their inner tuples and dicts rather
  than mutating them).  The serving engine solves the invariant base
  program once, then forks the solved state per request (and forks cached
  per-program fixpoints for incremental re-solve) instead of re-deriving
  it; every such snapshot shares the relations it never wrote with the
  base.

Because the closure is a least fixpoint, the iteration order cannot change
the result -- which is what makes the bit-identical-flows guarantee against
the reference solver checkable rather than aspirational.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.pointsto.grammar import NULLABLE, Production
from repro.pointsto.labels import Symbol, is_barred, mirror

#: a production index entry: (mask of partner symbol ids, partner -> LHS ids)
_Join = Tuple[int, Dict[int, Tuple[int, ...]]]

#: the rows of a relation with no edge yet (read-only: a write copies it)
_NO_ROWS: Mapping[int, int] = MappingProxyType({})


def _index_join(index: Dict[int, _Join], symbol: int, partner: int, produced: int) -> bool:
    """Record ``produced`` under ``index[symbol]`` for *partner*, copy-on-write.

    Returns ``False`` when it is recorded already.
    """
    partners, produces = index.get(symbol, (0, {}))
    if produced in produces.get(partner, ()):
        return False
    produces = dict(produces)
    produces[partner] = produces.get(partner, ()) + (produced,)
    index[symbol] = (partners | 1 << partner, produces)
    return True


class BitsetCFLSolver:
    """CFL-reachability over int-bitmask adjacency rows.

    API-compatible with :class:`repro.pointsto.cfl.CFLSolver` (``add_node``,
    ``add_edge``, ``solve``, and every query), so
    :class:`~repro.pointsto.relations.PointsToResult` and the taint client
    run unchanged on top of it.  The answers match the reference's on any
    grammar closed under mirroring, as ``build_cpt_grammar``'s and
    ``build_flows_to_grammar``'s are.  *nullable* defaults to the former's
    :data:`~repro.pointsto.grammar.NULLABLE`; the latter has none
    (``nullable=()``), so interning a node then seeds no self-loop.
    """

    def __init__(
        self,
        productions: Sequence[Production] = (),
        nullable: Iterable[Symbol] = NULLABLE,
    ):
        #: the stored relations: unbarred symbols and symbols without a mirror
        self._symbol_ids: Dict[Symbol, int] = {}
        self._symbols: List[Symbol] = []
        #: mask of the stored symbol ids that have a mirror
        self._mirrored = 0
        self._node_ids: Dict[Hashable, int] = {}
        self._nodes: List[Hashable] = []

        #: symbol id -> {source id: mask of target ids}
        self._out: Dict[int, Dict[int, int]] = {}
        #: symbol id -> {target id: mask of source ids}
        self._in: Dict[int, Dict[int, int]] = {}
        #: mask of the symbol ids whose rows this solver may write in place;
        #: the others' may be shared with forks (see fork and _push)
        self._owned = 0
        #: node id -> mask of the symbol ids with an edge out of / into it
        self._out_symbols: List[int] = []
        self._in_symbols: List[int] = []
        self._edge_counts: Dict[int, int] = {}
        self._worklist: deque = deque()

        # production indexes keyed by symbol id, copy-on-write (see fork):
        # A -> B is by_single[B] = (A, ...); A -> B C is
        # by_first[B] = (mask of C ids, {C: (A, ...)}) and
        # by_second[C] = (mask of B ids, {B: (A, ...)}); A -> B C̄ goes to
        # by_first_bar and by_second_bar the same way
        self._by_single: Dict[int, Tuple[int, ...]] = {}
        self._by_first: Dict[int, _Join] = {}
        self._by_second: Dict[int, _Join] = {}
        self._by_first_bar: Dict[int, _Join] = {}
        self._by_second_bar: Dict[int, _Join] = {}
        self._productions: FrozenSet[Production] = frozenset()
        self.add_productions(productions)

        # a barred nullable symbol's self-loops are its mirror's
        self._nullable_ids = tuple(
            dict.fromkeys(self._relation(symbol)[0] for symbol in nullable)
        )

    # ------------------------------------------------------------------ interning
    def _symbol_id(self, symbol: Symbol) -> int:
        identifier = self._symbol_ids.get(symbol)
        if identifier is None:
            identifier = len(self._symbols)
            self._symbol_ids[symbol] = identifier
            self._symbols.append(symbol)
            if mirror(symbol) is not None:
                self._mirrored |= 1 << identifier
        return identifier

    def _relation(self, symbol: Symbol) -> Tuple[int, bool]:
        """The stored relation *symbol* reads (interned), and whether transposed."""
        if is_barred(symbol):
            return self._symbol_id(mirror(symbol)), True
        return self._symbol_id(symbol), False

    def _find(self, symbol: Symbol) -> Tuple[Optional[int], bool]:
        """:meth:`_relation` without interning: ``None`` for a symbol never seen."""
        if is_barred(symbol):
            return self._symbol_ids.get(mirror(symbol)), True
        return self._symbol_ids.get(symbol), False

    def _rows(self, symbol: Symbol, outgoing: bool) -> Dict[int, int]:
        """*symbol*'s rows keyed by source (*outgoing*) or by target.

        A barred symbol reads its unbarred relation's other index.
        """
        relation, transposed = self._find(symbol)
        if relation is None:
            return {}
        if transposed:
            outgoing = not outgoing
        return (self._out if outgoing else self._in).get(relation, {})

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
        stored = [self._stored_production(production) for production in fresh]
        self._productions = self._productions.union(fresh)
        edge_counts = self._edge_counts
        requeue: Set[int] = set()
        for lhs, rhs in stored:
            if len(rhs) == 1:
                ((only, _),) = rhs
                singles = self._by_single.get(only, ())
                if lhs not in singles:
                    self._by_single[only] = singles + (lhs,)
                    requeue.add(only)
                continue
            (first, _), (second, transposed) = rhs
            if transposed:
                by_first, by_second = self._by_first_bar, self._by_second_bar
            else:
                by_first, by_second = self._by_first, self._by_second
            # a mirrored pair of productions indexes once
            if not _index_join(by_first, first, second, lhs):
                continue
            _index_join(by_second, second, first, lhs)
            first_edges = edge_counts.get(first, 0)
            second_edges = edge_counts.get(second, 0)
            if first_edges and second_edges:
                requeue.add(first if first_edges <= second_edges else second)
        worklist = self._worklist
        for symbol in requeue:
            for source, mask in self._out.get(symbol, {}).items():
                worklist.append((source, symbol, mask))
        return len(fresh)

    def _stored_production(
        self, production: Production
    ) -> Tuple[int, Tuple[Tuple[int, bool], ...]]:
        """*production* over stored relations: the LHS id, ``(id, transposed)`` per operand.

        A production with a mirrored left-hand side stands for itself and
        its mirror, so it must have one; a barred left-hand side is replaced
        by the mirror.  Besides unbarred operands, the joins support one
        shape: a barred second operand of a binary production
        (``StoreInto[f] -> Store[f] FlowsToBar``).
        """
        lhs, barred = self._relation(production.lhs)
        rhs = [self._relation(symbol) for symbol in production.rhs]
        mirrored = self._mirrored
        if mirrored >> lhs & 1 and not all(mirrored >> relation & 1 for relation, _ in rhs):
            raise ValueError(f"production {production} has no mirror")
        if barred:
            # the mirror A -> B C of Ā -> C̄ B̄, in stored relations
            rhs = [(relation, not transposed) for relation, transposed in reversed(rhs)]
        if rhs[0][1]:
            raise ValueError(f"production {production}: only a second operand may be barred")
        return lhs, tuple(rhs)

    def add_node(self, node: Hashable) -> None:
        """Register *node* (ensuring its nullable self-loops exist)."""
        self._node_id(node)

    def add_edge(self, source: Hashable, symbol: Symbol, target: Hashable) -> bool:
        """Add an edge and so its mirrored twin; returns ``True`` if it was new.

        A barred edge is stored as the transposed unbarred edge.
        """
        source_id = self._node_id(source)
        target_id = self._node_id(target)
        relation, transposed = self._relation(symbol)
        if transposed:
            source_id, target_id = target_id, source_id
        return self._push(source_id, relation, 1 << target_id) > 0

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
        by_first_bar = self._by_first_bar
        by_second_bar = self._by_second_bar
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

            # production A -> symbol C̄ : the C̄-successors of each new target
            # are its C-predecessors, so the join reads C's in rows
            firsts = by_first_bar.get(symbol)
            if firsts:
                partners, produces = firsts
                remaining = mask
                while remaining:
                    low = remaining & -remaining
                    target = low.bit_length() - 1
                    remaining ^= low
                    hits = in_symbols[target] & partners
                    while hits:
                        low = hits & -hits
                        follower = low.bit_length() - 1
                        hits ^= low
                        predecessors = in_index[follower][target]
                        for produced in produces[follower]:
                            push(source, produced, predecessors)

            # production A -> B symbolBar : the popped row source -> mask is
            # the symbolBar column mask -> source, so every B-predecessor of
            # a node in mask gains an A edge to source
            seconds = by_second_bar.get(symbol)
            if seconds:
                partners, produces = seconds
                bit = 1 << source
                remaining = mask
                while remaining:
                    low = remaining & -remaining
                    target = low.bit_length() - 1
                    remaining ^= low
                    hits = in_symbols[target] & partners
                    while hits:
                        low = hits & -hits
                        leader = low.bit_length() - 1
                        hits ^= low
                        predecessors = in_index[leader][target]
                        while predecessors:
                            low = predecessors & -predecessors
                            predecessor = low.bit_length() - 1
                            predecessors ^= low
                            for produced in produces[leader]:
                                push(predecessor, produced, bit)

    # ------------------------------------------------------------------ queries
    def has_edge(self, source: Hashable, symbol: Symbol, target: Hashable) -> bool:
        source_id = self._node_ids.get(source)
        target_id = self._node_ids.get(target)
        if source_id is None or target_id is None:
            return False
        return bool(self._rows(symbol, True).get(source_id, 0) >> target_id & 1)

    def successors(self, source: Hashable, symbol: Symbol) -> Set[Hashable]:
        return set(self.reachable(source, symbol))

    def predecessors(self, target: Hashable, symbol: Symbol) -> Set[Hashable]:
        target_id = self._node_ids.get(target)
        if target_id is None:
            return set()
        return set(self._iter_mask(self._rows(symbol, False).get(target_id, 0)))

    def reachable(self, source: Hashable, symbol: Symbol) -> Iterator[Hashable]:
        """Lazily iterate nodes reachable from *source* via *symbol*."""
        source_id = self._node_ids.get(source)
        if source_id is None:
            return iter(())
        return self._iter_mask(self._rows(symbol, True).get(source_id, 0))

    def reaching_sources(
        self, target: Hashable, symbol: Symbol, candidates: Iterable[Hashable]
    ) -> Iterator[Hashable]:
        """Bulk query: which *candidates* have a *symbol* edge into *target*?"""
        target_id = self._node_ids.get(target)
        if target_id is None:
            return iter(())
        incoming = self._rows(symbol, False).get(target_id, 0)
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
        nodes = self._nodes
        return (
            (nodes[source], target)
            for source, mask in self._rows(symbol, True).items()
            for target in self._iter_mask(mask)
        )

    def edge_count(self, symbol: Symbol) -> int:
        return self._edge_counts.get(self._find(symbol)[0], 0)

    @property
    def total_edges(self) -> int:
        """Edges of every relation, a mirrored edge counted with its barred twin."""
        mirrored = self._mirrored
        return sum(
            count << (mirrored >> symbol & 1) for symbol, count in self._edge_counts.items()
        )

    def nodes(self) -> Tuple[Hashable, ...]:
        return tuple(self._nodes)

    # ------------------------------------------------------------------ forking
    def fork(self) -> "BitsetCFLSolver":
        """An independent solver starting from this one's state.

        The clone shares every relation's rows with this solver: it copies
        only the outer ``out``/``in`` dicts, and both solvers give up
        ownership of every relation, so whichever writes a relation first
        copies its rows (:meth:`_push`) and neither ever sees the other's
        edges.  Node tables, edge counts and the worklist are copied; the
        production indexes are copy-on-write and shared by a shallow copy.
        This is the cheap operation the per-request engine leans on.
        """
        clone = self.__class__.__new__(self.__class__)
        clone._symbol_ids = dict(self._symbol_ids)
        clone._symbols = list(self._symbols)
        clone._mirrored = self._mirrored
        clone._node_ids = dict(self._node_ids)
        clone._nodes = list(self._nodes)
        clone._out = dict(self._out)
        clone._in = dict(self._in)
        clone._owned = self._owned = 0
        clone._out_symbols = list(self._out_symbols)
        clone._in_symbols = list(self._in_symbols)
        clone._edge_counts = dict(self._edge_counts)
        clone._worklist = deque(self._worklist)
        clone._by_single = dict(self._by_single)
        clone._by_first = dict(self._by_first)
        clone._by_second = dict(self._by_second)
        clone._by_first_bar = dict(self._by_first_bar)
        clone._by_second_bar = dict(self._by_second_bar)
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
        """Merge *mask* into ``out[symbol][source]``; returns how many bits were new.

        The one place rows are written.  The first write to a relation this
        solver does not own copies its ``out`` and ``in`` rows, which may be
        shared with a parent or a fork, and takes ownership.  The copies
        replace entries of the outer dicts, never the dicts themselves, so
        the references :meth:`solve` holds stay valid.
        """
        row = self._out.get(symbol, _NO_ROWS)
        have = row.get(source, 0)
        new = mask & ~have
        if not new:
            return 0
        symbol_bit = 1 << symbol
        if self._owned & symbol_bit:
            in_rows = self._in[symbol]
        else:
            self._owned |= symbol_bit
            row = self._out[symbol] = dict(row)
            in_rows = self._in[symbol] = dict(self._in.get(symbol, _NO_ROWS))
        row[source] = have | new
        if not have:
            self._out_symbols[source] |= symbol_bit
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
        self._worklist.append((source, symbol, new))
        return count


__all__ = ["BitsetCFLSolver"]
