"""The analysis engine: pre-solved base, forked per query.

Every :class:`~repro.service.analyzer.ClientAnalyzer` answers through this
engine.  The reference :class:`repro.pointsto.andersen.AndersenAnalysis`,
kept as the test oracle, re-extracts and re-solves the *entire* merged
program -- library stubs, framework, compiled specifications, client -- per
program, even though only the client varies.  This engine gives the
per-query cost the same learn-once treatment the oracle cache gave
inference:

1. **Compile once.**  At construction the analysis-invariant base program is
   extracted, its grammar instantiated, and its CFL closure solved to
   fixpoint (including on-the-fly dispatch among base call sites) inside a
   :class:`~repro.solve.bitset.BitsetCFLSolver`.  The solved state -- dense
   int-bitmask rows -- is the compiled form of the stored specs' transfer
   functions.
2. **Fork per request.**  A cold query forks the solved base, extracts only
   the client's classes, adds the client's field productions and edges, and
   runs dispatch to fixpoint over base + client call sites.  The closure is
   a least fixpoint, so solving the base first and the client on top reaches
   exactly the closure the reference computes over the merged program.
3. **Extend per edit.**  When the query is a pure statement-append extension
   of a recently solved program (:func:`repro.solve.delta.extension_starts`),
   the engine forks that program's cached fixpoint instead and propagates
   only the delta edges -- the common shape under IDE-like and coalesced
   server traffic.

All three are one solve path, ``_solve(start, program, only)``: extract the
*only* slice of *program* on top of the *start* snapshot (``None`` = an
empty solver) and run the dispatch loop the reference runs too,
:func:`repro.pointsto.andersen.dispatch_to_fixpoint`.

The engine's grammar is :func:`~repro.pointsto.grammar.build_flows_to_grammar`
with nothing nullable: the taint client reads only ``FlowsTo``, so the
engine derives ``FlowsTo`` directly and never the all-pairs ``Transfer``
closure the paper's nullable ``Transfer`` seeds (a self-loop on every
node).  Its ``FlowsTo``, ``StoreInto[f]``, ``LoadFrom[f]`` and ``Heap[f]``
are the paper's grammar's, and ``Transfer`` queries on its results answer
from the stored ``Assign`` and ``Heap[f]`` rows
(:meth:`~repro.pointsto.relations.PointsToResult.transfer`).  The reference
oracle keeps the paper's grammar, which is what makes it an independent
check of this one.

Soundness guardrails: extraction of the base against the base program alone
is only equivalent to extraction against the merged program if no base
statement resolves differently once client classes join.  Base classes
shadow same-named client classes in the merge, so the one hazard is a base
reference to a class name the base itself does not define ("dangling") that
a client then defines.  The constructor scans base statements for exactly
those names; a client defining one falls back to a full merged-program
solve from an empty solver, which is always correct.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.lang.program import MethodRef, Program
from repro.lang.statements import Call, New
from repro.pointsto.andersen import dispatch_to_fixpoint
from repro.pointsto.grammar import build_flows_to_grammar
from repro.pointsto.graph import CallSite, ObjNode, PointsToGraph
from repro.pointsto.relations import PointsToResult
from repro.solve.bitset import BitsetCFLSolver
from repro.solve.delta import extension_starts

#: outcomes a compiled solve reports (the cache layer adds ``"hit"``)
COLD = "cold"
INCREMENTAL = "incremental"


class GraphView:
    """The slice of :class:`PointsToGraph` downstream consumers actually use.

    :class:`~repro.pointsto.relations.PointsToResult` and the taint client
    only read ``.nodes``, ``.fields``, ``.objects`` and ``.program``; the
    engine assembles those from its base snapshot plus the client extraction
    instead of carrying a full re-extracted graph.
    """

    def __init__(
        self,
        program: Program,
        nodes: FrozenSet[object],
        fields: FrozenSet[str],
        objects: Tuple[ObjNode, ...],
    ):
        self.program = program
        self.nodes = nodes
        self.fields = fields
        self.objects = objects


class _Snapshot:
    """One solved fixpoint, reusable as the starting point of a later solve.

    Nothing writes its solver again: a later solve works on a fork, which
    shares every relation it does not write (copy-on-write rows), so the
    base and the pooled snapshots hold one copy of each unwritten relation.
    """

    __slots__ = ("solver", "nodes", "fields", "objects", "call_sites", "resolved", "client_doc")

    def __init__(
        self,
        solver: BitsetCFLSolver,
        nodes: FrozenSet[object],
        fields: FrozenSet[str],
        objects: Tuple[ObjNode, ...],
        call_sites: Tuple[CallSite, ...],
        resolved: FrozenSet[Tuple[int, MethodRef]],
        client_doc: Optional[Dict],
    ):
        self.solver = solver
        self.nodes = nodes
        self.fields = fields
        self.objects = objects
        self.call_sites = call_sites
        self.resolved = resolved
        self.client_doc = client_doc


def _referenced_class_names(program: Program) -> Set[str]:
    """Class names program statements (and superclass links) resolve eagerly."""
    names: Set[str] = set()
    for cls in program:
        if cls.superclass:
            names.add(cls.superclass)
        for method in cls.methods.values():
            for statement in method.body:
                if isinstance(statement, New):
                    names.add(statement.class_name)
                elif isinstance(statement, Call) and statement.base is None:
                    class_name, _, _ = statement.method_name.rpartition(".")
                    if class_name:
                        names.add(class_name)
    return names


class CompiledAnalysisEngine:
    """Answers points-to queries by forking a pre-solved base closure."""

    def __init__(
        self,
        base_program: Program,
        max_dispatch_rounds: int = 50,
        max_snapshots: int = 8,
    ):
        self.base_program = base_program
        self.max_dispatch_rounds = max_dispatch_rounds
        self.max_snapshots = max_snapshots
        #: dispatch rounds the last solve ran, and whether max_dispatch_rounds
        #: stopped it while call edges were still being added (its closure
        #: may then be incomplete)
        self.dispatch_rounds = 0
        self.dispatch_capped = False
        self._base_class_names = frozenset(cls.name for cls in base_program)
        #: class names base statements reference but the base does not define;
        #: a client defining one would change how the base itself extracts
        self._dangling_names = frozenset(
            _referenced_class_names(base_program) - self._base_class_names
        )
        _result, self._base = self._solve(None, base_program, None)
        #: digest -> solved snapshot, LRU-bounded; the neighbor pool
        #: incremental re-solve picks its starting fixpoint from
        self._snapshots: "OrderedDict[str, _Snapshot]" = OrderedDict()

    # ---------------------------------------------------------------- queries
    def analyze(
        self, client_program: Program, merged: Program, client_doc: Dict, digest: str
    ) -> Tuple[PointsToResult, str]:
        """Solve *merged* (client + base), returning the result and how.

        *merged* must be ``client_program.merged_with(base_program)`` for
        the engine's base snapshot; *client_doc* is the client's canonical
        encoding (:func:`~repro.lang.serialize.program_to_dict`) and
        *digest* its digest (the snapshot-pool key).  The outcome is
        ``"incremental"`` when a cached neighbor fixpoint was extended,
        else ``"cold"``.  :attr:`dispatch_rounds` and
        :attr:`dispatch_capped` then describe this analysis.
        """
        for old_digest in reversed(self._snapshots):
            start = self._snapshots[old_digest]
            only = extension_starts(start.client_doc, client_doc)
            if only is not None:
                outcome = INCREMENTAL
                break
        else:
            outcome = COLD
            client_names = {cls.name for cls in client_program} - self._base_class_names
            if client_names & self._dangling_names:
                # the client defines a name the base references: base
                # extraction against the base alone is no longer faithful --
                # solve the whole merged program from scratch (rare, and
                # always correct)
                start, only = None, None
            else:
                start = self._base
                only = {
                    name: {method: 0 for method in merged.class_def(name).methods}
                    for name in client_names
                }
        result, snapshot = self._solve(start, merged, only)
        snapshot.client_doc = client_doc
        self._snapshots[digest] = snapshot
        self._snapshots.move_to_end(digest)
        while len(self._snapshots) > self.max_snapshots:
            self._snapshots.popitem(last=False)
        return result, outcome

    # ------------------------------------------------------------------- solve
    def _solve(
        self,
        start: Optional[_Snapshot],
        program: Program,
        only: Optional[Dict[str, Dict[str, int]]],
    ) -> Tuple[PointsToResult, _Snapshot]:
        """Extract *only* of *program* on top of *start*, then dispatch to fixpoint.

        *start* is the solved base, a cached neighbor, or ``None`` for an
        empty solver (the base build itself, and the dangling-name fallback);
        *only* restricts extraction as in :class:`PointsToGraph` (``None``
        extracts the whole program).  Records the dispatch rounds in
        :attr:`dispatch_rounds` and :attr:`dispatch_capped`.
        """
        graph = PointsToGraph(program, only=only)
        productions = build_flows_to_grammar(graph.fields)
        if start is None:
            solver = BitsetCFLSolver(productions, nullable=())
            nodes: FrozenSet[object] = frozenset()
            fields: FrozenSet[str] = frozenset()
            objects: Tuple[ObjNode, ...] = ()
            call_sites: Tuple[CallSite, ...] = ()
            resolved: Set[Tuple[int, MethodRef]] = set()
        else:
            solver = start.solver.fork()
            solver.add_productions(productions)
            nodes, fields, objects = start.nodes, start.fields, start.objects
            call_sites, resolved = start.call_sites, set(start.resolved)
        for node in graph.nodes:
            solver.add_node(node)
        for source, symbol, target in graph.edges:
            solver.add_edge(source, symbol, target)
        nodes |= graph.nodes
        fields |= graph.fields
        objects += tuple(graph.objects)
        call_sites += tuple(graph.call_sites)
        self.dispatch_rounds, self.dispatch_capped = dispatch_to_fixpoint(
            solver, program, call_sites, resolved, self.max_dispatch_rounds
        )
        snapshot = _Snapshot(
            solver=solver,
            nodes=nodes,
            fields=fields,
            objects=objects,
            call_sites=call_sites,
            resolved=frozenset(resolved),
            client_doc=None,
        )
        view = GraphView(program, nodes, fields, objects)
        return PointsToResult(program, view, solver), snapshot


__all__ = ["COLD", "CompiledAnalysisEngine", "GraphView", "INCREMENTAL"]
