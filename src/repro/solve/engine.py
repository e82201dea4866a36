"""The compiled per-request solve engine: pre-solved base, forked per query.

The reference path (:class:`repro.pointsto.andersen.AndersenAnalysis`)
re-extracts and re-solves the *entire* merged program -- library stubs,
framework, compiled specifications, client -- on every request, even though
only the client varies.  This engine gives the per-query cost the same
learn-once treatment the oracle cache gave inference:

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

Soundness guardrails: extraction of the base against the base program alone
is only equivalent to extraction against the merged program if no base
statement resolves differently once client classes join.  Base classes
shadow same-named client classes in the merge, so the one hazard is a base
reference to a class name the base itself does not define ("dangling") that
a client then defines.  The constructor scans base statements for exactly
those names; a client defining one falls back to a full merged-program
solve, which is always correct.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.lang.program import MethodRef, Program
from repro.lang.serialize import program_to_dict
from repro.lang.statements import Call, New
from repro.pointsto.grammar import build_cpt_grammar
from repro.pointsto.graph import (
    CallSite,
    ObjNode,
    PointsToGraph,
    parameter_nodes,
    receiver_node,
    return_node,
)
from repro.pointsto.labels import ASSIGN, FLOWS_TO
from repro.pointsto.relations import PointsToResult
from repro.solve.bitset import BitsetCFLSolver
from repro.solve.delta import extension_starts

#: outcomes a compiled solve reports (the cache layer adds ``"hit"``)
COLD = "cold"
INCREMENTAL = "incremental"


class GraphView:
    """The slice of :class:`PointsToGraph` downstream consumers actually use.

    :class:`~repro.pointsto.relations.PointsToResult` and the taint client
    only read ``.nodes`` (and ``.program``); the engine assembles those from
    its base snapshot plus the client extraction instead of carrying a full
    re-extracted graph.
    """

    def __init__(self, program: Program, nodes: Set[object]):
        self.program = program
        self.nodes = nodes


class _Snapshot:
    """One solved fixpoint, reusable as the starting point of a later solve."""

    __slots__ = ("solver", "nodes", "call_sites", "resolved", "client_doc")

    def __init__(
        self,
        solver: BitsetCFLSolver,
        nodes: FrozenSet[object],
        call_sites: Tuple[CallSite, ...],
        resolved: FrozenSet[Tuple[int, MethodRef]],
        client_doc: Optional[Dict],
    ):
        self.solver = solver
        self.nodes = nodes
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

        base_graph = PointsToGraph(base_program)
        solver = BitsetCFLSolver(build_cpt_grammar(base_graph.fields))
        for node in base_graph.nodes:
            solver.add_node(node)
        for source, symbol, target in base_graph.edges:
            solver.add_edge(source, symbol, target)
        resolved: Set[Tuple[int, MethodRef]] = set()
        self._dispatch_to_fixpoint(
            solver, base_program, tuple(base_graph.call_sites), resolved
        )
        self._base = _Snapshot(
            solver=solver,
            nodes=frozenset(base_graph.nodes),
            call_sites=tuple(base_graph.call_sites),
            resolved=frozenset(resolved),
            client_doc=None,
        )
        #: digest -> solved snapshot, LRU-bounded; the neighbor pool
        #: incremental re-solve picks its starting fixpoint from
        self._snapshots: "OrderedDict[str, _Snapshot]" = OrderedDict()

    # ---------------------------------------------------------------- queries
    def analyze(
        self, client_program: Program, merged: Program, digest: str
    ) -> Tuple[PointsToResult, str]:
        """Solve *merged* (client + base), returning the result and how.

        *merged* must be ``client_program.merged_with(base_program)`` for
        the engine's base snapshot; *digest* is the client's canonical
        digest (the snapshot-pool key).  The outcome is ``"incremental"``
        when a cached neighbor fixpoint was extended, else ``"cold"``.
        :attr:`dispatch_rounds` and :attr:`dispatch_capped` then describe
        this analysis.
        """
        client_doc = program_to_dict(client_program)
        neighbor: Optional[_Snapshot] = None
        starts: Optional[Dict[str, Dict[str, int]]] = None
        for old_digest in reversed(self._snapshots):
            candidate = self._snapshots[old_digest]
            classified = extension_starts(candidate.client_doc, client_doc)
            if classified is not None:
                neighbor, starts = candidate, classified
                break

        if neighbor is not None:
            result, snapshot = self._extend(neighbor, starts, merged)
            outcome = INCREMENTAL
        else:
            result, snapshot = self._cold(client_program, merged)
            outcome = COLD
        snapshot.client_doc = client_doc
        self._snapshots[digest] = snapshot
        self._snapshots.move_to_end(digest)
        while len(self._snapshots) > self.max_snapshots:
            self._snapshots.popitem(last=False)
        return result, outcome

    # ------------------------------------------------------------- solve paths
    def _cold(
        self, client_program: Program, merged: Program
    ) -> Tuple[PointsToResult, _Snapshot]:
        client_names = {cls.name for cls in client_program} - self._base_class_names
        if client_names & self._dangling_names:
            # the client defines a name the base references: base extraction
            # against the base alone is no longer faithful -- solve the whole
            # merged program from scratch (rare, and always correct)
            return self._full(merged)

        solver = self._base.solver.fork()
        only = {
            name: {method: 0 for method in merged.class_def(name).methods}
            for name in client_names
        }
        client_graph = PointsToGraph(merged, only=only)
        solver.add_productions(build_cpt_grammar(client_graph.fields))
        for node in client_graph.nodes:
            solver.add_node(node)
        for source, symbol, target in client_graph.edges:
            solver.add_edge(source, symbol, target)
        call_sites = self._base.call_sites + tuple(client_graph.call_sites)
        resolved = set(self._base.resolved)
        self._dispatch_to_fixpoint(solver, merged, call_sites, resolved)
        nodes = set(self._base.nodes) | client_graph.nodes
        snapshot = _Snapshot(
            solver=solver,
            nodes=frozenset(nodes),
            call_sites=call_sites,
            resolved=frozenset(resolved),
            client_doc=None,
        )
        return PointsToResult(merged, GraphView(merged, nodes), solver), snapshot

    def _extend(
        self,
        neighbor: _Snapshot,
        starts: Dict[str, Dict[str, int]],
        merged: Program,
    ) -> Tuple[PointsToResult, _Snapshot]:
        solver = neighbor.solver.fork()
        delta_graph = PointsToGraph(merged, only=starts)
        solver.add_productions(build_cpt_grammar(delta_graph.fields))
        for node in delta_graph.nodes:
            solver.add_node(node)
        for source, symbol, target in delta_graph.edges:
            solver.add_edge(source, symbol, target)
        call_sites = neighbor.call_sites + tuple(delta_graph.call_sites)
        resolved = set(neighbor.resolved)
        self._dispatch_to_fixpoint(solver, merged, call_sites, resolved)
        nodes = set(neighbor.nodes) | delta_graph.nodes
        snapshot = _Snapshot(
            solver=solver,
            nodes=frozenset(nodes),
            call_sites=call_sites,
            resolved=frozenset(resolved),
            client_doc=None,
        )
        return PointsToResult(merged, GraphView(merged, nodes), solver), snapshot

    def _full(self, merged: Program) -> Tuple[PointsToResult, _Snapshot]:
        graph = PointsToGraph(merged)
        solver = BitsetCFLSolver(build_cpt_grammar(graph.fields))
        for node in graph.nodes:
            solver.add_node(node)
        for source, symbol, target in graph.edges:
            solver.add_edge(source, symbol, target)
        call_sites = tuple(graph.call_sites)
        resolved: Set[Tuple[int, MethodRef]] = set()
        self._dispatch_to_fixpoint(solver, merged, call_sites, resolved)
        snapshot = _Snapshot(
            solver=solver,
            nodes=frozenset(graph.nodes),
            call_sites=call_sites,
            resolved=frozenset(resolved),
            client_doc=None,
        )
        return PointsToResult(merged, GraphView(merged, graph.nodes), solver), snapshot

    # ------------------------------------------------------------------ dispatch
    def _dispatch_to_fixpoint(
        self,
        solver: BitsetCFLSolver,
        program: Program,
        call_sites: Tuple[CallSite, ...],
        resolved: Set[Tuple[int, MethodRef]],
    ) -> None:
        """Solve + on-the-fly call resolution, exactly as the reference does.

        Records the rounds run in :attr:`dispatch_rounds`, and in
        :attr:`dispatch_capped` whether the cap ended a round that still
        added call edges.
        """
        rounds = 0
        while True:
            solver.solve()
            rounds += 1
            added = False
            for site_index, site in enumerate(call_sites):
                for obj in solver.predecessors(site.receiver, FLOWS_TO):
                    if not isinstance(obj, ObjNode):
                        continue
                    if not program.has_class(obj.allocated_class):
                        continue
                    callee_ref = program.resolve_method(
                        obj.allocated_class, site.method_name
                    )
                    if callee_ref is None:
                        continue
                    key = (site_index, callee_ref)
                    if key in resolved:
                        continue
                    resolved.add(key)
                    if self._link_call(site, callee_ref, program, solver):
                        added = True
            if not added or rounds >= self.max_dispatch_rounds:
                break
        self.dispatch_rounds = rounds
        self.dispatch_capped = added

    def _link_call(
        self,
        site: CallSite,
        callee_ref: MethodRef,
        program: Program,
        solver: BitsetCFLSolver,
    ) -> bool:
        callee = program.method_def(callee_ref)
        added = False

        def connect(source, target) -> None:
            nonlocal added
            if solver.add_edge(source, ASSIGN, target):
                added = True

        if not callee.is_static:
            connect(site.receiver, receiver_node(callee_ref))
        formals = parameter_nodes(callee, callee_ref)
        for formal, actual in zip(formals, site.argument_nodes):
            connect(actual, formal)
        if site.target is not None and callee.returns_reference():
            connect(return_node(callee_ref), site.target)
        return added


__all__ = ["COLD", "CompiledAnalysisEngine", "GraphView", "INCREMENTAL"]
