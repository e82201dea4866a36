"""Andersen-style points-to analysis with an on-the-fly call graph.

The front-end extracts the Figure 2 graph, instantiates the ``Cpt`` grammar
for the fields that occur in the program, and runs the CFL-reachability
solver.  Instance calls are resolved iteratively: whenever the solver derives
new points-to facts for a call site's receiver, the call is linked to the
methods those abstract objects dispatch to and the solver continues from the
enlarged graph.  Methods marked ``is_native`` contribute no internal edges,
so flows through them are silently lost -- the source of unsoundness the
paper measures when analyzing library implementations directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.lang.program import MethodRef, Program
from repro.pointsto.cfl import CFLSolver
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


@dataclass
class AnalysisStats:
    """Bookkeeping about a single analysis run."""

    nodes: int = 0
    base_edges: int = 0
    call_sites: int = 0
    resolved_call_targets: int = 0
    dispatch_rounds: int = 0
    closure_edges: int = 0


class AndersenAnalysis:
    """Runs the points-to analysis over a complete program (client + library/specs)."""

    def __init__(self, program: Program, max_dispatch_rounds: int = 50):
        self.program = program
        self.max_dispatch_rounds = max_dispatch_rounds
        self.stats = AnalysisStats()

    def run(self) -> PointsToResult:
        graph = PointsToGraph(self.program)
        productions = build_cpt_grammar(graph.fields)
        solver = CFLSolver(productions)

        for node in graph.nodes:
            solver.add_node(node)
        for source, symbol, target in graph.edges:
            solver.add_edge(source, symbol, target)

        self.stats.nodes = len(graph.nodes)
        self.stats.base_edges = len(graph.edges)
        self.stats.call_sites = len(graph.call_sites)

        resolved: Set[Tuple[int, MethodRef]] = set()
        rounds = 0
        while True:
            solver.solve()
            rounds += 1
            added = self._resolve_calls(graph, solver, resolved)
            if not added or rounds >= self.max_dispatch_rounds:
                break

        self.stats.dispatch_rounds = rounds
        self.stats.resolved_call_targets = len(resolved)
        self.stats.closure_edges = solver.total_edges
        return PointsToResult(self.program, graph, solver)

    # ------------------------------------------------------------------ dispatch
    def _resolve_calls(
        self,
        graph: PointsToGraph,
        solver: CFLSolver,
        resolved: Set[Tuple[int, MethodRef]],
    ) -> bool:
        added_any = False
        for site_index, site in enumerate(graph.call_sites):
            receiver_objects = solver.predecessors(site.receiver, FLOWS_TO)
            for obj in receiver_objects:
                if not isinstance(obj, ObjNode):
                    continue
                callee_ref = self._dispatch(obj.allocated_class, site.method_name)
                if callee_ref is None:
                    continue
                key = (site_index, callee_ref)
                if key in resolved:
                    continue
                resolved.add(key)
                if self._link_call(site, callee_ref, solver):
                    added_any = True
        return added_any

    def _dispatch(self, class_name: str, method_name: str) -> Optional[MethodRef]:
        if not self.program.has_class(class_name):
            return None
        return self.program.resolve_method(class_name, method_name)

    def _link_call(self, site: CallSite, callee_ref: MethodRef, solver: CFLSolver) -> bool:
        callee = self.program.method_def(callee_ref)
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


def analyze(program: Program) -> PointsToResult:
    """Convenience wrapper: run the analysis over *program* and return the result."""
    return AndersenAnalysis(program).run()
