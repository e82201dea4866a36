"""Andersen-style points-to analysis with an on-the-fly call graph.

The front-end extracts the Figure 2 graph, instantiates the ``Cpt`` grammar
for the fields that occur in the program, and runs the CFL-reachability
solver.  Instance calls are resolved iteratively: whenever the solver derives
new points-to facts for a call site's receiver, the call is linked to the
methods those abstract objects dispatch to and the solver continues from the
enlarged graph.  Methods marked ``is_native`` contribute no internal edges,
so flows through them are silently lost -- the source of unsoundness the
paper measures when analyzing library implementations directly.

:func:`dispatch_to_fixpoint` is that loop, shared by :class:`AndersenAnalysis`
(over the reference :class:`~repro.pointsto.cfl.CFLSolver`) and the compiled
engine of :mod:`repro.solve.engine` (over a forked
:class:`~repro.solve.bitset.BitsetCFLSolver`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

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
    #: whether max_dispatch_rounds stopped the run while call edges were
    #: still being added (its closure may then be incomplete)
    dispatch_capped: bool = False
    closure_edges: int = 0


def dispatch_to_fixpoint(
    solver,
    program: Program,
    call_sites: Sequence[CallSite],
    resolved: Set[Tuple[int, MethodRef]],
    max_rounds: int,
) -> Tuple[int, bool]:
    """Solve, then link newly resolved calls, until no call edge is added.

    *resolved* holds the ``(call-site index, callee)`` pairs already linked
    and grows in place.  Returns the rounds run and whether *max_rounds*
    ended a round that still added call edges.  Points-to sets only grow, so
    a round looks only at the receiver objects new to each site since the
    previous round, and each ``(allocated class, method name)`` is resolved
    once per call.
    """
    scanned: List[Set[object]] = [set() for _ in call_sites]
    callees: Dict[Tuple[str, str], Optional[MethodRef]] = {}
    rounds = 0
    while True:
        solver.solve()
        rounds += 1
        added = False
        for site_index, site in enumerate(call_sites):
            objects = solver.predecessors(site.receiver, FLOWS_TO)
            fresh = objects - scanned[site_index]
            if not fresh:
                continue
            scanned[site_index] = objects
            for obj in fresh:
                if not isinstance(obj, ObjNode):
                    continue
                signature = (obj.allocated_class, site.method_name)
                if signature in callees:
                    callee_ref = callees[signature]
                else:
                    callee_ref = callees[signature] = (
                        program.resolve_method(*signature)
                        if program.has_class(obj.allocated_class)
                        else None
                    )
                if callee_ref is None:
                    continue
                key = (site_index, callee_ref)
                if key in resolved:
                    continue
                resolved.add(key)
                if _link_call(site, callee_ref, program, solver):
                    added = True
        if not added or rounds >= max_rounds:
            return rounds, added


def _link_call(site: CallSite, callee_ref: MethodRef, program: Program, solver) -> bool:
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
        self.stats.dispatch_rounds, self.stats.dispatch_capped = dispatch_to_fixpoint(
            solver, self.program, graph.call_sites, resolved, self.max_dispatch_rounds
        )
        self.stats.resolved_call_targets = len(resolved)
        self.stats.closure_edges = solver.total_edges
        return PointsToResult(self.program, graph, solver)


def analyze(program: Program) -> PointsToResult:
    """Convenience wrapper: run the analysis over *program* and return the result."""
    return AndersenAnalysis(program).run()
