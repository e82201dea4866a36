"""Query API over a completed points-to closure."""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lang.program import Program
from repro.pointsto.cfl import CFLSolver
from repro.pointsto.graph import ObjNode, PointsToGraph, VarNode
from repro.pointsto.labels import ASSIGN, FLOWS_TO, Symbol, heap


class PointsToResult:
    """The transitive closure ``G~`` of the paper, with convenience queries.

    The metrics of Section 6 only consider relations between *program*
    variables (variables of non-library classes); the ``program_*`` helpers
    apply that restriction.  The *solver* holds a completed closure: nothing
    adds edges to it once the result is built.
    """

    def __init__(self, program: Program, graph: PointsToGraph, solver: CFLSolver):
        self.program = program
        self.graph = graph
        self.solver = solver
        #: the solver's nodes and the non-empty relations of ``Transfer``'s
        #: steps, built on the first ``Transfer`` query
        self._transfer_steps: Optional[Tuple[FrozenSet[object], Tuple[Symbol, ...]]] = None

    # ------------------------------------------------------------------ raw queries
    def points_to(self, variable: VarNode) -> Set[ObjNode]:
        """Abstract objects *variable* may point to."""
        return {
            node
            for node in self.solver.predecessors(variable, FLOWS_TO)
            if isinstance(node, ObjNode)
        }

    def points_to_among(
        self, variable: VarNode, candidates: Iterable[ObjNode]
    ) -> Iterator[ObjNode]:
        """The subset of *candidates* that *variable* may point to.

        A bulk query for clients that track a known (small) object population
        -- e.g. the taint client's secret objects -- and repeatedly ask which
        of them reach some variable: the candidates are filtered against the
        solver's per-symbol edge index instead of materializing the
        variable's full points-to set per query.
        """
        return self.solver.reaching_sources(variable, FLOWS_TO, candidates)

    def aliased(self, left: VarNode, right: VarNode) -> bool:
        """Whether *left* and *right* may point to a common object.

        The paper's ``Alias`` relation, answered from ``FlowsTo``:
        ``Alias(x, y)`` iff some ``o`` has ``FlowsTo(o, x)`` and ``FlowsTo(o, y)``.
        """
        return not self.solver.predecessors(left, FLOWS_TO).isdisjoint(
            self.solver.predecessors(right, FLOWS_TO)
        )

    def transfer(self, source: VarNode, target: VarNode) -> bool:
        """Whether *source* may be (indirectly) assigned to *target*.

        The paper's ``Transfer = (Assign | Heap[f])*``, reflexive on every
        node of the solver.  Every ``Transfer`` query answers by a search
        over the stored ``Assign`` and ``Heap[f]`` rows
        (:meth:`_transfer_reach`), so it needs no ``Transfer`` relation:
        the engine's ``FlowsTo``-only grammar derives none.
        """
        return target in self._transfer_reach(source)

    def transfer_bar(self, source: VarNode, target: VarNode) -> bool:
        """``TransferBar``: ``Transfer`` transposed."""
        return self.transfer(target, source)

    def transfer_targets(self, source: VarNode) -> Set[VarNode]:
        """All variables *source* may transfer to."""
        return {node for node in self._transfer_reach(source) if isinstance(node, VarNode)}

    def _transfer_reach(self, source: object) -> Set[object]:
        """Every node *source* transfers to, itself included (none if unknown).

        A depth-first search whose steps are the solver's ``Assign`` and
        ``Heap[f]`` edges, ``f`` ranging over the graph's fields.  Only
        queries call it; the serving path never does.
        """
        if self._transfer_steps is None:
            steps = [ASSIGN] + [heap(field_name) for field_name in sorted(self.graph.fields)]
            self._transfer_steps = (
                frozenset(self.solver.nodes()),
                tuple(symbol for symbol in steps if self.solver.edge_count(symbol)),
            )
        nodes, steps = self._transfer_steps
        if source not in nodes:
            return set()
        reach = {source}
        frontier = [source]
        while frontier:
            node = frontier.pop()
            for symbol in steps:
                for successor in self.solver.reachable(node, symbol):
                    if successor not in reach:
                        reach.add(successor)
                        frontier.append(successor)
        return reach

    # ------------------------------------------------------------------ edge sets
    def points_to_edges(self) -> Set[Tuple[VarNode, ObjNode]]:
        """All points-to edges ``x -> o`` in the closure."""
        return {
            (target, source)
            for source, target in self.solver.edges(FLOWS_TO)
            if isinstance(source, ObjNode) and isinstance(target, VarNode)
        }

    def is_program_variable(self, node: object) -> bool:
        return (
            isinstance(node, VarNode)
            and self.program.has_class(node.class_name)
            and not self.program.class_def(node.class_name).is_library
        )

    def is_program_object(self, node: object) -> bool:
        """Whether *node* is an abstract object allocated by client (non-library) code."""
        return (
            isinstance(node, ObjNode)
            and self.program.has_class(node.class_name)
            and not self.program.class_def(node.class_name).is_library
        )

    def program_points_to_edges(self) -> FrozenSet[Tuple[VarNode, ObjNode]]:
        """Points-to edges between client variables and client-allocated objects.

        This is the relation the paper's ``R_pt`` metric is computed over
        (Section 6, "Evaluating computed relations"): relations involving
        variables or abstract objects that live inside library code or inside
        code-fragment specifications are omitted.
        """
        return frozenset(
            (variable, obj)
            for variable, obj in self.points_to_edges()
            if self.is_program_variable(variable) and self.is_program_object(obj)
        )

    def program_variables(self) -> Set[VarNode]:
        return {node for node in self.graph.nodes if self.is_program_variable(node)}

    # ------------------------------------------------------------------ debugging
    def points_to_map(self) -> Dict[VarNode, Set[ObjNode]]:
        mapping: Dict[VarNode, Set[ObjNode]] = {}
        for variable, obj in self.points_to_edges():
            mapping.setdefault(variable, set()).add(obj)
        return mapping

    def iter_alias_pairs(self) -> Iterator[Tuple[VarNode, VarNode]]:
        """Every ordered pair of variables that may point to a common object."""
        pointed_by: Dict[object, List[VarNode]] = {}
        for obj, variable in self.solver.edges(FLOWS_TO):
            if isinstance(variable, VarNode):
                pointed_by.setdefault(obj, []).append(variable)
        seen: Set[Tuple[VarNode, VarNode]] = set()
        for variables in pointed_by.values():
            for pair in itertools.product(variables, repeat=2):
                if pair not in seen:
                    seen.add(pair)
                    yield pair
