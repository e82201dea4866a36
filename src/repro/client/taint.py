"""Explicit information-flow analysis on top of the points-to closure.

A *flow* is a pair (source method, sink call site): the analysis reports it
when some abstract object allocated inside the source method may be pointed
to by the reference argument of the sink call.  Heap flows (e.g. a secret
stored in a collection and later retrieved) are resolved by the points-to
analysis, so the client's recall depends directly on the library
specifications in use -- exactly the dependency the paper measures in
Figure 9(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.client.sources_sinks import SINK_METHODS, SOURCE_METHODS
from repro.lang.program import Program
from repro.lang.statements import Call
from repro.pointsto.andersen import AndersenAnalysis
from repro.pointsto.graph import ObjNode, VarNode
from repro.pointsto.relations import PointsToResult


@dataclass(frozen=True)
class Flow:
    """One reported information flow."""

    source_class: str
    source_method: str
    sink_class: str
    sink_method: str
    sink_caller_class: str
    sink_caller_method: str
    sink_statement_index: int

    def describe(self) -> str:  # pragma: no cover - presentation helper
        return (
            f"{self.source_class}.{self.source_method} -> "
            f"{self.sink_class}.{self.sink_method} "
            f"(at {self.sink_caller_class}.{self.sink_caller_method}:{self.sink_statement_index})"
        )


@dataclass
class InformationFlowReport:
    """The result of running the client on one program."""

    flows: FrozenSet[Flow]
    points_to: PointsToResult

    def flow_count(self) -> int:
        return len(self.flows)


class InformationFlowAnalysis:
    """Runs the points-to analysis and extracts source-to-sink flows."""

    def __init__(self, program: Program):
        self.program = program

    # ------------------------------------------------------------------ helpers
    def _secret_objects(self, result: PointsToResult) -> Dict[ObjNode, Tuple[str, str]]:
        """The graph's abstract objects allocated inside source methods, keyed to their source."""
        secrets: Dict[ObjNode, Tuple[str, str]] = {}
        for obj in result.graph.objects:
            source = (obj.class_name, obj.method_name)
            if source in SOURCE_METHODS:
                secrets[obj] = source
        return secrets

    def _sink_call_sites(self):
        """All client call sites that invoke a sink method, with the argument variable."""
        for cls in self.program:
            if cls.is_library:
                continue
            for method in cls.methods.values():
                for index, statement in enumerate(method.body):
                    if not isinstance(statement, Call) or statement.base is None:
                        continue
                    for (sink_class, sink_method), parameter in SINK_METHODS.items():
                        if statement.method_name != sink_method or not statement.args:
                            continue
                        signature_params = self._sink_signature_params(sink_class, sink_method)
                        position = signature_params.index(parameter) if parameter in signature_params else 0
                        if position >= len(statement.args):
                            continue
                        argument = VarNode(cls.name, method.name, statement.args[position])
                        yield sink_class, sink_method, cls.name, method.name, index, argument

    def _sink_signature_params(self, sink_class: str, sink_method: str) -> Tuple[str, ...]:
        if not self.program.has_class(sink_class):
            return ()
        ref = self.program.resolve_method(sink_class, sink_method)
        if ref is None:
            return ()
        return self.program.method_def(ref).parameter_names()

    # ------------------------------------------------------------------ main entry
    def run(self, points_to: Optional[PointsToResult] = None) -> InformationFlowReport:
        """Run the client; *points_to* may be supplied to reuse an existing closure."""
        result = points_to if points_to is not None else AndersenAnalysis(self.program).run()
        secrets = self._secret_objects(result)

        flows: Set[Flow] = set()
        for sink_class, sink_method, caller_class, caller_method, index, argument in self._sink_call_sites():
            # bulk query: filter the known secret objects against the sink
            # argument instead of materializing its full points-to set
            for obj in result.points_to_among(argument, secrets):
                source = secrets[obj]
                flows.add(
                    Flow(
                        source_class=source[0],
                        source_method=source[1],
                        sink_class=sink_class,
                        sink_method=sink_method,
                        sink_caller_class=caller_class,
                        sink_caller_method=caller_method,
                        sink_statement_index=index,
                    )
                )
        return InformationFlowReport(flows=frozenset(flows), points_to=result)
