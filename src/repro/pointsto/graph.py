"""Graph extraction: from IR programs to the labeled graph ``G`` of Figure 2.

Nodes are either program variables (:class:`VarNode`, scoped to their defining
method) or abstract objects (:class:`ObjNode`, one per allocation site).
Edges are labeled with the terminals of the points-to grammar.  Their
reversed, "barred" counterparts (the *backwards* rule of Figure 2) are not
listed: the solvers' ``add_edge`` records every edge's mirrored twin.

Call statements are not translated to edges here; they are recorded as
:class:`CallSite` entries so that :mod:`repro.pointsto.andersen` can resolve
them on the fly from receiver points-to sets.  Constructor invocations and
static calls, whose targets are known syntactically, are resolved eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, NamedTuple, Optional, Set, Tuple

from repro.lang.program import CONSTRUCTOR, MethodDef, MethodRef, Program, RECEIVER
from repro.lang.statements import Assign, Call, Const, Load, New, Return, Store
from repro.pointsto.labels import (
    ASSIGN,
    NEW,
    Symbol,
    load as load_label,
    store as store_label,
)

#: Name of the pseudo-variable holding a method's return value.
RETURN_VARIABLE = "@return"


class VarNode(NamedTuple):
    """A local variable (or parameter, receiver, return pseudo-variable) of a method.

    Graph nodes are tuples, so that building, hashing and comparing one runs
    in C; each hashes and compares like its field tuple.  A ``VarNode`` (three
    fields) never equals an :class:`ObjNode` (four).
    """

    class_name: str
    method_name: str
    name: str

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.class_name}.{self.method_name}:{self.name}"


class ObjNode(NamedTuple):
    """An abstract object: the allocation site at statement *index* of a method."""

    class_name: str
    method_name: str
    index: int
    allocated_class: str

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return f"o<{self.allocated_class}@{self.class_name}.{self.method_name}#{self.index}>"


@dataclass(frozen=True)
class CallSite:
    """An instance call whose callee depends on the receiver's points-to set."""

    caller: MethodRef
    index: int
    receiver: VarNode
    method_name: str
    argument_nodes: Tuple[VarNode, ...]
    target: Optional[VarNode]


def var_node(ref: MethodRef, name: str) -> VarNode:
    return VarNode(ref.class_name, ref.method_name, name)


def receiver_node(ref: MethodRef) -> VarNode:
    return var_node(ref, RECEIVER)


def return_node(ref: MethodRef) -> VarNode:
    return var_node(ref, RETURN_VARIABLE)


def parameter_nodes(method: MethodDef, ref: MethodRef) -> Tuple[VarNode, ...]:
    return tuple(var_node(ref, p.name) for p in method.params)


class PointsToGraph:
    """The labeled graph ``G`` extracted from a program, plus call sites.

    *only* restricts extraction to a slice of the program: a mapping
    ``class name -> {method name: first statement index to extract}``.
    Statement indices stay absolute (skipped prefixes still count), so the
    extracted edges, abstract objects and call sites are exactly the subset
    the full extraction would produce for those statements -- the property
    :mod:`repro.solve` relies on to extract only a client (or only the
    appended tail of an edited method) on top of an already-solved base.
    Constructor and static-call resolution still consult the *whole*
    program.  The walk visits only the classes *only* names, so a slice costs
    what it extracts, not the size of the program around it.

    ``objects`` lists the abstract objects extracted, in extraction order:
    the taint client reads its secret objects from it instead of scanning
    every node.
    """

    def __init__(
        self,
        program: Program,
        only: Optional[Mapping[str, Mapping[str, int]]] = None,
    ):
        self.program = program
        self._only = only
        self.edges: List[Tuple[object, Symbol, object]] = []
        self.call_sites: List[CallSite] = []
        self.fields: Set[str] = set()
        self.nodes: Set[object] = set()
        self.objects: List[ObjNode] = []
        self._extract()

    # ------------------------------------------------------------------ extraction
    def _add_edge(self, source, symbol: Symbol, target) -> None:
        self.edges.append((source, symbol, target))
        self.nodes.add(source)
        self.nodes.add(target)

    def _extract(self) -> None:
        only = self._only
        for cls in self.program:
            if only is None:
                starts = None
            elif cls.name in only:
                starts = only[cls.name]
            else:
                continue  # outside the slice: none of its methods is visited
            for method in cls.methods.values():
                if starts is None:
                    start = 0
                elif method.name in starts:
                    start = starts[method.name]
                else:
                    continue
                self._extract_method(MethodRef(cls.name, method.name), method, start)

    def _bind_call_arguments(
        self,
        callee_ref: MethodRef,
        callee: MethodDef,
        receiver: Optional[VarNode],
        arguments: Tuple[VarNode, ...],
        target: Optional[VarNode],
    ) -> None:
        """Add the parameter/return ``Assign`` edges of Figure 2 for a resolved call."""
        if receiver is not None and not callee.is_static:
            self._add_edge(receiver, ASSIGN, receiver_node(callee_ref))
        formals = parameter_nodes(callee, callee_ref)
        for formal, actual in zip(formals, arguments):
            if actual is not None:
                self._add_edge(actual, ASSIGN, formal)
        if target is not None and callee.returns_reference():
            self._add_edge(return_node(callee_ref), ASSIGN, target)

    def _extract_method(self, ref: MethodRef, method: MethodDef, start: int = 0) -> None:
        class_name, method_name = ref
        local = lambda name: VarNode(class_name, method_name, name)
        # Ensure interface variables exist as nodes even for empty/native bodies.
        if not method.is_static:
            self.nodes.add(receiver_node(ref))
        for param in method.params:
            self.nodes.add(local(param.name))
        if method.returns_reference():
            self.nodes.add(return_node(ref))

        for index, statement in enumerate(method.body[start:], start):
            if isinstance(statement, Assign):
                self._add_edge(local(statement.source), ASSIGN, local(statement.target))
            elif isinstance(statement, Const):
                continue  # literals carry no points-to information
            elif isinstance(statement, New):
                obj = ObjNode(class_name, method_name, index, statement.class_name)
                self.objects.append(obj)
                self._add_edge(obj, NEW, local(statement.target))
                self._resolve_constructor(ref, statement, local, index)
            elif isinstance(statement, Store):
                self.fields.add(statement.field_name)
                self._add_edge(
                    local(statement.source), store_label(statement.field_name), local(statement.base)
                )
            elif isinstance(statement, Load):
                self.fields.add(statement.field_name)
                self._add_edge(
                    local(statement.base), load_label(statement.field_name), local(statement.target)
                )
            elif isinstance(statement, Return):
                if statement.value is not None and method.returns_reference():
                    self._add_edge(local(statement.value), ASSIGN, return_node(ref))
            elif isinstance(statement, Call):
                self._extract_call(ref, statement, local, index)

    def _resolve_constructor(self, ref: MethodRef, statement: New, local, index: int) -> None:
        if not self.program.has_class(statement.class_name):
            return
        ctor_ref = self.program.resolve_method(statement.class_name, CONSTRUCTOR)
        if ctor_ref is None:
            return
        ctor = self.program.method_def(ctor_ref)
        arguments = tuple(local(a) for a in statement.args)
        self._bind_call_arguments(ctor_ref, ctor, local(statement.target), arguments, None)

    def _extract_call(self, ref: MethodRef, statement: Call, local, index: int) -> None:
        arguments = tuple(local(a) for a in statement.args)
        target = local(statement.target) if statement.target is not None else None

        if statement.base is None:
            # Static call, qualified as "Class.method"; resolved syntactically.
            class_name, _, method_name = statement.method_name.rpartition(".")
            if not class_name or not self.program.has_class(class_name):
                return
            callee_ref = self.program.resolve_method(class_name, method_name)
            if callee_ref is None:
                return
            callee = self.program.method_def(callee_ref)
            self._bind_call_arguments(callee_ref, callee, None, arguments, target)
            return

        self.call_sites.append(
            CallSite(
                caller=ref,
                index=index,
                receiver=local(statement.base),
                method_name=statement.method_name,
                argument_nodes=arguments,
                target=target,
            )
        )

    # ------------------------------------------------------------------ helpers
    def library_variable(self, node: object) -> bool:
        """Whether *node* belongs to a library (or specification) class."""
        if isinstance(node, VarNode) and self.program.has_class(node.class_name):
            return self.program.class_def(node.class_name).is_library
        return False
