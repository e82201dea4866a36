"""Tests for the Andersen points-to analysis (graph extraction + closure + dispatch)."""

import pytest

from repro.diff.families import generate_scenario
from repro.lang import ClassBuilder, Program
from repro.pointsto import analyze
from repro.pointsto.andersen import AndersenAnalysis, _link_call, dispatch_to_fixpoint
from repro.pointsto.cfl import CFLSolver
from repro.pointsto.grammar import build_cpt_grammar
from repro.pointsto.graph import ObjNode, PointsToGraph, VarNode
from repro.pointsto.labels import FLOWS_TO


def _client(body_builder, name="Main"):
    cls = ClassBuilder(name)
    method = cls.method("main", is_static=True)
    body_builder(method)
    cls.add_method(method)
    return cls.build()


def _box_program(extra_client=None):
    from repro.library.box import build_box_class
    from repro.library.objects import build_object_class

    classes = [build_object_class(), build_box_class()]
    if extra_client is not None:
        classes.append(extra_client)
    return Program(classes)


def var(name, cls="Main", method="main"):
    return VarNode(cls, method, name)


def test_assignment_chain_points_to():
    def body(m):
        m.new("a", "Object").assign("b", "a").assign("c", "b")

    program = _box_program(_client(body))
    result = analyze(program)
    objects = result.points_to(var("c"))
    assert len(objects) == 1
    assert next(iter(objects)).allocated_class == "Object"
    assert result.aliased(var("a"), var("c"))


def test_field_sensitivity_distinguishes_fields():
    holder = ClassBuilder("Holder")
    holder.field("f").field("g")
    holder.add_method(holder.constructor())

    def body(m):
        m.new("h", "Holder").new("x", "Object").new("y", "Object")
        m.store("h", "f", "x").store("h", "g", "y")
        m.load("fromF", "h", "f").load("fromG", "h", "g")

    program = Program([holder.build(), _client(body)])
    from repro.library.objects import build_object_class

    program.add_class(build_object_class())
    result = analyze(program)
    assert result.points_to(var("fromF")) == result.points_to(var("x"))
    assert result.points_to(var("fromG")) == result.points_to(var("y"))
    assert not result.aliased(var("fromF"), var("fromG"))


def test_box_set_get_flow_through_library():
    def body(m):
        m.new("value", "Object").new("box", "Box")
        m.call(None, "box", "set", "value")
        m.call("out", "box", "get")

    result = analyze(_box_program(_client(body)))
    assert result.aliased(var("value"), var("out"))
    assert result.transfer(var("value"), var("out"))


def test_separate_boxes_not_conflated_by_fields_alone():
    def body(m):
        m.new("v1", "Object").new("v2", "Object")
        m.new("b1", "Box").new("b2", "Box")
        m.store("b1", "f", "v1").store("b2", "f", "v2")
        m.load("o1", "b1", "f").load("o2", "b2", "f")

    result = analyze(_box_program(_client(body)))
    assert result.aliased(var("o1"), var("v1"))
    assert not result.aliased(var("o1"), var("v2"))


def test_dispatch_uses_receiver_points_to(library_program):
    # A call to get() on an ArrayList must not flow through LinkedList.get.
    def body(m):
        m.new("value", "Object").new("list", "ArrayList")
        m.call(None, "list", "add", "value")
        m.const("zero", 0)
        m.call("out", "list", "get", "zero")

    program = library_program.merged_with(Program([_client(body)]))
    result = analyze(program)
    assert result.aliased(var("value"), var("out"))
    # The LinkedList.get return node must not see the value.
    linked_get_return = VarNode("LinkedList", "get", "@return")
    assert not result.transfer(var("value"), linked_get_return)


def test_unresolvable_calls_are_treated_as_no_ops():
    def body(m):
        m.new("value", "Object").new("box", "Box")
        m.call(None, "box", "set", "value")
        m.call("out", "box", "get")

    # Remove the Box class: calls cannot resolve, so no flow is computed.
    from repro.library.objects import build_object_class

    program = Program([build_object_class(), _client(body)])
    result = analyze(program)
    assert not result.aliased(var("value"), var("out"))


def test_native_methods_lose_flows(library_program):
    # toArray goes through System.arraycopy (native): flow is lost statically.
    def body(m):
        m.new("value", "Object").new("vector", "Vector")
        m.call(None, "vector", "add", "value")
        m.call("array", "vector", "toArray")
        m.const("zero", 0)
        m.call("out", "array", "aget", "zero")

    program = library_program.merged_with(Program([_client(body)]))
    result = analyze(program)
    assert not result.aliased(var("value"), var("out"))


def test_constructor_arguments_flow_into_fields():
    holder = ClassBuilder("Holder")
    holder.field("f")
    holder.add_method(holder.constructor([("value", "Object")]).store("this", "f", "value"))

    def body(m):
        m.new("x", "Object")
        m.new("h", "Holder", "x")
        m.load("out", "h", "f")

    from repro.library.objects import build_object_class

    program = Program([build_object_class(), holder.build(), _client(body)])
    result = analyze(program)
    assert result.aliased(var("x"), var("out"))


def test_program_points_to_edges_exclude_library(library_program):
    def body(m):
        m.new("value", "Object").new("list", "ArrayList")
        m.call(None, "list", "add", "value")

    program = library_program.merged_with(Program([_client(body)]))
    result = analyze(program)
    edges = result.program_points_to_edges()
    assert edges, "client variables should have points-to edges"
    for variable, obj in edges:
        assert variable.class_name == "Main"
        assert obj.class_name == "Main"


def test_stats_are_populated(library_program):
    def body(m):
        m.new("list", "ArrayList").new("x", "Object")
        m.call(None, "list", "add", "x")

    program = library_program.merged_with(Program([_client(body)]))
    analysis = AndersenAnalysis(program)
    analysis.run()
    assert analysis.stats.nodes > 0
    assert analysis.stats.base_edges > 0
    assert analysis.stats.dispatch_rounds >= 1
    assert analysis.stats.resolved_call_targets >= 2


def test_dispatch_cap_is_reported_not_silent():
    # the Box calls resolve in the first dispatch round, so their link-up
    # needs a second solve round
    def body(m):
        m.new("box", "Box").new("x", "Object")
        m.call(None, "box", "set", "x")
        m.call("y", "box", "get")

    program = _box_program(_client(body))
    capped = AndersenAnalysis(program, max_dispatch_rounds=1)
    capped_result = capped.run()
    assert capped.stats.dispatch_rounds == 1
    assert capped.stats.dispatch_capped is True
    assert not capped_result.aliased(var("x"), var("y"))

    full = AndersenAnalysis(program)
    assert full.run().aliased(var("x"), var("y"))
    assert full.stats.dispatch_rounds >= 2
    assert full.stats.dispatch_capped is False


def _rescanning_dispatch(solver, program, call_sites, resolved, max_rounds):
    """The dispatch loop that resolves every receiver object of every site each round."""
    rounds = 0
    while True:
        solver.solve()
        rounds += 1
        added = False
        for site_index, site in enumerate(call_sites):
            for obj in solver.predecessors(site.receiver, FLOWS_TO):
                if not isinstance(obj, ObjNode) or not program.has_class(obj.allocated_class):
                    continue
                callee_ref = program.resolve_method(obj.allocated_class, site.method_name)
                if callee_ref is None or (site_index, callee_ref) in resolved:
                    continue
                resolved.add((site_index, callee_ref))
                if _link_call(site, callee_ref, program, solver):
                    added = True
        if not added or rounds >= max_rounds:
            return rounds, added


def _dispatch_with(loop, program, monkeypatch):
    """Run *loop* over *program*; its outcome, closure and ``resolve_method`` calls."""
    graph = PointsToGraph(program)
    solver = CFLSolver(build_cpt_grammar(graph.fields))
    for source, symbol, target in graph.edges:
        solver.add_edge(source, symbol, target)
    lookups = []
    resolve = Program.resolve_method

    def counting_resolve(self, class_name, method_name):
        lookups.append((class_name, method_name))
        return resolve(self, class_name, method_name)

    resolved = set()
    with monkeypatch.context() as patch:
        patch.setattr(Program, "resolve_method", counting_resolve)
        outcome = loop(solver, program, graph.call_sites, resolved, 50)
    return (outcome, resolved, set(solver.edges(FLOWS_TO))), lookups


def _late_receiver_program():
    """``c`` points to a ``B`` in the first round and, through a ``Box``, to an ``A`` later."""
    classes = []
    for name in ("A", "B"):
        cls = ClassBuilder(name)
        cls.add_method(cls.method("run", return_type="Object").new("o", "Object").ret("o"))
        classes.append(cls.build())

    def body(m):
        m.new("a", "A").new("box", "Box").call(None, "box", "set", "a")
        m.new("c", "B").call("d", "box", "get").assign("c", "d").call("r", "c", "run")

    return Program(_box_program(_client(body)).classes() + tuple(classes))


@pytest.mark.parametrize(
    "family", ["late-receiver", "callback-flows", "fluent-pipelines", "taint-app"]
)
def test_dispatch_resolves_each_receiver_class_once(library_program, family, monkeypatch):
    """Same rounds, links and closure as rescanning every object every round."""
    if family == "late-receiver":
        program = _late_receiver_program()
    else:
        scenario = generate_scenario(f"{family}-dispatch", family, 2018)
        program = scenario.program.merged_with(library_program)
    expected, rescans = _dispatch_with(_rescanning_dispatch, program, monkeypatch)
    observed, lookups = _dispatch_with(dispatch_to_fixpoint, program, monkeypatch)
    assert observed == expected
    assert expected[0][0] >= 2 and expected[1]
    assert len(lookups) == len(set(lookups)) < len(rescans)


def test_points_to_map_and_alias_pairs():
    def body(m):
        m.new("a", "Object").assign("b", "a")

    result = analyze(_box_program(_client(body)))
    mapping = result.points_to_map()
    assert var("b") in mapping
    assert any(x == var("a") and y == var("b") for x, y in result.iter_alias_pairs())
