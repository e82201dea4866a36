"""Property tests for the compiled analysis engine (repro.solve.engine).

The headline guarantee: for any program the fuzz families generate, every
pipeline reports *bit-identical* flows to its reference oracle
(:func:`repro.diff.checker.reference_flows`) -- and the engine's incremental
re-solve of an edited neighbor equals a cold solve of the edited program.
"""

import dataclasses
import random
import sys

import pytest

from repro.diff.checker import reference_flows
from repro.diff.families import FAMILIES, generate_scenario
from repro.lang.builder import ClassBuilder
from repro.lang.program import Program
from repro.lang.serialize import program_digest, program_to_dict
from repro.lang.statements import Assign
from repro.library.objects import build_object_class
from repro.pointsto.andersen import AndersenAnalysis
from repro.pointsto.graph import VarNode
from repro.pointsto.labels import FLOWS_TO, TRANSFER, mirror
from repro.solve import (
    COLD,
    INCREMENTAL,
    BitsetCFLSolver,
    CompiledAnalysisEngine,
    extension_starts,
)

ALL_FAMILIES = tuple(sorted(FAMILIES))

PIPELINES = ("ground_truth_analyzer", "handwritten_analyzer", "implementation_analyzer")


def _analyzer(request, pipeline):
    return request.getfixturevalue(pipeline)


# ----------------------------------------------------------------- bit-identity
@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_compiled_flows_bit_identical_to_reference(request, pipeline, family):
    analyzer = _analyzer(request, pipeline)
    for seed in (2018, 2019):
        scenario = generate_scenario(f"{family}-{seed}", family, seed)
        report = analyzer.analyze_program(scenario.program, scenario.name)
        assert report.flows == reference_flows(analyzer, scenario.program)
        assert report.timing.solve_outcome in (COLD, INCREMENTAL)


# ---------------------------------------------------------------- incremental
def _grow_program(program: Program, rng: random.Random) -> Program:
    """Append one well-formed ``Assign`` to a random non-empty client method."""
    grown = Program(program.classes())
    candidates = []
    for cls in grown:
        for method in cls.methods.values():
            defined = [s.defined_variable() for s in method.body if s.defined_variable()]
            if defined:
                candidates.append((cls, method, defined[-1]))
    assert candidates, "family programs always define at least one variable"
    cls, method, source = candidates[rng.randrange(len(candidates))]
    edited = dataclasses.replace(method, body=method.body + (Assign("grown_tmp", source),))
    grown.replace_class(cls.with_method(edited))
    return grown


@pytest.mark.parametrize("family", ALL_FAMILIES[:4])
def test_incremental_resolve_equals_cold_solve(fresh_ground_truth_analyzer, family):
    rng = random.Random(sum(map(ord, family)))
    scenario = generate_scenario(f"{family}-grow", family, 2018)
    grown = _grow_program(scenario.program, rng)

    warm = fresh_ground_truth_analyzer()
    first = warm.analyze_program(scenario.program, scenario.name)
    assert first.timing.solve_outcome == COLD
    incremental = warm.analyze_program(grown, scenario.name + "-grown")
    assert incremental.timing.solve_outcome == INCREMENTAL

    cold = fresh_ground_truth_analyzer().analyze_program(grown, scenario.name + "-grown")
    assert cold.timing.solve_outcome == COLD
    assert incremental.canonical()["flows"] == cold.canonical()["flows"]
    assert incremental.flows == reference_flows(warm, grown)


def test_ineligible_edit_falls_back_to_cold(fresh_ground_truth_analyzer):
    warm = fresh_ground_truth_analyzer()
    scenario = generate_scenario("edit-cold", "alias-chains", 2018)
    warm.analyze_program(scenario.program, scenario.name)

    # rewriting an *existing* statement is not a pure append: must go cold
    edited = Program(scenario.program.classes())
    for cls in edited:
        for method in cls.methods.values():
            if len(method.body) >= 2:
                body = (Assign("rewritten", method.body[0].defined_variable() or "this"),)
                body = body + method.body[1:]
                edited.replace_class(cls.with_method(dataclasses.replace(method, body=body)))
                report = warm.analyze_program(edited, "edited")
                assert report.timing.solve_outcome == COLD
                assert report.flows == reference_flows(warm, edited)
                return
    pytest.fail("no editable method found")


# ------------------------------------------------------------------- grammar
def test_engine_derives_no_transfer(fresh_ground_truth_analyzer):
    """The engine derives FlowsTo directly, never the all-pairs Transfer closure."""
    analyzer = fresh_ground_truth_analyzer()
    engine = analyzer._compiled_engine()
    assert engine._base.solver.edge_count(FLOWS_TO) > 0
    assert engine._base.solver.edge_count(TRANSFER) == 0
    scenario = generate_scenario("no-transfer", "alias-chains", 2018)
    grown = _grow_program(scenario.program, random.Random(20))
    outcomes = []
    for program in (scenario.program, grown):
        report = analyzer.analyze_program(program, scenario.name)
        outcomes.append(report.timing.solve_outcome)
        solver = engine._snapshots[program_digest(program)].solver
        assert solver.edge_count(FLOWS_TO) > engine._base.solver.edge_count(FLOWS_TO)
        assert solver.edge_count(TRANSFER) == 0
    assert outcomes == [COLD, INCREMENTAL]


def test_a_request_encodes_its_client_once(fresh_ground_truth_analyzer, monkeypatch):
    """The digest and the engine's snapshot pool share one canonical encoding."""
    analyzer = fresh_ground_truth_analyzer()
    analyzer._compiled_engine()
    analyzer._analysis_cache()
    encoded = []

    def counting_to_dict(program):
        encoded.append(program)
        return program_to_dict(program)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and vars(module).get("program_to_dict") is program_to_dict:
            monkeypatch.setattr(module, "program_to_dict", counting_to_dict)
    scenario = generate_scenario("encode-once", "field-interleavings", 2018)
    analyzer.analyze_program(scenario.program, scenario.name)
    assert encoded == [scenario.program]


# ------------------------------------------------------------------ snapshots
def _dump(solver):
    """Every stored relation of *solver*, from both indexes, with the edge counts."""
    relations = {}
    for symbol in solver._symbols:
        for side in (symbol, mirror(symbol)):
            relations[side] = (solver.edge_count(side), frozenset(solver.edges(side)))
    return solver.total_edges, relations


def test_stored_snapshots_never_change(fresh_ground_truth_analyzer):
    """Forks share the rows they never write: no later solve may change a stored one."""
    analyzer = fresh_ground_truth_analyzer()
    engine = analyzer._compiled_engine()
    dumps = {id(engine._base): (engine._base, _dump(engine._base.solver))}
    rng = random.Random(16)
    outcomes = []
    for family in ALL_FAMILIES[:3]:
        scenario = generate_scenario(f"{family}-stored", family, 2018)
        program = scenario.program
        for step in range(3):
            report = analyzer.analyze_program(program, f"{scenario.name}-{step}")
            outcomes.append(report.timing.solve_outcome)
            for snapshot in engine._snapshots.values():
                dumps.setdefault(id(snapshot), (snapshot, _dump(snapshot.solver)))
            program = _grow_program(program, rng)
    assert outcomes == [COLD, INCREMENTAL, INCREMENTAL] * 3
    assert len(dumps) == 1 + len(outcomes)
    for snapshot, dump in dumps.values():
        assert _dump(snapshot.solver) == dump


# ------------------------------------------------------------ extension_starts
def test_extension_starts_classifies_edits():
    scenario = generate_scenario("starts", "nested-containers", 2018)
    doc = program_to_dict(scenario.program)
    assert extension_starts(doc, doc) == {}

    grown = _grow_program(scenario.program, random.Random(7))
    starts = extension_starts(doc, program_to_dict(grown))
    assert starts is not None and len(starts) == 1
    ((cls_name, methods),) = starts.items()
    ((method_name, start),) = methods.items()
    assert grown.class_def(cls_name).methods[method_name].body[start].target == "grown_tmp"

    # removing a class, renaming a method, or truncating a body all disqualify
    other = generate_scenario("starts-other", "alias-chains", 2018)
    assert extension_starts(doc, program_to_dict(other.program)) is None


# ------------------------------------------------------------------- fallback
def test_dangling_base_reference_defined_by_client_goes_full(
    library_program, ground_truth_analyzer
):
    engine = CompiledAnalysisEngine(ground_truth_analyzer.base_program)
    # a client class whose name the base program references but never
    # defines would change the base pre-solve: the engine must re-solve the
    # merged program from scratch rather than extend the cached base fixpoint
    dangling = engine._dangling_names
    client = generate_scenario("full", "alias-chains", 2018).program
    merged = client.merged_with(ground_truth_analyzer.base_program)
    result, outcome = engine.analyze(
        client, merged, program_to_dict(client), program_digest(client)
    )
    assert outcome == COLD
    assert result.graph.program is merged
    # the guard itself: client names never intersect the dangling set here
    assert not ({cls.name for cls in client} & dangling)


def _ghost_programs():
    """A base whose factory allocates a class only a client defines.

    The static ``Factory.make`` does ``g = new Ghost(); return g``; the base
    has no ``Ghost``, so extracting it alone links no constructor.  The
    client's ``Ghost`` constructor stores a fresh ``Object`` in ``f``, and
    ``Main.main`` loads it back through the factory's object: ``x = g.f``.
    """
    factory = ClassBuilder("Factory")
    factory.add_method(
        factory.method("make", return_type="Ghost", is_static=True)
        .new("g", "Ghost")
        .ret("g")
    )
    base = Program([build_object_class(), factory.build()])

    ghost = ClassBuilder("Ghost")
    ghost.field("f")
    ghost.add_method(ghost.constructor().new("o", "Object").store("this", "f", "o"))
    main = ClassBuilder("Main")
    main.add_method(
        main.method("main", is_static=True)
        .call("g", None, "Factory.make")
        .load("x", "g", "f")
    )
    client = Program([ghost.build(), main.build()])
    return base, client


def test_client_defining_a_dangling_base_name_solves_from_scratch(monkeypatch):
    base, client = _ghost_programs()
    engine = CompiledAnalysisEngine(base)
    assert "Ghost" in engine._dangling_names

    forks = []
    fork = BitsetCFLSolver.fork

    def counting_fork(solver):
        forks.append(solver)
        return fork(solver)

    monkeypatch.setattr(BitsetCFLSolver, "fork", counting_fork)
    merged = client.merged_with(base)
    result, outcome = engine.analyze(
        client, merged, program_to_dict(client), program_digest(client)
    )
    assert outcome == COLD
    assert forks == []  # an empty solver, not the forked base

    x = VarNode("Main", "main", "x")
    expected = AndersenAnalysis(merged).run().points_to(x)
    assert expected  # the flow a forked base would miss
    assert result.points_to(x) == expected
