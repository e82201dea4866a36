"""Sliced extraction and the abstract objects it records.

``PointsToGraph(program, only=slice)`` walks only the classes the slice
names; it must still extract exactly what the whole-program extraction
extracts for the sliced statements, in the same order.  The engine's
results carry the extracted abstract objects (``graph.objects``), which the
taint client reads its secret objects from: they must be the oracle's, on
every solve path.
"""

import dataclasses
import random

import pytest

from repro.diff.corpus import corpus_files, load_corpus
from repro.lang.builder import ClassBuilder
from repro.lang.program import MethodRef, Program
from repro.lang.serialize import program_digest, program_to_dict
from repro.lang.statements import New
from repro.library.objects import build_object_class
from repro.pointsto.andersen import AndersenAnalysis
from repro.pointsto.graph import ObjNode, PointsToGraph
from repro.solve import COLD, INCREMENTAL, CompiledAnalysisEngine
from repro.testing import GOLDEN_DIR

GOLDEN = [entry for path in corpus_files(GOLDEN_DIR) for entry in load_corpus(path)]


@pytest.fixture(scope="module")
def base(ground_truth_analyzer):
    return ground_truth_analyzer.base_program


@pytest.fixture(scope="module")
def engine(base):
    return CompiledAnalysisEngine(base)


def _random_slice(program: Program, rng: random.Random):
    """Some classes, some of their methods, each from a random statement on."""
    only = {}
    for cls in program:
        if rng.random() < 0.4:
            only[cls.name] = {
                method.name: rng.randint(0, len(method.body))
                for method in cls.methods.values()
                if rng.random() < 0.7
            }
    return only


class _EveryMethod(PointsToGraph):
    """The walk that visits every method of the program and skips the unsliced."""

    def _extract(self):
        for cls, method in self.program.iter_methods():
            starts = self._only.get(cls.name, {})
            if method.name in starts:
                ref = MethodRef(cls.name, method.name)
                self._extract_method(ref, method, starts[method.name])


def _in_slice(only, class_name, method_name, index):
    start = only.get(class_name, {}).get(method_name)
    return start is not None and index >= start


def _subsequence(part, whole):
    remaining = iter(whole)
    return all(any(item == other for other in remaining) for item in part)


@pytest.mark.parametrize("entry", GOLDEN, ids=[entry.name for entry in GOLDEN])
def test_a_slice_extracts_what_the_whole_program_does_for_it(entry, base):
    merged = entry.program.merged_with(base)
    full = PointsToGraph(merged)
    only = _random_slice(merged, random.Random(entry.name))
    sliced = PointsToGraph(merged, only=only)

    assert sliced.objects == [
        obj for obj in full.objects
        if _in_slice(only, obj.class_name, obj.method_name, obj.index)
    ]
    assert sliced.call_sites == [
        site for site in full.call_sites
        if _in_slice(only, site.caller.class_name, site.caller.method_name, site.index)
    ]
    assert sliced.edges == _EveryMethod(merged, only=only).edges
    assert _subsequence(sliced.edges, full.edges)
    assert full.objects == [node for node in _node_order(full.edges) if isinstance(node, ObjNode)]
    assert set(full.objects) == {node for node in full.nodes if isinstance(node, ObjNode)}


def _node_order(edges):
    return list(dict.fromkeys(node for source, _, target in edges for node in (source, target)))


# ------------------------------------------------------------------ objects
def _oracle_objects(merged):
    return {node for node in AndersenAnalysis(merged).run().graph.nodes if isinstance(node, ObjNode)}


def _assert_objects_are_the_oracles(result, merged):
    objects = result.graph.objects
    assert len(objects) == len(set(objects))
    assert set(objects) == _oracle_objects(merged)


def test_cold_results_carry_the_oracles_objects(engine, base):
    for entry in GOLDEN:
        merged = entry.program.merged_with(base)
        document = program_to_dict(entry.program)
        result, outcome = engine.analyze(
            entry.program, merged, document, program_digest(entry.program, document)
        )
        assert outcome == COLD
        _assert_objects_are_the_oracles(result, merged)


def _append_allocation(program: Program) -> Program:
    """The first client method that defines a variable gains ``fresh = new Object``."""
    grown = Program(program.classes())
    for cls in grown:
        for method in cls.methods.values():
            if any(statement.defined_variable() for statement in method.body):
                body = method.body + (New("fresh_object", "Object"),)
                grown.replace_class(cls.with_method(dataclasses.replace(method, body=body)))
                return grown
    raise AssertionError("no client method defines a variable")


def test_incremental_results_carry_the_oracles_objects(base):
    engine = CompiledAnalysisEngine(base)
    for entry in GOLDEN[::4]:
        program = entry.program
        for step in range(2):
            merged = program.merged_with(base)
            document = program_to_dict(program)
            result, outcome = engine.analyze(
                program, merged, document, program_digest(program, document)
            )
            assert outcome == (COLD if step == 0 else INCREMENTAL)
            _assert_objects_are_the_oracles(result, merged)
            program = _append_allocation(program)


def test_dangling_name_fallback_carries_the_oracles_objects():
    """A base allocating a class only the client defines solves from scratch."""
    factory = ClassBuilder("Factory")
    factory.add_method(
        factory.method("make", return_type="Ghost", is_static=True).new("g", "Ghost").ret("g")
    )
    base = Program([build_object_class(), factory.build()])
    ghost = ClassBuilder("Ghost")
    ghost.field("f")
    ghost.add_method(ghost.constructor().new("o", "Object").store("this", "f", "o"))
    main = ClassBuilder("Main")
    main.add_method(main.method("main", is_static=True).call("g", None, "Factory.make"))
    client = Program([ghost.build(), main.build()])

    engine = CompiledAnalysisEngine(base)
    assert "Ghost" in engine._dangling_names
    merged = client.merged_with(base)
    result, outcome = engine.analyze(
        client, merged, program_to_dict(client), program_digest(client)
    )
    assert outcome == COLD
    assert len(result.graph.objects) == 2
    _assert_objects_are_the_oracles(result, merged)
