"""Tests for the canonical JSON program encoding."""

import pytest

from repro.lang.builder import ClassBuilder, MethodBuilder
from repro.lang.program import Program
from repro.lang.serialize import (
    program_digest,
    program_from_dict,
    program_to_dict,
    statement_from_list,
    statement_to_list,
)
from repro.lang.statements import Assign, Call, Const, Load, New, Return, Store


def _sample_program() -> Program:
    cls = ClassBuilder("Sample")
    cls.field("f")
    method = MethodBuilder("run", is_static=True)
    method.new("box", "Box")
    method.const("i", 0)
    method.const("n", None)
    method.call("value", "box", "get")
    method.call(None, None, "System.arraycopy", "value", "value")
    method.assign("alias", "value")
    method.store("box", "f", "alias")
    method.load("back", "box", "f")
    method.ret("back")
    cls.add_method(method)
    return Program([cls.build()])


@pytest.mark.parametrize(
    "statement",
    [
        Assign("a", "b"),
        Const("c", 7),
        Const("c", None),
        Const("c", True),
        New("x", "Box", ("a", "b")),
        Store("x", "f", "a"),
        Load("y", "x", "f"),
        Call("y", "x", "get", ("i",)),
        Call(None, None, "System.arraycopy", ("a", "b")),
        Return("x"),
        Return(None),
    ],
)
def test_statement_round_trip(statement):
    assert statement_from_list(statement_to_list(statement)) == statement


def test_program_round_trip_is_identity():
    program = _sample_program()
    encoded = program_to_dict(program)
    decoded = program_from_dict(encoded)
    assert program_to_dict(decoded) == encoded
    assert program_digest(decoded) == program_digest(program)


def test_library_program_round_trips(library_program):
    """The full hand-written library survives the encoding unchanged."""
    encoded = program_to_dict(library_program)
    decoded = program_from_dict(encoded)
    assert program_to_dict(decoded) == encoded
    # structure survives, not just the encoding: every method body matches
    for cls in library_program:
        restored = decoded.class_def(cls.name)
        assert restored.superclass == cls.superclass
        for name, method in cls.methods.items():
            assert restored.methods[name].body == method.body


def test_digest_tracks_structure():
    program = _sample_program()
    modified = Program(
        [cls.with_method(cls.methods["run"]) for cls in program]
    )
    assert program_digest(modified) == program_digest(program)

    changed = ClassBuilder("Sample")
    changed.field("f")
    method = MethodBuilder("run", is_static=True)
    method.new("box", "StrangeBox")  # one allocation class differs
    changed.add_method(method)
    assert program_digest(Program([changed.build()])) != program_digest(program)


def test_digest_of_a_built_document_is_the_programs():
    program = _sample_program()
    assert program_digest(program, program_to_dict(program)) == program_digest(program)


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unsupported program format"):
        program_from_dict({"format": "repro.lang.program/999", "classes": []})
