"""JSON serialization of IR programs.

The golden fuzz corpus (:mod:`repro.diff.corpus`) persists whole generated
programs so that counterexamples survive the process that found them; this
module provides the canonical dictionary encoding it uses.  The encoding is
*canonical* -- classes are sorted by name, methods by name, and every
statement is a small tagged list -- so structurally identical programs
serialize to identical dictionaries and :func:`program_digest` is a stable
fingerprint of a program's structure (the reproducibility guard for seeded
generation).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

from repro.lang.program import ClassDef, Field, MethodDef, Parameter, Program
from repro.lang.statements import Assign, Call, Const, Load, New, Return, Statement, Store

FORMAT = "repro.lang.program/1"


# ------------------------------------------------------------------ statements
def statement_to_list(statement: Statement) -> List:
    """Encode one statement as a compact tagged list."""
    if isinstance(statement, Assign):
        return ["assign", statement.target, statement.source]
    if isinstance(statement, Const):
        return ["const", statement.target, statement.value]
    if isinstance(statement, New):
        return ["new", statement.target, statement.class_name, list(statement.args)]
    if isinstance(statement, Store):
        return ["store", statement.base, statement.field_name, statement.source]
    if isinstance(statement, Load):
        return ["load", statement.target, statement.base, statement.field_name]
    if isinstance(statement, Call):
        return ["call", statement.target, statement.base, statement.method_name, list(statement.args)]
    if isinstance(statement, Return):
        return ["return", statement.value]
    raise TypeError(f"cannot serialize statement of type {type(statement).__name__}")


def statement_from_list(data: List) -> Statement:
    tag = data[0]
    if tag == "assign":
        return Assign(data[1], data[2])
    if tag == "const":
        return Const(data[1], data[2])
    if tag == "new":
        return New(data[1], data[2], tuple(data[3]))
    if tag == "store":
        return Store(data[1], data[2], data[3])
    if tag == "load":
        return Load(data[1], data[2], data[3])
    if tag == "call":
        return Call(data[1], data[2], data[3], tuple(data[4]))
    if tag == "return":
        return Return(data[1])
    raise ValueError(f"unknown statement tag {tag!r}")


# --------------------------------------------------------------------- methods
def method_to_dict(method: MethodDef) -> Dict:
    return {
        "name": method.name,
        "params": [[p.name, p.type] for p in method.params],
        "return_type": method.return_type,
        "body": [statement_to_list(s) for s in method.body],
        "is_static": method.is_static,
        "is_native": method.is_native,
    }


def method_from_dict(data: Dict) -> MethodDef:
    return MethodDef(
        name=data["name"],
        params=tuple(Parameter(name, type_name) for name, type_name in data["params"]),
        return_type=data["return_type"],
        body=tuple(statement_from_list(s) for s in data["body"]),
        is_static=bool(data["is_static"]),
        is_native=bool(data["is_native"]),
    )


# --------------------------------------------------------------------- classes
def class_to_dict(cls: ClassDef) -> Dict:
    return {
        "name": cls.name,
        "superclass": cls.superclass,
        "fields": [[f.name, f.type] for f in cls.fields],
        "methods": [method_to_dict(m) for m in sorted(cls.methods.values(), key=lambda m: m.name)],
        "is_library": cls.is_library,
    }


def class_from_dict(data: Dict) -> ClassDef:
    methods = [method_from_dict(entry) for entry in data["methods"]]
    return ClassDef(
        name=data["name"],
        superclass=data["superclass"],
        fields=tuple(Field(name, type_name) for name, type_name in data["fields"]),
        methods={method.name: method for method in methods},
        is_library=bool(data["is_library"]),
    )


# -------------------------------------------------------------------- programs
def program_to_dict(program: Program) -> Dict:
    """The canonical (sorted) dictionary encoding of a program."""
    return {
        "format": FORMAT,
        "classes": [class_to_dict(cls) for cls in sorted(program, key=lambda c: c.name)],
    }


def program_from_dict(data: Dict) -> Program:
    declared = data.get("format", FORMAT)
    if declared != FORMAT:
        raise ValueError(f"unsupported program format {declared!r}")
    return Program(class_from_dict(entry) for entry in data["classes"])


def program_digest(program: Program, document: Optional[Dict] = None) -> str:
    """A stable SHA-256 fingerprint of the program's canonical encoding.

    *document* is that encoding, :func:`program_to_dict` of *program*, when
    the caller has built it already.
    """
    if document is None:
        document = program_to_dict(program)
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


__all__ = [
    "class_from_dict",
    "class_to_dict",
    "method_from_dict",
    "method_to_dict",
    "program_digest",
    "program_from_dict",
    "program_to_dict",
    "statement_from_list",
    "statement_to_list",
]
