"""Program structure of the IR: fields, methods, classes and whole programs."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Tuple

from repro.lang.statements import Statement
from repro.lang.types import OBJECT, VOID, is_reference

#: Conventional name of the receiver variable inside instance methods.
RECEIVER = "this"

CONSTRUCTOR = "<init>"


@dataclass(frozen=True)
class Field:
    """A declared instance field."""

    name: str
    type: str = OBJECT


@dataclass(frozen=True)
class Parameter:
    """A formal method parameter."""

    name: str
    type: str = OBJECT


class MethodRef(NamedTuple):
    """A fully qualified reference to a method: ``ClassName.method_name``.

    A tuple, so that building and hashing one runs in C; it hashes and
    compares like its ``(class_name, method_name)`` pair.
    """

    class_name: str
    method_name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.class_name}.{self.method_name}"


@dataclass(frozen=True)
class MethodDef:
    """A method definition.

    ``is_native`` marks methods whose body is *not* available to the static
    analysis (the analogue of JNI methods such as ``System.arraycopy``); the
    interpreter executes them through Python hooks registered in
    ``repro.interp.natives``.
    """

    name: str
    params: Tuple[Parameter, ...] = ()
    return_type: str = VOID
    body: Tuple[Statement, ...] = ()
    is_static: bool = False
    is_native: bool = False
    doc: str = ""

    @property
    def is_constructor(self) -> bool:
        return self.name == CONSTRUCTOR

    def parameter_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def reference_parameters(self) -> Tuple[Parameter, ...]:
        """Parameters of reference type (those visible to the points-to analysis)."""
        return tuple(p for p in self.params if is_reference(p.type))

    def returns_reference(self) -> bool:
        return is_reference(self.return_type)


@dataclass(frozen=True)
class ClassDef:
    """A class definition.

    ``is_library`` distinguishes library classes (whose implementations are
    the subject of specification inference) from client / specification
    classes.
    """

    name: str
    superclass: Optional[str] = OBJECT
    fields: Tuple[Field, ...] = ()
    methods: Dict[str, MethodDef] = field(default_factory=dict)
    is_library: bool = False

    def method(self, name: str) -> Optional[MethodDef]:
        return self.methods.get(name)

    def field_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def with_method(self, method: MethodDef) -> "ClassDef":
        methods = dict(self.methods)
        methods[method.name] = method
        return replace(self, methods=methods)


class Program:
    """A collection of classes plus lookup helpers.

    Programs are cheap to merge (library + client + code-fragment
    specifications) and support the method-resolution walk used both by the
    interpreter and by the points-to front-end.
    """

    def __init__(self, classes: Iterable[ClassDef] = ()):
        self._classes: Dict[str, ClassDef] = {}
        for cls in classes:
            self.add_class(cls)

    # ------------------------------------------------------------------ basic
    def add_class(self, cls: ClassDef) -> None:
        if cls.name in self._classes:
            raise ValueError(f"duplicate class {cls.name!r}")
        self._classes[cls.name] = cls

    def replace_class(self, cls: ClassDef) -> None:
        self._classes[cls.name] = cls

    def has_class(self, name: str) -> bool:
        return name in self._classes

    def class_def(self, name: str) -> ClassDef:
        try:
            return self._classes[name]
        except KeyError:
            raise KeyError(f"unknown class {name!r}") from None

    def classes(self) -> Tuple[ClassDef, ...]:
        return tuple(self._classes.values())

    def class_names(self) -> Tuple[str, ...]:
        return tuple(self._classes.keys())

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __iter__(self) -> Iterator[ClassDef]:
        return iter(self._classes.values())

    def __len__(self) -> int:
        return len(self._classes)

    # ------------------------------------------------------------- resolution
    def superclass_chain(self, class_name: str) -> Tuple[str, ...]:
        """Return ``(class_name, superclass, ..., "Object")``."""
        chain = []
        current: Optional[str] = class_name
        seen = set()
        while current is not None and current in self._classes:
            if current in seen:
                raise ValueError(f"inheritance cycle through {current!r}")
            seen.add(current)
            chain.append(current)
            current = self._classes[current].superclass
        if current is not None and current not in seen:
            chain.append(current)
        return tuple(chain)

    def resolve_method(self, class_name: str, method_name: str) -> Optional[MethodRef]:
        """Resolve *method_name* on *class_name*, walking up the superclass chain."""
        for name in self.superclass_chain(class_name):
            cls = self._classes.get(name)
            if cls is not None and method_name in cls.methods:
                return MethodRef(name, method_name)
        return None

    def method_def(self, ref: MethodRef) -> MethodDef:
        return self.class_def(ref.class_name).methods[ref.method_name]

    def all_fields(self, class_name: str) -> Tuple[Field, ...]:
        """All fields of *class_name*, including inherited ones."""
        fields = []
        seen = set()
        for name in self.superclass_chain(class_name):
            cls = self._classes.get(name)
            if cls is None:
                continue
            for fld in cls.fields:
                if fld.name not in seen:
                    seen.add(fld.name)
                    fields.append(fld)
        return tuple(fields)

    def iter_methods(self) -> Iterator[Tuple[ClassDef, MethodDef]]:
        for cls in self._classes.values():
            for method in cls.methods.values():
                yield cls, method

    # -------------------------------------------------------------- combining
    def merged_with(self, other: "Program") -> "Program":
        """Return a new program containing this program's classes and *other*'s.

        Classes defined in *other* shadow same-named classes here; this is how
        code-fragment specifications replace library implementations.
        """
        merged = Program(self._classes.values())
        for cls in other:
            merged.replace_class(cls)
        return merged

    def without_classes(self, names: Iterable[str]) -> "Program":
        excluded = set(names)
        return Program(cls for cls in self if cls.name not in excluded)

    def restricted_to(self, names: Iterable[str]) -> "Program":
        wanted = set(names)
        return Program(cls for cls in self if cls.name in wanted)

    # ------------------------------------------------------------------ stats
    def statement_count(self) -> int:
        return sum(len(m.body) for _, m in self.iter_methods())

    def loc(self) -> int:
        """Rough "lines of code": one line per statement plus per-member headers.

        This is the analogue of the Jimple LOC metric used in Figure 8.
        """
        total = 0
        for cls in self:
            total += 1 + len(cls.fields)
            for method in cls.methods.values():
                total += 1 + len(method.body)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Program({len(self._classes)} classes, {self.statement_count()} statements)"
