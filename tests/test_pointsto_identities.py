"""The identity contract of the four hot value types.

``VarNode``, ``ObjNode`` (graph nodes), ``MethodRef`` (a resolved method) and
``Symbol`` (a grammar symbol) are tuples.  Each must hash exactly like its
field tuple -- the hash a frozen dataclass with the same fields computes --
so that every set and dict of them iterates in one fixed order and the
solvers intern nodes in that order whatever the type's implementation.
"""

import os
import pickle
import subprocess
import sys

import pytest

import repro.pointsto
from repro.lang.program import MethodRef
from repro.pointsto.graph import ObjNode, VarNode
from repro.pointsto.labels import Symbol

#: (value, its field tuple, its repr, its str) for each type
SAMPLES = [
    pytest.param(
        VarNode("ArrayList", "add", "this"),
        ("ArrayList", "add", "this"),
        "VarNode(class_name='ArrayList', method_name='add', name='this')",
        "ArrayList.add:this",
        id="VarNode",
    ),
    pytest.param(
        ObjNode("Main", "main", 3, "Box"),
        ("Main", "main", 3, "Box"),
        "ObjNode(class_name='Main', method_name='main', index=3, allocated_class='Box')",
        "o<Box@Main.main#3>",
        id="ObjNode",
    ),
    pytest.param(
        MethodRef("HashMap", "put"),
        ("HashMap", "put"),
        "MethodRef(class_name='HashMap', method_name='put')",
        "HashMap.put",
        id="MethodRef",
    ),
    pytest.param(
        Symbol("Store", "f"),
        ("Store", "f"),
        "Symbol(name='Store', field='f')",
        "Store[f]",
        id="Symbol",
    ),
    pytest.param(
        Symbol("Assign"),
        ("Assign", None),
        "Symbol(name='Assign', field=None)",
        "Assign",
        id="Symbol-no-field",
    ),
]


@pytest.mark.parametrize("value, fields, text, label", SAMPLES)
def test_hash_is_the_field_tuple_hash(value, fields, text, label):
    assert hash(value) == hash(fields)
    assert hash(type(value)(*fields)) == hash(value)


@pytest.mark.parametrize("value, fields, text, label", SAMPLES)
def test_equality_holds_within_a_type(value, fields, text, label):
    same = type(value)(*fields)
    assert same == value and not same != value
    assert len({value, same}) == 1
    other = type(value)(*fields[:-1], "other")
    assert other != value


def test_a_var_node_never_equals_an_obj_node():
    var = VarNode("Main", "main", "x")
    obj = ObjNode("Main", "main", 0, "x")
    assert var != obj and obj != var
    assert len({var, obj}) == 2


@pytest.mark.parametrize("value, fields, text, label", SAMPLES)
def test_pickle_repr_and_str_keep_their_form(value, fields, text, label):
    restored = pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
    assert restored == value and type(restored) is type(value)
    assert repr(value) == text
    assert str(value) == label
    assert f"{value}" == label


@pytest.mark.parametrize("value, fields, text, label", SAMPLES)
def test_assigning_an_attribute_raises(value, fields, text, label):
    with pytest.raises(AttributeError):
        setattr(value, type(value)._fields[0], "changed")
    with pytest.raises(AttributeError):
        value.extra = 1
    assert tuple(value) == fields


def test_symbol_field_defaults_to_none():
    assert Symbol("New").field is None
    assert Symbol("New") == Symbol("New", None)


# ------------------------------------------------------------ interning order
#: sha256 of the JSON list of ``repr(node)`` for every node the ground-truth
#: base solver interns, in interning order, under ``PYTHONHASHSEED=0``.
#: Computed when the node types were frozen dataclasses: a node type that
#: hashed differently would intern in another order and change this.
BASE_NODE_ORDER_SHA256 = "ff1a497dab70ca57f599358859af9c3c75dfdc663ddfc0320fdaf730e6260749"

_NODE_ORDER_SCRIPT = """
import hashlib, json
from repro.diff.checker import build_pipeline_analyzer
from repro.library.registry import build_interface, build_library_program
library = build_library_program()
analyzer = build_pipeline_analyzer(
    "ground_truth", library_program=library, interface=build_interface(library)
)
nodes = [repr(node) for node in analyzer._compiled_engine()._base.solver.nodes()]
print(len(nodes), hashlib.sha256(json.dumps(nodes).encode("utf-8")).hexdigest())
"""


def test_ground_truth_base_interns_nodes_in_the_pinned_order():
    src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(repro.pointsto.__file__))))
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NODE_ORDER_SCRIPT],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    count, digest = done.stdout.split()
    assert int(count) == 601
    assert digest == BASE_NODE_ORDER_SHA256

