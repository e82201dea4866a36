"""Tests for the points-to grammar and edge labels."""

import pytest

from repro.pointsto.grammar import (
    NULLABLE,
    Production,
    build_cpt_grammar,
    build_flows_to_grammar,
    grammar_fields,
    mirror_production,
)
from repro.pointsto.labels import (
    ASSIGN,
    ASSIGN_BAR,
    FLOWS_TO,
    FLOWS_TO_BAR,
    NEW,
    NEW_BAR,
    Symbol,
    TRANSFER,
    TRANSFER_BAR,
    heap,
    is_barred,
    is_terminal,
    load,
    load_bar,
    mirror,
    store,
    store_bar,
)

#: the paper's Alias nonterminal, which the normalized grammar answers from
#: FlowsTo instead of deriving
ALIAS = Symbol("Alias")


def test_symbols_are_field_parametric():
    assert store("f") == Symbol("Store", "f")
    assert store("f") != store("g")
    assert load("f").field == "f"
    assert str(store("f")) == "Store[f]"
    assert str(TRANSFER) == "Transfer"


def test_barred_round_trip():
    assert mirror(ASSIGN) == ASSIGN_BAR
    assert mirror(ASSIGN_BAR) == ASSIGN
    assert mirror(NEW) == NEW_BAR
    assert mirror(store("f")) == store_bar("f")
    assert mirror(load_bar("f")) == load("f")
    # the nonterminals whose relations come in transposed pairs
    assert mirror(TRANSFER) == TRANSFER_BAR
    assert mirror(FLOWS_TO_BAR) == FLOWS_TO
    assert mirror(Symbol("Heap", "f")) == Symbol("HeapBar", "f")
    assert mirror(ALIAS) is None
    assert is_barred(TRANSFER_BAR) and is_barred(store_bar("f"))
    assert not is_barred(TRANSFER) and not is_barred(ALIAS)


def test_is_terminal():
    assert is_terminal(ASSIGN) and is_terminal(store("f"))
    assert not is_terminal(TRANSFER) and not is_terminal(ALIAS)


def test_production_arity_validation():
    with pytest.raises(ValueError):
        Production(TRANSFER, ())
    with pytest.raises(ValueError):
        Production(TRANSFER, (ASSIGN, ASSIGN, ASSIGN))


def test_grammar_contains_core_productions():
    productions = build_cpt_grammar([])
    rules = {(p.lhs, p.rhs) for p in productions}
    assert (TRANSFER, (TRANSFER, ASSIGN)) in rules
    assert (TRANSFER_BAR, (ASSIGN_BAR, TRANSFER_BAR)) in rules
    assert (FLOWS_TO, (NEW, TRANSFER)) in rules
    # the heap step, split at the abstract object the store and load share
    field_productions = build_cpt_grammar(["f", "g"])
    field_rules = {(p.lhs, p.rhs) for p in field_productions}
    store_into, load_from = Symbol("StoreInto", "f"), Symbol("LoadFrom", "f")
    assert (Symbol("Heap", "f"), (store_into, load_from)) in field_rules
    assert (store_into, (store("f"), FLOWS_TO_BAR)) in field_rules
    assert (load_from, (FLOWS_TO, load("f"))) in field_rules
    # Alias is a query, not a relation
    assert not any(
        "Alias" in symbol.name for p in field_productions for symbol in (p.lhs, *p.rhs)
    )
    # closed under mirroring, which the bitset solver's transposition relies on
    assert all(mirror_production(p) in set(field_productions) for p in field_productions)


def test_flows_to_grammar_differs_from_the_papers_only_in_its_heads():
    fields = ["f", "g"]
    papers = set(build_cpt_grammar(fields))
    flows_to = build_flows_to_grammar(fields)
    heads = {(p.lhs, p.rhs) for p in set(flows_to) - papers}
    assert heads == {
        (FLOWS_TO, (NEW,)),
        (FLOWS_TO, (FLOWS_TO, ASSIGN)),
        (FLOWS_TO, (FLOWS_TO, heap("f"))),
        (FLOWS_TO, (FLOWS_TO, heap("g"))),
        (FLOWS_TO_BAR, (NEW_BAR,)),
        (FLOWS_TO_BAR, (ASSIGN_BAR, FLOWS_TO_BAR)),
        (FLOWS_TO_BAR, (Symbol("HeapBar", "f"), FLOWS_TO_BAR)),
        (FLOWS_TO_BAR, (Symbol("HeapBar", "g"), FLOWS_TO_BAR)),
    }
    # the heap productions are shared, and nothing mentions Transfer
    heap_steps = {p for p in papers if TRANSFER not in p.rhs and TRANSFER_BAR not in p.rhs}
    assert heap_steps <= set(flows_to)
    assert not any(
        symbol in (TRANSFER, TRANSFER_BAR) for p in flows_to for symbol in (p.lhs, *p.rhs)
    )
    assert all(mirror_production(p) in set(flows_to) for p in flows_to)
    assert len(build_flows_to_grammar(["f", "f"])) == len(build_flows_to_grammar(["f"]))


def test_grammar_instantiates_per_field():
    productions = build_cpt_grammar(["f", "g"])
    assert set(grammar_fields(productions)) == {"f", "g"}
    heap_rules = [p for p in productions if p.lhs == TRANSFER and p.rhs[0] == TRANSFER and p.rhs[1].name == "Heap"]
    assert {p.rhs[1].field for p in heap_rules} == {"f", "g"}


def test_duplicate_fields_deduplicated():
    assert len(build_cpt_grammar(["f", "f"])) == len(build_cpt_grammar(["f"]))


def test_nullable_symbols():
    assert TRANSFER in NULLABLE and TRANSFER_BAR in NULLABLE
