"""Unit and parity tests for the compiled bitset CFL solver."""

import random

import pytest

from repro.pointsto.cfl import CFLSolver
from repro.pointsto.grammar import NULLABLE, Production, build_cpt_grammar
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
    load,
    load_bar,
    store,
    store_bar,
)
from repro.solve import BitsetCFLSolver

A = Symbol("A")
B = Symbol("B")
C = Symbol("C")
D = Symbol("D")
S = Symbol("S")


# ---------------------------------------------------------------- basic rules
def test_single_symbol_production():
    solver = BitsetCFLSolver([Production(S, (A,))], nullable=())
    solver.add_edge(1, A, 2)
    solver.solve()
    assert solver.has_edge(1, S, 2)
    assert not solver.has_edge(2, S, 1)


def test_binary_production_composes_edges():
    solver = BitsetCFLSolver([Production(S, (A, B))], nullable=())
    solver.add_edge(1, A, 2)
    solver.add_edge(2, B, 3)
    solver.solve()
    assert solver.has_edge(1, S, 3)
    assert not solver.has_edge(1, S, 2)


def test_transitive_closure_via_recursion():
    solver = BitsetCFLSolver([Production(S, (A,)), Production(S, (S, S))], nullable=())
    for left, right in [(1, 2), (2, 3), (3, 4)]:
        solver.add_edge(left, A, right)
    solver.solve()
    assert solver.has_edge(1, S, 4)
    assert solver.has_edge(2, S, 4)
    assert not solver.has_edge(4, S, 1)


def test_nullable_symbols_add_self_loops():
    solver = BitsetCFLSolver([Production(S, (S, A))], nullable=(S,))
    solver.add_edge(7, A, 8)
    solver.solve()
    assert solver.has_edge(7, S, 7)
    assert solver.has_edge(7, S, 8)


def test_incremental_edges_continue_from_fixpoint():
    solver = BitsetCFLSolver([Production(S, (A, B))], nullable=())
    solver.add_edge(1, A, 2)
    solver.solve()
    assert not solver.has_edge(1, S, 3)
    solver.add_edge(2, B, 3)
    solver.solve()
    assert solver.has_edge(1, S, 3)


def test_late_productions_fire_over_existing_edges():
    # the engine adds per-field productions after base edges already exist;
    # rule firing must consult edges inserted before the production arrived
    solver = BitsetCFLSolver([Production(S, (A,))], nullable=())
    solver.add_edge(1, A, 2)
    solver.add_edge(2, B, 3)
    solver.solve()
    assert not solver.has_edge(1, C, 3)
    added = solver.add_productions([Production(C, (S, B))])
    assert added == 1
    solver.solve()
    assert solver.has_edge(1, C, 3)
    # re-adding the same production is a no-op
    assert solver.add_productions([Production(C, (S, B))]) == 0


def test_productions_the_joins_cannot_mirror_are_refused():
    # a mirrored left-hand side needs a mirrored right-hand side
    with pytest.raises(ValueError):
        BitsetCFLSolver([Production(TRANSFER, (TRANSFER, A))])
    # a barred operand may only come second
    with pytest.raises(ValueError):
        BitsetCFLSolver([Production(S, (FLOWS_TO_BAR,))])
    with pytest.raises(ValueError):
        BitsetCFLSolver([Production(S, (FLOWS_TO_BAR, A))])


def test_barred_edges_read_the_transposed_relation():
    solver = BitsetCFLSolver([Production(TRANSFER, (TRANSFER, ASSIGN))])
    assert solver.add_edge(1, ASSIGN_BAR, 2)
    assert not solver.add_edge(2, ASSIGN, 1)
    solver.solve()
    assert solver.has_edge(2, TRANSFER, 1) and solver.has_edge(1, TRANSFER_BAR, 2)
    assert solver.successors(1, ASSIGN_BAR) == {2}
    assert solver.predecessors(1, TRANSFER_BAR) == {1}
    assert sorted(solver.edges(ASSIGN_BAR)) == [(1, 2)]
    assert solver.edge_count(ASSIGN_BAR) == solver.edge_count(ASSIGN) == 1
    # the Transfer and TransferBar self-loops of both nodes, then Assign and
    # Transfer from 2 to 1, each with its barred twin
    assert solver.total_edges == 4 + 2 + 2


# -------------------------------------------------------------------- queries
def test_query_api_matches_reference():
    productions = [Production(S, (A, B)), Production(C, (S,))]
    reference = CFLSolver(productions, nullable=())
    compiled = BitsetCFLSolver(productions, nullable=())
    edges = [(1, A, 2), (2, B, 3), (1, A, 4), (4, B, 3), (3, A, 5), (5, B, 6)]
    for source, symbol, target in edges:
        reference.add_edge(source, symbol, target)
        compiled.add_edge(source, symbol, target)
    reference.solve()
    compiled.solve()
    for symbol in (A, B, C, S):
        assert sorted(compiled.edges(symbol)) == sorted(reference.edges(symbol))
        assert compiled.edge_count(symbol) == reference.edge_count(symbol)
        for node in (1, 2, 3, 4, 5, 6):
            assert compiled.successors(node, symbol) == reference.successors(node, symbol)
            assert compiled.predecessors(node, symbol) == reference.predecessors(node, symbol)
            assert set(compiled.reachable(node, symbol)) == set(reference.reachable(node, symbol))
    assert compiled.total_edges == reference.total_edges
    assert sorted(compiled.nodes(), key=str) == sorted(reference.nodes(), key=str)


def test_reaching_sources_filters_candidates():
    solver = BitsetCFLSolver([Production(S, (A,)), Production(S, (S, S))], nullable=())
    solver.add_edge("x", A, "y")
    solver.add_edge("y", A, "z")
    solver.solve()
    assert set(solver.reaching_sources("z", S, ["x", "y", "z", "missing"])) == {"x", "y"}
    assert set(solver.reaching_sources("z", S, ["x"])) == {"x"}


# ----------------------------------------------------------------------- fork
def test_fork_isolates_parent_from_child():
    grammar = [Production(S, (A,)), Production(D, (S, B))]
    solver = BitsetCFLSolver(grammar, nullable=())
    solver.add_edge(1, A, 2)
    solver.solve()
    child = solver.fork()
    # edges out of and into nodes the parent has too (their symbol masks)
    for source, symbol, target in [(2, A, 3), (2, B, 3), (2, A, 1)]:
        child.add_edge(source, symbol, target)
    child.solve()
    assert child.has_edge(2, S, 3)
    assert child.has_edge(1, D, 3)
    assert not solver.has_edge(2, S, 3)
    # the child's grammar grows, extending index entries the parent holds too
    # (A's unary rules, and the S-B join that already produces D)
    late = [Production(C, (A,)), Production(C, (S, B))]
    assert child.add_productions(late) == 2
    sibling = solver.fork()
    # and the parent keeps working independently, on its own grammar and
    # edges only: C is not even interned here, so count every derived edge
    # against a solver that never saw the child's productions or edges
    parent_edges = [(1, A, 2), (2, A, 4), (4, B, 5), (7, A, 2), (1, B, 8)]
    for source, symbol, target in parent_edges[1:]:
        solver.add_edge(source, symbol, target)
    solver.solve()
    reference = CFLSolver(grammar, nullable=())
    for source, symbol, target in parent_edges:
        reference.add_edge(source, symbol, target)
    reference.solve()
    assert solver.has_edge(2, S, 4)
    assert solver.has_edge(2, D, 5)
    assert solver.total_edges == reference.total_edges
    for symbol in (A, B, S, D):
        assert sorted(solver.edges(symbol)) == sorted(reference.edges(symbol))
    assert solver.edge_count(C) == 0
    assert not child.has_edge(2, S, 4)
    assert sibling.add_productions(late) == 2
    child.add_edge(3, B, 6)
    child.solve()
    assert child.has_edge(1, C, 3)
    assert child.has_edge(2, C, 6)


def _dump(solver, symbols):
    """Every relation of *solver* over *symbols*, read from both indexes."""
    nodes = sorted(solver.nodes())
    return solver.total_edges, {
        symbol: (
            solver.edge_count(symbol),
            sorted(solver.edges(symbol)),
            {node: solver.predecessors(node, symbol) for node in nodes},
        )
        for symbol in symbols
    }


def _reference_dump(grammar, edges, symbols):
    reference = CFLSolver(grammar, nullable=())
    for edge in edges:
        reference.add_edge(*edge)
    reference.solve()
    return _dump(reference, symbols)


def test_fork_isolation_holds_in_both_directions():
    """Parent, child and sibling write the same relations and never see each other's rows."""
    grammar = [Production(S, (A,)), Production(D, (S, B))]
    symbols = (A, B, S, D)
    shared = [(1, A, 2), (2, B, 3)]
    parent = BitsetCFLSolver(grammar, nullable=())
    for edge in shared:
        parent.add_edge(*edge)
    parent.solve()
    forked = _dump(parent, symbols)
    child = parent.fork()
    sibling = parent.fork()

    # the child writes rows into every relation the parent holds rows in
    child_edges = [(2, A, 4), (4, B, 5), (2, B, 6)]
    for edge in child_edges:
        child.add_edge(*edge)
    child.solve()
    assert child.has_edge(2, D, 5) and child.has_edge(1, D, 6)
    assert _dump(parent, symbols) == forked
    assert _dump(sibling, symbols) == forked

    # then the parent writes those relations too, and solves after the fork
    parent_edges = [(3, A, 1), (1, A, 7), (7, B, 8), (2, B, 9)]
    for edge in parent_edges:
        parent.add_edge(*edge)
    parent.solve()
    assert parent.has_edge(1, D, 8) and not parent.has_edge(1, D, 6)
    assert child.has_edge(1, D, 6) and not child.has_edge(1, D, 8)
    assert _dump(parent, symbols) == _reference_dump(grammar, shared + parent_edges, symbols)
    assert _dump(child, symbols) == _reference_dump(grammar, shared + child_edges, symbols)
    assert _dump(sibling, symbols) == forked

    # a relation both have copied stays private on the child's next write
    child.add_edge(6, A, 2)
    child.solve()
    more = shared + child_edges + [(6, A, 2)]
    assert _dump(child, symbols) == _reference_dump(grammar, more, symbols)
    assert _dump(parent, symbols) == _reference_dump(grammar, shared + parent_edges, symbols)
    assert _dump(sibling, symbols) == forked


# --------------------------------------------------------------------- parity
def test_randomized_parity_with_reference_solver():
    """Random Cpt-grammar edge soups solve bit-identically to CFLSolver."""
    fields = ("f", "g")
    grammar = build_cpt_grammar(fields)
    symbols = sorted({symbol for production in grammar for symbol in production.rhs}, key=str)
    rng = random.Random(2018)
    for _ in range(10):
        reference = CFLSolver(grammar, nullable=NULLABLE)
        compiled = BitsetCFLSolver(grammar, nullable=NULLABLE)
        for _ in range(60):
            source = rng.randrange(12)
            target = rng.randrange(12)
            symbol = rng.choice(symbols)
            assert reference.add_edge(source, symbol, target) == compiled.add_edge(
                source, symbol, target
            )
        reference.solve()
        compiled.solve()
        assert compiled.total_edges == reference.total_edges
        for production in grammar:
            assert sorted(compiled.edges(production.lhs)) == sorted(
                reference.edges(production.lhs)
            )

        # every query, on every symbol (barred ones read a transposed
        # relation), then again on a fork that took ten more edges
        grammar_symbols = {
            symbol for production in grammar for symbol in (production.lhs, *production.rhs)
        }
        for solver in (compiled, compiled.fork()):
            if solver is not compiled:
                for _ in range(10):
                    edge = (rng.randrange(12), rng.choice(symbols), rng.randrange(12))
                    reference.add_edge(*edge)
                    solver.add_edge(*edge)
                reference.solve()
                solver.solve()
            assert solver.total_edges == reference.total_edges
            nodes = range(12)
            for symbol in sorted(grammar_symbols, key=str):
                assert solver.edge_count(symbol) == reference.edge_count(symbol), symbol
                for node in nodes:
                    assert solver.successors(node, symbol) == reference.successors(node, symbol)
                    assert solver.predecessors(node, symbol) == reference.predecessors(
                        node, symbol
                    )
                    assert set(solver.reaching_sources(node, symbol, nodes)) == set(
                        reference.reaching_sources(node, symbol, nodes)
                    )
                    for other in nodes:
                        assert solver.has_edge(node, symbol, other) == reference.has_edge(
                            node, symbol, other
                        )


def test_late_productions_match_a_reference_given_the_full_grammar():
    """Field productions arriving mid-stream derive exactly the up-front closure.

    Field ``f`` is in the starting grammar.  ``g``'s productions arrive before
    any ``g`` edge (one side of each rule empty), ``h``'s once every ``h``
    label has edges and the solver is at fixpoint, two unary productions at a
    random point, and the rest of the stream goes to a fork of a solved state.
    """
    unary = [
        Production(Symbol("Stored"), (store("h"),)),
        Production(Symbol("Points"), (FLOWS_TO,)),
    ]
    grammar = {field: build_cpt_grammar((field,)) for field in ("f", "g", "h")}
    full = list(dict.fromkeys(grammar["f"] + grammar["g"] + grammar["h"] + unary))
    symbols = sorted(
        {symbol for production in full for symbol in (production.lhs, *production.rhs)}, key=str
    )
    base_labels = [ASSIGN, ASSIGN_BAR, NEW, NEW_BAR, FLOWS_TO]
    # the productions build_cpt_grammar adds for one field
    per_field = len(set(build_cpt_grammar(("g",))) - set(build_cpt_grammar(())))

    def labels(field):
        return [store(field), load(field), store_bar(field), load_bar(field)]

    rng = random.Random(2018)

    def edge(pool):
        return rng.randrange(10), rng.choice(pool), rng.randrange(10)

    for _ in range(12):
        head_pool = base_labels + labels("f") + labels("h")
        # every h label (and FlowsTo) has an edge before h's productions arrive
        head = [edge([label]) for label in labels("h") + [FLOWS_TO]]
        head += [edge(head_pool) for _ in range(30)]
        rng.shuffle(head)
        tail = [edge(head_pool + labels("g")) for _ in range(30)]
        stream = head + tail
        g_at = rng.randrange(len(head))
        h_at = len(head) + rng.randrange(len(tail))
        unary_at = rng.randrange(len(stream))
        fork_at = len(head) + rng.randrange(len(tail))

        reference = CFLSolver(full, nullable=NULLABLE)
        compiled = BitsetCFLSolver(grammar["f"], nullable=NULLABLE)
        for index, (source, symbol, target) in enumerate(stream):
            if index == fork_at:
                compiled.solve()
                compiled = compiled.fork()
            if index == g_at:
                assert all(compiled.edge_count(label) == 0 for label in labels("g"))
                assert compiled.add_productions(grammar["g"]) == per_field
            if index == h_at:
                compiled.solve()
                assert compiled.add_productions(grammar["h"]) == per_field
            if index == unary_at:
                assert compiled.add_productions(unary) == 2
            if rng.random() < 0.2:
                compiled.solve()
            reference.add_edge(source, symbol, target)
            compiled.add_edge(source, symbol, target)
        reference.solve()
        compiled.solve()
        assert compiled.total_edges == reference.total_edges
        for symbol in symbols:
            assert sorted(compiled.edges(symbol)) == sorted(reference.edges(symbol)), symbol
