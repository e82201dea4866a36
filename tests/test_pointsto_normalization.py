"""The normalized ``Cpt`` grammars against the textbook normalization.

:func:`~repro.pointsto.grammar.build_cpt_grammar` splits the paper's heap
step at the abstract object a store and a load share and answers ``Alias``
from ``FlowsTo``.  :func:`textbook_cpt_grammar` below is the earlier
normalization, which derived ``Alias`` (through ``AliasL`` / ``AliasR``)
and the ``StoreAlias`` / ``AliasStoreBar`` helpers as relations of their
own.  On mirror-closed graphs both must close ``Transfer``, ``TransferBar``
and ``FlowsTo`` identically -- in the reference solver and in the bitset
solver -- and the ``Alias`` queries must agree with the textbook relation.

:func:`~repro.pointsto.grammar.build_flows_to_grammar`, the engine's, derives
no ``Transfer``: it must close ``FlowsTo`` and the heap helpers as the
paper's grammar does, and the ``Transfer`` queries of its results must
answer the paper's ``Transfer`` and ``TransferBar``.
"""

import itertools
import random

import pytest

from repro.diff.corpus import corpus_files, load_corpus
from repro.lang.serialize import program_digest, program_to_dict
from repro.pointsto import andersen
from repro.pointsto.andersen import AndersenAnalysis
from repro.pointsto.cfl import CFLSolver
from repro.pointsto.grammar import (
    NULLABLE,
    Production,
    build_cpt_grammar,
    build_flows_to_grammar,
)
from repro.pointsto.graph import ObjNode, VarNode
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
    load,
    load_bar,
    mirror,
    store,
    store_bar,
)
from repro.pointsto.relations import PointsToResult
from repro.solve import BitsetCFLSolver, CompiledAnalysisEngine
from repro.solve.engine import GraphView
from repro.testing import GOLDEN_DIR

ALIAS = Symbol("Alias")
CLOSED = (TRANSFER, TRANSFER_BAR, FLOWS_TO)
FIELDS = ("f", "g")


def textbook_cpt_grammar(fields):
    """The ``Cpt`` normalization with ``Alias`` as a relation."""
    alias_left = Symbol("AliasL")
    alias_right = Symbol("AliasR")
    productions = [
        Production(TRANSFER, (TRANSFER, ASSIGN)),
        Production(TRANSFER_BAR, (ASSIGN_BAR, TRANSFER_BAR)),
        Production(alias_left, (TRANSFER_BAR, NEW_BAR)),
        Production(alias_right, (NEW, TRANSFER)),
        Production(ALIAS, (alias_left, alias_right)),
        Production(FLOWS_TO, (NEW, TRANSFER)),
    ]
    for field_name in sorted(set(fields)):
        store_alias = Symbol("StoreAlias", field_name)
        heap_step = Symbol("Heap", field_name)
        productions.append(Production(store_alias, (store(field_name), ALIAS)))
        productions.append(Production(heap_step, (store_alias, load(field_name))))
        productions.append(Production(TRANSFER, (TRANSFER, heap_step)))
        alias_store_bar = Symbol("AliasStoreBar", field_name)
        heap_bar_step = Symbol("HeapBar", field_name)
        productions.append(Production(alias_store_bar, (ALIAS, store_bar(field_name))))
        productions.append(Production(heap_bar_step, (load_bar(field_name), alias_store_bar)))
        productions.append(Production(TRANSFER_BAR, (heap_bar_step, TRANSFER_BAR)))
    return productions


def closure(solver):
    return {symbol: set(solver.edges(symbol)) for symbol in CLOSED}


def assert_alias_answers_agree(textbook, result, lefts, rights):
    """``iter_alias_pairs``, and ``aliased`` on every pair, against textbook ``Alias``."""
    textbook_pairs = {
        (left, right)
        for left, right in textbook.edges(ALIAS)
        if isinstance(left, VarNode) and isinstance(right, VarNode)
    }
    assert set(result.iter_alias_pairs()) == textbook_pairs
    for left, right in itertools.product(lefts, rights):
        assert result.aliased(left, right) == ((left, right) in textbook_pairs)
        assert result.aliased(right, left) == ((right, left) in textbook_pairs)


# --------------------------------------------------------------------- soups
@pytest.mark.parametrize("seed", range(8))
def test_soups_close_identically_under_both_normalizations(seed):
    """Seeded two-field soups; ``add_edge`` makes every soup mirror-closed."""
    rng = random.Random(seed)
    variables = [VarNode("C", "m", f"v{index}") for index in range(9)]
    nodes = variables + [ObjNode("C", "m", index, "C") for index in range(3)]
    # terminals plus Transfer: the input symbols both grammars treat alike
    labels = [ASSIGN, ASSIGN_BAR, NEW, NEW_BAR, TRANSFER]
    for field_name in FIELDS:
        labels += [store(field_name), load(field_name), store_bar(field_name), load_bar(field_name)]
    textbook = CFLSolver(textbook_cpt_grammar(FIELDS), nullable=NULLABLE)
    reference = CFLSolver(build_cpt_grammar(FIELDS), nullable=NULLABLE)
    compiled = BitsetCFLSolver(build_cpt_grammar(FIELDS), nullable=NULLABLE)
    for _ in range(40):
        edge = (rng.choice(nodes), rng.choice(labels), rng.choice(nodes))
        for solver in (textbook, reference, compiled):
            solver.add_edge(*edge)
    for solver in (textbook, reference, compiled):
        solver.solve()

    assert closure(reference) == closure(textbook)
    assert closure(compiled) == closure(textbook)
    for solver in (reference, compiled):
        result = PointsToResult(program=None, graph=None, solver=solver)
        assert_alias_answers_agree(textbook, result, variables, variables)


def heap_relations(fields):
    """``FlowsTo``, ``FlowsToBar`` and every field's heap helper, either side."""
    symbols = [FLOWS_TO, FLOWS_TO_BAR]
    for field_name in fields:
        helpers = (Symbol("StoreInto", field_name), Symbol("LoadFrom", field_name))
        for symbol in helpers + (heap(field_name),):
            symbols += [symbol, mirror(symbol)]
    return symbols


@pytest.mark.parametrize("seed", range(8))
def test_flows_to_normalization_closes_as_the_papers_on_soups(seed):
    """Terminal-edge soups, a field whose productions arrive late, and a fork.

    The engine's grammar runs in both solvers: the reference derives barred
    relations from the barred productions, so it also checks the mirrors
    the bitset solver folds away.
    """
    rng = random.Random(seed)
    fields = FIELDS + ("h",)
    variables = [VarNode("C", "m", f"v{index}") for index in range(9)]
    nodes = variables + [ObjNode("C", "m", index, "C") for index in range(3)]
    labels = [ASSIGN, ASSIGN_BAR, NEW, NEW_BAR]
    for field_name in fields:
        labels += [store(field_name), load(field_name), store_bar(field_name), load_bar(field_name)]
    papers = CFLSolver(build_cpt_grammar(fields), nullable=NULLABLE)
    literal = CFLSolver(build_flows_to_grammar(fields), nullable=())
    compiled = BitsetCFLSolver(build_flows_to_grammar(FIELDS), nullable=())
    for step in range(48):
        if step == 16:
            compiled.solve()
            compiled = compiled.fork()
        elif step == 32:
            compiled.add_productions(build_flows_to_grammar(fields))
        edge = (rng.choice(nodes), rng.choice(labels), rng.choice(nodes))
        for solver in (papers, literal, compiled):
            solver.add_edge(*edge)
    for solver in (papers, literal, compiled):
        solver.solve()

    for solver in (literal, compiled):
        assert solver.edge_count(TRANSFER) == 0
        for symbol in heap_relations(fields):
            assert set(solver.edges(symbol)) == set(papers.edges(symbol)), symbol
    everything = nodes + [VarNode("C", "m", "unused")]
    for solver in (papers, compiled):
        view = GraphView(None, frozenset(nodes), frozenset(fields), ())
        result = PointsToResult(None, view, solver)
        for left, right in itertools.product(everything, repeat=2):
            assert result.transfer(left, right) == papers.has_edge(left, TRANSFER, right)
            assert result.transfer_bar(left, right) == papers.has_edge(left, TRANSFER_BAR, right)
        for source in everything:
            assert result.transfer_targets(source) == {
                node for node in papers.successors(source, TRANSFER) if isinstance(node, VarNode)
            }


# ------------------------------------------------------------ golden programs
def _golden_programs(count=8):
    """*count* corpus programs, taken from each scenario family in turn."""
    by_family = {}
    for path in corpus_files(GOLDEN_DIR):
        for entry in load_corpus(path):
            by_family.setdefault(entry.family, []).append(entry)
    turns = itertools.zip_longest(*by_family.values())
    entries = [entry for turn in turns for entry in turn if entry is not None]
    return [pytest.param(entry.program, id=entry.name) for entry in entries[:count]]


def transfer_through_queries(result, nodes):
    """``Transfer`` and ``TransferBar`` over *nodes*, read through *result*'s queries.

    In an extracted graph no ``Assign`` or heap step enters an abstract
    object, so ``transfer_targets`` (variables) and the self-loops of the
    other nodes are all of ``Transfer``; the comparison with the textbook's
    relation checks that too.
    """
    transfer = {(source, target) for source in nodes for target in result.transfer_targets(source)}
    transfer |= {
        (node, node)
        for node in nodes
        if not isinstance(node, VarNode) and result.transfer(node, node)
    }
    transfer_bar = {
        (target, source) for source, target in transfer if result.transfer_bar(target, source)
    }
    return transfer, transfer_bar


@pytest.mark.parametrize("program", _golden_programs())
def test_golden_programs_close_identically_under_both_normalizations(
    program, ground_truth_analyzer, monkeypatch
):
    base = ground_truth_analyzer.base_program
    merged = program.merged_with(base)
    reference = AndersenAnalysis(merged).run()
    compiled, _ = CompiledAnalysisEngine(base).analyze(
        program, merged, program_to_dict(program), program_digest(program)
    )
    monkeypatch.setattr(andersen, "build_cpt_grammar", textbook_cpt_grammar)
    textbook = AndersenAnalysis(merged).run()

    assert closure(reference.solver) == closure(textbook.solver)
    # the engine stores FlowsTo and no Transfer; its results answer Transfer
    # and TransferBar from the stored Assign and Heap[f] rows
    assert set(compiled.solver.edges(FLOWS_TO)) == set(textbook.solver.edges(FLOWS_TO))
    assert compiled.solver.edge_count(TRANSFER) == 0
    # over both node sets: Transfer is reflexive on every solver node
    nodes = set(textbook.solver.nodes()) | set(compiled.solver.nodes())
    for result in (reference, compiled):
        assert transfer_through_queries(result, nodes) == (
            set(textbook.solver.edges(TRANSFER)),
            set(textbook.solver.edges(TRANSFER_BAR)),
        )
    # iter_alias_pairs compares the whole relation; aliased is swept over
    # every pair with a client variable on one side (all ~600 x ~600 pairs
    # of the merged program would add seconds per program)
    client = sorted(reference.program_variables(), key=str)
    variables = sorted((n for n in reference.graph.nodes if isinstance(n, VarNode)), key=str)
    for result in (reference, compiled):
        assert_alias_answers_agree(textbook.solver, result, client, variables)
