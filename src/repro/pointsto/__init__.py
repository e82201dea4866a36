"""Static points-to analysis as context-free language reachability.

This package implements the analysis the paper assumes (Section 3): a
flow-insensitive, field-sensitive, context-insensitive Andersen-style
points-to analysis formulated as CFL reachability over the grammar ``Cpt``
of Figure 3, with the graph-extraction rules of Figure 2 and an on-the-fly
call graph based on receiver points-to sets.
"""

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
    mirror,
    store,
    store_bar,
)
from repro.pointsto.grammar import Production, build_cpt_grammar
from repro.pointsto.cfl import CFLSolver
from repro.pointsto.graph import ObjNode, PointsToGraph, VarNode
from repro.pointsto.andersen import AndersenAnalysis, analyze
from repro.pointsto.relations import PointsToResult

__all__ = [
    "ASSIGN",
    "ASSIGN_BAR",
    "AndersenAnalysis",
    "CFLSolver",
    "FLOWS_TO",
    "FLOWS_TO_BAR",
    "NEW",
    "NEW_BAR",
    "ObjNode",
    "PointsToGraph",
    "PointsToResult",
    "Production",
    "Symbol",
    "TRANSFER",
    "TRANSFER_BAR",
    "VarNode",
    "analyze",
    "build_cpt_grammar",
    "load",
    "load_bar",
    "mirror",
    "store",
    "store_bar",
]
