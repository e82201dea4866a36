"""``repro.solve``: the per-request analysis engine.

Three pieces, each usable alone:

* :class:`~repro.solve.bitset.BitsetCFLSolver` -- CFL-reachability over
  integer-interned nodes and int-bitmask rows, API-compatible with the
  reference :class:`~repro.pointsto.cfl.CFLSolver` and bit-identical in its
  derived closure.
* :class:`~repro.solve.engine.CompiledAnalysisEngine` -- pre-solves the
  analysis-invariant base program (library + framework + compiled specs)
  once and forks the solved state per client query, extending cached
  fixpoints incrementally for statement-append edits.
* :class:`~repro.solve.cache.AnalysisResultCache` -- the serving twin of
  the oracle cache: flow reports content-addressed by ``(spec key,
  canonical program digest)`` in append-only JSONL with compaction.

Every :class:`~repro.service.analyzer.ClientAnalyzer` answers through this
path; the reference :class:`~repro.pointsto.andersen.AndersenAnalysis`
remains only as the test oracle.
"""

from repro.solve.bitset import BitsetCFLSolver
from repro.solve.cache import (
    ANALYSIS_CACHE_BASENAME,
    AnalysisResultCache,
    analysis_cache_files,
    compact_analysis_cache_dir,
    compact_analysis_cache_file,
)
from repro.solve.delta import extension_starts
from repro.solve.engine import COLD, CompiledAnalysisEngine, GraphView, INCREMENTAL

__all__ = [
    "ANALYSIS_CACHE_BASENAME",
    "AnalysisResultCache",
    "BitsetCFLSolver",
    "COLD",
    "CompiledAnalysisEngine",
    "GraphView",
    "INCREMENTAL",
    "analysis_cache_files",
    "compact_analysis_cache_dir",
    "compact_analysis_cache_file",
    "extension_starts",
]
