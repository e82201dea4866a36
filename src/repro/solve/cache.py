"""Content-addressed analysis result cache: the serving twin of the oracle cache.

A flow report is fully determined by two inputs: the analysis-invariant base
program (library stubs + framework + compiled specifications) and the client
program itself.  The cache therefore keys every entry by ``(spec key,
program digest)`` -- both are canonical encoding digests from
:func:`repro.lang.serialize.program_digest`, the spec key of the merged base
program (any spec version, library, or framework change invalidates
transparently) and the program digest of the client.  Neither depends on the
process's hash seed, so a restarted worker finds its own entries.  Repeated
or shared client fragments never re-solve: the stored flows come back
verbatim, and because flow reports are canonically sorted, a cached answer
is bit-identical to a fresh one.

On disk the cache is append-only JSON lines, like
:class:`repro.engine.cache.PersistentCache`: crash-safe (a truncated last
line is skipped on load) and multi-run friendly.  One twist for the serving
tier: several pre-forked worker processes share one cache *directory* but
each appends to its **own** file (``analysis-cache-<worker>.jsonl``), so
concurrent appends never interleave; every worker loads the union of all
files at startup, which is how warmth survives restarts and spreads across
the shard.  Compaction keeps the last entry per key, preserves first-seen
order, and replaces each file atomically.

A cache opens its shard once, at its first ``put``, and appends each entry
through that handle, flushed as one whole line, until :meth:`close
<AnalysisResultCache.close>`.  So compaction is an offline operation: a live
cache keeps appending to the file compaction replaced, and those entries
are lost.
"""

from __future__ import annotations

import json
import os
from typing import BinaryIO, Dict, List, Optional, Tuple

from repro.jsonl import CompactionStats, compact_json_lines, json_objects

#: basename stem every cache file in a directory shares
ANALYSIS_CACHE_BASENAME = "analysis-cache"
_ENTRY_FORMAT = "repro.solve.cache/1"


def analysis_cache_files(directory: str) -> List[str]:
    """Every cache file under *directory*, sorted by name."""
    if not os.path.isdir(directory):
        return []
    names = [
        name
        for name in os.listdir(directory)
        if name.startswith(ANALYSIS_CACHE_BASENAME) and name.endswith(".jsonl")
    ]
    return [os.path.join(directory, name) for name in sorted(names)]


class AnalysisResultCache:
    """In-memory map over an append-only JSONL directory, keyed by program digest.

    Entries recorded under a different spec key are preserved on disk but
    invisible to this instance.  ``put`` appends immediately (a serving
    worker's results must survive the process), unlike the oracle cache's
    buffered ``flush`` -- one analyzed program is one line, not thousands.
    The shard stays open between puts; :meth:`close` closes it, and a later
    ``put`` opens it again.
    """

    def __init__(self, directory: str, spec_key: str, worker: Optional[str] = None):
        self.directory = str(directory)
        self.spec_key = spec_key
        self.worker = worker
        name = ANALYSIS_CACHE_BASENAME + (f"-{worker}" if worker else "") + ".jsonl"
        self.path = os.path.join(self.directory, name)
        self._memory: Dict[str, List[Dict]] = {}
        self._handle: Optional[BinaryIO] = None
        self._load()

    # -------------------------------------------------------------- interface
    def get(self, digest: str) -> Optional[List[Dict]]:
        return self._memory.get(digest)

    def put(self, digest: str, flows: List[Dict]) -> None:
        if self._memory.get(digest) == flows:
            return
        self._memory[digest] = flows
        handle = self._handle
        if handle is None:
            os.makedirs(self.directory, exist_ok=True)
            handle = self._handle = open(self.path, "ab")
        entry = {"format": _ENTRY_FORMAT, "spec": self.spec_key, "digest": digest, "flows": flows}
        # one write of one whole line, flushed at once: an append-mode file
        # takes it in one piece, so a shard's lines never interleave
        handle.write(json.dumps(entry, sort_keys=True).encode("utf-8") + b"\n")
        handle.flush()

    def close(self) -> None:
        """Close the shard; a later :meth:`put` opens it again."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, digest: str) -> bool:
        return digest in self._memory

    # -------------------------------------------------------------- disk layer
    def _load(self) -> None:
        for path in analysis_cache_files(self.directory):
            for entry in json_objects(path):
                if entry.get("format") != _ENTRY_FORMAT or entry.get("spec") != self.spec_key:
                    continue
                digest = entry.get("digest")
                flows = entry.get("flows")
                if not isinstance(digest, str) or not isinstance(flows, list):
                    continue
                self._memory[digest] = flows


# ------------------------------------------------------------------ compaction
def _analysis_key(entry: Dict) -> Tuple[str, str]:
    if not isinstance(entry["flows"], list):
        raise TypeError("flows must be a list")
    return (entry["spec"], entry["digest"])


def compact_analysis_cache_file(path: str) -> CompactionStats:
    """Rewrite one cache file keeping the last entry per ``(spec, digest)`` key.

    Same contract as :func:`repro.engine.cache.compact_cache_file`
    (:func:`repro.jsonl.compact_json_lines`): safe against crashes, not
    concurrent writers -- run it when no daemon is appending to this
    directory.
    """
    return compact_json_lines(path, _analysis_key)


def compact_analysis_cache_dir(directory: str) -> List[CompactionStats]:
    """Compact every cache file under *directory* (one stats record per file)."""
    return [compact_analysis_cache_file(path) for path in analysis_cache_files(directory)]


__all__ = [
    "ANALYSIS_CACHE_BASENAME",
    "AnalysisResultCache",
    "analysis_cache_files",
    "compact_analysis_cache_dir",
    "compact_analysis_cache_file",
]
