"""Content-addressed, persistent oracle result store.

The oracle's answer for a candidate word is fully determined by four
inputs: the word itself, the variable-initialization strategy, the library
implementation the witness runs against, and the interpreter step budget
(exceeding it fails the witness).  The cache therefore keys every entry by
``(library fingerprint, initialization, max_steps, word)`` -- a second run
with an unchanged library answers every repeated query from disk without
executing a single witness, while any edit to the library changes the
fingerprint and transparently invalidates the stored answers.

The on-disk format is JSON lines (one entry per line, append-only), which
survives crashes mid-write (a truncated last line is skipped on load) and
lets several runs with different fingerprints share one file.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.jsonl import CompactionStats, compact_json_lines, json_objects
from repro.lang.pretty import pretty_program
from repro.lang.program import Program
from repro.learn.oracle import DEFAULT_MAX_STEPS, DictCache
from repro.specs.variables import SpecVariable

Word = Tuple[SpecVariable, ...]

#: Re-exported so engine users need one import for both backends.
InMemoryCache = DictCache

_FIELD_SEPARATOR = "|"


# ------------------------------------------------------------------ fingerprint
def program_fingerprint(program: Program) -> str:
    """A stable content hash of a library implementation.

    The fingerprint is the SHA-256 of the pretty-printed program, so it is
    insensitive to object identity but changes whenever any statement,
    signature, or class of the library changes.
    """
    rendered = pretty_program(program)
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------ word codec
def encode_variable(variable: SpecVariable) -> str:
    """Encode a specification variable as a compact, reversible string."""
    return _FIELD_SEPARATOR.join(
        (variable.kind, variable.class_name, variable.method_name, variable.name)
    )


def decode_variable(text: str) -> SpecVariable:
    kind, class_name, method_name, name = text.split(_FIELD_SEPARATOR)
    return SpecVariable(class_name=class_name, method_name=method_name, kind=kind, name=name)


def encode_word(word: Word) -> Tuple[str, ...]:
    return tuple(encode_variable(variable) for variable in word)


def decode_word(encoded) -> Word:
    return tuple(decode_variable(text) for text in encoded)


# ------------------------------------------------------------------ persistent
class PersistentCache:
    """A two-layer oracle cache: an in-memory dict over a JSON-lines file.

    The backend satisfies the :class:`repro.learn.oracle.WitnessOracle` cache
    interface (``get``/``put``/``items``).  Lookups always hit the in-memory
    layer; writes go to memory immediately and are buffered for the disk
    layer until :meth:`flush` (or ``close``/context-manager exit) appends
    them to the file.  Entries recorded under a different library fingerprint
    or initialization strategy are preserved in the file but invisible to
    this instance.
    """

    def __init__(
        self,
        path: str,
        fingerprint: str,
        initialization: str = "instantiation",
        max_steps: int = DEFAULT_MAX_STEPS,
    ):
        self.path = str(path)
        self.fingerprint = fingerprint
        self.initialization = initialization
        self.max_steps = max_steps
        self._memory: Dict[Word, bool] = {}
        self._pending: Dict[Word, bool] = {}
        self._load()

    # -------------------------------------------------------------- interface
    def get(self, word: Word) -> Optional[bool]:
        return self._memory.get(word)

    def put(self, word: Word, result: bool) -> None:
        if self._memory.get(word) == result:
            return
        self._memory[word] = result
        self._pending[word] = result

    def items(self) -> Iterator[Tuple[Word, bool]]:
        return iter(self._memory.items())

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, word: Word) -> bool:
        return word in self._memory

    # -------------------------------------------------------------- disk layer
    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        for entry in json_objects(self.path):
            if entry.get("fp") != self.fingerprint:
                continue
            if entry.get("init") != self.initialization:
                continue
            if entry.get("steps") != self.max_steps:
                continue
            result = entry.get("result")
            if not isinstance(result, bool):
                continue
            try:
                word = decode_word(entry["word"])
            except (AttributeError, KeyError, TypeError, ValueError):
                continue  # not a word this codec wrote
            self._memory[word] = result

    def flush(self) -> int:
        """Append pending entries to the file; returns how many were written."""
        if not self._pending:
            return 0
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            for word, result in self._pending.items():
                handle.write(
                    json.dumps(
                        {
                            "fp": self.fingerprint,
                            "init": self.initialization,
                            "steps": self.max_steps,
                            "word": encode_word(word),
                            "result": result,
                        }
                    )
                    + "\n"
                )
        written = len(self._pending)
        self._pending.clear()
        return written

    def close(self) -> None:
        self.flush()

    @property
    def pending_entries(self) -> int:
        return len(self._pending)

    def compact(self) -> "CompactionStats":
        """Flush pending writes, then compact the backing file in place."""
        self.flush()
        return compact_cache_file(self.path)

    # ---------------------------------------------------------- context manager
    def __enter__(self) -> "PersistentCache":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


# ------------------------------------------------------------------ compaction
def _oracle_key(entry: Dict) -> Tuple:
    bool(entry["result"])  # an entry without an answer is malformed
    return (entry["fp"], entry["init"], entry["steps"], tuple(entry["word"]))


def compact_cache_file(path: str) -> CompactionStats:
    """Rewrite an append-only JSON-lines cache file without superseded lines.

    An append-only store accumulates one line per ``put``; a key written twice
    (or a line corrupted by an interrupted run) leaves dead weight that every
    subsequent load must scan.  Compaction keeps the *last* entry per key
    ``(fingerprint, initialization, max_steps, word)`` and replaces the file
    atomically (:func:`repro.jsonl.compact_json_lines`).  Entries of every
    fingerprint sharing the file are preserved.

    Run it when no other run is flushing this cache: lines appended between
    the read pass and the replace are lost (the runner's ``--compact-cache``
    therefore compacts after its experiments finish).
    """
    return compact_json_lines(path, _oracle_key)


def open_oracle_cache(
    path: str,
    library_program: Program,
    initialization: str = "instantiation",
    max_steps: int = DEFAULT_MAX_STEPS,
) -> PersistentCache:
    """Open the persistent oracle cache for *library_program* at *path*."""
    return PersistentCache(
        path,
        fingerprint=program_fingerprint(library_program),
        initialization=initialization,
        max_steps=max_steps,
    )


__all__ = [
    "CompactionStats",
    "InMemoryCache",
    "PersistentCache",
    "compact_cache_file",
    "decode_variable",
    "decode_word",
    "encode_variable",
    "encode_word",
    "open_oracle_cache",
    "program_fingerprint",
]
