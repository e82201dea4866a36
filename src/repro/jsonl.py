"""Tolerant reading and atomic compaction of append-only JSON-lines files.

Four stores in the tree are append-only JSON lines: the oracle cache
(:mod:`repro.engine.cache`), the analysis cache (:mod:`repro.solve.cache`),
the spec store's index (:mod:`repro.service.store`) and the telemetry
journal (:mod:`repro.obs.journal`).  Each must survive lines it cannot use:
a torn tail left by a killed writer, bytes that are not UTF-8, or a foreign
line that parses as JSON but is not an object.  This module is that shared
tolerance; each reader still checks its own fields and skips the lines that
fail them.  The two caches also share one compaction,
:func:`compact_json_lines`, and differ only in their key function.  The
module imports nothing from ``repro``, so any layer can use it.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterator, Optional, Tuple, Union


def json_object(line: Union[str, bytes]) -> Optional[Dict]:
    """The JSON object one line holds, or ``None`` when it holds none.

    ``None`` covers torn or otherwise invalid JSON, bytes that are not
    UTF-8, nesting too deep to decode, and JSON values that are not objects.
    """
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        value = json.loads(line)
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None
    return value if isinstance(value, dict) else None


def json_lines(path: str) -> Iterator[Tuple[bytes, Optional[Dict]]]:
    """Each non-blank line of *path* as ``(raw bytes, json_object(raw))``.

    For rewriters that keep a line's exact bytes and count what they drop;
    readers want :func:`json_objects`.
    """
    with open(path, "rb") as handle:
        for raw in handle:
            raw = raw.strip()
            if raw:
                yield raw, json_object(raw)


def json_objects(path: str) -> Iterator[Dict]:
    """The JSON objects of *path*'s lines, in file order; other lines are skipped."""
    return (value for _raw, value in json_lines(path) if value is not None)


@dataclass(frozen=True)
class CompactionStats:
    """What a cache-file compaction did."""

    path: str
    lines_before: int
    lines_after: int
    malformed_dropped: int
    superseded_dropped: int

    @property
    def lines_dropped(self) -> int:
        return self.lines_before - self.lines_after


def compact_json_lines(path: str, key: Callable[[Dict], Hashable]) -> CompactionStats:
    """Rewrite *path* keeping only the last line per ``key(entry)``.

    The last line for a key wins -- matching load semantics, where later
    lines win -- but the key keeps its first-seen position.  A line is
    malformed, and dropped, when it holds no JSON object or when *key*
    raises ``KeyError`` or ``TypeError`` on it (so does a key that cannot
    be hashed).  The file is replaced atomically (a temporary file in the
    same directory, then ``os.replace``), so a crash mid-compaction never
    loses data.  That is safe against crashes, not against concurrent
    writers: lines appended between the read pass and the replace are lost.
    A missing file is left missing.
    """
    if not os.path.exists(path):
        return CompactionStats(path, 0, 0, 0, 0)
    lines_before = malformed = 0
    entries: Dict[Hashable, bytes] = {}
    for line, entry in json_lines(path):
        lines_before += 1
        try:  # a line that holds no object (entry is None) fails here too
            entries[key(entry)] = line
        except (KeyError, TypeError):
            malformed += 1
    descriptor, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".compact-", dir=os.path.dirname(path) or "."
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            for line in entries.values():
                handle.write(line + b"\n")
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    return CompactionStats(
        path=path,
        lines_before=lines_before,
        lines_after=len(entries),
        malformed_dropped=malformed,
        superseded_dropped=lines_before - malformed - len(entries),
    )


__all__ = [
    "CompactionStats",
    "compact_json_lines",
    "json_lines",
    "json_object",
    "json_objects",
]
