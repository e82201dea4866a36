"""Tolerant reading of append-only JSON-lines files.

Four stores in the tree are append-only JSON lines: the oracle cache
(:mod:`repro.engine.cache`), the analysis cache (:mod:`repro.solve.cache`),
the spec store's index (:mod:`repro.service.store`) and the telemetry
journal (:mod:`repro.obs.journal`).  Each must survive lines it cannot use:
a torn tail left by a killed writer, bytes that are not UTF-8, or a foreign
line that parses as JSON but is not an object.  This module is that shared
tolerance; each reader still checks its own fields and skips the lines that
fail them.  It imports nothing from ``repro``, so any layer can use it.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, Optional, Tuple, Union


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


__all__ = ["json_lines", "json_object", "json_objects"]
