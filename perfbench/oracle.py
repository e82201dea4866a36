"""Reference answers and the per-response correctness check.

The oracle is the one the ROADMAP keeps for testing: the reference
``AndersenAnalysis`` plus ``InformationFlowAnalysis`` over the merged program
(client + base), with flows in canonical order.  Answers are keyed by the spec
fingerprint and the client's canonical program digest, and stored as a digest
of the canonical flow list.  The spec fingerprint is the canonical
``repro.lang.serialize`` digest of the merged base program, not
``repro.engine.cache.program_fingerprint``: the latter hashes the pretty-printed
base, whose class order follows set iteration and so changes with the
interpreter's hash seed from one process to the next.

``answers.json`` ships the answers for every document of the workload
universes (:func:`perfbench.workloads.universe_docs`), so a run normally
computes nothing.  A miss -- the generator or the spec changed -- is computed
with the oracle before the daemon starts, outside every timed window, and
kept in a cache file under the run directory for later runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

from repro.client.taint import InformationFlowAnalysis
from repro.lang.serialize import program_digest
from repro.pointsto.andersen import AndersenAnalysis

ANSWERS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers.json")
ANSWERS_FORMAT = "perfbench.answers/1"
#: hex digits kept of each SHA-256 digest (128 bits) in the answer tables
DIGEST_CHARS = 32

_FLOW_FIELDS = (
    "source_class",
    "source_method",
    "sink_class",
    "sink_method",
    "sink_caller_class",
    "sink_caller_method",
    "sink_statement_index",
)


def flows_digest(flows: List[Dict]) -> str:
    """Digest of a canonical flow list (order-sensitive, like the wire form)."""
    encoded = json.dumps(flows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:DIGEST_CHARS]


def reference_flows(program, base_program) -> List[Dict]:
    """The oracle's canonical flows for *program* under *base_program*."""
    merged = program.merged_with(base_program)
    points_to = AndersenAnalysis(merged).run()
    report = InformationFlowAnalysis(merged).run(points_to=points_to)
    rows = sorted(tuple(getattr(flow, name) for name in _FLOW_FIELDS) for flow in report.flows)
    return [dict(zip(_FLOW_FIELDS, row)) for row in rows]


class ReferenceAnswers:
    """Expected flow digests by program digest, for one spec fingerprint."""

    def __init__(self, base_program, cache_path: str, table_path: str = ANSWERS_PATH):
        self.base_program = base_program
        self.spec_fingerprint = program_digest(base_program)
        self.cache_path = cache_path
        self.computed = 0
        self._answers: Dict[str, str] = {}
        if os.path.exists(table_path):
            with open(table_path, "r", encoding="utf-8") as handle:
                table = json.load(handle)
            self._answers.update(table.get("answers", {}).get(self.spec_fingerprint, {}))
        if os.path.exists(cache_path):
            with open(cache_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    try:
                        entry = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn line from an interrupted run
                    if entry.get("spec") == self.spec_fingerprint:
                        self._answers[entry["program"]] = entry["flows"]

    def expected(self, program) -> str:
        """The expected flow digest for *program*, computing it on a miss."""
        return self._lookup(program_digest(program)[:DIGEST_CHARS], program)

    def _lookup(self, digest: str, program) -> str:
        answer = self._answers.get(digest)
        if answer is None:
            answer = flows_digest(reference_flows(program, self.base_program))
            self._answers[digest] = answer
            self.computed += 1
            os.makedirs(os.path.dirname(self.cache_path), exist_ok=True)
            with open(self.cache_path, "a", encoding="utf-8") as handle:
                entry = {"spec": self.spec_fingerprint, "program": digest, "flows": answer}
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        return answer

    def table(self, programs) -> Dict:
        """The answers for *programs* in the shipped ``answers.json`` layout."""
        answers = {}
        for program in programs:
            digest = program_digest(program)[:DIGEST_CHARS]
            answers[digest] = self._lookup(digest, program)
        return {
            "format": ANSWERS_FORMAT,
            "answers": {self.spec_fingerprint: dict(sorted(answers.items()))},
        }


def check_response(status: int, body: bytes, spec_id: str, expected: str) -> Optional[str]:
    """``None`` when a response is the reference answer, else why it is not.

    A correct response is a 200 whose document and single report name the
    served spec id and whose canonical flows digest to *expected*.
    """
    if status != 200:
        return f"status {status}"
    try:
        document = json.loads(body)
        reports = document["reports"]
        if document["spec_id"] != spec_id:
            return f"spec id {document['spec_id']!r} != {spec_id!r}"
        if len(reports) != 1:
            return f"{len(reports)} reports for a one-program suite"
        if reports[0]["spec_id"] != spec_id:
            return f"report spec id {reports[0]['spec_id']!r} != {spec_id!r}"
        if flows_digest(reports[0]["flows"]) != expected:
            return "flows differ from the reference answer"
    except (ValueError, KeyError, TypeError) as error:
        return f"malformed response: {type(error).__name__}: {error}"
    return None
