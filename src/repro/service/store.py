"""A versioned, persistent registry of learned specifications.

Learning specifications is the expensive half of the paper's pipeline; the
static client that consumes them is cheap.  The :class:`SpecStore` separates
the two: a completed :class:`~repro.learn.pipeline.AtlasResult` is persisted
once (via the canonical :mod:`repro.engine.persist` encoding) under a key of
``(library fingerprint, learner-config digest)``, and any number of later
analysis runs -- other processes, other machines sharing the directory --
load it back without re-deriving anything.

Store layout (everything under one root directory)::

    <root>/index.jsonl          append-only records, one JSON object per line
    <root>/specs/<spec_id>.json full atlas-result payloads

Each ``put`` for the same key allocates the next version number, so a
re-learned specification never overwrites its predecessor; ``latest`` answers
the common "current specs for this library" query.  Every record carries the
SHA-256 of its payload file, and ``get`` verifies it by default, so silent
payload corruption (or a payload edited by hand) is detected at load time
rather than as mysteriously wrong analysis results.

Versions additionally carry a **lifecycle state** (the control plane's
deploy machinery, :mod:`repro.plane`): ``active`` (the default -- servable),
``candidate`` (published but awaiting canary -- invisible to ``latest``),
``promoted`` (a candidate that passed its canary -- servable), and
``rolled_back`` (withdrawn -- invisible to ``latest``).  State changes are
append-only *transition* lines interleaved into the same index file, so the
daemon's "re-read the index" hot-reload story covers promotions and
rollbacks too: promoting a candidate makes the next ``latest`` poll return
it, rolling a version back makes the next poll fall back to its
predecessor.  ``provenance`` may name a ``parent`` spec id, forming the
lineage chain :meth:`SpecStore.lineage` walks.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.engine.cache import program_fingerprint
from repro.engine.persist import atlas_result_from_dict, atlas_result_to_dict
from repro.jsonl import json_objects
from repro.lang.program import Program
from repro.specs.variables import LibraryInterface

INDEX_FILENAME = "index.jsonl"
SPECS_DIRNAME = "specs"
RECORD_FORMAT = "repro.service.spec-record/1"
TRANSITION_FORMAT = "repro.service.spec-state/1"

STATE_ACTIVE = "active"
STATE_CANDIDATE = "candidate"
STATE_PROMOTED = "promoted"
STATE_ROLLED_BACK = "rolled_back"
SPEC_STATES = (STATE_ACTIVE, STATE_CANDIDATE, STATE_PROMOTED, STATE_ROLLED_BACK)
#: States ``latest`` is willing to serve.  Candidates stay invisible until a
#: canary promotes them; rolled-back versions disappear, exposing their
#: predecessor again.
SERVABLE_STATES = (STATE_ACTIVE, STATE_PROMOTED)


class SpecStoreError(Exception):
    """Base class of store failures."""


class SpecNotFoundError(SpecStoreError, KeyError):
    """No record (or payload) exists for the requested specification."""


class SpecIntegrityError(SpecStoreError):
    """A payload file does not match the checksum recorded at ``put`` time."""


def config_digest(config) -> str:
    """A stable content hash of an :class:`AtlasConfig`.

    Two configs with the same knob values digest identically regardless of
    object identity; any change to a knob (budget, seed, clusters, strategy)
    produces a new digest and therefore a new store key.
    """
    payload = asdict(config)
    payload["clusters"] = [list(cluster) for cluster in config.clusters]
    rendered = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SpecRecord:
    """One index entry: the metadata of one stored specification version.

    ``provenance`` is optional free-form metadata about where the version
    came from; the repair subsystem records which counterexamples drove a
    repaired version (base spec, divergence signatures, injected words) so
    an operator can answer "why did the served spec change?" from the index
    alone.  Records written before the field existed load with ``None``.

    ``state`` is the lifecycle state the version was *born* in (``None``
    means ``active``, the pre-lifecycle default); later transition lines
    override it -- always ask :meth:`SpecStore.current_state` rather than
    reading this field directly.  A ``provenance["parent"]`` naming another
    spec id links the version into a lineage chain.
    """

    spec_id: str
    fingerprint: str
    config_digest: str
    version: int
    sha256: str
    fsa_states: int
    fsa_transitions: int
    num_positives: int
    created_at: float
    provenance: Optional[Dict] = None
    state: Optional[str] = None

    @property
    def parent(self) -> Optional[str]:
        """The spec id this version was derived from, if its provenance says."""
        if not self.provenance:
            return None
        return self.provenance.get("parent")

    def to_dict(self) -> Dict:
        payload = asdict(self)
        payload["format"] = RECORD_FORMAT
        if self.provenance is None:
            del payload["provenance"]
        if self.state is None:
            del payload["state"]
        return payload

    @classmethod
    def from_dict(cls, data: Dict) -> "SpecRecord":
        return cls(
            spec_id=data["spec_id"],
            fingerprint=data["fingerprint"],
            config_digest=data["config_digest"],
            version=int(data["version"]),
            sha256=data["sha256"],
            fsa_states=int(data["fsa_states"]),
            fsa_transitions=int(data["fsa_transitions"]),
            num_positives=int(data["num_positives"]),
            created_at=float(data["created_at"]),
            provenance=data.get("provenance"),
            state=data.get("state"),
        )


def _spec_id(fingerprint: str, digest: str, version: int) -> str:
    return f"{fingerprint[:12]}-{digest[:12]}-v{version}"


def _sha256_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _matching(
    records: List[SpecRecord], fingerprint: Optional[str], config_digest: Optional[str]
) -> List[SpecRecord]:
    return [
        record
        for record in records
        if (fingerprint is None or record.fingerprint == fingerprint)
        and (config_digest is None or record.config_digest == config_digest)
    ]


def _current_states(records: List[SpecRecord], transitions: List[Dict]) -> Dict[str, str]:
    states = {record.spec_id: record.state or STATE_ACTIVE for record in records}
    for entry in transitions:
        if entry["spec_id"] in states:
            states[entry["spec_id"]] = entry["state"]
    return states


class SpecStore:
    """Registry of learned specifications under one root directory.

    The index is append-only JSON lines (same durability story as the oracle
    cache: a truncated trailing line from an interrupted ``put`` is skipped on
    load) and is re-read on every query, so several processes can share one
    store -- a ``put`` in one process is visible to a ``latest`` in another.
    That property is what makes the ``repro serve`` daemon's hot reload work:
    the daemon polls ``latest`` while a separate ``repro learn`` process
    ``put``s into the same directory.

    The full life cycle::

        >>> store = SpecStore(".repro-specs")
        >>> record = store.put(result, library_program=library)   # learn once
        >>> record.spec_id                                        # fp-digest-version
        'f16f62202a43-3fc43230362a-v1'
        >>> store.latest().spec_id == record.spec_id              # query many times
        True
        >>> reloaded = store.get(record.spec_id, interface=interface)
        >>> store.verify()                                        # checksum audit
        []
    """

    def __init__(self, root: str):
        self.root = str(root)

    # ----------------------------------------------------------------- layout
    @property
    def index_path(self) -> str:
        return os.path.join(self.root, INDEX_FILENAME)

    def spec_path(self, spec_id: str) -> str:
        return os.path.join(self.root, SPECS_DIRNAME, f"{spec_id}.json")

    # ------------------------------------------------------------------ index
    def _read_index(self):
        """One pass over the index: ``(records, transitions)`` in file order."""
        records: List[SpecRecord] = []
        transitions: List[Dict] = []
        if not os.path.exists(self.index_path):
            return records, transitions
        for data in json_objects(self.index_path):
            if not isinstance(data.get("spec_id"), str):
                continue  # spec ids key dicts: a foreign line's may not hash
            if data.get("format") == TRANSITION_FORMAT:
                if isinstance(data.get("state"), str):
                    transitions.append(data)
                continue
            try:
                record = SpecRecord.from_dict(data)
            except (KeyError, TypeError, ValueError):
                continue  # a line format this reader does not understand
            records.append(record)
        return records, transitions

    def records(self) -> List[SpecRecord]:
        """Every index record, in ``put`` order (oldest first)."""
        return self._read_index()[0]

    def transitions(self, spec_id: Optional[str] = None) -> List[Dict]:
        """State-transition lines in append order, optionally for one spec."""
        entries = self._read_index()[1]
        if spec_id is None:
            return entries
        return [entry for entry in entries if entry["spec_id"] == spec_id]

    def states(self) -> Dict[str, str]:
        """Current lifecycle state of every spec id (birth state, then
        overridden by each later transition line in append order)."""
        return _current_states(*self._read_index())

    def current_state(self, spec_id: str) -> str:
        """The lifecycle state of *spec_id* right now."""
        states = self.states()
        if spec_id not in states:
            raise SpecNotFoundError(spec_id)
        return states[spec_id]

    def set_state(self, spec_id: str, state: str, reason: str = "") -> Dict:
        """Append a state transition for *spec_id*; returns the index line.

        Transitions never rewrite history: the index keeps every state the
        version has ever been in, so a promotion followed by a rollback
        leaves both lines (and :meth:`transitions` shows the full trail).
        """
        if state not in SPEC_STATES:
            raise ValueError(f"unknown spec state {state!r} (want one of {SPEC_STATES})")
        self.record(spec_id)  # raises SpecNotFoundError for unknown ids
        entry = {
            "format": TRANSITION_FORMAT,
            "spec_id": spec_id,
            "state": state,
            "reason": reason,
            "at": time.time(),
        }
        os.makedirs(self.root, exist_ok=True)
        with open(self.index_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        return entry

    def list(
        self,
        fingerprint: Optional[str] = None,
        config_digest: Optional[str] = None,
    ) -> List[SpecRecord]:
        """Records filtered by library fingerprint and/or config digest."""
        return _matching(self.records(), fingerprint, config_digest)

    def latest(
        self,
        fingerprint: Optional[str] = None,
        config_digest: Optional[str] = None,
        servable_only: bool = True,
    ) -> Optional[SpecRecord]:
        """The most recently stored record matching the filters (or ``None``).

        By default only *servable* versions count (``active``/``promoted``):
        a freshly published ``candidate`` does not change what the daemon
        serves, and rolling a version back makes ``latest`` fall back to its
        predecessor.  Pass ``servable_only=False`` for the raw newest record
        regardless of state.
        """
        records, transitions = self._read_index()  # one pass: polled every few seconds
        matching = _matching(records, fingerprint, config_digest)
        if servable_only:
            states = _current_states(records, transitions)
            matching = [
                record
                for record in matching
                if states.get(record.spec_id) in SERVABLE_STATES
            ]
        return matching[-1] if matching else None

    def record(self, spec_id: str) -> SpecRecord:
        for entry in self.records():
            if entry.spec_id == spec_id:
                return entry
        raise SpecNotFoundError(spec_id)

    def __len__(self) -> int:
        return len(self.records())

    # ---------------------------------------------------------------- lineage
    def lineage(self, spec_id: str) -> List[SpecRecord]:
        """The ancestry chain of *spec_id*, newest first.

        Walks ``provenance["parent"]`` links until a version with no parent
        (or a parent missing from this store).  The first element is always
        *spec_id*'s own record; a root version yields a single-element list.
        """
        by_id = {record.spec_id: record for record in self.records()}
        if spec_id not in by_id:
            raise SpecNotFoundError(spec_id)
        chain: List[SpecRecord] = []
        seen = set()
        cursor: Optional[str] = spec_id
        while cursor is not None and cursor in by_id and cursor not in seen:
            seen.add(cursor)
            record = by_id[cursor]
            chain.append(record)
            cursor = record.parent
        return chain

    def lineage_depth(self, spec_id: str) -> int:
        """How many ancestors *spec_id* has (0 for a root version)."""
        return len(self.lineage(spec_id)) - 1

    # -------------------------------------------------------------------- put
    def put(
        self,
        result,
        library_program: Optional[Program] = None,
        fingerprint: Optional[str] = None,
        provenance: Optional[Dict] = None,
        state: Optional[str] = None,
    ) -> SpecRecord:
        """Store *result* as the next version of its ``(library, config)`` key.

        The key's library half comes from *library_program* (fingerprinted
        here) or a precomputed *fingerprint*; exactly one must be given.  The
        payload file is written atomically before the index line is appended,
        so a crash between the two leaves an orphaned payload, never a
        dangling index entry.  The version number is claimed by linking the
        payload into place with an exclusive ``os.link`` (which fails if the
        target exists), so two concurrent ``put``s for the same key get
        distinct versions instead of overwriting each other.

        *state* is the lifecycle state the version is born in; ``None``
        (the default) means immediately servable, ``"candidate"`` publishes
        a version that ``latest`` will not serve until something promotes it.
        """
        if (library_program is None) == (fingerprint is None):
            raise ValueError("put() needs exactly one of library_program or fingerprint")
        if state is not None and state not in SPEC_STATES:
            raise ValueError(f"unknown spec state {state!r} (want one of {SPEC_STATES})")
        if fingerprint is None:
            fingerprint = program_fingerprint(library_program)
        digest = config_digest(result.config)

        versions = [
            record.version
            for record in self.list(fingerprint=fingerprint, config_digest=digest)
        ]
        version = max(versions, default=0) + 1

        payload = json.dumps(atlas_result_to_dict(result), indent=1).encode("utf-8")
        specs_dir = os.path.join(self.root, SPECS_DIRNAME)
        os.makedirs(specs_dir, exist_ok=True)
        descriptor, temp_path = tempfile.mkstemp(prefix=".put-", dir=specs_dir)
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(payload)
            while True:
                spec_id = _spec_id(fingerprint, digest, version)
                try:
                    os.link(temp_path, self.spec_path(spec_id))
                    break
                except FileExistsError:  # a concurrent put claimed this version
                    version += 1
        finally:
            if os.path.exists(temp_path):
                os.unlink(temp_path)

        record = SpecRecord(
            spec_id=spec_id,
            fingerprint=fingerprint,
            config_digest=digest,
            version=version,
            sha256=_sha256_bytes(payload),
            fsa_states=result.fsa.num_states,
            fsa_transitions=result.fsa.num_transitions(),
            num_positives=len(result.positives),
            created_at=time.time(),
            provenance=provenance,
            state=state,
        )
        os.makedirs(self.root, exist_ok=True)
        with open(self.index_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        return record

    # -------------------------------------------------------------------- get
    def _read_payload(self, record: SpecRecord, verify: bool) -> Dict:
        path = self.spec_path(record.spec_id)
        if not os.path.exists(path):
            raise SpecNotFoundError(f"{record.spec_id} (payload file missing: {path})")
        with open(path, "rb") as handle:
            payload = handle.read()
        if verify:
            actual = _sha256_bytes(payload)
            if actual != record.sha256:
                raise SpecIntegrityError(
                    f"{record.spec_id}: payload checksum mismatch "
                    f"(index {record.sha256[:12]}…, file {actual[:12]}…)"
                )
        return json.loads(payload.decode("utf-8"))

    def get(
        self,
        spec_id: str,
        interface: Optional[LibraryInterface] = None,
        verify: bool = True,
    ):
        """Load the stored :class:`AtlasResult` for *spec_id*.

        With *interface* the code-fragment specification program is
        regenerated deterministically from the stored automaton (see
        :func:`repro.engine.persist.atlas_result_from_dict`); *verify*
        checks the payload against the recorded checksum first.
        """
        record = self.record(spec_id)
        data = self._read_payload(record, verify=verify)
        return atlas_result_from_dict(data, interface=interface)

    # ------------------------------------------------------------------ verify
    def verify_spec(self, spec_id: str) -> SpecRecord:
        """Checksum-verify one payload; raises :class:`SpecIntegrityError`.

        The promotion gate: a candidate whose payload was tampered with (or
        corrupted) between publish and promotion fails here and never
        becomes servable.
        """
        record = self.record(spec_id)
        self._read_payload(record, verify=True)
        return record

    def verify(self) -> List[str]:
        """Integrity-check every record; returns a list of problem strings."""
        problems: List[str] = []
        for record in self.records():
            try:
                self._read_payload(record, verify=True)
            except SpecStoreError as error:
                problems.append(str(error))
            except json.JSONDecodeError as error:
                problems.append(f"{record.spec_id}: unparseable payload ({error})")
        return problems


__all__ = [
    "SERVABLE_STATES",
    "SPEC_STATES",
    "STATE_ACTIVE",
    "STATE_CANDIDATE",
    "STATE_PROMOTED",
    "STATE_ROLLED_BACK",
    "SpecIntegrityError",
    "SpecNotFoundError",
    "SpecRecord",
    "SpecStore",
    "SpecStoreError",
    "config_digest",
]
