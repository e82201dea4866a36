"""JSON request/response API over the spec store and batch analyzer.

One request shape covers the whole serving path: pick a stored specification
(explicitly by id, or "latest for this library"), name a corpus of client
programs (a seeded :mod:`repro.benchgen` suite, optionally filtered to
specific apps), choose a worker count, and get back one
:class:`FlowReport` per program plus batch-level totals.  Everything is
plain-dict serializable, so requests can live in files, travel over a wire,
or be built programmatically -- :func:`handle_request` is the single entry
point the CLI, the examples, and the tests all share.

The entry point splits into two halves so callers with different lifetimes
can share the exact same request semantics:

* :func:`resolve_analyzer` -- the expensive half: resolve the request's spec
  id against a store and compile it to a :class:`ClientAnalyzer` (one-shot
  callers pay this per call; the :mod:`repro.server` daemon pays it once per
  warm worker and then reuses the analyzer across requests).
* :func:`run_request` -- the cheap half: build the corpus and fan it across
  the batch scheduler under an already-compiled analyzer.

``handle_request = run_request . resolve_analyzer``, so a daemon response is
bit-identical to a one-shot response for the same request document.

Example (one-shot, against a store that already holds a learned spec)::

    >>> from repro.service import AnalyzeRequest, SpecStore, SuiteSpec, handle_request
    >>> request = AnalyzeRequest(suite=SuiteSpec(count=3, max_statements=50))
    >>> response = handle_request(request, SpecStore(".repro-specs"))
    >>> [report.program for report in response.result.reports]
    ['App00', 'App01', 'App02']
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.benchgen.generator import GeneratedApp
from repro.benchgen.suite import benchmark_suite
from repro.library.registry import build_library_program
from repro.obs import trace as _trace
from repro.service.analyzer import ClientAnalyzer
from repro.service.batch import BatchAnalysisScheduler, BatchResult
from repro.service.store import SpecStore

REQUEST_FORMAT = "repro.service.analyze-request/1"
RESPONSE_FORMAT = "repro.service.analyze-response/1"


class UnknownAppsError(KeyError):
    """The request's ``apps`` filter names programs the suite does not contain.

    A distinct type (not a bare :class:`KeyError`) so transport layers can
    map *this* to a client error without accidentally reclassifying an
    internal ``KeyError`` from the analysis path as the client's fault.
    """


@dataclass(frozen=True)
class SuiteSpec:
    """The corpus half of a request: a deterministic generated suite.

    The same ``(count, seed, max_statements, min_statements)`` tuple always
    names the same programs, so a request document fully determines its
    corpus -- two services given the same ``SuiteSpec`` analyze identical
    inputs::

        >>> SuiteSpec.from_dict({"count": 3})           # sparse documents are fine
        SuiteSpec(count=3, seed=2018, max_statements=120, min_statements=30)
    """

    count: int = 20
    seed: int = 2018
    max_statements: int = 120
    min_statements: int = 30

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "seed": self.seed,
            "max_statements": self.max_statements,
            "min_statements": self.min_statements,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SuiteSpec":
        defaults = cls()
        return cls(
            count=int(data.get("count", defaults.count)),
            seed=int(data.get("seed", defaults.seed)),
            max_statements=int(data.get("max_statements", defaults.max_statements)),
            min_statements=int(data.get("min_statements", defaults.min_statements)),
        )


@dataclass(frozen=True)
class AnalyzeRequest:
    """One batch-analysis request.

    ``spec_id=None`` selects the latest stored specification for the
    library; ``apps`` (names from the generated suite) restricts the corpus;
    ``workers`` picks serial (``<= 1``) or process-pool execution.

    Wire documents are version-checked: :meth:`from_dict` rejects any
    ``format`` other than :data:`REQUEST_FORMAT`, so a client speaking a
    newer request dialect fails loudly instead of being half-understood::

        >>> AnalyzeRequest.from_dict({"suite": {"count": 5}, "workers": 2}).workers
        2
        >>> AnalyzeRequest.from_dict({"format": "repro.service.analyze-request/999"})
        Traceback (most recent call last):
            ...
        ValueError: unsupported request format 'repro.service.analyze-request/999'
    """

    suite: SuiteSpec = SuiteSpec()
    spec_id: Optional[str] = None
    workers: int = 0
    apps: Tuple[str, ...] = ()
    include_timing: bool = True

    def to_dict(self) -> Dict:
        return {
            "format": REQUEST_FORMAT,
            "suite": self.suite.to_dict(),
            "spec_id": self.spec_id,
            "workers": self.workers,
            "apps": list(self.apps),
            "include_timing": self.include_timing,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "AnalyzeRequest":
        declared = data.get("format", REQUEST_FORMAT)
        if declared != REQUEST_FORMAT:
            raise ValueError(f"unsupported request format {declared!r}")
        return cls(
            suite=SuiteSpec.from_dict(data.get("suite") or {}),
            spec_id=data.get("spec_id"),
            workers=int(data.get("workers", 0)),
            apps=tuple(data.get("apps") or ()),
            include_timing=bool(data.get("include_timing", True)),
        )


@dataclass
class AnalyzeResponse:
    """The answer to one :class:`AnalyzeRequest`."""

    spec_id: str
    request: AnalyzeRequest
    result: BatchResult

    def to_dict(self) -> Dict:
        payload = self.result.to_dict(include_timing=self.request.include_timing)
        payload["format"] = RESPONSE_FORMAT
        payload["spec_id"] = self.spec_id
        payload["request"] = self.request.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: Dict) -> "AnalyzeResponse":
        """Rebuild a response from its wire encoding.

        How the multi-process serving tier rehydrates a worker process's
        answer on the parent side (the shadow canary compares
        :class:`AnalyzeResponse` objects, not dicts).  Re-serializing the
        result reproduces the original document: key order is fixed by
        :meth:`to_dict`, and the canonical fields round-trip exactly.
        """
        declared = data.get("format", RESPONSE_FORMAT)
        if declared != RESPONSE_FORMAT:
            raise ValueError(f"unsupported response format {declared!r}")
        request = AnalyzeRequest.from_dict(data.get("request") or {})
        return cls(
            spec_id=data["spec_id"],
            request=request,
            result=BatchResult.from_dict(data),
        )


def canonical_request_key(request: AnalyzeRequest, resolved_spec_id: Optional[str]) -> str:
    """The coalescing identity of a request: one key per distinct answer.

    Two requests share a key exactly when the daemon must return the same
    canonical response for them.  The request document deterministically
    names its corpus (the seeded suite fixes every program, hence every
    :func:`repro.lang.serialize.program_digest`), so hashing the canonical
    request document plus the *resolved* spec id -- the explicit pin, or the
    currently served spec for unpinned requests -- is equivalent to hashing
    the program digests themselves, without generating the corpus on the
    front door's hot path.  Resolving the spec id *before* keying is what
    keeps a hot reload from coalescing requests across spec versions:
    unpinned requests that arrive after a swap hash differently.

    ``workers`` and ``include_timing`` stay in the key deliberately: they do
    not change the canonical flows, but they change the response document
    (timing fields, executor metadata), and coalesced followers receive the
    leader's bytes verbatim.
    """
    document = request.to_dict()
    document["spec_id"] = request.spec_id if request.spec_id is not None else resolved_spec_id
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def corpus_digest(request: AnalyzeRequest) -> str:
    """The content digest of the corpus a request names (order-sensitive).

    Materializes the deterministic suite and folds each program's
    :func:`repro.lang.serialize.program_digest` into one hash -- the
    ground-truth identity :func:`canonical_request_key` stands in for.  Used
    by tests to prove the stand-in is faithful (same suite document, same
    corpus digest; different seed, different digest); too expensive for the
    serving hot path itself.
    """
    from repro.lang.serialize import program_digest

    folded = hashlib.sha256()
    for app in build_corpus(request):
        folded.update(app.name.encode("utf-8"))
        folded.update(program_digest(app.program).encode("ascii"))
    return folded.hexdigest()


def resolve_analyzer(
    request: AnalyzeRequest,
    store: SpecStore,
    library_program=None,
    interface=None,
    analysis_cache_dir: Optional[str] = None,
) -> ClientAnalyzer:
    """Compile the specification a request names into a :class:`ClientAnalyzer`.

    This is the expensive, cacheable half of request handling: load the
    stored automaton (``request.spec_id``, or the latest record for the
    library when ``None``), regenerate its code-fragment specifications, and
    merge them with the library stubs and source/sink framework into one
    base program.  Raises
    :class:`~repro.service.store.SpecNotFoundError` when the store has no
    matching record.  One-shot callers (:func:`handle_request`) do this per
    call; the :mod:`repro.server` warm workers do it once and answer many
    requests from the result.
    """
    return ClientAnalyzer.from_store(
        store,
        spec_id=request.spec_id,
        library_program=library_program,
        interface=interface,
        analysis_cache_dir=analysis_cache_dir,
    )


def build_corpus(request: AnalyzeRequest) -> List[GeneratedApp]:
    """Materialize the deterministic client-program corpus a request names.

    Generates the seeded :mod:`repro.benchgen` suite described by
    ``request.suite`` and applies the optional ``request.apps`` name filter
    (preserving suite order).  Raises :class:`UnknownAppsError` when the
    filter names apps the suite does not contain -- a typo'd request fails
    instead of silently analyzing fewer programs.  ``count=0`` is legal and
    yields an empty corpus.
    """
    suite = benchmark_suite(
        count=request.suite.count,
        seed=request.suite.seed,
        max_statements=request.suite.max_statements,
        min_statements=request.suite.min_statements,
    )
    apps = list(suite)
    if request.apps:
        wanted = set(request.apps)
        unknown = wanted - {app.name for app in apps}
        if unknown:
            raise UnknownAppsError(f"unknown apps in request: {sorted(unknown)}")
        apps = [app for app in apps if app.name in wanted]
    return apps


def run_request(request: AnalyzeRequest, analyzer: ClientAnalyzer) -> AnalyzeResponse:
    """Answer a request under an already-compiled analyzer.

    The cheap half of request handling: build the corpus and fan it across
    the batch scheduler (``request.workers`` picks serial or process-pool).
    Because :meth:`FlowReport.canonical` excludes timing and batch merging
    is corpus-ordered, the response for a given ``(request, spec)`` pair is
    bit-identical whether the analyzer was compiled just now
    (:func:`handle_request`) or hours ago by a daemon worker.
    """
    with _trace.span(
        "service.request", workers=request.workers, spec_id=analyzer.spec_id or ""
    ):
        apps = build_corpus(request)
        scheduler = BatchAnalysisScheduler(analyzer, workers=request.workers)
        result = scheduler.analyze_apps(apps)
    return AnalyzeResponse(spec_id=analyzer.spec_id, request=request, result=result)


def handle_request(
    request: AnalyzeRequest,
    store: SpecStore,
    library_program=None,
    interface=None,
    analysis_cache_dir: Optional[str] = None,
) -> AnalyzeResponse:
    """Serve one request end to end: resolve specs, build corpus, analyze.

    The composition of :func:`resolve_analyzer` and :func:`run_request` --
    the single entry point shared by ``repro analyze``, ``repro
    serve-batch``, the examples, and (indirectly, via warm analyzers) the
    ``repro serve`` daemon::

        >>> response = handle_request(AnalyzeRequest(suite=SuiteSpec(count=2)), store)
        >>> response.spec_id == store.latest().spec_id
        True
    """
    library = library_program if library_program is not None else build_library_program()
    analyzer = resolve_analyzer(
        request,
        store,
        library_program=library,
        interface=interface,
        analysis_cache_dir=analysis_cache_dir,
    )
    try:
        return run_request(request, analyzer)
    finally:
        analyzer.close()


__all__ = [
    "AnalyzeRequest",
    "AnalyzeResponse",
    "SuiteSpec",
    "UnknownAppsError",
    "build_corpus",
    "canonical_request_key",
    "corpus_digest",
    "handle_request",
    "resolve_analyzer",
    "run_request",
]
