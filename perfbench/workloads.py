"""Seeded request documents for the serving workloads.

Every request document names a one-program :mod:`repro.benchgen` suite, which
the daemon regenerates server-side.  The benchmark seed picks every suite
seed, size and edit session, but only from fixed *universes* of suites, so the
reference answers for a whole universe can be computed once and shipped with
the benchmark (``answers.json``, see :mod:`perfbench.oracle`).  A universe is
only somewhat larger than one run's draw from it: per-program solve cost is
skewed (p90 about 1.4x and p99 about 2.3x the median), so a run that drew 270
programs out of thousands would move its tail with the draw, not with the
daemon.

* ``cold`` -- each request names a suite never seen before in the run
  (30-60 statements): a cold compiled solve plus a cache write every time.
* ``edit`` -- :data:`EDIT_SESSIONS` concurrent sessions, served round-robin.
  A session walks one *chain*: :data:`EDIT_CHAIN` distinct successive
  versions of one program, made by growing ``max_statements``, each
  appending 2-3 statements to the previous version (incremental re-solve),
  then restarts with a new program (cold).  Fewer sessions than the engine
  keeps snapshots per worker, so a session's previous version is always
  still in the pool of the worker that solved it.  Every chain has the same
  length, so a fifth of the requests are cold starts, and they arrive four
  in a row.  The median latency then sits among appends of near-equal cost,
  and the p90 at the middle of the cold starts.  With chains of 6-8 versions
  whose appends ranged from 2 to 12 statements, the median sat where the
  append costs spread out: over ten runs it spread up to 0.33 of itself
  while the CPU per request spread 0.09.
* ``hit`` -- a high rate over a small working set that set-up has cached on
  every worker, so the solver does nothing.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lang.serialize import program_to_dict
from repro.service.api import AnalyzeRequest, build_corpus
from repro.solve.delta import extension_starts

#: offered open-loop rate in requests/second.  Closed-loop capacity with two
#: connections on a 2-vCPU host at the seed commit is 29 (cold), 63 (edit) and
#: 730 (hit) req/s.  Requests are due every 1/rate seconds; keeping that gap
#: well above the cold solves stops requests from overlapping them, where a
#: slower host would tip more requests onto the second worker (on ``edit``,
#: without the session's snapshot) and move the latency far more than the
#: host slowed.
RATES: Dict[str, float] = {"cold": 6.0, "edit": 8.0, "hit": 150.0}

#: the cold universe: suite seeds COLD_SEED_BASE + k, sizes 30..60.  A run of
#: 45 s draws 278 of them (warm-up included).
COLD_SEED_BASE = 100_000
COLD_UNIVERSE = 288
#: the edit universe: the first EDIT_UNIVERSE chains found from suite seed
#: EDIT_SEED_BASE up.  A run of 45 s uses 72 to 76 of them.
EDIT_SEED_BASE = 200_000
EDIT_UNIVERSE = 80
EDIT_SIZES = range(20, 51)
EDIT_CHAIN = 5
#: fewest and most statements each version of a chain appends to the last
EDIT_APPEND = (2, 3)
EDIT_SESSIONS = 4  # < the 8 snapshots the compiled engine keeps per worker
#: the edit universe as found by :func:`find_edit_chains`; searching takes
#: 15-20 s, so it is shipped (``run.py --write-answers`` rebuilds it)
EDIT_CHAINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "edit_chains.json")
HIT_WORKING_SET = 16
#: distinct documents set-up uses to get an answer from every worker
WARMUP_DOCS = 8


def suite_doc(seed: int, size: int) -> Dict:
    """The request document naming the one-program suite ``(seed, size)``."""
    return {"suite": {"count": 1, "seed": seed, "max_statements": size}}


def doc_key(doc: Dict) -> Tuple[int, int]:
    suite = doc["suite"]
    return suite["seed"], suite["max_statements"]


def program_of(doc: Dict):
    """The program the daemon regenerates for *doc*."""
    return build_corpus(AnalyzeRequest.from_dict(doc))[0].program


def cold_doc(index: int) -> Dict:
    seed = COLD_SEED_BASE + index
    return suite_doc(seed, 30 + seed % 31)


def _chain(seed: int) -> Optional[List[Dict]]:
    """The first chain suite *seed* yields as ``max_statements`` grows, if any.

    Walks :data:`EDIT_SIZES` and keeps each version that appends
    ``EDIT_APPEND`` statements to the last version kept.  A version that
    appends fewer is skipped.  Any other version -- a bigger step, or one that
    adds a method and so no longer extends the last -- starts the chain again
    from itself.
    """
    fewest, most = EDIT_APPEND
    kept: List[Tuple[Dict, Dict, int]] = []  # (document, canonical program, statements)
    for size in EDIT_SIZES:
        doc = suite_doc(seed, size)
        program = program_of(doc)
        encoded, statements = program_to_dict(program), program.statement_count()
        if kept:
            added = statements - kept[-1][2]
            if added < fewest:
                continue
            if added > most or extension_starts(kept[-1][1], encoded) is None:
                kept = []
        kept.append((doc, encoded, statements))
        if len(kept) == EDIT_CHAIN:
            return [doc for doc, _encoded, _statements in kept]
    return None


def _chain_params() -> Dict:
    return {
        "seed_base": EDIT_SEED_BASE,
        "sizes": [EDIT_SIZES.start, EDIT_SIZES.stop],
        "chain": EDIT_CHAIN,
        "append": list(EDIT_APPEND),
    }


def find_edit_chains(count: int) -> List[List[Dict]]:
    """The first *count* chains, from suite seeds counting up from EDIT_SEED_BASE."""
    chains: List[List[Dict]] = []
    seed = EDIT_SEED_BASE
    while len(chains) < count:
        chain = _chain(seed)
        if chain is not None:
            chains.append(chain)
        seed += 1
    return chains


def write_edit_chains(count: int = EDIT_UNIVERSE) -> List[List[Dict]]:
    """Search the edit universe and store it at :data:`EDIT_CHAINS_PATH`."""
    chains = find_edit_chains(count)
    with open(EDIT_CHAINS_PATH, "w", encoding="utf-8") as handle:
        json.dump({"params": _chain_params(), "chains": chains}, handle, indent=0)
        handle.write("\n")
    return chains


def edit_chains(count: int = EDIT_UNIVERSE) -> List[List[Dict]]:
    """The first *count* chains: read from the shipped file when it has them."""
    if os.path.exists(EDIT_CHAINS_PATH):
        with open(EDIT_CHAINS_PATH, "r", encoding="utf-8") as handle:
            shipped = json.load(handle)
        if shipped.get("params") == _chain_params() and len(shipped["chains"]) >= count:
            return shipped["chains"][:count]
    return find_edit_chains(count)


@dataclass
class Plan:
    """Everything one run sends, derived from ``(workload, seed, seconds)``."""

    workload: str
    seed: int
    rate: float
    warmup: List[Dict]
    working_set: List[Dict]  # hit only: cached on every worker before timing
    requests: List[Dict]  # request i is due at i / rate


def _sample_cold(rng: random.Random, count: int) -> List[Dict]:
    universe = max(COLD_UNIVERSE, count)
    return [cold_doc(index) for index in rng.sample(range(universe), count)]


def _edit_requests(rng: random.Random, count: int) -> List[Dict]:
    # enough chains for the run even when --seconds outgrows the universe
    universe = edit_chains(max(EDIT_UNIVERSE, count // EDIT_CHAIN + EDIT_SESSIONS))
    chains: Iterator[List[Dict]] = iter(rng.sample(universe, len(universe)))
    sessions: List[List[Dict]] = [[] for _ in range(EDIT_SESSIONS)]
    requests = []
    for index in range(count):
        session = sessions[index % EDIT_SESSIONS]
        if not session:
            session.extend(next(chains))
        requests.append(session.pop(0))
    return requests


def make_plan(workload: str, seed: int, seconds: float) -> Plan:
    if workload not in RATES:
        raise ValueError(f"unknown workload {workload!r} (expected one of {sorted(RATES)})")
    rate = RATES[workload]
    count = max(1, int(rate * seconds))
    rng = random.Random(f"perfbench:{workload}:{seed}")
    working_set: List[Dict] = []
    if workload == "cold":
        docs = _sample_cold(rng, WARMUP_DOCS + count)
        warmup, requests = docs[:WARMUP_DOCS], docs[WARMUP_DOCS:]
    elif workload == "edit":
        warmup = _sample_cold(rng, WARMUP_DOCS)
        requests = _edit_requests(rng, count)
    else:
        docs = _sample_cold(rng, WARMUP_DOCS + HIT_WORKING_SET)
        warmup, working_set = docs[:WARMUP_DOCS], docs[WARMUP_DOCS:]
        requests = [rng.choice(working_set) for _ in range(count)]
    return Plan(workload, seed, rate, warmup, working_set, requests)


def universe_docs() -> List[Dict]:
    """Every document of the shipped universes (for ``--write-answers``)."""
    docs = [cold_doc(index) for index in range(COLD_UNIVERSE)]
    for chain in edit_chains(EDIT_UNIVERSE):
        docs.extend(chain)
    return docs
