"""Launching, warming, observing and stopping a ``repro serve`` daemon.

The daemon runs in its own session (``python -m repro.cli serve``) with the
compiled engine and the analysis cache selected through ``REPRO_SOLVER`` and
``REPRO_ANALYSIS_CACHE``.  Everything the benchmark learns about it comes
from outside: HTTP (``/healthz``, ``/metrics``, response headers), ``/proc``
(CPU time and peak memory of the parent and its worker processes) and the
analysis cache directory.

Each worker process appends its cache writes to its own shard file in the
shared cache directory and loads the directory only at start.  A worker's
shard therefore lists exactly the programs that worker solved, which is how
set-up knows that every worker has answered a warm-up request and, for
``hit``, holds the whole working set.
"""

from __future__ import annotations

import glob
import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Set, Tuple

from perfbench.loadgen import send_all

LISTEN_TIMEOUT_SECONDS = 60.0
WARM_TIMEOUT_SECONDS = 120.0
STOP_TIMEOUT_SECONDS = 30.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_LISTENING = re.compile(r"listening on http://([^:/\s]+):(\d+)")


def seed_store(root: str, store: str) -> None:
    """``repro plane seed --pipeline ground_truth`` into a fresh store."""
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "plane", "seed", "--store", store,
         "--pipeline", "ground_truth"],
        cwd=root, env=repro_env(root), check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def repro_env(root: str, **extra: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.update(extra)
    return env


# ------------------------------------------------------------------ /proc
def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        text = handle.read()
    return text[text.rindex(")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    """User + system CPU of every thread of *pid*, in seconds."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def host_steal() -> Tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole machine so far, from ``/proc/stat``."""
    with open("/proc/stat", "r", encoding="ascii") as handle:
        ticks = [int(value) for value in handle.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def children(pid: int) -> List[int]:
    found: List[int] = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path, "r", encoding="ascii") as handle:
                found.extend(int(token) for token in handle.read().split())
        except OSError:
            continue  # the thread exited between glob and open
    return sorted(set(found))


def _alive(pid: int) -> bool:
    try:
        return _stat_fields(pid)[0] != "Z"
    except OSError:
        return False


# ------------------------------------------------------------------ daemon
class Daemon:
    """One ``repro serve --processes N`` instance on a freshly seeded store."""

    def __init__(self, root: str, workdir: str, processes: int):
        self.root = root
        self.store = os.path.join(workdir, "store")
        self.cache = os.path.join(workdir, "analysis-cache")
        self.processes = processes
        self.host = "127.0.0.1"
        self.port = 0
        self.spec_id = ""
        self.workers: List[int] = []
        self._proc: Optional[subprocess.Popen] = None
        self._stderr: List[str] = []
        self._drain: Optional[threading.Thread] = None
        seed_store(root, self.store)

    @property
    def pid(self) -> int:
        return self._proc.pid

    def launch(self) -> None:
        """Start the daemon and wait until it listens and names its workers."""
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", self.store,
             "--host", self.host, "--port", "0", "--processes", str(self.processes)],
            cwd=self.root,
            env=repro_env(self.root, REPRO_SOLVER="compiled", REPRO_ANALYSIS_CACHE=self.cache),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        deadline = time.monotonic() + LISTEN_TIMEOUT_SECONDS
        while True:
            line = self._proc.stderr.readline()
            if not line:
                raise RuntimeError("daemon exited before listening:\n" + "".join(self._stderr))
            self._stderr.append(line)
            match = _LISTENING.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not report a listening address")
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()
        health = self.get_json("/healthz")
        self.spec_id = health["spec_id"]
        self.workers = children(self.pid)
        if len(self.workers) != self.processes:
            raise RuntimeError(
                f"expected {self.processes} worker processes, found {self.workers}"
            )

    def _drain_stderr(self) -> None:
        for line in self._proc.stderr:
            self._stderr.append(line)

    def get_json(self, path: str) -> Dict:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return json.loads(response.read())
        finally:
            connection.close()

    # --------------------------------------------------------------- set-up
    def shard_digests(self) -> List[Set[str]]:
        """The program digests each worker's cache shard holds."""
        shards = []
        for path in sorted(glob.glob(os.path.join(self.cache, "analysis-cache*.jsonl"))):
            digests = set()
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    try:
                        digests.add(json.loads(line)["digest"])
                    except (ValueError, KeyError, TypeError):
                        continue  # a line still being appended
            shards.append(digests)
        return shards

    def warm(self, docs: List[Dict], required: Iterable[str] = (), seed: int = 0) -> None:
        """Send *docs* until every worker answered one and holds every *required* digest.

        Rounds go out over one connection per worker, so the least-loaded
        router spreads them; with *required* each round resends the whole
        list in a new order until every shard contains every digest.
        """
        required = set(required)
        rng = random.Random(seed)
        bodies = [json.dumps(doc).encode("utf-8") for doc in docs]
        deadline = time.monotonic() + WARM_TIMEOUT_SECONDS
        cursor = 0
        while True:
            if required:
                batch = rng.sample(bodies, len(bodies))
            else:
                batch = [bodies[(cursor + k) % len(bodies)] for k in range(self.processes)]
                cursor += self.processes
            for sample in send_all(self.host, self.port, batch, self.processes):
                if sample.status != 200:
                    raise RuntimeError(f"warm-up request failed: {sample.status} {sample.error}")
            shards = self.shard_digests()
            ready = [shard for shard in shards if shard and required <= shard]
            if len(ready) >= self.processes:
                return
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"workers not warm after {WARM_TIMEOUT_SECONDS:.0f}s "
                    f"({len(ready)} of {self.processes} shards ready)"
                )

    # --------------------------------------------------------------- observation
    def pids(self) -> List[int]:
        return [self.pid] + self.workers

    def cpu(self) -> Dict[int, float]:
        return {pid: cpu_seconds(pid) for pid in self.pids()}

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_kb(pid) for pid in self.pids()) / 1024.0

    # --------------------------------------------------------------- teardown
    def stop(self) -> None:
        """SIGTERM the daemon and wait until it and every worker have exited."""
        if self._proc is None:
            return
        pids = self.pids() if self.workers else [self.pid]
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGTERM)
        try:
            self._proc.wait(STOP_TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            os.killpg(self._proc.pid, signal.SIGKILL)
            self._proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_SECONDS
        while any(_alive(pid) for pid in pids[1:]):
            if time.monotonic() > deadline:
                for pid in pids[1:]:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                deadline = float("inf")
            time.sleep(0.05)
        if self._drain is not None:
            self._drain.join(5.0)
        self._proc.stderr.close()
        self._proc = None
