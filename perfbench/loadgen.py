"""Open-loop HTTP load from one process over a few keep-alive connections.

Request *i* is due at ``i / rate`` after the start.  Each of at most ``nproc``
threads holds one keep-alive connection, takes the next request, sleeps until
it is due, sends it and reads the whole response.  Latency runs from the due
time to the last response byte, so a stalled daemon (or a stalled generator)
shows up as latency instead of as a lighter load.  Requests are never
retried; a transport error is recorded and the connection re-opened.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: socket timeout per request; a request slower than this counts as failed
REQUEST_TIMEOUT_SECONDS = 60.0


@dataclass
class Sample:
    """One request as the generator saw it (perf_counter seconds)."""

    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    server_timing: str = ""
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def service(self) -> float:
        return self.done - self.sent

    @property
    def lateness(self) -> float:
        return self.sent - self.due


def parse_server_timing(header: str) -> Dict[str, float]:
    """``queue;dur=0.127, analysis;dur=38.3`` -> ``{"queue": 0.127, ...}`` (ms)."""
    phases: Dict[str, float] = {}
    for part in header.split(","):
        name, _, params = part.strip().partition(";")
        for param in params.split(";"):
            key, _, value = param.strip().partition("=")
            if key == "dur":
                try:
                    phases[name] = float(value)
                except ValueError:
                    pass
    return phases


class _Connection:
    """One keep-alive connection that re-opens after a transport error."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def post(self, path: str, body: bytes, sample: Sample) -> None:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=REQUEST_TIMEOUT_SECONDS
            )
        try:
            sample.sent = time.perf_counter()
            self._conn.request(
                "POST", path, body=body, headers={"Content-Type": "application/json"}
            )
            response = self._conn.getresponse()
            sample.body = response.read()
            sample.done = time.perf_counter()
            sample.status = response.status
            sample.server_timing = response.getheader("Server-Timing") or ""
        except (OSError, http.client.HTTPException) as error:
            sample.done = time.perf_counter()
            sample.error = f"{type(error).__name__}: {error}"
            self.close()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _drive(
    host: str, port: int, samples: List[Sample], bodies: Sequence[bytes], connections: int
) -> None:
    lock = threading.Lock()
    cursor = [0]

    def worker() -> None:
        connection = _Connection(host, port)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(samples):
                    return
                sample = samples[index]
                delay = sample.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                connection.post("/analyze", bodies[index], sample)
        finally:
            connection.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(
    host: str, port: int, bodies: Sequence[bytes], rate: float, connections: int
) -> Tuple[List[Sample], float]:
    """Fire *bodies* at *rate*; returns the samples and the generator's CPU seconds."""
    cpu_before = time.process_time()
    start = time.perf_counter() + 0.05
    samples = [Sample(due=start + index / rate) for index in range(len(bodies))]
    _drive(host, port, samples, bodies, connections)
    return samples, time.process_time() - cpu_before


def send_all(host: str, port: int, bodies: Sequence[bytes], connections: int) -> List[Sample]:
    """Send *bodies* back to back over *connections* concurrent connections."""
    now = time.perf_counter()
    samples = [Sample(due=now) for _ in bodies]
    _drive(host, port, samples, bodies, connections)
    return samples
