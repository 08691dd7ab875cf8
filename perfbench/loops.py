"""Traffic drivers: a fixed-rate open loop and a closed loop.

Neither reuses ``repro.net.loadgen``: its clock starts at the actual
send, its quantiles come from histogram buckets, and its synthetic
queries repeat after 384 distinct points.  Here every sample is kept
raw, and the open loop times each request from the moment it was due,
so a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.net.client import AcicClient


@dataclass
class Sample:
    """One request's timeline (perf_counter seconds)."""

    index: int
    conn: int
    due: float
    sent: float
    done: float
    response: object = None
    error: str | None = None

    @property
    def latency_s(self) -> float:
        """Completion minus due time (open loop) or send time (closed)."""
        return self.done - self.due

    @property
    def lateness_s(self) -> float:
        """How late the generator sent this request."""
        return self.sent - self.due


@dataclass
class LoopResult:
    samples: list[Sample] = field(default_factory=list)
    wall_s: float = 0.0


def _make_clients(port: int, connections: int) -> list[AcicClient]:
    return [AcicClient("127.0.0.1", port, timeout_s=15.0) for _ in range(connections)]


def open_loop(port: int, requests: list, rate: float, connections: int = 2,
              on_sample=None) -> LoopResult:
    """Send ``requests`` as single QUERY frames at ``rate`` per second.

    Request ``i`` is due at ``start + i / rate``.  Each connection takes
    the next due request, waits for its due time if early, and blocks on
    the answer; when the server falls behind, requests wait in the
    generator and their lateness grows.
    """
    clients = _make_clients(port, connections)
    samples: list[Sample | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def worker(conn: int, client: AcicClient) -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(requests):
                    return
                cursor[0] += 1
            due = start + index / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            response = error = None
            try:
                response = client.query(requests[index])
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                error = f"{type(exc).__name__}: {exc}"
            sample = Sample(index, conn, due, sent, time.perf_counter(),
                            response, error)
            samples[index] = sample
            if on_sample is not None:
                on_sample(sample)

    threads = [threading.Thread(target=worker, args=(i, c))
               for i, c in enumerate(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result = LoopResult([s for s in samples if s is not None],
                        time.perf_counter() - start)
    for client in clients:
        client.close()
    return result


def closed_loop(port: int, items: list, connections: int = 2,
                batch: bool = True) -> LoopResult:
    """Send ``items`` (BATCH frames, or single queries), each connection
    one at a time.

    Connections take items in order from a shared cursor and send the
    next only when the previous answer arrived.
    """
    clients = _make_clients(port, connections)
    samples: list[Sample | None] = [None] * len(items)
    lock = threading.Lock()
    cursor = [0]

    def worker(conn: int, client: AcicClient) -> None:
        send = client.query_batch if batch else client.query
        while True:
            with lock:
                index = cursor[0]
                if index >= len(items):
                    return
                cursor[0] += 1
            sent = time.perf_counter()
            response = error = None
            try:
                response = send(items[index])
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                error = f"{type(exc).__name__}: {exc}"
            samples[index] = Sample(index, conn, sent, sent, time.perf_counter(),
                                    response, error)

    start = time.perf_counter()
    threads = [threading.Thread(target=worker, args=(i, c))
               for i, c in enumerate(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    for client in clients:
        client.close()
    return LoopResult([s for s in samples if s is not None], wall)
