"""Launch ``acic serve`` with the benchmark's layer recorder installed.

Usage: python3 perfbench/traced_serve.py RECORD.json serve [serve args...]
(program ``src/`` on PYTHONPATH).  Wraps the public functions listed in
``layers.SERVER`` and times every wait for the server's service lock,
then hands control to ``repro.cli.main`` unchanged; pass
``--telemetry-out`` among the serve args to collect the program's own
spans as well.  The recorder's totals and kept events are written to
RECORD.json when the server exits.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from common import Recorder  # noqa: E402

#: Layers whose individual calls the online workload lines up in time.
KEEP = (
    "online.log.append",
    "online.coordinator.cycle",
    "online.clone",
    "online.isolation.retrain",
    "online.shadow.evaluate",
    "online.generations.adopt",
)


class TimedLock:
    """The server's service lock, recording how long each request waited."""

    def __init__(self, lock, recorder: Recorder) -> None:
        self._lock = lock
        self._recorder = recorder

    def __enter__(self):
        start = time.perf_counter()
        self._lock.acquire()
        waited = time.perf_counter() - start
        self._recorder.add("net.server.lock_wait", 1, waited, waited,
                           root="net.server.lock_wait")
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


def time_service_lock(recorder: Recorder) -> None:
    """Wrap each new AcicServer's lock; the online loop keeps the raw one."""
    from repro.net.server import AcicServer

    original = AcicServer.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self._service_lock = TimedLock(self._service_lock, recorder)

    AcicServer.__init__ = init


def main() -> int:
    record, argv = sys.argv[1], sys.argv[2:]
    import repro.cli

    recorder = Recorder(keep_events=KEEP)
    layers.instrument(recorder, layers.SERVER)
    time_service_lock(recorder)
    try:
        return repro.cli.main(argv)
    finally:
        recorder.dump(record)


if __name__ == "__main__":
    sys.exit(main())
