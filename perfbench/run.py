"""The repository benchmark: one command, one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {paper-reproduce,bulk,online}
        --seed N --seconds S --trace {0,1}

Prints a human-readable report, then, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, the per-layer metrics with
``--trace 1`` (a separate traced run; end-to-end numbers never come from
it).  Workload parameters and recorded values are in ``perfbench/spec.json``.
Exits non-zero, printing no result, when the program's source is absent.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("paper-reproduce", "bulk", "online")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # A terminated run still stops the servers it started (their
    # ``finally`` blocks run on SystemExit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        common.ensure_source()
    except common.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import report
    import wl_bulk
    import wl_online
    import wl_paper

    module = {
        "paper-reproduce": wl_paper,
        "bulk": wl_bulk,
        "online": wl_online,
    }[args.workload]
    outcome = module.run(args.seed, args.seconds, bool(args.trace))
    report.emit(args.workload, args.seed, args.seconds, bool(args.trace), outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
