"""Benchmark: training collection speed on the top-8 plan.

Collection seeds random streams on first draw (a simulated run no longer
seeds its root and ``fault`` streams), builds a retry schedule only when
an attempt fails, derives each plan point once and fingerprints each
record once.  This guardrail holds collecting the top-8 plan (2232
points) to >= 1.25x faster than the path it replaced (kept in
:mod:`tests.core.collect_reference`), with byte-identical databases.
Rounds interleave and each side keeps its best (min) time, so scheduler
noise hits both sides alike.
"""

from __future__ import annotations

import json
import time

from repro.cloud.platform import DEFAULT_PLATFORM
from repro.core.database import TrainingDatabase
from repro.core.training import TrainingCollector, TrainingPlan
from repro.pb.ranking import screen_parameters

from tests.core.collect_reference import (
    ReferenceCollector,
    ReferenceDatabase,
    eager_streams,
)

ROUNDS = 5
TOP_M = 8


def test_collect_speedup_over_the_eager_path():
    plan = TrainingPlan.build(screen_parameters().ranked_names(), TOP_M)
    reference_times, collect_times = [], []
    reference = collected = None
    for _ in range(ROUNDS):
        reference = ReferenceDatabase(DEFAULT_PLATFORM.name)
        start = time.perf_counter()
        with eager_streams():
            ReferenceCollector(reference).collect(plan)
        reference_times.append(time.perf_counter() - start)

        collected = TrainingDatabase(DEFAULT_PLATFORM.name)
        start = time.perf_counter()
        TrainingCollector(collected).collect(plan)
        collect_times.append(time.perf_counter() - start)

    assert len(collected) == plan.size
    assert json.dumps(collected.to_payload()) == json.dumps(reference.to_payload())
    speedup = min(reference_times) / min(collect_times)
    assert speedup >= 1.25, (
        f"collection speedup {speedup:.2f}x is below the 1.25x bar "
        f"(eager path {min(reference_times) * 1e3:.0f}ms, "
        f"collect {min(collect_times) * 1e3:.0f}ms, {plan.size} points)"
    )
