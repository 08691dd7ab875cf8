"""Seeded query pools for the serving workloads.

A pool holds distinct queries (distinct response-cache fingerprints)
drawn from the workload seed, so response-cache hits, misses and
evictions are a function of the seed and the traffic shape alone and
repeat from run to run.
"""

from __future__ import annotations

import random

from repro.core.objectives import Goal
from repro.service.api import QueryRequest
from repro.space.characteristics import AppCharacteristics, IOInterface, OpKind

_PROCS = (8, 16, 32, 64, 128, 256)
_INTERFACES = (IOInterface.POSIX, IOInterface.MPIIO, IOInterface.HDF5)
_OPS = (OpKind.READ, OpKind.WRITE, OpKind.READWRITE)
_GOALS = (Goal.PERFORMANCE, Goal.COST)
_TOP_K = (1, 3, 5)


def _draw(rng: random.Random, platform: str) -> QueryRequest:
    procs = rng.choice(_PROCS)
    interface = rng.choice(_INTERFACES)
    data = 1 << rng.randint(20, 28)
    chars = AppCharacteristics(
        num_processes=procs,
        num_io_processes=rng.choice((procs, max(1, procs // 8))),
        interface=interface,
        iterations=rng.randint(1, 64),
        data_bytes=data,
        request_bytes=data >> rng.randint(0, 6),
        op=rng.choice(_OPS),
        collective=interface.base is IOInterface.MPIIO and rng.random() < 0.5,
        shared_file=rng.random() < 0.5,
    )
    return QueryRequest(
        characteristics=chars,
        goal=rng.choice(_GOALS),
        top_k=rng.choice(_TOP_K),
        platform=platform,
    )


def query_pool(seed: int, size: int, platform: str, salt: str = "") -> list[QueryRequest]:
    """``size`` queries with pairwise distinct fingerprints."""
    rng = random.Random(f"perfbench-pool:{salt}:{seed}")
    seen: set[tuple] = set()
    pool: list[QueryRequest] = []
    while len(pool) < size:
        query = _draw(rng, platform)
        if query.fingerprint not in seen:
            seen.add(query.fingerprint)
            pool.append(query)
    return pool


def expected_key(query: QueryRequest, points: int, epochs: tuple[int, int],
                 recommendations) -> tuple:
    """:func:`response_key` of the answer a service with ``points``
    records spanning ``epochs`` owes ``query``, given ``Acic.recommend``'s
    ``recommendations`` for it."""
    return (
        query.goal, query.platform, query.learner, points, tuple(epochs), False,
        tuple(
            (r.rank, r.config.key, r.predicted_improvement, r.co_champion_group)
            for r in recommendations
        ),
    )


def response_key(response) -> tuple:
    """What must match between a wire answer and the in-process oracle.

    ``cached`` says how the server found the answer, not what it is, so
    it is left out; everything else in the answer must be equal.
    """
    return (
        response.goal, response.platform, response.learner,
        response.model_points, tuple(response.model_epochs), response.degraded,
        tuple(
            (r.rank, r.config_key, r.predicted_improvement, r.co_champion_group)
            for r in response.recommendations
        ),
    )
