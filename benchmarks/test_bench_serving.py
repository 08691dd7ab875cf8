"""Benchmark: serving subsystem — warm start and batch-query throughput.

The claims the serving layer makes, timed:

* `AcicService.load` of a packed artifact directory beats cold
  construction (host + train) because nothing retrains;
* `query_batch` over the vectorized :class:`BatchQueryEngine` beats
  issuing the same queries one at a time (the acceptance bar is >= 3x on
  a 256-query stream against a cache-cold service);
* the packed flat inference core (:mod:`repro.ml.flat`) pushes that
  same 256-query batch to >= 10x the original per-query join
  (enumerate the grid, encode every candidate, walk the object tree,
  rank — rebuilt here as :func:`_per_query_join`);
* sequential ``service.handle``, now answering through the hoisted
  join and the packed twin, stays >= 4x faster than that same
  per-query join.

The last two are measured min-of-interleaved-rounds so scheduler noise
hits both sides equally.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.configurator import rank_scored
from repro.core.objectives import Goal
from repro.ml.cart import CartTree
from repro.ml.encoding import point_values
from repro.service.api import QueryRequest
from repro.service.server import AcicService
from repro.space.characteristics import AppCharacteristics, IOInterface, OpKind
from repro.space.grid import candidate_configs


def _query_stream(n: int) -> list[QueryRequest]:
    """n distinct, valid queries spanning both goals and many workloads."""
    base = AppCharacteristics(
        num_processes=32,
        num_io_processes=32,
        interface=IOInterface.MPIIO,
        iterations=10,
        data_bytes=1 << 26,
        request_bytes=1 << 22,
        op=OpKind.WRITE,
        collective=False,
        shared_file=True,
    )
    variants = itertools.product(
        (4, 8, 16, 32),                      # num_processes
        (1, 10),                             # iterations
        (1 << 24, 1 << 26, 1 << 28),         # data_bytes
        (1 << 20, 1 << 22),                  # request_bytes
        (OpKind.READ, OpKind.WRITE),         # op
        (Goal.PERFORMANCE, Goal.COST),       # goal
        (1, 3),                              # top_k
    )
    requests = []
    for procs, iters, data, req, op, goal, top_k in variants:
        chars = replace(
            base,
            num_processes=procs,
            num_io_processes=procs,
            iterations=iters,
            data_bytes=data,
            request_bytes=req,
            op=op,
        )
        requests.append(QueryRequest(characteristics=chars, goal=goal, top_k=top_k))
        if len(requests) == n:
            break
    assert len(requests) == n
    return requests


def _fresh_service(context) -> AcicService:
    service = AcicService(
        feature_names=tuple(context.screening.ranked_names()[: context.top_m])
    )
    service.host_database(context.database)
    return service


def _per_query_join(service: AcicService, requests) -> list:
    """The original per-query serving path, rebuilt as a fixed baseline.

    Each query enumerates the candidate grid for its workload, encodes
    every (candidate, workload) point, walks the fitted object tree and
    ranks — what ``service.handle`` did per query before the join was
    hoisted — then wraps the answer in the same response envelope.
    """
    responses = []
    for request in requests:
        acic = service._model_for(request.platform, request.goal, request.learner)
        assert isinstance(acic.model, CartTree)
        chars = request.characteristics
        candidates = candidate_configs(chars)
        X = acic.encoder.encode_many(
            [point_values(config, chars) for config in candidates]
        )
        scores = np.exp(acic.model.predict(X))
        recommendations = rank_scored(
            list(zip(scores.tolist(), candidates)), request.top_k
        )
        responses.append(service._answer(request, recommendations))
    return responses


@pytest.fixture(scope="module")
def pack_dir(context, tmp_path_factory):
    directory = tmp_path_factory.mktemp("serving-pack")
    service = _fresh_service(context)
    for goal in (Goal.PERFORMANCE, Goal.COST):
        service.warm(context.platform.name, goal)
    service.save(directory)
    return directory


def test_bench_cold_start(benchmark, context):
    def cold():
        service = _fresh_service(context)
        service.warm(context.platform.name, Goal.PERFORMANCE)
        service.warm(context.platform.name, Goal.COST)
        return service

    service = benchmark(cold)
    assert service.stats().models_trained == 2


def test_bench_warm_start(benchmark, context, pack_dir):
    service = benchmark(AcicService.load, pack_dir)
    assert service.stats().models_trained == 0
    assert service.stats().total_records == len(context.database)


def test_bench_single_queries(benchmark, context):
    requests = _query_stream(256)
    service = _fresh_service(context)
    service.warm(context.platform.name, Goal.PERFORMANCE)
    service.warm(context.platform.name, Goal.COST)

    def one_at_a_time():
        service._cache.clear()  # measure inference, not memoization
        return [service.handle(request) for request in requests]

    responses = benchmark(one_at_a_time)
    assert len(responses) == 256


def test_bench_batch_queries(benchmark, context):
    requests = _query_stream(256)
    service = _fresh_service(context)
    service.warm(context.platform.name, Goal.PERFORMANCE)
    service.warm(context.platform.name, Goal.COST)
    service.query_batch(requests)  # build the per-model engines once

    def batched():
        service._cache.clear()
        return service.query_batch(requests)

    responses = benchmark(batched)
    assert len(responses) == 256


def test_batch_speedup_meets_acceptance_bar(context):
    """query_batch >= 3x sequential handle on a 256-query cache-cold stream."""
    requests = _query_stream(256)
    service = _fresh_service(context)
    service.warm(context.platform.name, Goal.PERFORMANCE)
    service.warm(context.platform.name, Goal.COST)
    # One throwaway round each, so engine construction and allocator
    # warm-up don't land inside either measurement.
    service.query_batch(requests)
    service._cache.clear()
    [service.handle(request) for request in requests]
    service._cache.clear()

    start = time.perf_counter()
    sequential = [service.handle(request) for request in requests]
    sequential_seconds = time.perf_counter() - start

    service._cache.clear()
    start = time.perf_counter()
    batched = service.query_batch(requests)
    batched_seconds = time.perf_counter() - start

    assert batched == sequential
    speedup = sequential_seconds / batched_seconds
    assert speedup >= 3.0, f"batch speedup {speedup:.1f}x is below the 3x bar"


def test_flat_speedup_meets_acceptance_bar(context):
    """Flat-engine query_batch >= 10x the per-query join, 256 queries.

    The baseline side is the original per-query serving path,
    :func:`_per_query_join`: grid enumeration, per-candidate encoding
    and the object-tree walk for every query.  The batched side serves
    the same stream through the packed flat core (``use_flat``
    default).  Rounds interleave and each side keeps its best (min)
    time, so a GC pause or scheduler preemption cannot sink one side
    only.
    """
    requests = _query_stream(256)
    service = _fresh_service(context)
    service.warm(context.platform.name, Goal.PERFORMANCE)
    service.warm(context.platform.name, Goal.COST)
    for key in (
        (context.platform.name, Goal.PERFORMANCE, "cart"),
        (context.platform.name, Goal.COST, "cart"),
    ):
        assert service._engine_for(key).engine_kind == "flat"
    # Throwaway round each: engine construction, allocator and branch
    # caches warm up outside every measurement.
    service.query_batch(requests)
    _per_query_join(service, requests)

    baseline_times, batched_times = [], []
    batched = baseline = None
    for _ in range(3):
        start = time.perf_counter()
        baseline = _per_query_join(service, requests)
        baseline_times.append(time.perf_counter() - start)

        service._cache.clear()
        start = time.perf_counter()
        batched = service.query_batch(requests)
        batched_times.append(time.perf_counter() - start)

    service._cache.clear()
    sequential = [service.handle(request) for request in requests]
    assert batched == sequential == baseline  # identical answers, 10x cheaper
    speedup = min(baseline_times) / min(batched_times)
    assert speedup >= 10.0, (
        f"flat batch speedup {speedup:.1f}x is below the 10x bar "
        f"(per-query join {min(baseline_times) * 1e3:.1f}ms, "
        f"batched {min(batched_times) * 1e3:.1f}ms)"
    )


def test_single_query_speedup_over_the_per_query_join(context):
    """Sequential ``service.handle`` >= 4x the per-query join, 256 queries.

    ``service.handle`` answers through ``Acic.recommend``: one encoded
    candidate matrix per model and its packed twin, so a query encodes
    only its own application values.  The baseline is
    :func:`_per_query_join` on the same stream.  Rounds interleave and
    each side keeps its best (min) time; the response cache is cleared
    before every sequential round so each query is computed.
    """
    requests = _query_stream(256)
    service = _fresh_service(context)
    service.warm(context.platform.name, Goal.PERFORMANCE)
    service.warm(context.platform.name, Goal.COST)
    # Throwaway round each: the candidate matrices, packed twins and
    # allocator warm up outside every measurement.
    [service.handle(request) for request in requests]
    _per_query_join(service, requests)

    baseline_times, sequential_times = [], []
    baseline = sequential = None
    for _ in range(3):
        start = time.perf_counter()
        baseline = _per_query_join(service, requests)
        baseline_times.append(time.perf_counter() - start)

        service._cache.clear()
        start = time.perf_counter()
        sequential = [service.handle(request) for request in requests]
        sequential_times.append(time.perf_counter() - start)

    assert sequential == baseline  # identical answers
    speedup = min(baseline_times) / min(sequential_times)
    assert speedup >= 4.0, (
        f"single-query speedup {speedup:.1f}x is below the 4x bar "
        f"(per-query join {min(baseline_times) * 1e3:.1f}ms, "
        f"sequential handle {min(sequential_times) * 1e3:.1f}ms)"
    )


def test_retrain_worker_does_not_steal_the_hot_path(context):
    """Serving p95 with the retrain worker busy <= 1.10x idle.

    The worker is kept genuinely busy: a pending batch behind an
    unsatisfiable shadow gate makes every cycle train a full candidate
    and then defer, so a retrain is in flight through every busy
    measurement without ever swapping the live generation out from
    under it.  Training runs in the production configuration — an
    isolated, idle-priority child process at the production poll
    cadence — because that isolation IS the claim under test:
    in-process training holds the GIL through every CART split search
    and inflates serving p95 by multiples (and so does a worker spun at
    a microsecond interval, which would just benchmark the
    coordinator's own bookkeeping).  Idle and busy rounds interleave
    and each condition keeps its best (min) p95, so scheduler noise
    hits both sides equally.
    """
    import dataclasses as _dc

    from repro.core.database import TrainingDatabase
    from repro.online import (
        ContributionLog,
        OnlineConfig,
        OnlineCoordinator,
        RetrainWorker,
        ShadowGateConfig,
    )

    requests = _query_stream(128)
    service = _fresh_service(context)
    service.warm(context.platform.name, Goal.PERFORMANCE)
    service.warm(context.platform.name, Goal.COST)

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        log = ContributionLog(Path(tmp) / "bench-log.jsonl")
        coordinator = OnlineCoordinator(
            service,
            log,
            config=OnlineConfig(
                min_batch=1,
                # A gate that can never see enough replay: every cycle
                # builds a candidate, then defers the same batch.
                shadow=ShadowGateConfig(min_observations=10**9),
                isolate_retrain=True,
            ),
        )
        try:
            stream = TrainingDatabase(context.platform.name)
            for record in list(context.database)[:32]:
                stream.add(_dc.replace(record, epoch=99))
            service.contribute(context.platform.name, stream)

            def p95_round() -> float:
                service._cache.clear()
                latencies = []
                for request in requests:
                    start = time.perf_counter()
                    service.handle(request)
                    latencies.append(time.perf_counter() - start)
                latencies.sort()
                return latencies[int(0.95 * len(latencies))]

            p95_round()  # warm-up: engines, allocator, branch caches
            idle, busy = [], []
            for _ in range(4):
                idle.append(p95_round())
                # One retrain cycle per round (production cadence is
                # seconds, not microseconds): the worker drains the
                # batch, hands it to the training child, and blocks on
                # the pipe — the measured window below runs while that
                # child is alive and training on every spare cycle.
                with RetrainWorker(coordinator, interval_s=600.0):
                    time.sleep(0.5)  # let the cycle reach the child
                    busy.append(p95_round())
            assert coordinator.last_outcome == "deferred"  # cycles ran
        finally:
            coordinator.close()

    ratio = min(busy) / min(idle)
    assert ratio <= 1.10, (
        f"retrain worker inflates serving p95 by {ratio:.2f}x "
        f"(idle {min(idle) * 1e6:.0f}us, busy {min(busy) * 1e6:.0f}us)"
    )
