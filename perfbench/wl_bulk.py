"""bulk: 256-query BATCH frames in a closed loop on two connections.

Why: a portal or scheduler scoring many jobs at once.  Engine
join/predict/rank, big-frame codecs and two connections contending for
the service lock dominate; the single-query path does none.
"""

from __future__ import annotations

import json

from common import BENCH_DIR, Timeline, aligned_slowest, chunks, median, pack, quantile
from loops import closed_loop
from queries import query_pool
from report import Outcome, counts_from_server
from wire import (
    Traced,
    Workdir,
    batch_query_layers,
    check_answer,
    instrument_client,
    oracle_answers,
    server_counters,
    serving_layers,
    start_server,
)

SPEC = json.loads((BENCH_DIR / "spec.json").read_text())["workloads"]["bulk"]
TRAFFIC = SPEC["traffic"]


def _frames(seed: int, seconds: int, platform: str):
    """(warm-up frames, timed frames): every timed query new to the cache."""
    size = TRAFFIC["batch_size"]
    pool = query_pool(seed, TRAFFIC["pool"], platform)
    cycle = [pool[i:i + size] for i in range(0, len(pool), size)]
    count = max(2, round(TRAFFIC["frames_per_second_of_run"] * seconds))
    timed = [cycle[i % len(cycle)] for i in range(count)]
    warm_pool = query_pool(seed, size * TRAFFIC["warmup_frames"], platform, salt="warm")
    warm = [warm_pool[i:i + size] for i in range(0, len(warm_pool), size)]
    return warm, timed


def _check(result, frames, expected, outcome: Outcome) -> None:
    for sample, frame in zip(result.samples, frames):
        label = f"frame {sample.index}"
        if sample.error is not None:
            outcome.fail(f"{label}: {sample.error}", len(frame))
        elif len(sample.response) != len(frame):
            outcome.fail(f"{label}: {len(sample.response)} answers for "
                         f"{len(frame)} queries", len(frame))
        else:
            for position, (response, query) in enumerate(zip(sample.response, frame)):
                check_answer(outcome, f"{label} query {position}", response,
                             expected[query.fingerprint])


def learner(pack_dir, info: dict):
    """A timer for the learning step: fit CART for both goals on the
    pack's training database, in this process, between traffic segments.

    Each fit is cut into aligned segments at every tree node grown, so
    learn_s can take each segment's slowest fit."""
    from repro.core.configurator import Acic
    from repro.core.database import TrainingDatabase
    from repro.core.objectives import Goal
    from repro.ml.cart import CartTree
    from repro.service.server import AcicService

    manifest = AcicService.read_manifest(pack_dir)
    database = TrainingDatabase.load(pack_dir / manifest["databases"][0]["file"])
    names = tuple(info["feature_names"])
    timeline = Timeline()
    timeline.patch(CartTree, "_grow")

    def fit_both() -> None:
        for goal in (Goal.PERFORMANCE, Goal.COST):
            Acic(database, goal=goal, learner_name="cart", feature_names=names).train()

    return lambda: timeline.timed(fit_both)[1], timeline


def run(seed: int, seconds: int, trace: bool) -> Outcome:
    outcome = Outcome()
    with Workdir() as workdir:
        pack_dir, info = pack()
        platform = info["platform"]
        warm, frames = _frames(seed, seconds, platform)
        probe = query_pool(seed, 1, platform, salt="probe")[0]
        distinct = {q.fingerprint: q for frame in warm + frames for q in frame}
        expected = oracle_answers(pack_dir, list(distinct.values()) + [probe])
        learn, fit_timeline = learner(pack_dir, info)

        setup_s, server = start_server(
            lambda _: ["--artifacts", str(pack_dir)], workdir, probe,
            expected[probe.fingerprint])
        try:
            warmed, segments, fits = _drive(server.port, warm, frames, learn)
            counters = server_counters(server.port)
            rss = server.peak_rss_mb()
        finally:
            server.stop()

        outcome.end_to_end = {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "learn_s": aligned_slowest(fit_timeline.runs)[0],
            **_frame_metrics(segments, frames),
        }
        outcome.counts = counts_from_server(counters)
        outcome.attempted = sum(len(frame) for frame in warm + frames)
        _check(warmed, warm, expected, outcome)
        for result, sent in zip(segments, chunks(frames, TRAFFIC["segments"])):
            _check(result, sent, expected, outcome)
        rtts = [s.latency_s * 1e3 for r in segments for s in r.samples]
        outcome.notes.append(
            f"{len(frames)} frames x {TRAFFIC['batch_size']} queries on 2 connections "
            f"in {len(segments)} segments of " + ", ".join(
                f"{r.wall_s:.3f} s" for r in segments)
            + f"; all frames p50 {median(rtts):.1f} ms, "
            f"p95 (bulk_frame_p95_ms) {quantile(rtts, 0.95):.1f} ms; bulk_qps (not bounded) "
            f"{len(rtts) * TRAFFIC['batch_size'] / sum(r.wall_s for r in segments):.1f} q/s")
        outcome.notes.append("learn_s per fit: " + ", ".join(f"{f:.3f}" for f in fits))

        if trace:
            _traced(pack_dir, warm, frames, probe, expected, outcome)
    return outcome


def _drive(port: int, warm, frames, learn=None):
    """Warm-up frames, then the timed frames segment by segment, timing
    one learning step after each segment while the server is idle."""
    warmed = closed_loop(port, warm)
    segments, fits = [], []
    for segment in chunks(frames, TRAFFIC["segments"]):
        segments.append(closed_loop(port, segment))
        if learn is not None:
            fits.append(learn())
    return warmed, segments, fits


def _frame_metrics(segments, frames) -> dict:
    """Frame p50 and p90 over the distinct frames, each frame's round trip
    being the upper quartile of the times it was sent (every pass over
    the 8192-query pool sends each of its 32 frames once)."""
    sends: dict[tuple, list[float]] = {}
    samples = [s for r in segments for s in r.samples]
    for sample, frame in zip(samples, frames):
        sends.setdefault(tuple(q.fingerprint for q in frame), []).append(sample.latency_s)
    typical = [quantile(times, 0.75) for times in sends.values()]
    return {
        "query_p50_ms": median(typical) * 1e3,
        "query_tail_ms": quantile(typical, 0.9) * 1e3,
    }


def _traced(pack_dir, warm, frames, probe, expected, outcome: Outcome) -> None:
    with Workdir() as workdir:
        traced = Traced(workdir)
        client_recorder = instrument_client()
        _, server = start_server(
            lambda _: ["--artifacts", str(pack_dir)], workdir, probe,
            expected[probe.fingerprint], repeats=1, traced=traced)
        try:
            warmed, segments, _ = _drive(server.port, warm, frames)
            counters = server_counters(server.port)
        finally:
            server.stop()
        client_layers = client_recorder.snapshot()
        server_dump, _, spans = traced.read()
    outcome.layers, outcome.self_times = serving_layers(
        warmed.samples + [s for r in segments for s in r.samples], server_dump,
        client_layers, batch_query_layers(spans, counters))
    traced_p50 = _frame_metrics(segments, frames)["query_p50_ms"]
    untraced_p50 = outcome.end_to_end["query_p50_ms"]
    outcome.layers["trace.overhead_pct"] = (traced_p50 - untraced_p50) / untraced_p50 * 100
    outcome.unmeasured = dict(SPEC["unmeasured"])
    outcome.notes += SPEC["layer_notes"]
