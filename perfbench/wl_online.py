"""online: a fixed-rate query stream while contributions retrain the model.

Why: writes beside reads.  The contribution log, the isolated retrain,
the shadow gate and the generation swap do the work, and their cost to
readers shows in the same run.
"""

from __future__ import annotations

import json
import random
import threading
import time

from common import BENCH_DIR, chunks, median, pack, quantile
from loops import Sample, closed_loop, open_loop
from queries import expected_key, query_pool
from report import ONLINE_COUNTS, SERVER_COUNTS, Outcome, counts_from_server
from wire import (
    Traced,
    Workdir,
    check_answer,
    instrument_client,
    oracle_answers,
    server_counters,
    serving_layers,
    single_query_layers,
    start_server,
)

SPEC = json.loads((BENCH_DIR / "spec.json").read_text())["workloads"]["online"]
TRAFFIC = SPEC["traffic"]


def stream_shape(seconds: int) -> tuple[float, int]:
    """(stream seconds, contribution cycles) for a run of ``seconds``."""
    stream_s = max(10.0, seconds * 10 / 9)
    return stream_s, max(1, int((stream_s - 2) // TRAFFIC["cycle_budget_s"]))


def contributions(seed: int, info: dict, cycles: int) -> list:
    """Fresh simulator measurements, one database per chunk, made now.

    Each chunk re-measures seeded points of the top-10 training plan at
    a new epoch, so every record is new to the live database.
    """
    from repro.cloud.platform import DEFAULT_PLATFORM
    from repro.core.database import TrainingDatabase
    from repro.core.training import TrainingCollector, TrainingPlan

    plan = TrainingPlan.build(info["ranked_names"], len(info["feature_names"]))
    size = TRAFFIC["contribution_chunk"]
    chosen = random.Random(f"perfbench-contributions:{seed}").sample(
        range(plan.size), size * cycles)
    batches = []
    for cycle in range(cycles):
        points = tuple(plan.points[i] for i in chosen[cycle * size:(cycle + 1) * size])
        database = TrainingDatabase(info["platform"])
        TrainingCollector(database, platform=DEFAULT_PLATFORM).collect(
            TrainingPlan(plan.ranked_names, plan.top_m, points),
            source="contribution", epoch=100 + cycle)
        batches.append(database)
    return batches


def final_oracle(pack_dir, info: dict, batches) -> tuple:
    """A from-scratch ``Acic`` per goal on the base data plus every chunk."""
    from repro.core.configurator import Acic
    from repro.core.database import TrainingDatabase
    from repro.core.objectives import Goal
    from repro.service.server import AcicService

    manifest = AcicService.read_manifest(pack_dir)
    database = TrainingDatabase.load(pack_dir / manifest["databases"][0]["file"])
    for chunk in batches:
        for record in chunk:
            database.add(record)
    models = {
        goal: Acic(database, goal=goal, learner_name="cart",
                   feature_names=tuple(info["feature_names"])).train()
        for goal in (Goal.PERFORMANCE, Goal.COST)
    }
    epochs = [record.epoch for record in database]
    return models, len(database), (min(epochs), max(epochs))


class _Stream:
    """Answers seen so far; wakes the contributor when a chunk goes live."""

    def __init__(self, targets: list[int]) -> None:
        self.targets = targets
        self.live: list[object] = [None] * len(targets)
        self.events = [threading.Event() for _ in targets]
        self.lock = threading.Lock()
        #: Set once the stream sent its last request and got its answer.
        self.finished = threading.Event()

    def on_sample(self, sample) -> None:
        if sample.error is not None:
            return
        points = sample.response.model_points
        with self.lock:
            for cycle, target in enumerate(self.targets):
                if points >= target and self.live[cycle] is None:
                    self.live[cycle] = sample
                    self.events[cycle].set()


#: After the stream ended, every contribution must be live within this many
#: seconds; until then the contributor sends its own probe queries.
LIVE_TIMEOUT_S = 60.0


def _drive(port: int, stream_queries, burst_queries, batches, base_points: int, probe):
    """The stream, the contributions beside it, then the bursts.

    A contribution is live at the first answer that includes it.  While
    the stream runs, its answers show that; a contribution still pending
    when the stream has ended is watched by probe queries (``probe``,
    at the stream's rate) on the contributor's connection, so a slow
    cycle shows as a longer contribute-to-live time, not a lost one.
    """
    size = TRAFFIC["contribution_chunk"]
    stream = _Stream([base_points + size * (c + 1) for c in range(len(batches))])
    acks: list[tuple[float, float]] = []
    probes: list[Sample] = []
    problems: list[str] = []

    def await_live(client, cycle: int) -> bool:
        while not stream.events[cycle].wait(1.0 / TRAFFIC["rate"]):
            if not stream.finished.is_set():
                continue
            if time.perf_counter() > stream.finished_at + LIVE_TIMEOUT_S:
                return False
            sent = time.perf_counter()
            sample = Sample(len(probes), "probe", sent, sent, sent)
            try:
                sample.response = client.query(probe)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                sample.error = f"{type(exc).__name__}: {exc}"
            sample.done = time.perf_counter()
            probes.append(sample)
            stream.on_sample(sample)
        return True

    def contributor() -> None:
        from repro.net.client import AcicClient

        time.sleep(TRAFFIC["first_contribution_after_s"])
        try:
            with AcicClient("127.0.0.1", port, timeout_s=15.0) as client:
                for cycle, chunk in enumerate(batches):
                    began = time.perf_counter()
                    client.contribute(chunk)
                    acks.append((began, time.perf_counter()))
                    if not await_live(client, cycle):
                        problems.append(f"contribution {cycle} not live "
                                        f"{LIVE_TIMEOUT_S:.0f} s after the stream ended")
                        return
        except Exception as exc:  # noqa: BLE001 - a failed contribution is a failed operation
            problems.append(f"contribution failed: {type(exc).__name__}: {exc}")

    thread = threading.Thread(target=contributor)
    thread.start()
    try:
        result = open_loop(port, stream_queries, TRAFFIC["rate"],
                           on_sample=stream.on_sample)
    finally:
        stream.finished_at = time.perf_counter()
        stream.finished.set()
        thread.join()
    bursts = [closed_loop(port, burst, batch=False)
              for burst in chunks(burst_queries, TRAFFIC["bursts"])]
    return result, bursts, probes, stream, acks, problems


def _stalls(samples, acks, stream) -> list[float]:
    """Per cycle, the worst latency among queries answered while that
    cycle's contribution was on its way to going live."""
    worst = []
    for (_, acked), live in zip(acks, stream.live):
        if live is None:
            continue
        window = [s.latency_s for s in samples
                  if s.error is None and acked <= s.done <= live.done]
        if window:
            worst.append(max(window))
    return worst


def _check(result, bursts, probes, stream_queries, burst_queries, probe, expected0,
           oracle, base_points: int, cycles: int, outcome: Outcome) -> None:
    """Stream and probe answers follow the generations in order; answers
    of the base generation equal the pack's, answers after the last
    promotion (the whole burst included) equal a from-scratch retrain's."""
    models, final_points, final_epochs = oracle
    size = TRAFFIC["contribution_chunk"]
    allowed = {base_points + size * c for c in range(cycles + 1)}
    last_points: dict[int, int] = {}
    labelled = [(f"request {s.index}", s, stream_queries[s.index], False)
                for s in result.samples]
    labelled += [(f"liveness probe {s.index}", s, probe, False) for s in probes]
    offset = 0
    for burst in bursts:
        labelled += [(f"burst request {offset + s.index}", s,
                      burst_queries[offset + s.index], True) for s in burst.samples]
        offset += len(burst.samples)
    for label, sample, query, in_burst in labelled:
        if sample.error is not None:
            outcome.fail(f"{label}: {sample.error}")
            continue
        points = sample.response.model_points
        if points not in allowed or (in_burst and points != final_points):
            outcome.fail(f"{label}: model_points {points} is not a live generation's")
            continue
        if not in_burst:
            if points < last_points.get(sample.conn, 0):
                outcome.fail(f"{label}: model_points went backwards on its connection")
            last_points[sample.conn] = points
        if points == base_points:
            check_answer(outcome, label, sample.response, expected0[query.fingerprint])
        elif points == final_points:
            recommendations = models[query.goal].recommend(
                query.characteristics, top_k=query.top_k)
            check_answer(outcome, label, sample.response, expected_key(
                query, final_points, final_epochs, recommendations))


def _queries(seed: int, platform: str, stream_s: float):
    stream_n = round(TRAFFIC["rate"] * stream_s)
    pool = query_pool(seed, stream_n + TRAFFIC["capacity_burst"], platform)
    return pool[:stream_n], pool[stream_n:]


def run(seed: int, seconds: int, trace: bool) -> Outcome:
    outcome = Outcome(timing_counts=tuple(SPEC["timing_counts"]))
    with Workdir() as workdir:
        pack_dir, info = pack(TRAFFIC["top_m"])
        platform = info["platform"]
        stream_s, cycles = stream_shape(seconds)
        stream_queries, burst_queries = _queries(seed, platform, stream_s)
        probe = query_pool(seed, 1, platform, salt="probe")[0]
        expected0 = oracle_answers(pack_dir, stream_queries + [probe])
        batches = contributions(seed, info, cycles)

        setup_s, server = start_server(
            lambda attempt: _serve_args(pack_dir, workdir, attempt), workdir, probe,
            expected0[probe.fingerprint])
        try:
            result, bursts, probes, stream, acks, problems = _drive(
                server.port, stream_queries, burst_queries, batches, info["records"],
                probe)
            counters = server_counters(server.port)
            rss = server.peak_rss_mb()
        finally:
            server.stop()

        for problem in problems:
            outcome.fail(problem)
        to_live = [stream.live[c].done - acks[c][1]
                   for c in range(len(acks)) if stream.live[c] is not None]
        stalls = _stalls(result.samples, acks, stream)
        latencies = [s.latency_s for s in result.samples]
        outcome.end_to_end = {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "learn_s": max(to_live, default=0.0),
            "query_p50_ms": median(latencies) * 1e3,
            "query_tail_ms": quantile(latencies, 0.99) * 1e3,
        }
        outcome.counts = counts_from_server(counters, SERVER_COUNTS + ONLINE_COUNTS)
        outcome.attempted = (len(stream_queries) + len(burst_queries) + len(batches)
                             + len(probes))
        if outcome.counts["online.promotions"] != cycles:
            outcome.fail(f"{outcome.counts['online.promotions']} promotions, "
                         f"expected {cycles}")
        oracle = final_oracle(pack_dir, info, batches)
        _check(result, bursts, probes, stream_queries, burst_queries, probe, expected0,
               oracle, info["records"], cycles, outcome)
        if probes:
            outcome.notes.append(
                f"{len(probes)} liveness probes after the stream ended: the frame, "
                "byte and cache counts of this run include them")
        outcome.notes.append(
            "contribute_to_live_s per cycle: " + ", ".join(f"{v:.3f}" for v in to_live))
        outcome.notes.append(
            "worst query per cycle (ms): " + ", ".join(f"{v * 1e3:.1f}" for v in stalls)
            + f"; whole stream p50 {median(latencies) * 1e3:.2f} ms")
        lateness = [s.lateness_s * 1e3 for s in result.samples]
        outcome.notes.append(
            f"stream: {len(result.samples)} queries at {TRAFFIC['rate']} q/s, generator "
            f"lateness p50 {median(lateness):.2f} ms, p99 {quantile(lateness, 0.99):.2f} ms, "
            f"max {max(lateness):.1f} ms; bursts: "
            + ", ".join(f"{len(b.samples)} queries in {b.wall_s:.3f} s" for b in bursts)
            + "; capacity (not bounded) "
            + f"{sum(len(b.samples) for b in bursts) / sum(b.wall_s for b in bursts):.1f} q/s")

        if trace:
            _traced(pack_dir, info, stream_queries, burst_queries, batches, probe,
                    expected0, outcome)
    return outcome


def _serve_args(pack_dir, workdir, attempt: int) -> list[str]:
    return [
        "--artifacts", str(pack_dir), "--online",
        "--online-log", str(workdir / f"online-log-{attempt}.jsonl"),
        "--online-min-batch", str(TRAFFIC["online_min_batch"]),
        "--online-interval-s", str(TRAFFIC["online_interval_s"]),
    ]


def _traced(pack_dir, info, stream_queries, burst_queries, batches, probe,
            expected0, outcome: Outcome) -> None:
    untraced_learn = outcome.end_to_end["learn_s"]
    with Workdir() as workdir:
        # Without the program's telemetry: `serve --online --telemetry-out`
        # deadlocks at the first retrain cycle (see spec.json).
        traced = Traced(workdir, program_spans=False)
        client_recorder = instrument_client()
        _, server = start_server(
            lambda attempt: _serve_args(pack_dir, workdir, attempt), workdir, probe,
            expected0[probe.fingerprint], repeats=1, traced=traced)
        try:
            result, bursts, probes, stream, acks, _ = _drive(
                server.port, stream_queries, burst_queries, batches, info["records"],
                probe)
        finally:
            server.stop()
        client_layers = client_recorder.snapshot()
        server_dump, events, _ = traced.read()

    values, self_times = serving_layers(
        result.samples + [s for b in bursts for s in b.samples] + probes, server_dump,
        client_layers, single_query_layers(server_dump["layers"], server_dump["nested"]))
    promoted = [e for e in events.get("online.coordinator.cycle", []) if e[2] == "promoted"]
    live = [stream.live[c] for c in range(len(acks))]
    poll_waits, first_after = [], []
    for (_, acked), sample in zip(acks, live):
        starts = [start for start, _, _ in promoted if start >= acked]
        if starts:
            poll_waits.append(min(starts) - acked)
        if sample is not None:
            first_after.append(sample.latency_s * 1e3)
    to_live = [live[c].done - acks[c][1] for c in range(len(acks)) if live[c] is not None]

    def durations(name: str, scale: float = 1.0) -> list[float]:
        return [(end - start) * scale for start, end, _ in events.get(name, [])]

    per_cycle = {
        "online.log.ack_ms": [(done - began) * 1e3 for began, done in acks],
        "online.poll_wait_s": poll_waits,
        "online.cycle_s": [end - start for start, end, _ in promoted],
        "online.isolation.retrain_s": durations("online.isolation.retrain"),
        "online.shadow.evaluate_s": durations("online.shadow.evaluate"),
        "online.swap_ms": durations("online.generations.adopt", 1e3),
        "online.first_query_after_swap_ms": first_after,
    }
    values.update({name: median(v) for name, v in per_cycle.items() if v})
    if promoted:
        values["online.clone_s"] = (
            server_dump["layers"]["online.clone"]["self_s"] / len(promoted))
    if to_live:
        values["trace.overhead_pct"] = (
            (max(to_live) - untraced_learn) / untraced_learn * 100)
    outcome.layers = values
    outcome.self_times = self_times
    outcome.unmeasured = dict(SPEC["unmeasured"])
    outcome.notes += SPEC["layer_notes"]
