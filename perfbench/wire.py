"""Helpers shared by the workloads that drive ``acic serve`` over TCP."""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    CACHE,
    Recorder,
    ServerProcess,
    median,
    span_totals,
)
from queries import response_key
from report import Outcome
from repro.net.client import AcicClient

#: Server processes spawned per run to time set-up; the last one serves.
SETUP_REPEATS = 3


class Workdir:
    """A scratch directory inside the checkout, removed on exit."""

    def __enter__(self) -> Path:
        (CACHE / "runs").mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=CACHE / "runs"))
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


class Traced:
    """Where a traced server writes its recorder dump and span events.

    ``program_spans`` also turns on the program's own telemetry
    (``--telemetry-out``).
    """

    def __init__(self, workdir: Path, program_spans: bool = True) -> None:
        self.record = workdir / "server-layers.json"
        self.events = workdir / "server-spans.jsonl" if program_spans else None

    @property
    def launcher(self) -> list[str]:
        return [str(BENCH_DIR / "traced_serve.py"), str(self.record)]

    @property
    def serve_args(self) -> list[str]:
        return ["--telemetry-out", str(self.events)] if self.events else []

    def read(self) -> tuple[dict, dict, dict]:
        """(recorder dump, kept events, program span totals).

        The dump's ``layers`` are per-layer totals and its ``roots`` the
        self time under each outermost layer of a call chain.
        """
        dump = json.loads(self.record.read_text())
        spans = span_totals(self.events) if self.events else {}
        return dump, dump["events"], spans


def start_server(serve_args, workdir: Path, probe, expected,
                 repeats: int = SETUP_REPEATS, traced: Traced | None = None):
    """Time ``repeats`` cold starts; returns (median setup_s, live server).

    Set-up runs from spawning ``acic serve`` until its first answer to
    ``probe`` arrived and equalled ``expected``.  Every server but the
    last is stopped again.
    """
    times = []
    server = None
    for attempt in range(repeats):
        last = attempt == repeats - 1
        extra = traced.serve_args if traced is not None and last else []
        launcher = traced.launcher if traced is not None and last else None
        server = ServerProcess(list(serve_args(attempt)) + extra, workdir,
                               launcher=launcher)
        try:
            with AcicClient("127.0.0.1", server.port, timeout_s=60.0) as client:
                answer = client.query(probe)
            times.append(time.perf_counter() - server.started)
            if response_key(answer) != expected:
                raise RuntimeError("the server's first answer is wrong")
        except BaseException:
            server.stop()
            raise
        if not last:
            server.stop()
    return median(times), server


def server_counters(port: int) -> dict:
    """Every counter in the server's metrics registry, by name."""
    with AcicClient("127.0.0.1", port, timeout_s=60.0) as client:
        body = client.ops_metrics("json")
    return {
        name: metric["value"]
        for name, metric in body["metrics"].items()
        if metric["kind"] == "counter"
    }


def instrument_client() -> Recorder:
    """Time the benchmark client's own frame and JSON codec calls."""
    import layers

    recorder = Recorder()
    layers.instrument(recorder, layers.CLIENT)
    return recorder


def wire_layers(samples, server_layers: dict, client_layers: dict) -> dict:
    """Per-request layer figures common to the wire workloads.

    Codec figures sum each codec layer's self time, so a batch decode
    and the per-query decodes nested in it are counted once.
    ``net.server.wait_ms`` is the client round trip minus the service
    call (``AcicService.handle`` / ``query_batch``, what the server's
    ``net.request`` span wraps) minus every codec call on either side:
    the time a request spent in sockets, the event loop, the pool queue,
    admission and waiting for the service lock.
    """
    n = len(samples)
    rtt = sum(s.done - s.sent for s in samples)

    def total(source: dict, *names: str, key: str = "self_s") -> float:
        return sum(source.get(name, {}).get(key, 0.0) for name in names)

    server_codec = total(server_layers, "net.protocol.encode", "net.protocol.decode")
    api_decode = total(server_layers, "service.api.decode", "service.api.decode_batch")
    api_encode = total(server_layers, "service.api.encode")
    client_decode = total(client_layers, "net.client.frame_decode", "net.client.decode",
                          "net.client.decode_batch")
    client_codec = client_decode + total(client_layers, "net.client.encode")
    service_call = total(server_layers, "service.server.handle",
                         "service.server.query_batch", key="inclusive_s")
    wait = rtt - service_call - server_codec - api_decode - api_encode - client_codec
    per = 1.0 / n if n else 0.0
    return {
        "net.protocol.codec_us": server_codec * per * 1e6,
        "service.api.decode_us": api_decode * per * 1e6,
        "service.api.encode_us": api_encode * per * 1e6,
        "net.client.decode_us": client_decode * per * 1e6,
        "net.server.wait_ms": wait * per * 1e3,
        "_rtt_s": rtt,
    }


def check_answer(outcome: Outcome, label: str, response, expected_key) -> None:
    """An answer must equal the in-process oracle's; a degraded one fails."""
    if response.degraded:
        outcome.fail(f"{label}: degraded or shed answer")
    elif response_key(response) != expected_key:
        outcome.fail(f"{label}: answer differs from the oracle")


def oracle_answers(pack, queries) -> dict:
    """In-process answers from ``AcicService.load(pack).query_batch``."""
    from repro.service.server import AcicService

    service = AcicService.load(pack)
    distinct = list({q.fingerprint: q for q in queries}.values())
    answers = {}
    for start in range(0, len(distinct), 256):
        chunk = distinct[start:start + 256]
        for query, response in zip(chunk, service.query_batch(chunk)):
            answers[query.fingerprint] = response_key(response)
    return answers


#: Outermost server layers that run beside the request path: the warm
#: start, and the online loop's worker thread.
BACKGROUND_ROOTS = ("serving.artifacts.load", "online.coordinator.cycle")


def _entry(source: dict, name: str) -> dict:
    return source.get(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})


def single_query_layers(layers: dict, nested: dict) -> dict:
    """Per-query stage times of the sequential ``Acic.recommend`` path.

    Each stage counts only its calls made directly by ``Acic.recommend``
    (not, say, an engine build's ``candidate_configs``), per
    ``Acic.recommend`` call; ``query.*`` are the stage times under the
    names every workload reports.
    """
    recommend = _entry(layers, "core.configurator.recommend")
    calls = recommend["calls"]
    if not calls:
        return {}

    def under(stage: str) -> float:
        return _entry(nested, f"core.configurator.recommend>{stage}")["inclusive_s"] / calls * 1e6

    values = {
        "core.configurator.recommend_us": recommend["self_s"] / calls * 1e6,
        "space.grid.candidates_us": under("space.grid.candidates"),
        "core.configurator.predict_us": under("core.configurator.predict"),
        "core.configurator.rank_us": under("core.configurator.rank"),
        "query.answer_us": recommend["inclusive_s"] / calls * 1e6,
    }
    values["query.candidates_us"] = values["space.grid.candidates_us"]
    values["query.predict_us"] = values["core.configurator.predict_us"]
    values["query.rank_us"] = values["core.configurator.rank_us"]
    return values


def batch_query_layers(spans: dict, counters: dict) -> dict:
    """Per-frame and per-query stage times of the batch engine, read from
    the program's own ``serving.*`` spans."""
    batch = spans.get("serving.recommend_batch", {})
    frames, queries = batch.get("calls", 0), batch.get("queries", 0)
    if not frames or not queries:
        return {}

    def stage(name: str) -> float:
        return spans.get(name, {}).get("inclusive_s", 0.0)

    values = {
        "serving.engine.join_ms": stage("serving.join") / frames * 1e3,
        "serving.engine.predict_ms": stage("serving.predict") / frames * 1e3,
        "serving.engine.rank_ms": stage("serving.rank") / frames * 1e3,
        "query.answer_us": batch["inclusive_s"] / queries * 1e6,
        "query.candidates_us": stage("serving.join") / queries * 1e6,
        "query.predict_us": stage("serving.predict") / queries * 1e6,
        "query.rank_us": stage("serving.rank") / queries * 1e6,
    }
    scored = counters.get("serving.candidates_scored")
    if scored:
        values["serving.candidates_scored"] = scored
        values["ml.flat.rows_per_ms"] = scored / (stage("serving.predict") * 1e3)
    return values


def serving_layers(samples, server_dump, client_layers, query_stages: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a wire workload's traced run, and self times.

    ``query_stages`` holds the stage times of the workload's query path
    (:func:`single_query_layers` or :func:`batch_query_layers`).  The
    unattributed remainder is the client round-trip time not covered
    by any timed layer on the request path: server layers outside the
    background roots, service-lock waits and the client's codec calls.
    What is left is sockets, the event loop and the worker-pool queue.
    """
    server_layers = server_dump["layers"]
    values = wire_layers(samples, server_layers, client_layers)
    rtt = values.pop("_rtt_s")
    n = max(1, len(samples))
    service_self = (_entry(server_layers, "service.server.handle")["self_s"]
                    + _entry(server_layers, "service.server.query_batch")["self_s"])
    values.update(query_stages)
    values["serving.artifacts.load_s"] = _entry(
        server_layers, "serving.artifacts.load")["inclusive_s"]
    values["service.server.self_us"] = service_self / n * 1e6
    values["net.server.lock_wait_ms"] = (
        _entry(server_layers, "net.server.lock_wait")["inclusive_s"] / n * 1e3)
    self_times = {f"server:{k}": v["self_s"] for k, v in server_layers.items()}
    self_times.update({f"client:{k}": v["self_s"] for k, v in client_layers.items()})
    request_path = sum(v for root, v in server_dump["roots"].items()
                       if root not in BACKGROUND_ROOTS)
    attributed = request_path + sum(v["self_s"] for v in client_layers.values())
    self_times["(unattributed)"] = rtt - attributed
    values["trace.unattributed_pct"] = (rtt - attributed) / rtt * 100 if rtt else 0.0
    return values, self_times
