"""What a run reports: the metric names, units, the count ledger and the
final result line.

Every workload reports every end-to-end metric (each has a meaning on
each workload; see ``spec.json``).  The traced run's result line holds
the per-layer metrics that every workload's own traced run measures; the
full per-layer report, with each layer's self time and the layers a
workload does not run or cannot measure marked as such, goes to the
lines before it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from common import BENCH_DIR, CACHE, ROOT, code_version

_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: (name, unit) of the end-to-end metrics, as BENCHMARK.json lists them.
END_TO_END = tuple((m["name"], m["unit"]) for m in _BENCHMARK["end_to_end"])

#: (name, unit) of the per-layer metrics in the traced run's result line:
#: the timings that every workload's own traced run measures.
PER_LAYER = tuple((m["name"], m["unit"]) for m in _BENCHMARK["per_layer"])

#: Counts a serving process keeps in its metrics registry that every
#: wire run records; each must repeat exactly for one code version,
#: workload, seed and run length (the paper run counts simulator runs
#: and fits itself).
SERVER_COUNTS = (
    "net.frames_in", "net.frames_out", "net.protocol.bytes_in",
    "net.protocol.bytes_out", "net.admission.shed", "service.cache.hits",
    "service.cache.misses", "service.cache.evictions",
    "serving.candidate_matrix.hits", "serving.candidate_matrix.misses",
)
ONLINE_COUNTS = ("online.contributions", "online.cycles", "online.promotions")

#: Every per-layer metric the traced run reports (value, no work, or why
#: it cannot be measured from outside), in layer order.
LAYER_METRICS = (
    "pb.screen_s", "core.training.collect_s", "iosim.runs", "iosim.run_us",
    "ml.cart.fit_s", "ml.fits", "experiments.sweep_s", "experiments.reproduce_s",
    "experiments.tab4_s", "experiments.fig4_s", "experiments.fig5_s",
    "experiments.fig6_s", "experiments.fig7_s", "experiments.fig8_s",
    "experiments.fig9_s", "experiments.fig10_s",
    "serving.artifacts.load_s", "net.protocol.codec_us", "net.protocol.bytes_in",
    "net.protocol.bytes_out", "service.api.decode_us", "service.api.encode_us",
    "net.client.decode_us", "net.server.wait_ms", "net.server.lock_wait_ms",
    "net.admission.shed",
    "service.server.self_us", "service.cache.hits", "service.cache.misses",
    "service.cache.evictions", "core.configurator.recommend_us",
    "space.grid.candidates_us", "core.configurator.predict_us",
    "core.configurator.rank_us", "serving.engine.join_ms", "serving.engine.predict_ms",
    "serving.engine.rank_ms", "serving.candidates_scored", "ml.flat.rows_per_ms",
    "serving.candidate_matrix.hits", "serving.candidate_matrix.misses",
    "online.log.ack_ms", "online.contributions", "online.poll_wait_s", "online.clone_s",
    "online.cycle_s", "online.cycles", "online.promotions", "online.isolation.retrain_s",
    "online.shadow.evaluate_s", "online.swap_ms", "online.first_query_after_swap_ms",
    "query.answer_us", "query.candidates_us", "query.predict_us", "query.rank_us",
    "trace.unattributed_pct", "trace.overhead_pct",
)

#: Counts the server's registry keeps under another name.
_REGISTRY_NAMES = {
    "net.protocol.bytes_in": "net.bytes_in",
    "net.protocol.bytes_out": "net.bytes_out",
}


@dataclass
class Outcome:
    """One workload run's findings."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    #: Counts that legitimately depend on timing (listed, never compared).
    timing_counts: tuple[str, ...] = ()
    layers: dict[str, float] = field(default_factory=dict)
    self_times: dict[str, float] = field(default_factory=dict)
    unmeasured: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, problem: str, operations: int = 1) -> None:
        self.failed += operations
        self.problems.append(problem)


def counts_from_server(counters: dict, names=SERVER_COUNTS) -> dict[str, int]:
    """The wire workloads' counts from the server's registry counters; a
    counter the server never created has counted nothing."""
    return {
        name: int(counters.get(_REGISTRY_NAMES.get(name, name), 0))
        for name in names
    }


def layer_unit(name: str) -> str:
    for suffix, unit in (("rows_per_ms", "1/ms"), ("_us", "us"), ("_ms", "ms"),
                         ("_s", "s"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


def check_counts(workload: str, seed: int, seconds: int, outcome: Outcome) -> list[str]:
    """Compare this run's counts with earlier runs of the same key.

    The ledger lives in the checkout's benchmark cache.  Returns the
    names of counts that differ from the first run recorded for the same
    program and benchmark code, workload, seed and run length.
    """
    ledger_path = CACHE / "counts.json"
    CACHE.mkdir(parents=True, exist_ok=True)
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    key = f"{code_version()}:{code_version(BENCH_DIR, '*.*')}:{workload}:{seed}:{seconds}"
    exact = {k: v for k, v in outcome.counts.items() if k not in outcome.timing_counts}
    first = ledger.setdefault(key, exact)
    differ = sorted(k for k in set(first) | set(exact) if first.get(k) != exact.get(k))
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(ledger_path)
    return differ


def emit(workload: str, seed: int, seconds: int, trace: bool, outcome: Outcome) -> None:
    """Print the human-readable report, then the result line."""
    out = sys.stdout
    if trace:
        for name, _ in PER_LAYER:
            if name not in outcome.layers:
                outcome.fail(f"per-layer metric {name} was not measured")
    for note in outcome.notes:
        print(f"# {note}", file=out)
    for problem in outcome.problems[:20]:
        print(f"# FAILED: {problem}", file=out)
    print(f"# counts: {json.dumps(outcome.counts, sort_keys=True)}", file=out)
    if outcome.timing_counts:
        print(f"# timing-dependent counts (not compared): "
              f"{', '.join(outcome.timing_counts)}", file=out)
    differ = check_counts(workload, seed, seconds, outcome)
    if differ:
        message = (f"# FLAG: counts differ from an earlier run of the same code "
                   f"and seed: {', '.join(differ)}")
        print(message, file=out)
        print(message, file=sys.stderr)
    if trace:
        for name in LAYER_METRICS:
            if name in outcome.unmeasured:
                print(f"# layer {name}: not measured: {outcome.unmeasured[name]}", file=out)
            elif name in outcome.layers:
                print(f"# layer {name} = {outcome.layers[name]!r} {layer_unit(name)}",
                      file=out)
            elif name in outcome.counts:
                print(f"# layer {name} = {outcome.counts[name]} count", file=out)
            else:
                print(f"# layer {name}: no work on this workload", file=out)
        for name, value in sorted(outcome.self_times.items(), key=lambda kv: -kv[1]):
            print(f"# self {name} = {value!r} s", file=out)
        metrics = {
            name: {"value": float(outcome.layers.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        for name, unit in END_TO_END:
            print(f"# {name} = {outcome.end_to_end[name]!r} {unit}", file=out)
        metrics = {
            name: {"value": float(outcome.end_to_end[name]), "unit": unit}
            for name, unit in END_TO_END
        }
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": max(1, int(outcome.attempted)),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    print(json.dumps(result), file=out, flush=True)
