"""paper-reproduce: the cold paper pipeline in a fresh interpreter.

Why: this is the paper's own path.  The simulator (iosim/ior) and CART
fitting do nearly all the work; no serving layer does any.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from common import BENCH_DIR, child_env, median, quantile
from report import Outcome
from wire import Workdir, single_query_layers

CHILD = BENCH_DIR / "paper_child.py"
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())["workloads"]["paper-reproduce"]
#: Interpreter starts timed per run for setup_s; the last one runs the pipeline.
SETUP_REPEATS = 7


def _spawn(seed: int, out, ready_only: bool, trace: bool = False):
    """Start the child; returns (seconds until 'ready', process)."""
    command = [sys.executable, str(CHILD), "--seed", str(seed), "--out", str(out)]
    if ready_only:
        command.append("--ready-only")
    if trace:
        command.append("--trace")
    started = time.perf_counter()
    proc = subprocess.Popen(command, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"pipeline child did not start: {line!r}")
    return ready, proc


def _finish(proc, timeout_s: float = 170.0) -> None:
    try:
        proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"pipeline child exited with {proc.returncode}")


def _pipeline(seed: int, workdir, repeats: int, trace: bool = False) -> tuple[float, dict]:
    times = []
    for attempt in range(repeats):
        out = workdir / f"result-{attempt}-{int(trace)}.json"
        last = attempt == repeats - 1
        ready, proc = _spawn(seed, out, ready_only=not last, trace=trace)
        times.append(ready)
        _finish(proc)
    return median(times), json.loads(out.read_text())


def _figures(result: dict) -> dict:
    """learn_s from the aligned training passes; the query figures over
    each library query's upper quartile over the windows, which all
    answer the same queries (see spec.json, typical_speed)."""
    typical = [quantile(times, 0.75) for times in zip(*result["query_windows_s"])]
    return {
        "learn_s": result["learn_s"],
        "query_p50_ms": median(typical) * 1e3,
        "query_tail_ms": quantile(typical, 0.9) * 1e3,
    }


def _check(result: dict, outcome: Outcome) -> None:
    outcome.attempted = (1 + sum(len(w) for w in result["query_windows_s"])
                         + len(result["figure_s"]))
    for failure in result["failures"]:
        outcome.fail(f"headline shape check {failure}")
    if result["engine_mismatches"]:
        outcome.fail(f"{result['engine_mismatches']} library answers differ from "
                     "the batch engine's", result["engine_mismatches"])
    for number, picks in enumerate(result["picks"], 1):
        if picks != SPEC["expected"]["top1_picks"]:
            outcome.fail(f"pass {number}: top-1 picks differ from the recorded values")
    if result["tab4"] != SPEC["expected"]["table4_optima"]:
        outcome.fail("Table 4 optima differ from the recorded values")


def run(seed: int, seconds: int, trace: bool) -> Outcome:
    outcome = Outcome()
    with Workdir() as workdir:
        setup_s, result = _pipeline(seed, workdir, SETUP_REPEATS)
        _check(result, outcome)
        outcome.end_to_end = {
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
            **_figures(result),
        }
        counted = result["layers"]
        outcome.counts = {
            "iosim.runs": counted["iosim.run"]["calls"],
            "ml.fits": counted["core.configurator.train"]["calls"],
        }
        latencies = [t for w in result["query_windows_s"] for t in w]
        outcome.notes += [
            f"train_to_recommend_s per pass: {result['train_to_recommend_s']!r}; "
            + (f"learn_s over {result['learn_segments']} aligned segments per pass"
               if result["learn_segments"] else
               "the passes made different numbers of marked calls, so learn_s "
               "is the slowest pass"),
            f"reproduce_s = {result['reproduce_s']!r}",
            "artifact order and seconds: " + ", ".join(
                f"{name} {s:.3f}" for name, s in result["figure_s"].items()),
            f"capacity (not bounded): {len(latencies) / sum(latencies):.1f} library "
            "queries per second over every answer",
            f"library queries pooled: {len(latencies)}, p50 "
            f"{median(latencies) * 1e3:.3f} ms, p90 {quantile(latencies, 0.9) * 1e3:.3f} ms, "
            f"p99 {quantile(latencies, 0.99) * 1e3:.3f} ms",
        ]
        if trace:
            _, traced = _pipeline(seed, workdir, 1, trace=True)
            _check(traced, outcome)
            _trace_layers(result, traced, outcome)
    return outcome


def _trace_layers(untraced: dict, traced: dict, outcome: Outcome) -> None:
    layers = traced["layers"]

    def inclusive(name: str) -> float:
        return layers.get(name, {}).get("inclusive_s", 0.0)

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    def per_call_us(name: str) -> float:
        entry = layers[name]
        return entry["inclusive_s"] / entry["calls"] * 1e6

    def e2e(result: dict) -> float:
        return (sum(result["train_to_recommend_s"]) + result["reproduce_s"]
                + sum(sum(w) for w in result["query_windows_s"]))

    e2e_traced, e2e_untraced = e2e(traced), e2e(untraced)
    attributed = sum(entry["self_s"] for entry in layers.values())
    values = {
        "pb.screen_s": inclusive("pb.screen"),
        "core.training.collect_s": inclusive("core.training.collect"),
        "iosim.runs": calls("iosim.run"),
        "iosim.run_us": per_call_us("iosim.run"),
        "ml.cart.fit_s": inclusive("ml.cart.fit"),
        "ml.fits": calls("core.configurator.train"),
        "experiments.sweep_s": inclusive("experiments.sweep"),
        "experiments.reproduce_s": traced["reproduce_s"],
        **single_query_layers(layers, traced["nested"]),
        "trace.unattributed_pct": (e2e_traced - attributed) / e2e_traced * 100.0,
        "trace.overhead_pct": (e2e_traced - e2e_untraced) / e2e_untraced * 100.0,
    }
    for name, seconds_taken in traced["figure_s"].items():
        values[f"experiments.{name}_s"] = seconds_taken
    outcome.layers = values
    outcome.self_times = {name: entry["self_s"] for name, entry in layers.items()}
    outcome.self_times["(unattributed)"] = e2e_traced - attributed
    outcome.unmeasured = dict(SPEC["unmeasured"])
    outcome.notes += [
        f"program span {name}: {entry['calls']} calls, self {entry['self_s']:.3f} s"
        for name, entry in sorted(traced["spans"].items())
    ]
