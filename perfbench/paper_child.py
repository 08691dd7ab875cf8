"""The paper pipeline in a fresh interpreter (paper-reproduce workload).

Usage: python3 perfbench/paper_child.py --seed N --out RESULT.json
[--ready-only] [--trace]   (program ``src/`` on PYTHONPATH)

Prints ``ready`` once the imports are done and right before the first
pipeline call, so the parent can time interpreter start plus imports.
Then runs, with nothing memoized:

1. train_to_recommend: PB screen, top-10 IOR campaign, CART fit for both
   goals and the top-1 pick for the nine paper runs x 2 goals, ``TRAINS``
   times over on fresh contexts, spread over the run: once before the
   artifacts and once after each of their ``TRAINS - 1`` groups.  Every
   pass is cut into the same segments at each simulator run and each
   CART node grown, and learn_s sums each segment's slowest pass;
2. reproduce: Table 4 and Figures 4-10 on the first pass's context, in
   an order drawn from the seed;
3. queries: a seeded set of library queries, ``Acic.recommend`` one at
   a time on the trained models (the paper's query path, in process),
   answered in full in a window after each training pass and each
   artifact.

The platform itself is never re-seeded: other platform seeds move the
paper's headline shapes (Figure 5 and 9 checks fail for some), so the
seed only draws the query pool and the artifact order.  Headline-shape
and differential checks run after the clocks stop.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.cloud.platform import DEFAULT_PLATFORM  # noqa: E402
from repro.core.objectives import Goal  # noqa: E402
from repro.experiments import (  # noqa: E402,F401
    fig4_sample_tree,
    fig5_performance,
    fig6_cost,
    fig7_topk,
    fig8_training_cost,
    fig9_walking,
    fig10_userstudy,
    tab4_optimal,
)
from repro.experiments.context import NINE_RUNS, AcicContext  # noqa: E402
from repro.serving.engine import BatchQueryEngine  # noqa: E402

from queries import query_pool  # noqa: E402

from common import Recorder, Timeline, aligned_slowest, span_totals, vm_hwm_mb  # noqa: E402
import layers  # noqa: E402

#: Order in which the reproduce phase regenerates the artifacts.
FIGURES = (
    ("tab4", tab4_optimal),
    ("fig4", fig4_sample_tree),
    ("fig5", fig5_performance),
    ("fig6", fig6_cost),
    ("fig7", fig7_topk),
    ("fig8", fig8_training_cost),
    ("fig9", fig9_walking),
    ("fig10", fig10_userstudy),
)


def shape_checks(results: dict) -> list[str]:
    """The per-figure headline shapes; returns the failures."""
    failures = []

    def check(name: str, ok: bool) -> None:
        if not ok:
            failures.append(name)

    tab4, fig4 = results["tab4"], results["fig4"]
    check("tab4.rows", len(tab4.rows) == 9)
    check("tab4.unique_optima>=3", tab4.unique_optima >= 3)
    check("tab4.mean_agreement>=2.5", tab4.mean_agreement >= 2.5)
    check("fig4.n_leaves>50", fig4.n_leaves > 50)
    check("fig4.rendering", "avg=" in fig4.rendering)
    fig5 = results["fig5"]
    check("fig5.rows", len(fig5.rows) == 9)
    check("fig5.speedup_m>=1", all(row.speedup_m >= 1.0 for row in fig5.rows))
    check("fig5.geomean_b", 1.5 <= fig5.geometric_mean_b <= 6.0)
    fig6 = results["fig6"]
    check("fig6.rows", len(fig6.rows) == 9)
    check("fig6.mean_saving_b", 35.0 <= fig6.mean_saving_b_pct <= 75.0)
    fig7 = results["fig7"]
    check("fig7.monotone", all(r.monotone for r in fig7.time_rows + fig7.cost_rows))
    check("fig7.gain_beyond_top3<5", fig7.gain_beyond_top3 < 5.0)
    fig8 = results["fig8"]
    costs = fig8.costs()
    check("fig8.costs_increase", all(a < b for a, b in zip(costs, costs[1:])))
    check("fig8.levels", [lv.top_m for lv in fig8.levels] == list(range(7, 16)))
    fig9 = results["fig9"]
    random_mean, pb_mean, cart_mean = fig9.mean_savings
    check("fig9.cart_best", cart_mean >= pb_mean and cart_mean >= random_mean)
    check("fig9.cart_wins>=6", fig9.cart_wins >= 6)
    fig10 = results["fig10"]
    check("fig10.cells", len(fig10.cells) == 6)
    check("fig10.acic_beats_user", fig10.acic_beats_user_by > 0)
    return failures


#: Cold train-to-recommend passes per run, each on a fresh context.  The
#: host's speed moves in phases of seconds, so the passes are spread over
#: the run rather than run back to back.
TRAINS = 3
#: Distinct library queries per run.  Every window answers all of them,
#: so each window times the same work; there is one window after each
#: training pass and one after each of the 8 artifacts.
QUERIES = 200


def artifact_order(seed: int) -> list[str]:
    names = [name for name, _ in FIGURES]
    random.Random(f"perfbench-order:{seed}").shuffle(names)
    return names


def _answer(recommendations) -> list:
    return [(r.rank, r.config.key, r.predicted_improvement, r.co_champion_group)
            for r in recommendations]


def engine_mismatches(context, pool, windows) -> int:
    """Answers, over all windows, where ``Acic.recommend`` disagrees with
    the batch engine."""
    expected = [None] * len(pool)
    for goal in (Goal.PERFORMANCE, Goal.COST):
        engine = BatchQueryEngine(context.model(goal))
        positions = [i for i, q in enumerate(pool) if q.goal is goal]
        batch = engine.recommend_batch(
            [(pool[i].characteristics, pool[i].top_k) for i in positions]
        )
        for i, got in zip(positions, batch):
            expected[i] = _answer(got)
    return sum(1 for answers in windows for got, want in zip(answers, expected)
               if got != want)


#: Cuts every training pass into aligned segments (see common.Timeline).
TIMELINE = Timeline()


def mark_passes() -> None:
    """Mark each simulator run and each CART node grown: thousands of
    short segments per pass, the same ones in every pass."""
    from repro.iosim.engine import IOSimulator
    from repro.ml.cart import CartTree

    TIMELINE.patch(IOSimulator, "run")
    TIMELINE.patch(CartTree, "_grow")


def _train_and_pick() -> tuple[AcicContext, list[str]]:
    context = AcicContext.build(platform=DEFAULT_PLATFORM, top_m=10)
    picks = []
    for goal in (Goal.PERFORMANCE, Goal.COST):
        model = context.model(goal)
        for app, scale in NINE_RUNS:
            top = model.recommend(context.characteristics(app, scale), top_k=1)
            picks.append(top[0].config.key)
    return context, picks


def train_to_recommend() -> tuple[AcicContext, list[str], float]:
    """Cold screen, campaign and fits, then the 18 top-1 picks; timed."""
    (context, picks), seconds = TIMELINE.timed(_train_and_pick)
    return context, picks, seconds


def pipeline(seed: int, recorder: Recorder | None) -> dict:
    """Train to recommend ``TRAINS`` times over, regenerating the
    artifacts on the first pass's context between the later passes.

    The library queries are answered in full once after each training
    pass and once after each artifact, so the windows sample the whole
    run rather than one stretch of it.
    """
    pool = query_pool(seed, QUERIES, DEFAULT_PLATFORM.name)
    windows, answers = [], []

    def query_window(context) -> None:
        latencies, got = [], []
        for query in pool:
            began = time.perf_counter()
            top = context.model(query.goal).recommend(
                query.characteristics, top_k=query.top_k
            )
            latencies.append(time.perf_counter() - began)
            got.append(_answer(top))
        windows.append(latencies)
        answers.append(got)

    train_s, picks = [], []

    def timed_pass():
        context, top1, seconds = train_to_recommend()
        train_s.append(seconds)
        picks.append(top1)
        query_window(context)
        return context

    context = timed_pass()
    order = artifact_order(seed)
    size = -(-len(order) // (TRAINS - 1))
    results, figure_s = {}, {}
    for start in range(0, len(order), size):
        for name in order[start:start + size]:
            run = dict(FIGURES)[name].run
            if recorder is not None:
                run = recorder.wrap(f"experiments.{name}", run)
            began = time.perf_counter()
            results[name] = run(context)
            figure_s[name] = time.perf_counter() - began
            query_window(context)
        timed_pass()
    learn_s, aligned = aligned_slowest(TIMELINE.runs)
    return {
        "train_to_recommend_s": train_s,
        "learn_s": learn_s,
        "learn_segments": len(TIMELINE.runs[0]) - 1 if aligned else 0,
        "query_windows_s": windows,
        "reproduce_s": sum(figure_s.values()),
        "figure_s": figure_s,
        "picks": picks,
        "tab4": [row.config.key for row in results["tab4"].rows],
        "failures": shape_checks(results),
        "engine_mismatches": engine_mismatches(context, pool, answers),
        "records": len(context.database),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ready-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    recorder = Recorder()
    if args.trace:
        layers.instrument(recorder, layers.PAPER)
    else:
        # Untraced runs still count simulator runs and fits, with a
        # bare call counter that reads no clock.
        mark_passes()
        layers.instrument(recorder, layers.PAPER_COUNTS, timed=False)
    print("ready", flush=True)
    if args.ready_only:
        return

    telemetry_events = None
    if args.trace:
        from repro.telemetry import Telemetry, use_telemetry, write_events_jsonl

        telemetry = Telemetry(max_spans=2_000_000)
        with use_telemetry(telemetry):
            result = pipeline(args.seed, recorder)
        telemetry_events = args.out.with_suffix(".spans.jsonl")
        write_events_jsonl(telemetry.tracer, telemetry_events)
    else:
        result = pipeline(args.seed, None)
    result["peak_rss_mb"] = vm_hwm_mb(os.getpid())
    result["layers"] = recorder.snapshot()
    result["nested"] = recorder.snapshot(nested=True)
    if telemetry_events is not None:
        result["spans"] = span_totals(telemetry_events)
        telemetry_events.unlink()
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
