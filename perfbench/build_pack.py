"""Build the serving workloads' training data and artifact pack with the
code under test.

Usage (program ``src/`` on PYTHONPATH):

    python3 perfbench/build_pack.py campaign [--top-m M] OUT_DIR
    python3 perfbench/build_pack.py pack CAMPAIGN_DIR OUT_DIR

``campaign`` runs the paper pipeline's cold start (PB screen, top-M IOR
campaign, M = 10 by default) and writes the training database with a
side file ``campaign.json`` (platform, ranked and trained dimensions).
``pack`` hosts that database in an ``AcicService`` using the trained
dimensions, fits CART for both goals and saves the pack with a copy of
``campaign.json`` as ``bench-pack.json``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cloud.platform import DEFAULT_PLATFORM
from repro.core.database import TrainingDatabase
from repro.core.objectives import Goal
from repro.experiments.context import AcicContext
from repro.service.server import AcicService


def campaign(out: Path, top_m: int) -> None:
    context = AcicContext.build(platform=DEFAULT_PLATFORM, top_m=top_m)
    out.mkdir(parents=True, exist_ok=True)
    context.database.save(out / "database.json")
    ranked = list(context.screening.ranked_names())
    (out / "campaign.json").write_text(json.dumps({
        "platform": context.platform.name,
        "ranked_names": ranked,
        "feature_names": ranked[:top_m],
        "records": len(context.database),
    }))


def pack(source: Path, out: Path) -> None:
    info = json.loads((source / "campaign.json").read_text())
    service = AcicService(feature_names=tuple(info["feature_names"]))
    service.host_database(TrainingDatabase.load(source / "database.json"))
    for goal in (Goal.PERFORMANCE, Goal.COST):
        service.warm(info["platform"], goal)
    service.save(out)
    (out / "bench-pack.json").write_text(json.dumps(info))


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="step", required=True)
    first = sub.add_parser("campaign")
    first.add_argument("--top-m", type=int, default=10)
    first.add_argument("out", type=Path)
    second = sub.add_parser("pack")
    second.add_argument("source", type=Path)
    second.add_argument("out", type=Path)
    args = parser.parse_args()
    if args.step == "campaign":
        campaign(args.out, args.top_m)
    else:
        pack(args.source, args.out)


if __name__ == "__main__":
    main()
