"""Which public functions the traced run times, and under which layer.

Each entry names a layer metric of the benchmark and the public
function (module attribute, class method or classmethod) whose calls
are its boundary.  A function imported by name into other modules is
replaced there too, so callers that looked it up at import time are
timed as well.  Only the benchmark's process or its launcher patch
these; no file under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import sys

from common import Recorder

#: (layer metric, "module:qualname") boundaries of the paper pipeline.
PAPER = (
    ("pb.screen", "repro.pb.ranking:screen_parameters"),
    ("core.training.collect", "repro.core.training:TrainingCollector.collect"),
    ("iosim.run", "repro.iosim.engine:IOSimulator.run"),
    ("core.configurator.train", "repro.core.configurator:Acic.train"),
    ("ml.cart.fit", "repro.ml.cart:CartTree.fit"),
    ("experiments.sweep", "repro.experiments.sweep:sweep_workload"),
    ("core.configurator.recommend", "repro.core.configurator:Acic.recommend"),
    ("space.grid.candidates", "repro.space.grid:candidate_configs"),
    ("core.configurator.predict", "repro.core.configurator:Acic.score_candidates"),
    ("core.configurator.rank", "repro.core.configurator:rank_scored"),
)

#: Counted (not timed) in untraced paper runs, so counts exist every run.
PAPER_COUNTS = (PAPER[2], PAPER[3])

#: Boundaries inside an ``acic serve`` process.
SERVER = (
    ("serving.artifacts.load", "repro.service.server:AcicService.load"),
    ("net.protocol.encode", "repro.net.protocol:encode_frame"),
    ("net.protocol.decode", "repro.net.protocol:FrameDecoder.feed"),
    ("service.api.decode", "repro.service.api:QueryRequest.from_payload"),
    ("service.api.decode_batch", "repro.service.api:BatchQueryRequest.from_payload"),
    ("service.api.encode", "repro.service.api:QueryResponse.to_payload"),
    ("service.server.handle", "repro.service.server:AcicService.handle"),
    ("service.server.query_batch", "repro.service.server:AcicService.query_batch"),
    ("core.configurator.recommend", "repro.core.configurator:Acic.recommend"),
    ("space.grid.candidates", "repro.space.grid:candidate_configs"),
    ("core.configurator.predict", "repro.core.configurator:Acic.score_candidates"),
    ("core.configurator.rank", "repro.core.configurator:rank_scored"),
    ("serving.engine.recommend_batch", "repro.serving.engine:BatchQueryEngine.recommend_batch"),
    ("serving.engine.join", "repro.serving.engine:BatchQueryEngine._join"),
    ("ml.flat.predict", "repro.ml.flat:FlatTree.predict"),
    ("online.log.append", "repro.online.log:ContributionLog.append"),
    ("online.coordinator.cycle", "repro.online.coordinator:OnlineCoordinator.run_once"),
    # Self time: cloning the live databases through their payload codec,
    # merging the batch and shipping it to the retrain child.
    ("online.clone", "repro.online.coordinator:OnlineCoordinator._build_candidate"),
    ("online.isolation.retrain", "repro.online.isolation:train_candidate_isolated"),
    ("online.shadow.evaluate", "repro.online.shadow:ShadowEvaluator.evaluate"),
    ("online.generations.adopt", "repro.service.server:AcicService.adopt_generation"),
)

#: Boundaries inside the benchmark's own client process.
CLIENT = (
    ("net.client.encode", "repro.net.client:encode_frame"),
    ("net.client.frame_decode", "repro.net.protocol:FrameDecoder.feed"),
    ("net.client.decode", "repro.service.api:QueryResponse.from_payload"),
    ("net.client.decode_batch", "repro.service.api:BatchQueryResponse.from_payload"),
)


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def instrument(recorder: Recorder, boundaries, timed: bool = True) -> None:
    """Wrap every boundary; module-level functions everywhere they are bound."""
    for name, target in boundaries:
        owner, attr = _resolve(target)
        original = getattr(owner, attr)
        if isinstance(owner, type):
            recorder.patch(owner, attr, name, timed=timed)
            continue
        wrapped = (recorder.wrap if timed else recorder.count)(name, original)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and \
                    getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
