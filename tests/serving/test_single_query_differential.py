"""Differential suite: the hoisted single-query path vs the per-query join.

:meth:`Acic.recommend` and :meth:`Acic.co_champions` answer from one
encoded candidate matrix per configurator and the fitted model's packed
twin.  The reference here is the join they replaced, rebuilt by hand
for every query: enumerate :func:`candidate_configs` for the workload,
encode every (candidate, workload) point, predict through the learner's
own ``predict`` (the object-tree walk for CART), then rank with
:func:`rank_scored` / :func:`tied_champions`.  Answers must be equal —
same configurations, same float64 scores, same tie groups — over
hypothesis-drawn workloads (including shapes that mask candidates),
both goals, every top-k, a refit on a grown database, an
artifact-loaded packed model and learners with no packed form.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.configurator import Acic, rank_scored, tied_champions
from repro.core.database import TrainingDatabase
from repro.core.objectives import Goal
from repro.ml.cart import CartTree
from repro.ml.encoding import point_values
from repro.ml.flat import FlatTree
from repro.serving.artifacts import (
    ModelArtifact,
    PackedLearner,
    acic_from_artifact,
    artifact_from_dict,
    artifact_to_dict,
)
from repro.space.characteristics import AppCharacteristics, IOInterface, OpKind
from repro.space.configuration import FileSystemKind
from repro.space.grid import candidate_configs
from repro.util.units import KIB, MIB

_DATA_SIZES = (1 * MIB, 4 * MIB, 16 * MIB, 128 * MIB, 512 * MIB)
_REQUEST_SIZES = (256 * KIB, 1 * MIB, 4 * MIB, 16 * MIB, 128 * MIB)


@st.composite
def workloads(draw) -> AppCharacteristics:
    """Any valid workload; few processes mask part-time placements with
    more I/O servers than compute nodes, and POSIX never pairs with
    collective I/O."""
    num_processes = draw(st.integers(1, 512))
    interface = draw(st.sampled_from(list(IOInterface)))
    data_bytes = draw(st.sampled_from(_DATA_SIZES))
    return AppCharacteristics(
        num_processes=num_processes,
        num_io_processes=draw(st.integers(1, num_processes)),
        interface=interface,
        iterations=draw(st.integers(1, 100)),
        data_bytes=data_bytes,
        request_bytes=draw(
            st.sampled_from([r for r in _REQUEST_SIZES if r <= data_bytes])
        ),
        op=draw(st.sampled_from(list(OpKind))),
        collective=draw(st.booleans()) and interface.base is IOInterface.MPIIO,
        shared_file=draw(st.booleans()),
    )


def reference_scored(acic: Acic, chars: AppCharacteristics, model=None):
    """(score, candidate) pairs from the per-query join and ``model``'s
    own predict (default: the configurator's fitted model)."""
    model = acic.model if model is None else model
    candidates = candidate_configs(chars)
    X = acic.encoder.encode_many(
        [point_values(config, chars) for config in candidates]
    )
    scores = np.exp(model.predict(X))
    return list(zip(scores.tolist(), candidates))


def assert_same_answers(acic: Acic, chars: AppCharacteristics, model=None):
    scored = reference_scored(acic, chars, model)
    for top_k in (1, 3, len(scored)):
        assert acic.recommend(chars, top_k) == rank_scored(scored, top_k)
    assert acic.co_champions(chars) == tied_champions(scored)


def _train(small_pipeline, goal: Goal, learner: str = "cart") -> Acic:
    screening, database = small_pipeline
    return Acic(
        database,
        goal=goal,
        learner_name=learner,
        feature_names=tuple(screening.ranked_names()[:5]),
    ).train()


@pytest.fixture(scope="module")
def models(small_pipeline) -> dict:
    return {goal: _train(small_pipeline, goal) for goal in Goal}


class TestDrawnWorkloads:
    @given(chars=workloads())
    @settings(max_examples=60, deadline=None)
    def test_answers_match_the_per_query_join(self, models, chars):
        for acic in models.values():
            assert isinstance(acic.model, CartTree)
            assert isinstance(acic.predictor(), FlatTree)
            assert_same_answers(acic, chars)

    @given(chars=workloads())
    @settings(max_examples=40, deadline=None)
    def test_join_encodes_every_column_like_the_per_candidate_path(
        self, small_pipeline, chars
    ):
        _screening, database = small_pipeline
        acic = Acic(database)  # all fifteen columns, no model needed
        X, candidates = acic.candidate_matrix().join(chars)
        assert candidates == candidate_configs(chars)
        expected = acic.encoder.encode_many(
            [point_values(config, chars) for config in candidates]
        )
        assert X.tobytes() == expected.tobytes()


class TestQueryPathState:
    def test_grid_is_enumerated_once_per_configurator(
        self, small_pipeline, simple_chars, posix_chars, monkeypatch
    ):
        import repro.core.configurator as configurator

        acic = _train(small_pipeline, Goal.PERFORMANCE)
        calls = []
        enumerate_grid = configurator.candidate_configs

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_grid(*args, **kwargs)

        monkeypatch.setattr(configurator, "candidate_configs", counted)
        for chars in (simple_chars, posix_chars, simple_chars):
            acic.recommend(chars, top_k=3)
            acic.co_champions(chars)
        assert len(calls) == 1
        assert acic.candidate_matrix() is acic.candidate_matrix()

    def test_refit_on_a_grown_database_serves_the_new_model(
        self, small_pipeline, simple_chars, posix_chars
    ):
        screening, database = small_pipeline
        grown = TrainingDatabase.from_payload(database.to_payload())
        acic = Acic(
            grown, feature_names=tuple(screening.ranked_names()[:5])
        ).train()
        before = [acic.recommend(c, top_k=5) for c in (simple_chars, posix_chars)]
        stale_twin = acic.predictor()

        # Contributions claiming NFS is 1000x better move the model.
        for record in list(database):
            if record.values["file_system"] is FileSystemKind.NFS:
                grown.add(
                    dataclasses.replace(
                        record,
                        perf_improvement=1000.0,
                        cost_improvement=1000.0,
                        epoch=2,
                        source="grown",
                    )
                )
        acic.train()
        assert acic.predictor() is not stale_twin
        after = [acic.recommend(c, top_k=5) for c in (simple_chars, posix_chars)]
        assert after != before
        for chars in (simple_chars, posix_chars):
            assert_same_answers(acic, chars)

    def test_concurrent_first_queries_share_one_correct_state(
        self, small_pipeline, simple_chars, posix_chars
    ):
        """Threads racing through the lazy matrix/twin build all answer
        like the per-query join (more threads than cores, tiny switch
        interval so the race actually interleaves)."""
        acic = _train(small_pipeline, Goal.PERFORMANCE)
        queries = [simple_chars, posix_chars]
        expected = [
            rank_scored(reference_scored(acic, chars), 3) for chars in queries
        ]
        answers: list = []
        errors: list = []

        def query() -> None:
            try:
                for _ in range(20):
                    answers.append(
                        [acic.recommend(chars, top_k=3) for chars in queries]
                    )
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=query) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(answers) == 8 * 20
        assert all(answer == expected for answer in answers)


class TestModelForms:
    @pytest.mark.parametrize("goal", list(Goal))
    def test_artifact_loaded_packed_model(
        self, models, small_pipeline, goal, simple_chars, posix_chars
    ):
        _screening, database = small_pipeline
        trained = models[goal]
        artifact = artifact_from_dict(
            artifact_to_dict(ModelArtifact.from_acic(trained))
        )
        served = acic_from_artifact(database, artifact)
        assert isinstance(served.model, PackedLearner)
        assert served.predictor() is served.model.flat
        for chars in (simple_chars, posix_chars):
            # Reference: the original CartTree's object walk.
            assert_same_answers(served, chars, model=trained.model)

    @pytest.mark.parametrize("learner", ["knn", "ridge"])
    def test_learner_without_a_packed_form(
        self, small_pipeline, learner, simple_chars, posix_chars
    ):
        for goal in Goal:
            acic = _train(small_pipeline, goal, learner)
            assert acic.predictor() is acic.model
            for chars in (simple_chars, posix_chars):
                assert_same_answers(acic, chars)
