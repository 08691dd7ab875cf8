"""Tests for the released training-data artifact (data/)."""

import json
from pathlib import Path

import pytest

from repro.core.configurator import Acic
from repro.core.database import TrainingDatabase
from repro.core.objectives import Goal
from repro.core.quality import check_database

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture(scope="module")
def released() -> TrainingDatabase:
    return TrainingDatabase.load(DATA_DIR / "ec2-us-east-top7.json")


@pytest.fixture(scope="module")
def screening_artifact() -> dict:
    return json.loads((DATA_DIR / "ec2-us-east-screening.json").read_text())


class TestArtifact:
    def test_loads_with_expected_size(self, released):
        assert len(released) == 1116
        assert released.platform_name == "ec2-us-east"

    def test_screening_artifact_consistent(self, screening_artifact):
        assert len(screening_artifact["ranked_names"]) == 15
        assert screening_artifact["seed"] == 20130917

    def test_passes_quality_audit(self, released, screening_artifact):
        report = check_database(released)
        by_name = {c.name: c for c in report.coverage}
        for name in screening_artifact["ranked_names"][:5]:
            assert by_name[name].complete, name
        assert report.outlier_fraction < 0.01

    def test_matches_fresh_regeneration(self, released, context):
        """The artifact is deterministic: re-collecting reproduces every
        record's measurements (to a tolerance, as the artifact may come
        from another numpy build)."""
        from repro.core.training import TrainingCollector, TrainingPlan

        fresh_db = TrainingDatabase()
        TrainingCollector(fresh_db).collect(
            TrainingPlan.build(context.screening.ranked_names(), 7)
        )
        assert len(fresh_db) == len(released)
        by_location = {
            tuple(sorted((k, str(v)) for k, v in r.values.items())): r
            for r in fresh_db
        }
        for record in released:
            key = tuple(sorted((k, str(v)) for k, v in record.values.items()))
            fresh = by_location[key]
            for field in ("seconds", "cost", "perf_improvement", "cost_improvement"):
                want = getattr(record, field)
                assert getattr(fresh, field) == pytest.approx(want), field

    def test_answers_queries(self, released, screening_artifact, simple_chars):
        acic = Acic(
            released,
            goal=Goal.COST,
            feature_names=tuple(screening_artifact["ranked_names"][:7]),
        ).train()
        recommendations = acic.recommend(simple_chars, top_k=3)
        assert recommendations[0].predicted_improvement > 1.0
