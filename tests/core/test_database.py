"""Tests for the crowdsourced training database."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.database import TrainingDatabase, TrainingRecord
from repro.core.objectives import Goal
from repro.ior.runner import IorRunner
from repro.ior.spec import IorSpec
from repro.ml.encoding import FeatureEncoder, point_values
from repro.space.configuration import BASELINE_CONFIG
from repro.space.grid import candidate_configs


def make_record(config, chars, seconds=10.0, epoch=0, source="test") -> TrainingRecord:
    return TrainingRecord(
        values=point_values(config, chars),
        seconds=seconds,
        cost=seconds / 3600 * 5 * 2.4,
        perf_improvement=2.0,
        cost_improvement=1.5,
        epoch=epoch,
        source=source,
    )


@pytest.fixture()
def populated(simple_chars, platform) -> TrainingDatabase:
    runner = IorRunner(platform=platform)
    spec = IorSpec.from_characteristics(simple_chars)
    db = TrainingDatabase(platform.name)
    for config in candidate_configs(simple_chars)[:10]:
        db.add(TrainingRecord.from_observation(runner.measure(spec, config)))
    return db


class TestRecord:
    def test_from_observation_carries_ratios(self, simple_chars, platform):
        runner = IorRunner(platform=platform)
        spec = IorSpec.from_characteristics(simple_chars)
        obs = runner.measure(spec, candidate_configs(simple_chars)[0])
        record = TrainingRecord.from_observation(obs, epoch=3, source="alice")
        assert record.perf_improvement == pytest.approx(obs.speedup)
        assert record.cost_improvement == pytest.approx(obs.cost_ratio)
        assert record.epoch == 3 and record.source == "alice"

    def test_unknown_dimension_rejected(self, simple_chars):
        values = point_values(BASELINE_CONFIG, simple_chars)
        values["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            TrainingRecord(values=values, seconds=1.0, cost=1.0,
                           perf_improvement=1.0, cost_improvement=1.0)

    @pytest.mark.parametrize(
        "bad",
        [0.0, float("nan"), float("inf"), float("-inf")],
        ids=["zero", "nan", "inf", "-inf"],
    )
    @pytest.mark.parametrize(
        "field", ["seconds", "cost", "perf_improvement", "cost_improvement"]
    )
    def test_nonpositive_measurements_rejected(self, simple_chars, field, bad):
        payload = make_record(BASELINE_CONFIG, simple_chars).to_payload()
        payload[field] = bad
        # json writes and reads these as the literals NaN, Infinity, -Infinity
        payload = json.loads(json.dumps(payload))
        with pytest.raises(ValueError, match="positive and finite"):
            TrainingRecord.from_payload(payload)

    def test_target_selector(self, simple_chars):
        record = make_record(BASELINE_CONFIG, simple_chars)
        assert record.target(Goal.PERFORMANCE) == 2.0
        assert record.target(Goal.COST) == 1.5


class TestAddAndDedup:
    def test_add_and_len(self, simple_chars):
        db = TrainingDatabase()
        assert db.add(make_record(BASELINE_CONFIG, simple_chars))
        assert len(db) == 1

    def test_exact_duplicate_refused(self, simple_chars):
        db = TrainingDatabase()
        record = make_record(BASELINE_CONFIG, simple_chars)
        assert db.add(record)
        assert not db.add(make_record(BASELINE_CONFIG, simple_chars))
        assert len(db) == 1

    def test_different_epoch_is_a_new_point(self, simple_chars):
        db = TrainingDatabase()
        db.add(make_record(BASELINE_CONFIG, simple_chars, epoch=0))
        assert db.add(make_record(BASELINE_CONFIG, simple_chars, epoch=1))
        assert len(db) == 2

    def test_extend_counts_new_only(self, simple_chars):
        db = TrainingDatabase()
        records = [make_record(BASELINE_CONFIG, simple_chars)] * 3
        assert db.extend(records) == 1


class TestMergeAndAging:
    def test_merge_combines(self, populated, simple_chars, platform):
        other = TrainingDatabase(platform.name)
        other.add(make_record(BASELINE_CONFIG, simple_chars, source="bob"))
        before = len(populated)
        assert populated.merge(other) == 1
        assert len(populated) == before + 1

    def test_merge_idempotent(self, populated, platform, simple_chars):
        other = TrainingDatabase(platform.name)
        other.add(make_record(BASELINE_CONFIG, simple_chars, source="bob"))
        populated.merge(other)
        assert populated.merge(other) == 0

    def test_cross_platform_merge_refused(self, populated):
        foreign = TrainingDatabase("azure-west")
        with pytest.raises(ValueError, match="azure-west"):
            populated.merge(foreign)

    def test_age_out_drops_old_epochs(self, simple_chars):
        db = TrainingDatabase()
        db.add(make_record(BASELINE_CONFIG, simple_chars, epoch=0))
        db.add(make_record(BASELINE_CONFIG, simple_chars, epoch=5))
        assert db.age_out(min_epoch=3) == 1
        assert len(db) == 1
        assert all(r.epoch >= 3 for r in db)

    def test_aged_point_can_return(self, simple_chars):
        """Aging must not leave a stale fingerprint behind."""
        db = TrainingDatabase()
        record = make_record(BASELINE_CONFIG, simple_chars, epoch=0)
        db.add(record)
        db.age_out(min_epoch=1)
        assert db.add(make_record(BASELINE_CONFIG, simple_chars, epoch=0))

    def test_filter(self, simple_chars):
        db = TrainingDatabase()
        db.add(make_record(BASELINE_CONFIG, simple_chars, source="walk"))
        db.add(make_record(BASELINE_CONFIG, simple_chars, source="init", epoch=1))
        walks = db.filter(lambda r: r.source == "walk")
        assert len(walks) == 1


class TestMatrix:
    def test_to_matrix_shapes(self, populated):
        encoder = FeatureEncoder()
        X, y = populated.to_matrix(encoder, Goal.PERFORMANCE)
        assert X.shape == (len(populated), 15)
        assert y.shape == (len(populated),)

    def test_targets_are_log_ratios(self, populated):
        import numpy as np

        encoder = FeatureEncoder()
        _, y = populated.to_matrix(encoder, Goal.COST)
        expected = np.log([r.cost_improvement for r in populated])
        assert np.allclose(y, expected)

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            TrainingDatabase().to_matrix(FeatureEncoder(), Goal.COST)


class TestPersistence:
    def test_save_load_round_trip(self, populated, tmp_path):
        path = tmp_path / "db.json"
        populated.save(path)
        loaded = TrainingDatabase.load(path)
        assert len(loaded) == len(populated)
        assert loaded.platform_name == populated.platform_name
        for original, restored in zip(populated, loaded):
            assert restored.values == original.values
            assert restored.seconds == original.seconds
            assert restored.perf_improvement == original.perf_improvement

    def test_loaded_matrix_identical(self, populated, tmp_path):
        import numpy as np

        path = tmp_path / "db.json"
        populated.save(path)
        loaded = TrainingDatabase.load(path)
        encoder = FeatureEncoder()
        X1, y1 = populated.to_matrix(encoder, Goal.PERFORMANCE)
        X2, y2 = loaded.to_matrix(encoder, Goal.PERFORMANCE)
        assert np.allclose(X1, X2) and np.allclose(y1, y2)

    @settings(max_examples=20, deadline=None)
    @given(
        index=st.integers(min_value=0, max_value=55),
        epoch=st.integers(min_value=0, max_value=9),
    )
    def test_round_trip_any_config(self, tmp_path_factory, index, epoch):
        from repro.space.characteristics import AppCharacteristics, IOInterface, OpKind
        from repro.util.units import MIB

        chars = AppCharacteristics(
            num_processes=64, num_io_processes=64, interface=IOInterface.MPIIO,
            iterations=10, data_bytes=16 * MIB, request_bytes=4 * MIB,
            op=OpKind.WRITE, collective=True, shared_file=True,
        )
        configs = candidate_configs(chars)
        config = configs[index % len(configs)]
        db = TrainingDatabase()
        db.add(make_record(config, chars, epoch=epoch))
        path = tmp_path_factory.mktemp("db") / "round.json"
        db.save(path)
        loaded = TrainingDatabase.load(path)
        assert loaded.records[0].values == db.records[0].values
