"""Unit tests for fault plans and the deterministic injector."""

from __future__ import annotations

import pytest

from repro.reliability import (
    NO_FAULT,
    NULL_INJECTOR,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedError,
    get_injector,
    set_injector,
    use_injector,
)


class TestFaultRule:
    def test_defaults_are_a_certain_error(self):
        rule = FaultRule(site="iosim.run")
        assert rule.kind == "error"
        assert rule.probability == 1.0
        assert rule.max_hits is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "explode"},
            {"probability": -0.1},
            {"probability": 1.5},
            {"latency_s": -1.0},
            {"factor": 0.0},
            {"factor": -2.0},
            {"max_hits": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultRule(site="iosim.run", **kwargs)

    def test_glob_matching(self):
        rule = FaultRule(site="serving.*")
        assert rule.matches("serving.predict")
        assert not rule.matches("iosim.run")
        assert FaultRule(site="ml.fit").matches("ml.fit")

    def test_payload_round_trip(self):
        rule = FaultRule(
            site="ml.*", kind="latency", probability=0.25, latency_s=1.5, max_hits=7
        )
        assert FaultRule.from_payload(rule.to_payload()) == rule

    def test_payload_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fields"):
            FaultRule.from_payload({"site": "x", "probabilty": 0.5})

    def test_payload_requires_site(self):
        with pytest.raises(ValueError, match="missing 'site'"):
            FaultRule.from_payload({"kind": "error"})

    def test_payload_must_be_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            FaultRule.from_payload(["site"])

    def test_describe_mentions_shape(self):
        text = FaultRule(
            site="iosim.run", kind="corrupt", factor=2.0, max_hits=3
        ).describe()
        assert "corrupt@iosim.run" in text
        assert "x2" in text


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            rules=(
                FaultRule(site="serving.predict", probability=0.2),
                FaultRule(site="iosim.run", kind="latency", latency_s=3.0),
            ),
            seed=42,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan

    def test_from_json_defaults(self):
        plan = FaultPlan.from_json('{"rules": [{"site": "ml.fit"}]}')
        assert plan.seed == 0
        assert plan.rules[0].kind == "error"

    @pytest.mark.parametrize(
        "text",
        ["not json", "[]", '{"rules": 5}', '{"rules": [{"kind": "error"}]}'],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            FaultPlan.from_json(text)

    @pytest.mark.parametrize(
        "field, literal",
        [
            ("factor", "NaN"),
            ("factor", "Infinity"),
            ("factor", "-Infinity"),
            ("latency_s", "NaN"),
            ("latency_s", "Infinity"),
            ("latency_s", "-Infinity"),
        ],
    )
    def test_rejects_non_finite_literals(self, field, literal):
        kind = "corrupt" if field == "factor" else "latency"
        text = (
            '{"seed": 1, "rules": [{"site": "iosim.run", "kind": "%s", '
            '"%s": %s, "max_hits": 1}]}' % (kind, field, literal)
        )
        with pytest.raises(ValueError, match=field):
            FaultPlan.from_json(text)


class TestFaultInjector:
    def test_deterministic_across_instances(self, chaos_seed):
        plan = FaultPlan(
            rules=(FaultRule(site="iosim.run", probability=0.3),), seed=chaos_seed
        )

        def trace(injector):
            outcomes = []
            for _ in range(200):
                try:
                    injector.perturb("iosim.run")
                    outcomes.append("ok")
                except InjectedError:
                    outcomes.append("boom")
            return outcomes

        assert trace(FaultInjector(plan)) == trace(FaultInjector(plan))

    def test_empirical_rate_tracks_probability(self, chaos_seed):
        plan = FaultPlan(
            rules=(FaultRule(site="iosim.run", probability=0.2),), seed=chaos_seed
        )
        injector = FaultInjector(plan)
        for _ in range(1000):
            try:
                injector.perturb("iosim.run")
            except InjectedError:
                pass
        assert 0.12 <= injector.hits() / 1000 <= 0.28

    def test_max_hits_is_a_burst_outage(self):
        plan = FaultPlan(rules=(FaultRule(site="iosim.run", max_hits=3),))
        injector = FaultInjector(plan)
        for _ in range(3):
            with pytest.raises(InjectedError):
                injector.perturb("iosim.run")
        assert injector.perturb("iosim.run") is NO_FAULT
        assert injector.hits() == 3

    def test_reset_replays_the_plan(self):
        plan = FaultPlan(rules=(FaultRule(site="iosim.run", max_hits=1),))
        injector = FaultInjector(plan)
        with pytest.raises(InjectedError):
            injector.perturb("iosim.run")
        assert injector.perturb("iosim.run").clean
        injector.reset()
        with pytest.raises(InjectedError):
            injector.perturb("iosim.run")

    def test_latency_and_corruption_compose(self):
        plan = FaultPlan(
            rules=(
                FaultRule(site="iosim.run", kind="latency", latency_s=2.0),
                FaultRule(site="iosim.run", kind="latency", latency_s=0.5),
                FaultRule(site="iosim.run", kind="corrupt", factor=3.0),
            )
        )
        decision = FaultInjector(plan).perturb("iosim.run")
        assert decision.latency_s == pytest.approx(2.5)
        assert decision.factor == pytest.approx(3.0)
        assert not decision.clean

    def test_error_dominates_other_kinds(self):
        plan = FaultPlan(
            rules=(
                FaultRule(site="iosim.run", kind="latency", latency_s=2.0),
                FaultRule(site="iosim.run", kind="error"),
            )
        )
        with pytest.raises(InjectedError) as excinfo:
            FaultInjector(plan).perturb("iosim.run")
        assert excinfo.value.site == "iosim.run"

    def test_unmatched_site_is_clean_and_free(self):
        injector = FaultInjector(FaultPlan(rules=(FaultRule(site="ml.*"),)))
        assert injector.perturb("iosim.run") is NO_FAULT
        assert injector.hits() == 0


class TestActiveInjector:
    def test_disabled_by_default(self):
        assert get_injector() is NULL_INJECTOR
        assert not NULL_INJECTOR.enabled
        assert NULL_INJECTOR.perturb("anything") is NO_FAULT
        assert NULL_INJECTOR.hits() == 0
        NULL_INJECTOR.reset()  # harmless

    def test_use_injector_scopes_and_restores(self):
        injector = FaultInjector(FaultPlan())
        with use_injector(injector) as active:
            assert active is injector
            assert get_injector() is injector
        assert get_injector() is NULL_INJECTOR

    def test_set_injector_returns_previous(self):
        injector = FaultInjector(FaultPlan())
        assert set_injector(injector) is NULL_INJECTOR
        assert set_injector(NULL_INJECTOR) is injector
