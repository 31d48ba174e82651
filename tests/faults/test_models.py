"""Tests for the per-seed fault models scenarios carry in their ``faults`` field."""

import json
import pickle

import pytest

from repro.faults import (
    CrashSpec,
    FaultModel,
    FaultPlan,
    RollingCrashFaults,
    SingleCrashFaults,
)

ALL_MODELS = [
    FaultPlan((CrashSpec(process=0, after_events=2),)),
    SingleCrashFaults(),
    SingleCrashFaults(down_events=3, recovery="rejoin"),
    RollingCrashFaults(down_events=2),
]


class TestProtocol:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_models_satisfy_protocol_and_pickle(self, model):
        assert isinstance(model, FaultModel)
        assert pickle.loads(pickle.dumps(model)) == model

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_describe_is_json_serialisable_with_kind(self, model):
        description = json.loads(json.dumps(model.describe()))
        assert "kind" in description


class TestLiteralPlan:
    def test_builds_itself_unchanged(self):
        plan = FaultPlan((CrashSpec(process=1, after_events=4),))
        assert plan.build(3, 10, seed=7) is plan
        assert plan.build(3, 10, seed=8) is plan  # seed-independent

    def test_describes_as_explicit(self):
        plan = FaultPlan((CrashSpec(process=1, after_events=4),))
        description = plan.describe()
        assert list(description)[:2] == ["kind", "crashes"]
        assert description["kind"] == "explicit"


class TestSingleCrashFaults:
    def test_deterministic_per_seed(self):
        model = SingleCrashFaults()
        assert model.build(4, 10, seed=3) == model.build(4, 10, seed=3)

    def test_different_seeds_vary_the_schedule(self):
        model = SingleCrashFaults()
        plans = {model.build(8, 50, seed=s) for s in range(30)}
        assert len(plans) > 1

    def test_spec_within_system_bounds(self):
        model = SingleCrashFaults(down_events=2, recovery="rejoin")
        for seed in range(25):
            plan = model.build(3, 10, seed=seed)
            (spec,) = plan.crashes
            assert 0 <= spec.process < 3
            assert 1 <= spec.after_events <= 9
            assert spec.down_events == 2
            assert spec.recovery == "rejoin"

    def test_single_event_traces_still_buildable(self):
        plan = SingleCrashFaults().build(2, 1, seed=0)
        (spec,) = plan.crashes
        assert spec.after_events == 1

    def test_none_seed_supported(self):
        assert SingleCrashFaults().build(2, 10, seed=None).crashes


class TestRollingCrashFaults:
    def test_every_monitor_crashes_exactly_once(self):
        plan = RollingCrashFaults().build(5, 10, seed=11)
        assert sorted(spec.process for spec in plan.crashes) == list(range(5))

    def test_deterministic_per_seed(self):
        model = RollingCrashFaults(down_events=2)
        assert model.build(4, 12, seed=9) == model.build(4, 12, seed=9)

    def test_fault_rng_stream_independent_of_workload_rng(self):
        # same raw seed as a workload would use, but salted: the schedule must
        # not be a function of random.Random(seed)'s first draws
        import random

        model = SingleCrashFaults()
        plan = model.build(16, 1000, seed=1234)
        workload_rng = random.Random(1234)
        (spec,) = plan.crashes
        assert (spec.process, spec.after_events) != (
            workload_rng.randrange(16),
            workload_rng.randint(1, 999),
        )
