"""Tests for the declarative fault-plan layer: specs, plans, the grammar."""

import json

import pytest

from repro.faults import (
    RECOVERY_POLICIES,
    RECOVERY_REJOIN,
    RECOVERY_REPLAY,
    SKEW_MODES,
    SKEW_SOUND,
    SKEW_UNSOUND,
    ByzantineSpec,
    ClockSkewSpec,
    CrashSpec,
    FaultPlan,
    FaultStats,
    format_fault_plan,
    parse_fault_plan,
)


class TestCrashSpec:
    def test_defaults(self):
        spec = CrashSpec(process=1, after_events=4)
        assert spec.down_events == 1
        assert spec.recovery == RECOVERY_REPLAY

    def test_negative_process_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CrashSpec(process=-1, after_events=1)

    def test_crash_before_first_event_rejected(self):
        with pytest.raises(ValueError, match="after_events"):
            CrashSpec(process=0, after_events=0)

    def test_negative_downtime_rejected(self):
        with pytest.raises(ValueError, match="down_events"):
            CrashSpec(process=0, after_events=1, down_events=-1)

    def test_unknown_recovery_rejected(self):
        with pytest.raises(ValueError, match="recovery policy"):
            CrashSpec(process=0, after_events=1, recovery="pray")

    def test_known_recovery_policies(self):
        assert RECOVERY_POLICIES == (RECOVERY_REPLAY, RECOVERY_REJOIN)
        for recovery in RECOVERY_POLICIES:
            CrashSpec(process=0, after_events=1, recovery=recovery)

    def test_describe_is_json_serialisable(self):
        spec = CrashSpec(process=2, after_events=5, down_events=3, recovery="rejoin")
        description = json.loads(json.dumps(FaultPlan(crashes=(spec,)).describe()))
        assert description["crashes"] == [{
            "process": 2,
            "after_events": 5,
            "down_events": 3,
            "recovery": "rejoin",
        }]


class TestFaultPlan:
    def test_empty_plan_is_noop(self):
        assert FaultPlan().is_noop(3)
        assert FaultPlan().specs_for(0) == ()

    def test_out_of_range_specs_make_plan_noop(self):
        plan = FaultPlan((CrashSpec(process=7, after_events=2),))
        assert plan.is_noop(3)
        assert not plan.is_noop(8)

    def test_specs_ordered_by_process_then_trigger(self):
        plan = FaultPlan(
            (
                CrashSpec(process=1, after_events=9),
                CrashSpec(process=0, after_events=4),
                CrashSpec(process=1, after_events=2),
            )
        )
        assert [(s.process, s.after_events) for s in plan.crashes] == [
            (0, 4),
            (1, 2),
            (1, 9),
        ]

    def test_specs_for_filters_by_process(self):
        plan = FaultPlan(
            (CrashSpec(process=0, after_events=2), CrashSpec(process=1, after_events=3))
        )
        assert [s.process for s in plan.specs_for(1)] == [1]

    def test_overlapping_cycles_rejected(self):
        # the first cycle is still down (2 + 3 >= 4) when the second triggers
        with pytest.raises(ValueError, match="overlapping"):
            FaultPlan(
                (
                    CrashSpec(process=0, after_events=2, down_events=3),
                    CrashSpec(process=0, after_events=4),
                )
            )

    def test_back_to_back_cycles_allowed(self):
        plan = FaultPlan(
            (
                CrashSpec(process=0, after_events=2, down_events=1),
                CrashSpec(process=0, after_events=4),
            )
        )
        assert len(plan.crashes) == 2

    def test_overlap_on_different_processes_allowed(self):
        plan = FaultPlan(
            (
                CrashSpec(process=0, after_events=2, down_events=5),
                CrashSpec(process=1, after_events=3),
            )
        )
        assert len(plan.crashes) == 2

    def test_describe_is_json_serialisable(self):
        plan = FaultPlan((CrashSpec(process=0, after_events=1),))
        description = json.loads(json.dumps(plan.describe()))
        assert description["crashes"][0]["process"] == 0


class TestGrammar:
    def test_parse_minimal_spec(self):
        plan = parse_fault_plan("1@4")
        assert plan.crashes == (CrashSpec(process=1, after_events=4),)

    def test_parse_full_spec(self):
        plan = parse_fault_plan("0@2+3:rejoin")
        assert plan.crashes == (
            CrashSpec(process=0, after_events=2, down_events=3, recovery="rejoin"),
        )

    def test_parse_multiple_specs_with_whitespace(self):
        plan = parse_fault_plan(" 1@4:replay , 0@2+3:rejoin ,")
        assert len(plan.crashes) == 2

    def test_parse_empty_text_gives_empty_plan(self):
        assert parse_fault_plan("") == FaultPlan()

    @pytest.mark.parametrize("text", ["nonsense", "1@", "@3", "a@b", "1@2+x"])
    def test_invalid_specs_rejected(self, text):
        with pytest.raises(ValueError, match="invalid fault spec"):
            parse_fault_plan(text)

    def test_invalid_recovery_surfaces_policy_error(self):
        with pytest.raises(ValueError, match="recovery policy"):
            parse_fault_plan("1@2:pray")

    def test_format_parse_roundtrip(self):
        plan = FaultPlan(
            (
                CrashSpec(process=0, after_events=2, down_events=3, recovery="rejoin"),
                CrashSpec(process=2, after_events=5),
            )
        )
        assert parse_fault_plan(format_fault_plan(plan)) == plan

    def test_format_empty_plan(self):
        assert format_fault_plan(FaultPlan()) == ""


class TestAmbiguousScheduleRegression:
    """down_events=0 cycles whose restart coincides with the next crash.

    The restart of a zero-downtime cycle triggers on the arrival of event
    ``after_events + 1`` — exactly the crash trigger of a second cycle with
    ``after_events + 1``.  Which fires first used to depend on dict
    iteration details inside the proxy; such schedules are now rejected
    outright.
    """

    def test_zero_downtime_followed_by_adjacent_crash_rejected(self):
        with pytest.raises(ValueError, match="ambiguous crash schedule"):
            FaultPlan(
                (
                    CrashSpec(process=0, after_events=2, down_events=0),
                    CrashSpec(process=0, after_events=3),
                )
            )

    def test_error_names_both_cycles_and_the_event(self):
        with pytest.raises(ValueError, match="arrival of event 2"):
            FaultPlan(
                (
                    CrashSpec(process=1, after_events=1, down_events=0),
                    CrashSpec(process=1, after_events=2, down_events=1),
                )
            )

    def test_zero_downtime_with_a_gap_allowed(self):
        plan = FaultPlan(
            (
                CrashSpec(process=0, after_events=1, down_events=0),
                CrashSpec(process=0, after_events=3, down_events=0),
            )
        )
        assert len(plan.crashes) == 2

    def test_adjacent_cycles_on_other_processes_allowed(self):
        plan = FaultPlan(
            (
                CrashSpec(process=0, after_events=2, down_events=0),
                CrashSpec(process=1, after_events=3),
            )
        )
        assert len(plan.crashes) == 2

    def test_grammar_surfaces_the_rejection(self):
        with pytest.raises(ValueError, match="ambiguous crash schedule"):
            parse_fault_plan("0@2+0,0@3")


class TestByzantineSpec:
    def test_defaults_are_noop(self):
        spec = ByzantineSpec(process=0)
        assert spec.is_noop

    def test_negative_process_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ByzantineSpec(process=-1, duplicate_every=2)

    def test_negative_cadence_rejected(self):
        with pytest.raises(ValueError, match="duplicate_every"):
            ByzantineSpec(process=0, duplicate_every=-1)

    def test_unit_corrupt_cadence_rejected(self):
        # cadence 1 would corrupt the very first captured token before a
        # stale copy even exists; cadences are >= 2 or 0 (disabled)
        with pytest.raises(ValueError, match="cadence"):
            ByzantineSpec(process=0, replay_every=1)

    def test_describe_is_json_serialisable(self):
        spec = ByzantineSpec(process=1, duplicate_every=3, drop_every=5)
        description = json.loads(json.dumps(FaultPlan(byzantine=(spec,)).describe()))
        assert description["byzantine"][0]["process"] == 1
        assert description["byzantine"][0]["duplicate_every"] == 3

    def test_duplicate_spec_per_process_rejected(self):
        with pytest.raises(ValueError, match="duplicate ByzantineSpec"):
            FaultPlan(
                byzantine=(
                    ByzantineSpec(process=0, duplicate_every=2),
                    ByzantineSpec(process=0, drop_every=4),
                )
            )

    def test_byzantine_for_skips_noop_specs(self):
        plan = FaultPlan(
            byzantine=(
                ByzantineSpec(process=0),
                ByzantineSpec(process=1, corrupt_every=2),
            )
        )
        assert plan.byzantine_for(0) is None
        assert plan.byzantine_for(1).corrupt_every == 2
        assert plan.byzantine_for(2) is None


class TestClockSkewSpec:
    def test_modes(self):
        assert SKEW_MODES == (SKEW_SOUND, SKEW_UNSOUND)
        for mode in SKEW_MODES:
            ClockSkewSpec(mode=mode)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="skew mode"):
            ClockSkewSpec(mode="sideways")

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            ClockSkewSpec(rate=-0.1)

    def test_zero_rate_is_noop(self):
        assert ClockSkewSpec(rate=0.0).is_noop
        assert not ClockSkewSpec(rate=0.1).is_noop

    def test_plan_noop_accounts_for_adversarial_parts(self):
        assert FaultPlan(clock_skew=ClockSkewSpec(rate=0.0)).is_noop(3)
        assert not FaultPlan(clock_skew=ClockSkewSpec(rate=0.5)).is_noop(3)
        assert FaultPlan(byzantine=(ByzantineSpec(process=0),)).is_noop(3)
        assert not FaultPlan(
            byzantine=(ByzantineSpec(process=0, drop_every=4),)
        ).is_noop(3)


class TestAdversarialGrammar:
    def test_parse_byzantine_chunk(self):
        plan = parse_fault_plan("1!dup3!corrupt4!replay5!drop6")
        spec = plan.byzantine[0]
        assert (spec.process, spec.duplicate_every, spec.corrupt_every) == (1, 3, 4)
        assert (spec.replay_every, spec.drop_every) == (5, 6)

    def test_parse_partial_byzantine_chunk(self):
        plan = parse_fault_plan("0!drop4")
        assert plan.byzantine == (ByzantineSpec(process=0, drop_every=4),)

    def test_parse_skew_chunk(self):
        plan = parse_fault_plan("skew@unsound~0.5~2~77")
        assert plan.clock_skew == ClockSkewSpec(
            mode=SKEW_UNSOUND, rate=0.5, magnitude=2, seed=77
        )

    def test_two_skew_chunks_rejected(self):
        with pytest.raises(ValueError, match="at most one"):
            parse_fault_plan("skew@sound~0.5~1~1,skew@sound~0.5~1~2")

    @pytest.mark.parametrize(
        "text", ["0!", "0!dup", "0!dupx", "0!warp3", "skew@fast~0.5~1~1", "skew@sound~2~1"]
    )
    def test_invalid_adversarial_chunks_rejected(self, text):
        with pytest.raises(ValueError):
            parse_fault_plan(text)

    def test_mixed_plan_roundtrip(self):
        plan = FaultPlan(
            crashes=(CrashSpec(process=0, after_events=2, down_events=3),),
            byzantine=(ByzantineSpec(process=2, duplicate_every=3, drop_every=5),),
            clock_skew=ClockSkewSpec(mode=SKEW_SOUND, rate=0.25, magnitude=1, seed=9),
        )
        assert parse_fault_plan(format_fault_plan(plan)) == plan

    def test_describe_adds_adversarial_keys_only_when_present(self):
        bare = FaultPlan((CrashSpec(process=0, after_events=1),))
        assert "byzantine" not in bare.describe()
        assert "clock_skew" not in bare.describe()
        full = FaultPlan(
            byzantine=(ByzantineSpec(process=0, corrupt_every=2),),
            clock_skew=ClockSkewSpec(),
        )
        description = json.loads(json.dumps(full.describe()))
        assert description["byzantine"][0]["corrupt_every"] == 2
        assert description["clock_skew"]["mode"] == SKEW_SOUND


class TestFaultStats:
    def test_as_dict_exposes_fault_prefixed_floats(self):
        stats = FaultStats(crashes=2, restarts=2, held_messages=5)
        row = stats.as_dict()
        assert row["fault_crashes"] == 2.0
        assert row["fault_restarts"] == 2.0
        assert row["fault_held_messages"] == 5.0
        assert all(key.startswith("fault") for key in row)
        assert all(isinstance(value, float) for value in row.values())

    def test_extra_counters_merged(self):
        stats = FaultStats(extra={"fault_custom": 1.0})
        assert stats.as_dict()["fault_custom"] == 1.0
