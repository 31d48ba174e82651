"""Tests for the network conditions: asymmetric links, partitions, run state."""

import random

import pytest

from repro.api import run_streaming
from repro.core.delays import DelayModel
from repro.experiments.properties import case_study_registry
from repro.ltl import build_monitor
from repro.scenarios import (
    AsymmetricNetwork,
    BurstyNetwork,
    LossyNetwork,
    MultiPartitionNetwork,
    PartitionNetwork,
    ReliableNetwork,
    get_scenario,
    scenario_names,
)
from repro.sim import SimulatedNetwork, Simulator, random_computation, simulate_monitored_run


def _sends(seed, count=300, processes=6):
    """A random, time-ordered sequence of ``(now, sender, target)`` sends."""
    rng = random.Random(seed)
    now = 0.0
    sends = []
    for _ in range(count):
        now += rng.expovariate(20.0)
        sends.append((now, rng.randrange(processes), rng.randrange(processes)))
    return sends


class TestRunStateStaysOutOfTheCondition:
    """One condition instance is shared by every run and every shard."""

    @pytest.mark.parametrize("name", scenario_names())
    @pytest.mark.parametrize("seed", [0, 2015])
    def test_runs_of_one_condition_are_independent(self, name, seed):
        condition = get_scenario(name).network
        description = condition.describe()
        sends = _sends(seed)
        alone = condition.delay_model(seed)
        solo = [alone.delivery_time(*send) for send in sends]
        again = condition.delay_model(seed)
        assert [again.delivery_time(*send) for send in sends] == solo
        assert again.extra_stats() == alone.extra_stats()
        # interleaved with a sibling run on the same condition: no shared state
        first, second = condition.delay_model(seed), condition.delay_model(seed)
        left, right = [], []
        for send in sends:
            left.append(first.delivery_time(*send))
            right.append(second.delivery_time(*send))
        assert left == right == solo
        assert first.extra_stats() == second.extra_stats() == alone.extra_stats()
        assert all(instant >= now for instant, (now, _, _) in zip(solo, sends))
        assert condition.describe() == description

    def test_delay_model_is_a_delay_model(self):
        for name in scenario_names():
            assert isinstance(get_scenario(name).network.delay_model(3), DelayModel)


class TestConstructorChecks:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ReliableNetwork(latency=-0.1),
            lambda: ReliableNetwork(jitter=-0.1),
            lambda: LossyNetwork(loss_probability=1.0),
            lambda: LossyNetwork(loss_probability=-0.1),
            lambda: LossyNetwork(retransmit_timeout=-1.0),
            lambda: LossyNetwork(latency=-1.0),
            lambda: PartitionNetwork(windows=((5.0, 2.0),)),
            lambda: PartitionNetwork(windows=((-1.0, 2.0),)),
            lambda: PartitionNetwork(num_groups=1),
            lambda: PartitionNetwork(jitter=-1.0),
            lambda: BurstyNetwork(period=0.0),
            lambda: BurstyNetwork(latency=-1.0),
            lambda: MultiPartitionNetwork(jitter=-1.0),
        ],
    )
    def test_invalid_condition_raises_when_built(self, build):
        with pytest.raises(ValueError):
            build()


class TestAsymmetricLatencyMatrix:
    def test_direction_matters(self):
        matrix = AsymmetricNetwork(base_latency=0.1, jitter=0.0, skew=1.5)
        forward = matrix.latency_for(0, 1)
        backward = matrix.latency_for(1, 0)
        assert forward != backward
        run = matrix.delay_model(None)
        assert run.delivery_time(0.0, 0, 1) == pytest.approx(forward)
        assert run.delivery_time(0.0, 1, 0) == pytest.approx(backward)

    def test_self_loop_has_base_latency(self):
        matrix = AsymmetricNetwork(base_latency=0.1, jitter=0.0, skew=2.0)
        assert matrix.latency_for(3, 3) == pytest.approx(0.1)

    def test_explicit_pair_overrides_ring_formula(self):
        matrix = AsymmetricNetwork(base_latency=0.1, jitter=0.0, pairs=(((0, 1), 0.7),))
        assert matrix.latency_for(0, 1) == pytest.approx(0.7)
        # the reverse direction still follows the formula
        assert matrix.latency_for(1, 0) != pytest.approx(0.7)

    def test_zero_skew_degenerates_to_symmetric(self):
        matrix = AsymmetricNetwork(base_latency=0.1, jitter=0.0, skew=0.0)
        assert matrix.latency_for(0, 1) == matrix.latency_for(1, 0) == pytest.approx(0.1)

    def test_jitter_varies_around_pair_base(self):
        run = AsymmetricNetwork(base_latency=0.1, jitter=0.01).delay_model(3)
        samples = {run.delivery_time(0.0, 0, 1) for _ in range(10)}
        assert len(samples) > 1
        assert all(value >= 0.0 for value in samples)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AsymmetricNetwork(base_latency=-0.1)
        with pytest.raises(ValueError):
            AsymmetricNetwork(skew=-1.0)
        with pytest.raises(ValueError):
            AsymmetricNetwork(ring=1)
        with pytest.raises(ValueError):
            AsymmetricNetwork(pairs=(((0, 1), -0.5),))


def _phases(schedule):
    """One run of a multi-partition condition pinned to *schedule*."""
    return MultiPartitionNetwork(latency=0.1, jitter=0.0, schedule=schedule).delay_model(None)


class TestMultiPartitionDelay:
    SCHEDULE = ((1.0, 4.0, ((0, 1),)), (6.0, 9.0, ((0, 2), (1,))))

    def test_message_inside_phase_held_until_heal(self):
        delay = _phases(self.SCHEDULE)
        # at t=2.0: phase one separates {0,1} from the rest group {2, ...}
        assert delay.delivery_time(2.0, 0, 2) == pytest.approx(4.0 + 0.1)
        assert delay.held_messages == 1

    def test_same_group_messages_pass_through_phase(self):
        delay = _phases(self.SCHEDULE)
        assert delay.delivery_time(2.0, 0, 1) == pytest.approx(2.1)
        assert delay.held_messages == 0

    def test_later_phase_regroups_processes(self):
        delay = _phases(self.SCHEDULE)
        # at t=7.0: phase two groups 0 with 2, but separates 1
        assert delay.delivery_time(7.0, 0, 2) == pytest.approx(7.1)
        assert delay.delivery_time(7.0, 0, 1) == pytest.approx(9.1)

    def test_heal_can_land_in_a_later_phase_and_be_held_again(self):
        delay = _phases(((1.0, 4.0, ((0,),)), (4.05, 9.0, ((0,),))))
        # held to 4.0, re-arrives at 4.1 inside phase two, held to 9.0
        assert delay.delivery_time(2.0, 0, 1) == pytest.approx(9.1)
        assert delay.held_messages == 2

    def test_messages_outside_all_phases_unaffected(self):
        delay = _phases(self.SCHEDULE)
        assert delay.delivery_time(10.0, 0, 1) == pytest.approx(10.1)
        assert delay.extra_stats() == {"held_messages": 0.0}

    def test_rest_group_members_stay_connected(self):
        delay = _phases(self.SCHEDULE)
        # 2 and 3 are both unnamed by phase one: same implicit rest group
        assert delay.delivery_time(2.0, 2, 3) == pytest.approx(2.1)

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError, match="window"):
            MultiPartitionNetwork(schedule=((3.0, 2.0, ((0,),)),))
        with pytest.raises(ValueError, match="overlap"):
            MultiPartitionNetwork(schedule=((1.0, 5.0, ((0,),)), (4.0, 8.0, ((1,),))))
        with pytest.raises(ValueError, match="non-empty"):
            MultiPartitionNetwork(schedule=((1.0, 2.0, ((),)),))
        with pytest.raises(ValueError, match="disjoint"):
            MultiPartitionNetwork(schedule=((1.0, 2.0, ((0, 1), (1, 2))),))

    def test_phases_sorted_by_start(self):
        delay = _phases(((6.0, 9.0, ((0,),)), (1.0, 4.0, ((1,),))))
        assert [phase[0] for phase in delay.schedule] == [1.0, 6.0]


class TestDeriveSchedule:
    SCHEDULE = TestMultiPartitionDelay.SCHEDULE

    def test_deterministic_per_seed(self):
        first = MultiPartitionNetwork.derive_schedule(self.SCHEDULE, seed=7)
        second = MultiPartitionNetwork.derive_schedule(self.SCHEDULE, seed=7)
        assert first == second

    def test_distinct_across_seeds(self):
        derived = {
            MultiPartitionNetwork.derive_schedule(self.SCHEDULE, seed=s)
            for s in range(100)
        }
        assert len(derived) == 100

    def test_durations_groups_and_order_preserved(self):
        for seed in range(50):
            derived = MultiPartitionNetwork.derive_schedule(self.SCHEDULE, seed=seed)
            assert len(derived) == len(self.SCHEDULE)
            for (s0, e0, g0), (s1, e1, g1) in zip(self.SCHEDULE, derived):
                assert e1 - s1 == pytest.approx(e0 - s0)
                assert g1 == g0
                assert s1 >= 0.0
            starts = [phase[0] for phase in derived]
            assert starts == sorted(starts)

    def test_derived_schedules_pass_constructor_validation(self):
        # shifted phases must never overlap — the constructor enforces it
        for seed in range(50):
            MultiPartitionNetwork(
                jitter=0.0,
                schedule=MultiPartitionNetwork.derive_schedule(self.SCHEDULE, seed=seed),
            )

    def test_shift_bounded_by_jitter_fraction(self):
        for seed in range(50):
            derived = MultiPartitionNetwork.derive_schedule(
                self.SCHEDULE, seed=seed, jitter=0.25
            )
            for (s0, e0, _), (s1, _, _) in zip(self.SCHEDULE, derived):
                assert abs(s1 - s0) <= 0.25 * (e0 - s0) + 1e-9

    def test_seed_none_and_zero_jitter_are_identity(self):
        assert MultiPartitionNetwork.derive_schedule(self.SCHEDULE, None) == self.SCHEDULE
        assert (
            MultiPartitionNetwork.derive_schedule(self.SCHEDULE, 5, jitter=0.0)
            == self.SCHEDULE
        )
        assert MultiPartitionNetwork.derive_schedule((), 5) == ()

    def test_network_model_derives_per_seed_schedule(self):
        model = MultiPartitionNetwork()
        a = model.delay_model(seed=1).schedule
        b = model.delay_model(seed=2).schedule
        assert a != b
        assert a == MultiPartitionNetwork.derive_schedule(
            model.schedule, 1, model.seed_phase_jitter
        )

    def test_zero_phase_jitter_pins_schedule(self):
        model = MultiPartitionNetwork(seed_phase_jitter=0.0)
        assert model.delay_model(seed=9).schedule == model.schedule

    def test_both_backends_share_derived_schedule(self):
        # sim and asyncio call the one delay_model(), so they see one schedule
        model = MultiPartitionNetwork()
        network = SimulatedNetwork(Simulator(), model.delay_model(seed=4))
        assert network.delay.schedule == model.delay_model(seed=4).schedule


class TestScenarioBindings:
    @pytest.mark.parametrize(
        "model",
        [AsymmetricNetwork(), MultiPartitionNetwork()],
        ids=["asymmetric", "multi-partition"],
    )
    def test_networks_build_for_both_backends(self, model):
        network = SimulatedNetwork(Simulator(), model.delay_model(seed=1))
        assert isinstance(network.delay, DelayModel)
        assert "kind" in model.describe()

    @pytest.mark.parametrize("name", ["asymmetric-mesh", "multi-partition"])
    @pytest.mark.parametrize("seed", [3, 2015])
    def test_new_network_scenarios_preserve_verdicts_on_both_backends(
        self, name, seed
    ):
        # both conditions deliver every message eventually, so conclusive
        # verdicts must match the untimed run on either backend
        scenario = get_scenario(name)
        registry = case_study_registry(3)
        automaton = build_monitor("F(P0.p & P1.p)", atoms=registry.names)
        computation = random_computation(3, 12, seed=seed)
        untimed = simulate_monitored_run(
            computation, automaton, registry, network=ReliableNetwork(latency=0.0, jitter=0.0)
        )
        simulated = simulate_monitored_run(
            computation, automaton, registry, seed=seed, network=scenario.network
        )
        streamed = run_streaming(
            computation, automaton, registry, delay=scenario.network.delay_model(seed)
        )
        assert simulated.declared_verdicts == untimed.declared_verdicts
        assert streamed.declared_verdicts == untimed.declared_verdicts
