"""Tests for computations, the builder, the lattice and the example programs."""

import itertools

import pytest

from repro.distributed import (
    Computation,
    ComputationBuilder,
    ComputationLattice,
    Event,
    EventKind,
    VectorClock,
    running_example,
    running_example_registry,
    token_ring_example,
    two_phase_commit_example,
)


@pytest.fixture(scope="module")
def example():
    return running_example()


@pytest.fixture(scope="module")
def lattice(example):
    return ComputationLattice.from_computation(example)


class TestComputationBuilder:
    def test_running_example_shape(self, example):
        assert example.num_processes == 2
        assert [len(example.events_of(i)) for i in range(2)] == [4, 4]
        assert example.num_events == 8

    def test_event_kinds(self, example):
        kinds_p1 = [e.kind for e in example.events_of(0)]
        assert kinds_p1 == [
            EventKind.SEND,
            EventKind.INTERNAL,
            EventKind.INTERNAL,
            EventKind.RECEIVE,
        ]

    def test_vector_clocks_of_running_example(self, example):
        # P2's first event receives P1's first message
        assert example.event(1, 1).vc == VectorClock([1, 1])
        # P1's final receive merges P2's full history
        assert example.event(0, 4).vc == VectorClock([4, 4])
        # concurrent events of Fig 2.2a: e1_3 || e2_2
        assert example.event(0, 3).concurrent_with(example.event(1, 2))
        # and the ordered pair e1_1 -> e2_3
        assert example.event(0, 1).happened_before(example.event(1, 3))

    def test_states_recorded(self, example):
        assert example.event(0, 2).state == {"x1": 5}
        assert example.event(0, 3).state == {"x1": 10}
        assert example.event(1, 3).state == {"x2": 20}
        # send/receive events do not change the local state
        assert example.event(0, 1).state == {"x1": 0}
        assert example.event(1, 4).state == {"x2": 20}

    def test_receive_unsent_message_rejected(self):
        builder = ComputationBuilder([{}, {}])
        with pytest.raises(ValueError):
            builder.receive(0, frm=1, message_id=9)

    def test_receive_wrong_sender_rejected(self):
        builder = ComputationBuilder([{}, {}, {}])
        builder.send(0, to=1, message_id=1)
        with pytest.raises(ValueError):
            builder.receive(1, frm=2, message_id=1)

    def test_duplicate_message_id_rejected(self):
        builder = ComputationBuilder([{}, {}])
        builder.send(0, to=1, message_id=1)
        with pytest.raises(ValueError):
            builder.send(1, to=0, message_id=1)

    def test_self_send_rejected(self):
        builder = ComputationBuilder([{}, {}])
        with pytest.raises(ValueError):
            builder.send(0, to=0, message_id=1)

    def test_in_flight_messages_flagged(self):
        builder = ComputationBuilder([{}, {}])
        builder.send(0, to=1, message_id=1)
        with pytest.raises(ValueError):
            builder.build(allow_in_flight=False)
        assert builder.build(allow_in_flight=True).num_events == 1

    def test_empty_builder_rejected(self):
        with pytest.raises(ValueError):
            ComputationBuilder([])

    def test_timestamps_monotone_per_process(self, example):
        for process in range(example.num_processes):
            times = [e.timestamp for e in example.events_of(process)]
            assert times == sorted(times)


class TestComputation:
    def test_local_state_zero_is_initial(self, example):
        assert example.local_state(0, 0) == {"x1": 0}
        assert example.local_state(1, 0) == {"x2": 0}

    def test_global_state(self, example):
        state = example.global_state((2, 2))
        assert state == [{"x1": 5}, {"x2": 15}]

    def test_consistent_cut_examples_from_paper(self, example):
        # frontier <e1_1, e2_0> is consistent, <e1_3, e2_2> is consistent,
        # but <e1_4 (recv), e2_2> is not (the receive depends on e2_4)
        assert example.is_consistent_cut((1, 0))
        assert example.is_consistent_cut((3, 2))
        assert not example.is_consistent_cut((4, 2))
        # P2's first event depends on P1's send
        assert not example.is_consistent_cut((0, 1))

    def test_cut_validation(self, example):
        with pytest.raises(ValueError):
            example.is_consistent_cut((1, 2, 3))
        with pytest.raises(ValueError):
            example.is_consistent_cut((9, 0))

    def test_mismatched_initial_states_rejected(self):
        with pytest.raises(ValueError):
            Computation(initial_states=[{}], events=[[], []])

    @pytest.mark.parametrize("clock", [[1], [1, 0, 0]], ids=["narrow", "wide"])
    def test_an_event_clock_of_another_width_is_refused(self, clock):
        event = Event(0, 1, EventKind.INTERNAL, VectorClock(clock))
        message = f"event 1 of process 0 has a clock {len(clock)} wide in a computation of 2"
        with pytest.raises(ValueError, match=message):
            Computation(initial_states=[{}, {}], events=[[event], []])

    def test_frontier_events(self, example):
        # the frontier of a cut is the last event of each process inside it;
        # the cut's global state is the state after those events
        cut = (1, 0)
        frontier = [
            example.event(i, cut[i]) if cut[i] > 0 else None
            for i in range(example.num_processes)
        ]
        assert frontier[0].sn == 1 and frontier[1] is None
        assert frontier[0] is example.events_of(0)[0]
        assert example.global_state(cut) == [
            example.local_state(0, 1),
            example.local_state(1, 0),
        ]

    def test_final_cut(self, example):
        assert example.final_cut() == (4, 4)


class TestLattice:
    def test_number_of_consistent_cuts_matches_bruteforce(self, example, lattice):
        expected = 0
        for cut in itertools.product(range(5), range(5)):
            if example.is_consistent_cut(cut):
                expected += 1
        assert len(lattice) == expected

    def test_fig_2_2b_structure(self, lattice):
        """The lattice of Fig 2.2b has 17 consistent cuts (nodes)."""
        assert len(lattice) == 17
        assert lattice.bottom == (0, 0)
        assert lattice.top == (4, 4)

    def test_every_cut_is_consistent(self, example, lattice):
        for cut in lattice.cuts():
            assert example.is_consistent_cut(cut)

    def test_successor_edges_add_exactly_one_event(self, lattice):
        for cut in lattice.cuts():
            for successor in lattice.successors(cut):
                assert sum(successor) == sum(cut) + 1
                assert all(s >= c for s, c in zip(successor, cut))

    def test_predecessors_inverse_of_successors(self, lattice):
        for cut in lattice.cuts():
            for successor in lattice.successors(cut):
                assert cut in lattice.predecessors(successor)

    def test_join_meet(self, lattice):
        assert lattice.join((1, 0), (0, 1)) == (1, 1)
        assert lattice.meet((3, 2), (2, 3)) == (2, 2)

    def test_join_meet_of_consistent_cuts_are_consistent(self, example, lattice):
        cuts = lattice.cuts()
        for a in cuts:
            for b in cuts:
                assert example.is_consistent_cut(lattice.join(a, b))
                assert example.is_consistent_cut(lattice.meet(a, b))

    def test_paths_start_and_end_correctly(self, lattice):
        for path in lattice.paths():
            assert path[0] == lattice.bottom
            assert path[-1] == lattice.top
            for a, b in zip(path, path[1:]):
                assert b in lattice.successors(a)

    def test_count_paths_matches_enumeration(self, lattice):
        assert lattice.count_paths() == sum(1 for _ in lattice.paths())

    def test_partial_paths(self, lattice):
        partial = list(lattice.paths(start=(1, 1), end=(3, 3)))
        assert partial
        for path in partial:
            assert path[0] == (1, 1) and path[-1] == (3, 3)

    def test_paths_invalid_endpoints(self, lattice):
        with pytest.raises(ValueError):
            list(lattice.paths(start=(0, 1)))

    def test_levels_and_width(self, lattice):
        levels = lattice.levels()
        assert sum(len(level) for level in levels) == len(lattice)
        assert lattice.width() >= 2  # concurrency exists in the running example

    def test_membership(self, lattice):
        assert (1, 1) in lattice
        assert (0, 1) not in lattice


class TestExamplePrograms:
    def test_two_phase_commit_builds(self):
        computation = two_phase_commit_example(3)
        assert computation.num_processes == 4
        # final state: everyone committed
        final = computation.global_state(computation.final_cut())
        assert all(state["committed"] for state in final)

    def test_two_phase_commit_requires_participant(self):
        with pytest.raises(ValueError):
            two_phase_commit_example(0)

    def test_token_ring_builds(self):
        computation = token_ring_example(3, rounds=2)
        assert computation.num_processes == 3
        lattice = ComputationLattice.from_computation(computation)
        assert len(lattice) > 10

    def test_token_ring_requires_two_processes(self):
        with pytest.raises(ValueError):
            token_ring_example(1)

    def test_registry_matches_running_example(self):
        registry = running_example_registry()
        example = running_example()
        final = example.global_state(example.final_cut())
        letter = registry.letter_of(final)
        assert letter == frozenset({"x1>=5", "x1=10", "x2>=15"})
