"""Tests for vector clocks and events."""

import pytest

from repro.distributed import Event, EventKind, VectorClock


class TestVectorClock:
    def test_zero(self):
        vc = VectorClock.zero(3)
        assert list(vc) == [0, 0, 0]
        assert len(vc) == 3

    def test_zero_requires_positive_size(self):
        with pytest.raises(ValueError):
            VectorClock.zero(0)

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            VectorClock([1, -1])

    def test_increment_returns_new_clock(self):
        vc = VectorClock.zero(2)
        vc2 = vc.increment(1)
        assert list(vc) == [0, 0]
        assert list(vc2) == [0, 1]

    def test_immutable(self):
        vc = VectorClock.zero(2)
        with pytest.raises(AttributeError):
            vc._components = (5, 5)

    def test_merge_is_componentwise_max(self):
        a = VectorClock([3, 0, 1])
        b = VectorClock([1, 2, 1])
        assert a.merge(b) == VectorClock([3, 2, 1])

    def test_merge_incompatible_sizes(self):
        with pytest.raises(ValueError):
            VectorClock([1]).merge(VectorClock([1, 2]))

    def test_receive_merges_and_ticks(self):
        local = VectorClock([2, 0])
        sender = VectorClock([1, 3])
        assert local.receive(sender, 0) == VectorClock([3, 3])

    def test_ordering(self):
        a = VectorClock([1, 0])
        b = VectorClock([1, 1])
        assert a < b and a <= b and b > a and b >= a
        assert not (b < a)

    def test_equal_clocks_not_strictly_ordered(self):
        a = VectorClock([1, 1])
        assert not (a < a)
        assert a <= a

    def test_concurrent(self):
        a = VectorClock([1, 0])
        b = VectorClock([0, 1])
        assert a.concurrent_with(b) and b.concurrent_with(a)
        assert not a.concurrent_with(a)

    def test_hashable(self):
        assert len({VectorClock([1, 2]), VectorClock([1, 2]), VectorClock([2, 1])}) == 2


class TestEvent:
    def make(self, **kwargs):
        defaults = dict(
            process=0,
            sn=1,
            kind=EventKind.INTERNAL,
            vc=VectorClock([1, 0]),
            state={"x": 1},
        )
        defaults.update(kwargs)
        return Event(**defaults)

    def test_internal_event(self):
        e = self.make()
        assert e.is_internal and e.kind is EventKind.INTERNAL

    def test_send_requires_peer(self):
        with pytest.raises(ValueError):
            self.make(kind=EventKind.SEND)

    def test_receive_requires_peer(self):
        with pytest.raises(ValueError):
            self.make(kind=EventKind.RECEIVE)

    def test_vc_local_component_must_match_sn(self):
        with pytest.raises(ValueError):
            self.make(sn=2)

    @pytest.mark.parametrize("process", [2, -1])
    def test_a_clock_without_the_process_component_is_rejected(self, process):
        # a clock of two components has none for process 2 (before: an
        # IndexError) nor for -1 (before: read off the last component)
        with pytest.raises(ValueError, match="vector clock local component"):
            self.make(process=process, vc=VectorClock([0, 1]))

    def test_negative_sn_rejected(self):
        with pytest.raises(ValueError):
            self.make(sn=-1, vc=VectorClock([0, 0]))

    def test_happened_before_via_clocks(self):
        first = self.make()
        second = self.make(sn=2, vc=VectorClock([2, 0]), process=0)
        assert first.happened_before(second)
        assert not second.happened_before(first)

    def test_concurrent_events(self):
        a = self.make()
        b = Event(
            process=1, sn=1, kind=EventKind.INTERNAL, vc=VectorClock([0, 1]), state={}
        )
        assert a.concurrent_with(b)

    def test_str(self):
        assert str(self.make()) == "e0_1(internal)"
