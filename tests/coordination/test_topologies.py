"""Unit properties of :class:`repro.coordination.topology.RoundRobinToken`.

The routing rule is a pure function of ``num_processes``: the lowest-index
candidate, direct delivery, termination told to every other monitor.  End
to end behaviour lives in the verdict-equivalence and fixture suites next
door.
"""

import pytest

from repro.coordination.topology import RoundRobinToken


def test_the_rule_is_lowest_candidate_direct_delivery_point_to_point_termination():
    routing = RoundRobinToken(4)
    assert routing.pick_target(0, [1, 2, 3], token=None) == 1
    assert routing.next_hop(1, 3) == 3
    assert routing.termination_recipients(2) == (0, 1, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
def test_termination_reaches_every_other_monitor_once(n):
    routing = RoundRobinToken(n)
    for current in range(n):
        assert routing.termination_recipients(current) == tuple(
            j for j in range(n) if j != current
        )
        for destination in range(n):
            assert routing.next_hop(current, destination) == destination
