"""Backpressure, eviction and admission: the fleet under resource pressure.

``block`` stalls the feeder (counted, lossless); ``drop-newest`` sheds the
saturated process's stream suffix (counted per tenant) while keeping every
delivered stream a true prefix — so whatever the tenant still declares stays
sound — and never drops termination signals, so saturated tenants still
complete.  A session failure evicts one tenant, not its shard, and the
admission cap rejects (with a counter) instead of queueing.
"""

import asyncio
import itertools
import json

import pytest

from repro.core.monitor import DecentralizedMonitor
from repro.fleet import (
    FleetConfig,
    ReplaySource,
    TenantSpec,
    engine,
    run_fleet,
    standalone_tenant_result,
    synthetic_fleet,
)
from repro.runtime.runner import drive_session
from repro.runtime.transport import InMemoryStreamTransport
from repro.session import MonitorSession

SATURATING = {"inbox_limit": 1, "events_per_process": 4}


def _session_with_one_full_reading(backpressure, full_at):
    """One tenant through the shared driver; its gate reads "full" once.

    The inbox is roomy, except that the gate's *full_at*-th load check (one
    per offered event) answers "full" — so exactly one event is refused
    (``drop-newest``) or stalled (``block``).  Returns the session, the gate
    and which process that event belonged to.
    """

    async def main():
        (spec,) = synthetic_fleet(1, num_processes=3, events_per_process=4)
        computation, automaton, registry = await engine._load_inputs(spec)
        net = InMemoryStreamTransport()
        session = MonitorSession(computation, automaton, registry, net, max_views_per_state=2)
        gate = engine._InboxGate(net, 10**9, backpressure, 30.0)
        readings = itertools.count()
        roomy = gate._full
        gate._full = lambda nodes: next(readings) == full_at or roomy(nodes)
        offered = []

        async def admit(nodes, process):
            offered.append(process)
            return await gate.admit(nodes, process)

        await drive_session(session, 30.0, admit=admit)
        return session, gate, offered[full_at]

    return asyncio.run(main())


class TestBlockPolicy:
    def test_saturated_block_is_lossless(self):
        tenants = synthetic_fleet(
            4, events_per_process=SATURATING["events_per_process"]
        )
        report = run_fleet(
            FleetConfig(
                tenants=tenants,
                inbox_limit=SATURATING["inbox_limit"],
                backpressure="block",
            )
        )
        assert report.tenants_evicted == 0
        assert report.events_blocked > 0
        assert report.events_dropped == 0
        for result in report.results:
            assert result.ingested_events == result.events

    def test_saturated_block_keeps_verdict_outcomes(self):
        # blocking reorders the interleaving, so message counts may drift,
        # but conclusive verdicts are interleaving-independent
        tenants = synthetic_fleet(
            4, events_per_process=SATURATING["events_per_process"]
        )
        report = run_fleet(
            FleetConfig(
                tenants=tenants,
                inbox_limit=SATURATING["inbox_limit"],
                backpressure="block",
            )
        )
        for spec, result in zip(tenants, report.results):
            assert result.verdicts == standalone_tenant_result(spec).verdicts

    def test_one_stalled_event_loses_nothing(self):
        session, gate, _ = _session_with_one_full_reading("block", full_at=3)
        assert (gate.blocked, gate.dropped) == (1, 0)
        for monitor in session.endpoints:
            fed = len(session.computation.events_of(monitor.process))
            assert monitor.metrics.events_processed == fed
            assert monitor.terminated[monitor.process] == fed


class TestDropNewestPolicy:
    def test_one_refused_event_sheds_that_process_suffix_only(self):
        session, gate, refused = _session_with_one_full_reading("drop-newest", full_at=3)
        assert gate.truncated == {refused}
        shed = 0
        for monitor in session.endpoints:
            events = len(session.computation.events_of(monitor.process))
            fed = monitor.metrics.events_processed
            if monitor.process == refused:
                assert fed < events  # a true prefix: the refused event and all after it
                shed = events - fed
            else:
                assert fed == events
            # terminations are never gated: every monitor saw its own, after
            # exactly the events it was fed
            assert monitor.terminated[monitor.process] == fed
        assert (gate.dropped, gate.blocked) == (shed, 0)

    def test_drops_are_counted_and_conserved(self):
        tenants = synthetic_fleet(
            4, events_per_process=SATURATING["events_per_process"]
        )
        report = run_fleet(
            FleetConfig(
                tenants=tenants,
                inbox_limit=SATURATING["inbox_limit"],
                backpressure="drop-newest",
            )
        )
        assert report.tenants_evicted == 0  # shedding degrades, never corrupts
        assert report.events_dropped > 0
        assert report.events_blocked == 0
        for result in report.results:
            assert result.ingested_events + result.dropped_events == result.events

    def test_roomy_inbox_never_drops(self):
        report = run_fleet(
            FleetConfig(
                tenants=synthetic_fleet(3, events_per_process=2),
                inbox_limit=1024,
                backpressure="drop-newest",
            )
        )
        assert report.events_dropped == 0
        assert [r.equivalence_key() for r in report.results] == [
            r.equivalence_key()
            for r in run_fleet(
                FleetConfig(tenants=synthetic_fleet(3, events_per_process=2))
            ).results
        ]


class TestEviction:
    def test_failing_source_evicts_one_tenant_not_the_shard(self, tmp_path):
        healthy = synthetic_fleet(3, events_per_process=2)
        doomed = TenantSpec(
            tenant_id="zz-doomed",
            source=ReplaySource(str(tmp_path / "no-such.jsonl")),
        )
        report = run_fleet(FleetConfig(tenants=(*healthy, doomed)))
        assert report.tenants_admitted == 4
        assert report.tenants_completed == 3
        assert report.tenants_evicted == 1
        evicted = report.results[-1]  # results are tenant-id ordered
        assert evicted.tenant_id == "zz-doomed"
        assert evicted.evicted
        assert evicted.error.startswith("FileNotFoundError")
        assert all(not r.evicted for r in report.results[:-1])

    def test_evicted_tenants_keep_their_error_in_the_json_report(self, tmp_path):
        report = run_fleet(
            FleetConfig(
                tenants=(
                    TenantSpec(
                        tenant_id="t",
                        source=ReplaySource(str(tmp_path / "no-such.jsonl")),
                    ),
                )
            )
        )
        tenants = json.loads(json.dumps(report.as_dict()))["tenants"]
        assert len(tenants) == 1
        assert tenants[0]["error"].startswith("FileNotFoundError")


    def test_a_dead_monitor_behind_a_blocking_gate_evicts_its_tenant(self, monkeypatch):
        """A monitor that raised never drains its inbox: the ``block`` gate
        raises its failure instead of waiting for the drain forever."""
        seen = itertools.count(1)
        local_event = DecentralizedMonitor.local_event

        def failing(self, event):
            if self.process == 0 and next(seen) == 2:
                raise RuntimeError("monitor 0 fails on its second event")
            local_event(self, event)

        monkeypatch.setattr(DecentralizedMonitor, "local_event", failing)
        (spec,) = synthetic_fleet(1, num_processes=3, events_per_process=6)
        session = engine._guarded_session(
            spec, inbox_limit=1, backpressure="block", quiesce_timeout=5.0
        )
        result = asyncio.run(asyncio.wait_for(session, timeout=10.0))
        assert result.error == "RuntimeError: monitor 0 fails on its second event"

    def test_a_blocking_gate_gives_up_at_the_deadline(self):
        class _Stuck:
            """A node that never drains and never fails."""

            pending_items = 1

            def failure(self):
                return None

        async def main():
            net = InMemoryStreamTransport()
            net.register(0, _Stuck())
            gate = engine._InboxGate(net, 1, "block", timeout=0.05)
            await gate.admit([_Stuck()], 0)

        with pytest.raises(RuntimeError, match="did not drain below 1 in 0.05s"):
            asyncio.run(asyncio.wait_for(main(), timeout=10.0))


class TestAdmission:
    def test_cap_rejects_the_tail(self):
        tenants = synthetic_fleet(7, events_per_process=2)
        report = run_fleet(FleetConfig(tenants=tenants, max_tenants=3))
        assert report.tenants_admitted == 3
        assert report.tenants_rejected == 4
        assert [r.tenant_id for r in report.results] == [
            t.tenant_id for t in tenants[:3]
        ]

    def test_saturation_counters_cover_the_lifecycle(self):
        report = run_fleet(
            FleetConfig(
                tenants=synthetic_fleet(3, events_per_process=2), max_tenants=2
            )
        )
        counters = report.saturation()
        assert counters["fleet_tenants_admitted"] == 2.0
        assert counters["fleet_tenants_rejected"] == 1.0
        assert counters["fleet_tenants_completed"] == 2.0
        assert counters["fleet_tenants_evicted"] == 0.0
        assert report.fleet_events_per_sec > 0.0
