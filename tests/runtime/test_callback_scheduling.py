"""The asyncio backend schedules monitors and in-memory channels as loop
callbacks, and they take the ready-queue slots the tasks they replaced took.

* **The reference.**  :class:`TaskNode` (one asyncio task per monitor over
  an ``asyncio.Queue``) and :class:`PumpTransport` (one pump task per
  channel, ``asyncio.sleep(0)`` before each delivery) are the node and the
  in-memory channel the backend ran before.
* **Pinned outputs.**  On the grid — memory-transport runs of properties
  A–F, n ∈ {3, 4}, 6 and 20 events per process, undelayed and under the
  ``paper-default`` network at seeds 2015 and 7, view budget 2 and none,
  plus the 24 ``short-sessions`` tenants through one fleet shard at the
  default inbox and at a saturating ``block`` limit — every monitor's
  ``MonitorMetrics``, verdict log and declared bitset, the transport's
  ``messages_sent`` / ``messages_delivered`` / ``last_delivery_time`` and
  the order in which the monitors' entry points were called are pinned in
  ``fixtures/memory_grid.json`` (captured by running this module, before
  the runtime moved to callbacks).  The callback runtime and the reference both
  reproduce it; :func:`differing_cells` compares them on any cells.
* **The node contract**, against both nodes: items enqueued before start
  run at start, in order; a stop item runs what is before it and nothing
  after; a monitor exception sets ``failure()``, stops consumption and
  surfaces through ``wait_quiescent`` before its deadline;
  ``pending_items`` returns to 0.
"""

import asyncio
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.monitor import DecentralizedMonitor
from repro.experiments.engine import cell_inputs
from repro.fleet import FleetConfig, TenantResult, engine, run_fleet, synthetic_fleet
from repro.runtime import runner
from repro.runtime.node import StreamMonitorNode
from repro.runtime.runner import drive_session
from repro.runtime.transport import InMemoryStreamTransport, StreamTransport
from repro.scenarios import get_scenario
from repro.session import MonitorSession

FIXTURE = Path(__file__).with_name("fixtures") / "memory_grid.json"

_MESSAGE, _EVENT, _TERMINATE, _STOP = "message", "event", "terminate", "stop"


class TaskNode:
    """The reference node: one asyncio task consuming an ``asyncio.Queue``."""

    def __init__(self, monitor, transport):
        self.monitor = monitor
        self.transport = transport
        self.inbox = asyncio.Queue()
        self.pending_items = 0
        self._task = None

    @property
    def process(self):
        return self.monitor.process

    def enqueue_message(self, due, message):
        self.pending_items += 1
        self.inbox.put_nowait((_MESSAGE, due, message))

    def enqueue_event(self, event):
        self.pending_items += 1
        self.inbox.put_nowait((_EVENT, 0.0, event))

    def enqueue_termination(self):
        self.pending_items += 1
        self.inbox.put_nowait((_TERMINATE, 0.0, None))

    def enqueue_stop(self):
        self.pending_items += 1
        self.inbox.put_nowait((_STOP, 0.0, None))

    def start_task(self):
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self.run())
        return self._task

    def failure(self):
        task = self._task
        if task is not None and task.done() and not task.cancelled():
            return task.exception()
        return None

    async def run(self):
        while True:
            kind, due, payload = await self.inbox.get()
            try:
                if kind == _MESSAGE:
                    self.monitor.receive_message(payload)
                    self.transport.message_done(due)
                elif kind == _EVENT:
                    self.monitor.local_event(payload)
                elif kind == _TERMINATE:
                    self.monitor.local_termination()
                elif kind == _STOP:
                    return
            finally:
                self.pending_items -= 1


class PumpTransport(StreamTransport):
    """The reference in-memory transport: one pump task per channel queue,
    and ``asyncio.sleep(0)`` as the yield of :meth:`advance_to`."""

    def __init__(self, delay=None):
        super().__init__(delay=delay)
        self._queues = {}
        self._pumps = []

    def _post(self, channel, item):
        queue = self._queues.get(channel)
        if queue is None:
            queue = self._queues[channel] = asyncio.Queue()
            self._pumps.append(asyncio.get_running_loop().create_task(self._pump(queue)))
        queue.put_nowait(item)

    async def advance_to(self, instant):
        await asyncio.sleep(0)
        self.now = max(self.now, instant)

    async def _pump(self, queue):
        while True:
            due, target, message = await queue.get()
            await self.advance_to(due)
            self._nodes[target].enqueue_message(due, message)

    async def aclose(self):
        for pump in self._pumps:
            pump.cancel()
        await asyncio.gather(*self._pumps, return_exceptions=True)


#: the runtime under test and the reference: (node class, in-memory transport)
RUNTIMES = {
    "callbacks": (StreamMonitorNode, InMemoryStreamTransport),
    "tasks": (TaskNode, PumpTransport),
}

#: memory-transport cells: (property, processes, events per process,
#: network or None, seed, view budget)
MEMORY_GRID = [
    (p, n, epp, network, seed, budget)
    for p in "ABCDEF"
    for n in (3, 4)
    for epp in (6, 20)
    for network, seed in ((None, 2015), ("paper-default", 2015), ("paper-default", 7))
    for budget in (2, None)
]
#: fleet cells: ("fleet", tenants, events per process, base seed, inbox limit)
#: — the ``short-sessions`` tenants at the default inbox and saturating it
FLEET_GRID = [("fleet", 24, 4, 2015, limit) for limit in (1024, 1)]
GRID = MEMORY_GRID + FLEET_GRID

_ENTRIES = ("start", "local_event", "local_termination", "receive_message")


def _recording_entries(patched, calls):
    """Make every monitor entry point append ``(process, entry)`` to *calls*."""
    for name in _ENTRIES:
        entry = getattr(DecentralizedMonitor, name)

        def recorded(self, *args, entry=entry, name=name):
            calls.append((self.process, name))
            return entry(self, *args)

        patched.setattr(DecentralizedMonitor, name, recorded)


def _hash(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _shown(monitors):
    """What the monitors of a finished run show."""
    return [
        [dataclasses.asdict(monitor.metrics) for monitor in monitors],
        [[str(verdict) for verdict in monitor.verdict_log] for monitor in monitors],
        [monitor.declared_bits for monitor in monitors],
    ]


def _memory_cell(cell, transport_class):
    name, n, epp, network, seed, budget = cell
    scenario = get_scenario("paper-default")
    inputs = cell_inputs(
        scenario, name, n, events_per_process=epp,
        evt_mu=3, evt_sigma=1, comm_mu=3, comm_sigma=1, seed=seed,
    )  # fmt: skip
    delay = None if network is None else get_scenario(network).network.delay_model(seed)
    net = transport_class(delay=delay)
    session = MonitorSession(*inputs, net, max_views_per_state=budget)
    asyncio.run(drive_session(session, 120.0))
    counters = [net.messages_sent, net.messages_delivered, net.last_delivery_time]
    return {
        "digest": _hash([_shown(session.report().monitors), counters]),
        "messages": net.messages_sent,
        "delivered": net.messages_delivered,
        "last_delivery": net.last_delivery_time,
    }


def _fleet_cell(cell, patched):
    _, tenants, epp, base_seed, limit = cell
    specs = synthetic_fleet(
        tenants, num_processes=3, events_per_process=epp, base_seed=base_seed
    )
    shown = {}
    from_report = TenantResult.from_report.__func__

    def recording(cls, spec, report, **counts):
        shown[spec.tenant_id] = [_shown(report.monitors), report.monitor_messages, counts]
        return from_report(cls, spec, report, **counts)

    patched.setattr(TenantResult, "from_report", classmethod(recording))
    report = run_fleet(
        FleetConfig(tenants=specs, shards=1, inbox_limit=limit, backpressure="block")
    )
    assert report.tenants_evicted == 0
    return {
        "digest": _hash(shown),
        "messages": report.monitor_messages,
        "blocked": report.events_blocked,
    }


def observe(cells, runtime="callbacks"):
    """Per cell, what a run on *runtime* shows: the digest of the monitors'
    outputs and transport counters, the digest of the order of every monitor
    entry call, and a few counters in the clear."""
    node_class, transport_class = RUNTIMES[runtime]
    observed = {}
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(runner, "StreamMonitorNode", node_class)
        patched.setattr(engine, "InMemoryStreamTransport", transport_class)
        for cell in cells:
            calls = []
            with pytest.MonkeyPatch.context() as inner:
                _recording_entries(inner, calls)
                if cell[0] == "fleet":
                    record = _fleet_cell(cell, inner)
                else:
                    record = _memory_cell(cell, transport_class)
            observed[cell] = {**record, "order": _hash(calls)}
    return observed


def differing_cells(cells):
    """The cells on which the callback runtime and the task-based reference
    show different outputs or call the monitors in a different order."""
    ours, reference = observe(cells), observe(cells, "tasks")
    return [cell for cell in cells if ours[cell] != reference[cell]]


def _pinned():
    document = json.loads(FIXTURE.read_text(encoding="utf-8"))
    return {tuple(record.pop("cell")): record for record in document["cells"]}


@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
def test_the_runtime_reproduces_the_pinned_grid(runtime):
    pinned = _pinned()
    assert set(pinned) == set(GRID)
    observed = observe(GRID, runtime)
    assert [cell for cell in GRID if observed[cell] != pinned[cell]] == []


def test_a_saturating_block_limit_blocks_on_the_pinned_grid():
    pinned = _pinned()
    assert [pinned[cell]["blocked"] for cell in FLEET_GRID] == [0, 213]


# -- the node contract ---------------------------------------------------


class _Recorder:
    """A monitor double that records its calls and can raise on one."""

    process = 1

    def __init__(self, raise_on=None):
        self.calls = []
        self.raise_on = raise_on

    def _record(self, call):
        self.calls.append(call)
        if call == self.raise_on:
            raise ValueError(f"monitor fails on {call!r}")

    def local_event(self, event):
        self._record(("event", event))

    def receive_message(self, message):
        self._record(("message", message))

    def local_termination(self):
        self._record(("terminate",))


def _node(runtime, monitor):
    node_class, transport_class = RUNTIMES[runtime]
    transport = transport_class()
    node = node_class(monitor, transport)
    transport.register(monitor.process, node)
    return transport, node


@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
def test_items_enqueued_before_start_run_at_start_in_order(runtime):
    async def main():
        monitor = _Recorder()
        transport, node = _node(runtime, monitor)
        node.enqueue_event("e1")
        node.enqueue_termination()
        node.enqueue_event("e2")
        await asyncio.sleep(0)
        assert monitor.calls == []  # nothing runs before start
        done = node.start_task()
        await asyncio.sleep(0)
        assert monitor.calls == [("event", "e1"), ("terminate",), ("event", "e2")]
        assert node.pending_items == 0
        node.enqueue_stop()
        await done
        assert node.pending_items == 0 and node.failure() is None

    asyncio.run(asyncio.wait_for(main(), timeout=10.0))


@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
def test_a_stop_item_runs_everything_before_it_and_nothing_after(runtime):
    async def main():
        monitor = _Recorder()
        transport, node = _node(runtime, monitor)
        done = node.start_task()
        node.enqueue_event("e1")
        transport.send(0, 1, "m1")
        await asyncio.sleep(0)  # the channel takes the message off
        await asyncio.sleep(0)  # and delivers it
        node.enqueue_stop()
        node.enqueue_event("late")
        await done
        assert monitor.calls == [("event", "e1"), ("message", "m1")]
        assert node.pending_items == 1  # the item after the stop stays unprocessed
        assert (transport.messages_delivered, transport.in_flight) == (1, 0)

    asyncio.run(asyncio.wait_for(main(), timeout=10.0))


@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
def test_a_monitor_exception_fails_the_node_and_surfaces_in_time(runtime):
    async def main():
        monitor = _Recorder(raise_on=("message", "bad"))
        transport, node = _node(runtime, monitor)
        await transport.start()
        done = node.start_task()
        for message in ("good", "bad", "unread"):
            transport.send(0, 1, message)
        loop = asyncio.get_running_loop()
        started = loop.time()
        with pytest.raises(ValueError, match="monitor fails on"):
            await transport.wait_quiescent(timeout=30.0)
        assert loop.time() - started < 5.0  # the failure, not the deadline
        assert isinstance(node.failure(), ValueError)
        assert done.done()
        node.enqueue_event("after")
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        assert monitor.calls == [("message", "good"), ("message", "bad")]
        await transport.aclose()

    asyncio.run(asyncio.wait_for(main(), timeout=10.0))


@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
def test_pending_items_return_to_zero(runtime):
    async def main():
        monitor = _Recorder()
        transport, node = _node(runtime, monitor)
        await transport.start()
        done = node.start_task()
        for i in range(5):
            node.enqueue_event(i)
            transport.send(0, 1, i)
        assert node.pending_items == 5 and transport.in_flight == 5
        await transport.wait_quiescent(timeout=10.0)
        assert node.pending_items == 0 and transport.in_flight == 0
        assert len(monitor.calls) == 10
        node.enqueue_stop()
        await done
        assert node.pending_items == 0
        await transport.aclose()

    asyncio.run(asyncio.wait_for(main(), timeout=10.0))


if __name__ == "__main__":
    # re-capture the fixture with the runtime in src (only when what the
    # runtime does changes on purpose)
    records = [{"cell": list(cell), **record} for cell, record in observe(GRID).items()]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"cells": records}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE} ({len(records)} cells)", file=sys.stderr)
