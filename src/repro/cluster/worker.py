"""The cluster worker: one monitor process, launched per manifest entry.

``python -m repro.cluster.worker --manifest <file> --process <id> --spec
<file>`` hosts exactly one :class:`repro.core.monitor.DecentralizedMonitor`
in its own OS process.  The worker regenerates its cell's computation from
the run spec (a pure function of scenario, property, scale and seed — no
events travel on the wire), hosts its monitor on the asyncio backend's
:class:`repro.runtime.transport.TcpStreamTransport` given the manifest's
addresses (so it listens at its own entry and reaches its peers at
theirs), dials the coordinator's control address with bounded backoff, and
then follows the coordinator's command loop:

``hello``
    Sent by the worker on connect, carrying its monitor id and wire
    protocol version; the coordinator rejects mismatched versions before
    any monitoring traffic flows.
``start``
    Start the monitor and feed its own process's slice of the session's
    schedule: its events in timestamp order, then the termination signal.
``status``
    Report the monotone sent/processed counters, inbox depth, whether the
    schedule has been fed, and any recorded failure; the coordinator's
    double-count termination check sums these across workers.
``collect``
    Return verdicts (as strings), the monitor's whole counter record and
    the fault counters.
``shutdown``
    Stop the node — it runs, as loop callbacks, what was queued before the
    stop — close the transport and exit cleanly.

The monitor comes from the same :class:`repro.session.MonitorSession` every
backend uses, told to host this worker's process only: the spec's fault
plan is parsed locally, its clock skew applied to the regenerated
computation and this worker's monitor wrapped in the same
:class:`repro.faults.MonitorFaultProxy`, so a schedule means the same thing
here as on the simulator — just with the process churn happening inside a
real OS process.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import sys
from collections.abc import Sequence

from ..runtime.node import StreamMonitorNode
from ..runtime.transport import TcpStreamTransport
from ..session import EVENT, MonitorSession
from . import codec
from .manifest import ClusterManifest, load_manifest
from .spec import RunSpec, build_cell_inputs
from .transport import dial, read_control_async

__all__ = ["run_worker", "main"]


async def run_worker(manifest: ClusterManifest, process: int, spec: RunSpec) -> None:
    """Host monitor *process* of the run *spec* until the coordinator says stop."""
    computation, automaton, registry = build_cell_inputs(spec)
    transport = TcpStreamTransport(endpoints=dict(enumerate(manifest.workers)))
    session = MonitorSession(
        computation,
        automaton,
        registry,
        transport,
        faults=spec.faults(),
        max_views_per_state=spec.max_views_per_state,
        hosted=[process],
    )
    (endpoint,) = session.endpoints
    if process != 0:
        # every worker applies the identical skew to its own copy of the
        # computation and the coordinator sums the workers' fault stats, so
        # only worker 0 reports the skew counters
        session.skew_stats = {}

    node = StreamMonitorNode(endpoint, transport)
    transport.register(process, node)
    await transport.start()
    task = node.start_task()
    fed = False

    reader, writer = await dial(manifest.coordinator, "cannot reach the coordinator")
    try:
        writer.write(
            codec.encode_control(
                {"kind": "hello", "process": process, "version": codec.PROTOCOL_VERSION}
            )
        )
        await writer.drain()
        while True:
            command = await read_control_async(reader)
            if command is None:  # coordinator went away: stop hosting
                return
            kind = command.get("kind")
            if kind == "start":
                endpoint.start()
                for _, item, _, event in session.schedule():
                    if item == EVENT:
                        node.enqueue_event(event)
                    else:
                        node.enqueue_termination()
                fed = True
                reply: dict[str, object] = {"kind": "started"}
            elif kind == "status":
                failure = node.failure() or transport.fatal_error
                reply = {
                    "kind": "status",
                    "fed": fed,
                    "error": None if failure is None else repr(failure),
                    "sent": transport.messages_sent,
                    "processed": transport.messages_delivered,
                    "inbox": node.pending_items,
                }
            elif kind == "collect":
                reply = {
                    "kind": "result",
                    "process": process,
                    "total_events": session.computation.num_events,
                    "declared": sorted(str(v) for v in endpoint.declared_verdicts),
                    "reported": sorted(str(v) for v in endpoint.reported_verdicts()),
                    "metrics": dataclasses.asdict(endpoint.metrics),
                    "sent": transport.messages_sent,
                    "processed": transport.messages_delivered,
                    "wire_bytes": transport.wire_bytes_sent,
                    "fault_stats": session.fault_stats(),
                }
            elif kind == "shutdown":
                return
            else:
                reply = {"kind": "error", "error": f"unknown command {kind!r}"}
            writer.write(codec.encode_control(reply))
            await writer.drain()
    finally:
        node.enqueue_stop()
        await asyncio.gather(task, return_exceptions=True)
        await transport.aclose()
        writer.close()


def build_parser() -> argparse.ArgumentParser:
    """The worker's command-line interface."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--manifest", required=True, help="cluster manifest file (TOML or JSON)"
    )
    parser.add_argument(
        "--process", type=int, required=True, help="monitor id this worker hosts"
    )
    parser.add_argument("--spec", required=True, help="run spec file (JSON)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``python -m repro.cluster.worker``."""
    args = build_parser().parse_args(argv)
    manifest = load_manifest(args.manifest)
    spec = RunSpec.load(args.spec)
    if not 0 <= args.process < manifest.num_workers:
        print(
            f"error: --process {args.process} not in the manifest "
            f"(workers 0..{manifest.num_workers - 1})",
            file=sys.stderr,
        )
        return 2
    asyncio.run(run_worker(manifest, args.process, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
