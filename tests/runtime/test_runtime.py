"""Tests for the asyncio streaming backend: transports, nodes, runner."""

import asyncio

import pytest

from repro.core import DecentralizedMonitor, MonitorNode
from repro.core.messages import TerminationNotice
from repro.experiments.properties import case_study_registry
from repro.ltl import build_monitor
from repro.runtime import InMemoryStreamTransport, TcpStreamTransport
from repro.runtime.runner import run_streaming
from repro.scenarios import BurstyNetwork, LossyNetwork, PartitionNetwork, ReliableNetwork
from repro.sim import random_computation, simulate_monitored_run

FORMULAS = ["F(P0.p & P1.p)", "G(P0.p U P1.q)", "G(!(P0.p & P1.q))"]


def _untimed(computation, automaton, registry):
    """The simulator over links that deliver at once."""
    return simulate_monitored_run(
        computation, automaton, registry, network=ReliableNetwork(latency=0.0, jitter=0.0)
    )


def _case(num_processes=3, events=10, seed=42, formula=FORMULAS[0]):
    registry = case_study_registry(num_processes)
    automaton = build_monitor(formula, atoms=registry.names)
    computation = random_computation(num_processes, events, seed=seed)
    return computation, automaton, registry


class _EchoNode:
    """Minimal node double: records deliveries and acknowledges instantly."""

    def __init__(self, process, transport):
        self.process = process
        self.transport = transport
        self.received = []
        self.pending_items = 0

    def enqueue_message(self, due, message):
        self.received.append((due, message))
        self.transport.message_done(due)

    def failure(self):
        return None


class TestStreamTransport:
    def test_unknown_target_rejected(self):
        async def main():
            transport = InMemoryStreamTransport()
            transport.register(0, _EchoNode(0, transport))
            with pytest.raises(ValueError, match="no monitor node"):
                transport.send(0, 9, "msg")

        asyncio.run(main())

    def test_fifo_preserved_per_channel_under_jitter(self):
        async def main():
            # heavy jitter would reorder without the per-channel clamp
            transport = InMemoryStreamTransport(
                delay=ReliableNetwork(latency=0.05, jitter=0.05).delay_model(7)
            )
            sink = _EchoNode(1, transport)
            transport.register(0, _EchoNode(0, transport))
            transport.register(1, sink)
            await transport.start()
            for i in range(50):
                transport.send(0, 1, i)
            await transport.wait_quiescent(timeout=10.0)
            await transport.aclose()
            return sink.received

        received = asyncio.run(main())
        assert [message for _, message in received] == list(range(50))
        # delivery instants are monotone on the channel
        dues = [due for due, _ in received]
        assert dues == sorted(dues)

    def test_counters_and_quiescence(self):
        async def main():
            transport = InMemoryStreamTransport()
            sink = _EchoNode(1, transport)
            transport.register(0, _EchoNode(0, transport))
            transport.register(1, sink)
            await transport.start()
            transport.send(0, 1, "a")
            transport.send(0, 1, "b")
            assert transport.in_flight == 2
            await transport.wait_quiescent(timeout=10.0)
            assert transport.in_flight == 0
            assert transport.messages_sent == 2
            assert transport.messages_delivered == 2
            await transport.aclose()

        asyncio.run(main())

    def test_delay_stats_exposed(self):
        async def main():
            delay = LossyNetwork(
                jitter=0.0, loss_probability=0.5, retransmit_timeout=0.3
            ).delay_model(3)
            transport = InMemoryStreamTransport(delay=delay)
            sink = _EchoNode(1, transport)
            transport.register(1, sink)
            await transport.start()
            for i in range(40):
                transport.send(0, 1, i)
            await transport.wait_quiescent(timeout=10.0)
            await transport.aclose()
            return transport.extra_stats()

        stats = asyncio.run(main())
        assert stats["retransmissions"] > 0

    def test_dead_node_task_surfaces_instead_of_timing_out(self):
        """A monitor that raises must fail the run fast with its own error."""
        from repro.runtime import StreamMonitorNode

        class _ExplodingMonitor:
            process = 1

            def receive_message(self, message):
                raise TypeError("unexpected monitor message")

        async def main():
            transport = InMemoryStreamTransport()
            node = StreamMonitorNode(_ExplodingMonitor(), transport)
            transport.register(0, _EchoNode(0, transport))
            transport.register(1, node)
            await transport.start()
            node.start_task()
            transport.send(0, 1, "boom")
            try:
                with pytest.raises(TypeError, match="unexpected monitor message"):
                    # far below the run's real timeout: the error must
                    # surface via task-death detection, not the deadline
                    await transport.wait_quiescent(timeout=30.0)
            finally:
                await transport.aclose()

        asyncio.run(asyncio.wait_for(main(), timeout=10.0))

    def test_tcp_transport_delivers_over_real_sockets(self):
        async def main():
            transport = TcpStreamTransport()
            sinks = {p: _EchoNode(p, transport) for p in (0, 1)}
            for p, sink in sinks.items():
                transport.register(p, sink)
            await transport.start()
            assert set(transport.endpoints) == {0, 1}
            assert all(endpoint.port > 0 for endpoint in transport.endpoints.values())
            for i in range(20):
                transport.send(0, 1, TerminationNotice(0, i))
                transport.send(1, 0, TerminationNotice(1, i))
            await transport.wait_quiescent(timeout=30.0)
            await transport.aclose()
            return sinks

        sinks = asyncio.run(main())
        assert [m for _, m in sinks[1].received] == [TerminationNotice(0, i) for i in range(20)]
        assert [m for _, m in sinks[0].received] == [TerminationNotice(1, i) for i in range(20)]


class TestTcpPeers:
    """Dialing a peer: one that never listens fails the run at once, one
    that starts listening late still gets its frames."""

    def test_unreachable_peer_fails_the_run_promptly(self, monkeypatch):
        from repro.cluster import transport as cluster_transport

        monkeypatch.setattr(cluster_transport, "BACKOFF_ATTEMPTS", 2)

        async def main():
            loop = asyncio.get_running_loop()
            transport = TcpStreamTransport()
            for p in (0, 1):
                transport.register(p, _EchoNode(p, transport))
            await transport.start()
            # node 1 stops listening before the first frame reaches it
            server = transport._servers[1]
            server.close()
            await server.wait_closed()
            transport.send(0, 1, TerminationNotice(0, 0))
            started = loop.time()
            try:
                with pytest.raises(ConnectionError, match="monitor 0 cannot reach monitor 1"):
                    await transport.wait_quiescent(timeout=30.0)
                assert loop.time() - started < 5.0
            finally:
                await transport.aclose()  # must not raise the pump's error again

        asyncio.run(asyncio.wait_for(main(), timeout=60.0))

    def test_peer_listening_late_still_gets_the_frame(self):
        from repro.cluster import codec
        from repro.cluster.manifest import Endpoint, loopback_manifest

        async def main():
            port = loopback_manifest(1).workers[0].port
            transport = TcpStreamTransport(endpoints={1: Endpoint("127.0.0.1", port)})
            transport.register(0, _EchoNode(0, transport))
            await transport.start()
            frames = []
            first = asyncio.Event()
            done = asyncio.Event()

            async def serve(reader, writer):
                while (frame := await codec.read_frame_async(reader)) is not None:
                    frames.append(codec.decode_wire(*frame))
                    first.set()
                writer.close()
                done.set()

            transport.send(0, 1, TerminationNotice(0, 7))
            await asyncio.sleep(0.3)  # the first dial attempts find nobody
            server = await asyncio.start_server(serve, "127.0.0.1", port)
            try:
                await asyncio.wait_for(first.wait(), timeout=10.0)
                assert transport.fatal_error is None
            finally:
                await transport.aclose()
                await asyncio.wait_for(done.wait(), timeout=10.0)
                server.close()
                await server.wait_closed()
            assert frames == [(0.0, TerminationNotice(0, 7))]

        asyncio.run(asyncio.wait_for(main(), timeout=30.0))


class TestTcpMidFrameDisconnect:
    """A peer dying mid-frame must surface a precise diagnostic.

    Regression: a disconnect inside a frame used to surface as a raw
    ``EOFError`` (or a bogus quiescence timeout) instead of naming the
    truncated frame.  The reader now records a ``ConnectionError`` as
    ``transport.fatal_error`` and ``wait_quiescent`` re-raises it.  Frames
    are wire protocol v8 (:mod:`repro.cluster.codec`): raw bytes written
    here carry the magic/version/type header, and undecodable or
    wrong-version frames must surface the codec's diagnostics the same way.
    """

    @staticmethod
    async def _transport_with_sink():
        transport = TcpStreamTransport()
        sink = _EchoNode(0, transport)
        transport.register(0, sink)
        await transport.start()
        return transport, sink

    @staticmethod
    async def _wait_for_fatal(transport, timeout=5.0):
        deadline = asyncio.get_running_loop().time() + timeout
        while transport.fatal_error is None:
            if asyncio.get_running_loop().time() > deadline:
                raise AssertionError("fatal_error was never recorded")
            await asyncio.sleep(0.005)

    def test_truncated_length_prefix_reported(self):
        async def main():
            transport, _ = await self._transport_with_sink()
            try:
                _, writer = await asyncio.open_connection("127.0.0.1", transport.endpoints[0].port)
                writer.write(b"RW")  # 2 of the 8 frame-header bytes
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await self._wait_for_fatal(transport)
                with pytest.raises(ConnectionError, match="mid-frame.*frame-header"):
                    await transport.wait_quiescent(timeout=5.0)
            finally:
                await transport.aclose()

        asyncio.run(asyncio.wait_for(main(), timeout=15.0))

    def test_truncated_payload_reported(self):
        async def main():
            transport, _ = await self._transport_with_sink()
            try:
                _, writer = await asyncio.open_connection("127.0.0.1", transport.endpoints[0].port)
                # a full header announcing 100 payload bytes, then only 10
                from repro.cluster import codec

                header = codec.HEADER.pack(
                    codec.MAGIC, codec.PROTOCOL_VERSION, codec.TYPE_MONITORING, 100
                )
                writer.write(header + b"x" * 10)
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await self._wait_for_fatal(transport)
                with pytest.raises(
                    ConnectionError, match="10 of 100 payload bytes"
                ):
                    await transport.wait_quiescent(timeout=5.0)
            finally:
                await transport.aclose()

        asyncio.run(asyncio.wait_for(main(), timeout=15.0))

    def test_reset_after_header_reported_as_mid_frame(self):
        async def main():
            transport, _ = await self._transport_with_sink()
            try:
                import socket
                import struct

                from repro.cluster import codec

                _, writer = await asyncio.open_connection("127.0.0.1", transport.endpoints[0].port)
                # a valid header announcing 100 bytes, then RST
                writer.write(
                    codec.HEADER.pack(
                        codec.MAGIC, codec.PROTOCOL_VERSION, codec.TYPE_MONITORING, 100
                    )
                )
                await writer.drain()
                await asyncio.sleep(0.05)  # let the server consume the header
                sock = writer.get_extra_info("socket")
                sock.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),  # linger=0: close sends RST
                )
                writer.close()
                await self._wait_for_fatal(transport)
                with pytest.raises(ConnectionError, match="reset the connection mid-frame"):
                    await transport.wait_quiescent(timeout=5.0)
            finally:
                await transport.aclose()

        asyncio.run(asyncio.wait_for(main(), timeout=15.0))

    def test_undecodable_frame_reported(self):
        async def main():
            transport, _ = await self._transport_with_sink()
            try:
                _, writer = await asyncio.open_connection("127.0.0.1", transport.endpoints[0].port)
                import struct

                from repro.cluster import codec

                # a v1-style frame: length prefix + pickle-shaped garbage —
                # its first bytes can never spell the frame magic
                garbage = b"not a wire frame"
                writer.write(struct.pack(">I", len(garbage)) + garbage)
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await self._wait_for_fatal(transport)
                with pytest.raises(
                    codec.CorruptFrameError,
                    match="bad frame magic.*no longer supported",
                ):
                    await transport.wait_quiescent(timeout=5.0)
            finally:
                await transport.aclose()

        asyncio.run(asyncio.wait_for(main(), timeout=15.0))

    def test_wrong_protocol_version_reported(self):
        async def main():
            transport, _ = await self._transport_with_sink()
            try:
                from repro.cluster import codec

                _, writer = await asyncio.open_connection("127.0.0.1", transport.endpoints[0].port)
                # a structurally valid frame claiming protocol version 1
                writer.write(codec.HEADER.pack(codec.MAGIC, 1, codec.TYPE_MONITORING, 0))
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await self._wait_for_fatal(transport)
                with pytest.raises(
                    codec.ProtocolVersionError,
                    match="peer speaks wire protocol version 1",
                ):
                    await transport.wait_quiescent(timeout=5.0)
            finally:
                await transport.aclose()

        asyncio.run(asyncio.wait_for(main(), timeout=15.0))

    def test_oversized_frame_refused_before_its_payload_is_buffered(self):
        async def main():
            transport, _ = await self._transport_with_sink()
            try:
                from repro.cluster import codec

                _, writer = await asyncio.open_connection("127.0.0.1", transport.endpoints[0].port)
                # only the header arrives: the reader must refuse on its word
                # instead of waiting for (and buffering) 4 GiB
                writer.write(
                    codec.HEADER.pack(
                        codec.MAGIC, codec.PROTOCOL_VERSION, codec.TYPE_MONITORING, 2**32 - 1
                    )
                )
                await writer.drain()
                await self._wait_for_fatal(transport)
                with pytest.raises(
                    codec.CorruptFrameError,
                    match=f"4294967295 bytes, at most {codec.MAX_FRAME_BYTES}",
                ):
                    await transport.wait_quiescent(timeout=5.0)
                writer.close()
            finally:
                await transport.aclose()

        asyncio.run(asyncio.wait_for(main(), timeout=15.0))

    def test_clean_close_between_frames_is_not_an_error(self):
        class _Recorder:
            """Node double that records without acking: the injected frame
            was never transport-tracked, so acking it would drive the
            in-flight counter negative."""

            process = 0
            pending_items = 0
            received = []

            def enqueue_message(self, due, message):
                self.received.append((due, message))

            def failure(self):
                return None

        async def main():
            transport = TcpStreamTransport()
            sink = _Recorder()
            sink.received = []
            transport.register(0, sink)
            await transport.start()
            try:
                from repro.cluster import codec

                _, writer = await asyncio.open_connection("127.0.0.1", transport.endpoints[0].port)
                writer.write(codec.encode_wire(0.0, TerminationNotice(1, 3)))
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                deadline = asyncio.get_running_loop().time() + 5.0
                while not sink.received:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.005)
                # an out-of-band frame is not transport-tracked in-flight
                # work, so quiescence must hold and no error may be recorded
                await transport.wait_quiescent(timeout=5.0)
                assert transport.fatal_error is None
                return sink.received
            finally:
                await transport.aclose()

        received = asyncio.run(asyncio.wait_for(main(), timeout=15.0))
        assert [message for _, message in received] == [TerminationNotice(1, 3)]


class TestTransportTime:
    def test_now_is_monotone_high_water_mark(self):
        async def main():
            transport = InMemoryStreamTransport()
            await transport.advance_to(5.0)
            await transport.advance_to(2.0)
            return transport.now

        assert asyncio.run(main()) == 5.0


class TestStreamingRuns:
    def test_monitor_satisfies_node_protocol(self):
        computation, automaton, registry = _case()
        monitor = DecentralizedMonitor(
            process=0,
            num_processes=3,
            automaton=automaton,
            registry=registry,
            initial_letters=[
                registry.local_letter(i, computation.initial_states[i])
                for i in range(3)
            ],
            transport=InMemoryStreamTransport(),
        )
        assert isinstance(monitor, MonitorNode)

    def test_unknown_transport_rejected(self):
        computation, automaton, registry = _case()
        with pytest.raises(ValueError, match="unknown streaming transport"):
            run_streaming(computation, automaton, registry, transport="pigeon")

    @pytest.mark.parametrize("formula", FORMULAS)
    @pytest.mark.parametrize("seed", [1, 17, 2015])
    def test_memory_verdicts_match_the_simulator(self, formula, seed):
        computation, automaton, registry = _case(seed=seed, formula=formula)
        untimed = _untimed(computation, automaton, registry)
        simulated = simulate_monitored_run(
            computation, automaton, registry, seed=seed
        )
        streamed = run_streaming(
            computation,
            automaton,
            registry,
            delay=ReliableNetwork().delay_model(seed),
        )
        assert streamed.declared_verdicts == untimed.declared_verdicts
        assert streamed.declared_verdicts == simulated.declared_verdicts

    @pytest.mark.parametrize(
        "delay",
        [
            None,
            ReliableNetwork().delay_model(5),
            LossyNetwork(jitter=0.0, loss_probability=0.3).delay_model(5),
            PartitionNetwork(jitter=0.0, windows=((1.0, 4.0),)).delay_model(5),
            BurstyNetwork(period=0.5).delay_model(5),
        ],
        ids=["none", "gaussian", "lossy", "partition", "bursty"],
    )
    def test_all_delay_models_preserve_verdicts(self, delay):
        computation, automaton, registry = _case(seed=11)
        untimed = _untimed(computation, automaton, registry)
        streamed = run_streaming(computation, automaton, registry, delay=delay)
        assert streamed.declared_verdicts == untimed.declared_verdicts

    def test_tcp_run_matches_memory_run_verdicts(self):
        computation, automaton, registry = _case(seed=23)
        memory = run_streaming(computation, automaton, registry)
        tcp = run_streaming(computation, automaton, registry, transport="tcp")
        assert tcp.transport == "tcp"
        assert tcp.declared_verdicts == memory.declared_verdicts
        assert tcp.monitor_messages > 0

    def test_report_shape_and_stats(self):
        computation, automaton, registry = _case(seed=9)
        report = run_streaming(
            computation,
            automaton,
            registry,
            delay=LossyNetwork(jitter=0.0, loss_probability=0.4).delay_model(9),
        )
        row = report.as_dict()
        for key in (
            "processes",
            "events",
            "messages",
            "token_messages",
            "global_views",
            "delayed_events",
            "delay_time_pct_per_view",
            "verdicts",
            "transport",
        ):
            assert key in row
        assert "retransmissions" in report.network_stats
        assert report.wall_seconds > 0
        assert report.monitor_end_time >= report.program_end_time
