"""Unit tests for the backend-agnostic crash/restart proxy machinery."""

from repro.core.messages import TerminationNotice, Token, TokenEntry
from repro.core.monitor import MonitorMetrics
from repro.faults import (
    ByzantineSpec,
    CrashSpec,
    FaultInjector,
    FaultPlan,
    MonitorFaultProxy,
    unwrap_monitor,
)


class ScriptedMonitor:
    """Monitor double recording the exact order of calls it receives."""

    instances = 0

    def __init__(self, process=0):
        type(self).instances += 1
        self.incarnation = type(self).instances
        self.process = process
        self.calls = []
        self.declared_bits = 0
        self.verdict_log = []
        self.heard = 0
        self.terminated = {process: None, 99: 42}
        self.metrics = MonitorMetrics()

    def start(self):
        self.calls.append("start")

    def local_event(self, event):
        self.calls.append(("event", event))

    def local_termination(self):
        self.calls.append("termination")

    def receive_message(self, message):
        self.calls.append(("message", message))

    def reported_verdicts(self):
        return set(self.declared_verdicts)


def make_proxy(specs, process=0):
    stats = FaultInjector(FaultPlan(specs), 4).stats
    return MonitorFaultProxy(lambda: ScriptedMonitor(process), tuple(specs), stats)


class TestProxyLifecycle:
    def test_up_proxy_delegates_transparently(self):
        proxy = make_proxy([CrashSpec(process=0, after_events=99)])
        proxy.start()
        proxy.local_event("e1")
        proxy.receive_message("m1")
        proxy.local_termination()
        assert proxy.monitor.calls == [
            "start",
            ("event", "e1"),
            ("message", "m1"),
            "termination",
        ]
        assert not proxy.is_down

    def test_crash_triggers_after_nth_event(self):
        proxy = make_proxy([CrashSpec(process=0, after_events=2, down_events=2)])
        proxy.local_event("e1")
        assert not proxy.is_down
        proxy.local_event("e2")
        assert proxy.is_down
        assert proxy.stats.crashes == 1

    def test_downtime_buffers_events_and_holds_messages(self):
        proxy = make_proxy([CrashSpec(process=0, after_events=1, down_events=2)])
        proxy.local_event("e1")  # crash point
        proxy.local_event("e2")
        proxy.receive_message("m1")
        proxy.local_event("e3")
        assert proxy.is_down
        # nothing beyond the crash point reached the monitor yet
        assert proxy.monitor.calls == [("event", "e1")]
        assert proxy.stats.buffered_events == 2
        assert proxy.stats.held_messages == 1

    def test_restart_drains_held_messages_before_buffered_events(self):
        proxy = make_proxy([CrashSpec(process=0, after_events=1, down_events=2)])
        proxy.local_event("e1")
        proxy.local_event("e2")
        proxy.receive_message("m1")
        proxy.local_event("e3")
        proxy.local_event("e4")  # exceeds down_events=2: restart, then process
        assert not proxy.is_down
        assert proxy.monitor.calls == [
            ("event", "e1"),
            ("message", "m1"),  # held messages are older: flushed first
            ("event", "e2"),
            ("event", "e3"),
            ("event", "e4"),
        ]
        assert proxy.stats.restarts == 1

    def test_zero_downtime_restarts_on_next_event(self):
        proxy = make_proxy([CrashSpec(process=0, after_events=1, down_events=0)])
        proxy.local_event("e1")
        assert proxy.is_down
        proxy.local_event("e2")
        assert not proxy.is_down
        assert proxy.monitor.calls == [("event", "e1"), ("event", "e2")]

    def test_termination_force_restarts_down_monitor(self):
        proxy = make_proxy([CrashSpec(process=0, after_events=1, down_events=50)])
        proxy.local_event("e1")
        proxy.local_event("e2")
        proxy.receive_message("m1")
        assert proxy.is_down
        proxy.local_termination()
        assert not proxy.is_down
        assert proxy.stats.forced_restarts == 1
        # drained everything, then terminated — a crash never swallows the end
        assert proxy.monitor.calls == [
            ("event", "e1"),
            ("message", "m1"),
            ("event", "e2"),
            "termination",
        ]

    def test_consecutive_cycles_fire_in_order(self):
        proxy = make_proxy(
            [
                CrashSpec(process=0, after_events=1, down_events=0),
                CrashSpec(process=0, after_events=3, down_events=0),
            ]
        )
        for i in range(5):
            proxy.local_event(i)
        assert proxy.stats.crashes == 2
        assert proxy.stats.restarts == 2


class TestRejoinRecovery:
    def test_replay_keeps_the_same_monitor_instance(self):
        proxy = make_proxy(
            [CrashSpec(process=0, after_events=1, down_events=0, recovery="replay")]
        )
        first = proxy.monitor
        proxy.local_event("e1")
        proxy.local_event("e2")
        assert proxy.monitor is first
        assert proxy.stats.replayed_events == 0

    def test_rejoin_replaces_monitor_and_replays_log(self):
        proxy = make_proxy(
            [CrashSpec(process=0, after_events=2, down_events=0, recovery="rejoin")]
        )
        first = proxy.monitor
        proxy.local_event("e1")
        proxy.local_event("e2")  # crash
        proxy.local_event("e3")  # restart: rejoin, replay e1+e2, then e3
        assert proxy.monitor is not first
        assert proxy.monitor.incarnation == first.incarnation + 1
        assert proxy.monitor.calls == [
            "start",
            ("event", "e1"),
            ("event", "e2"),
            ("event", "e3"),
        ]
        assert proxy.stats.replayed_events == 2

    def test_rejoin_carries_durable_facts_only(self):
        proxy = make_proxy(
            [CrashSpec(process=3, after_events=1, down_events=0, recovery="rejoin")],
            process=3,
        )
        old = proxy.monitor
        old.verdict_log.append("TOP")
        old.declared_bits |= 1 << 7
        old.heard |= 1 << 8  # declared elsewhere, as a token told it
        old.terminated[1] = 5  # peer 1 known terminated at sn 5
        old.terminated[3] = 9  # own termination is NOT carried (rebuilt locally)
        proxy.local_event("e1")
        proxy.local_event("e2")
        fresh = proxy.monitor
        assert fresh is not old
        assert fresh.verdict_log == ["TOP"]
        assert fresh.declared_bits == 1 << 7
        assert fresh.heard == 0  # soft state: the next token or notice tells it again
        assert fresh.terminated[1] == 5
        assert fresh.terminated[3] is None
        assert fresh.terminated[99] == 42  # the double's own initial state

    def test_metrics_merged_across_incarnations(self):
        proxy = make_proxy(
            [CrashSpec(process=0, after_events=1, down_events=0, recovery="rejoin")]
        )
        proxy.monitor.metrics.token_messages_sent = 3
        proxy.monitor.metrics.max_active_views = 5
        proxy.monitor.metrics.answered_at_home = 7
        proxy.local_event("e1")
        proxy.local_event("e2")
        proxy.monitor.metrics.token_messages_sent = 2
        proxy.monitor.metrics.max_active_views = 4
        proxy.monitor.metrics.answered_at_home = 1
        merged = proxy.metrics
        assert merged.token_messages_sent == 5  # additive
        assert merged.answered_at_home == 8
        assert merged.max_active_views == 5  # maximum, not sum


class TestFaultInjector:
    def test_unnamed_processes_stay_unwrapped(self):
        injector = FaultInjector(FaultPlan((CrashSpec(process=1, after_events=2),)), 3)
        bare = injector.wrap(0, ScriptedMonitor)
        wrapped = injector.wrap(1, lambda: ScriptedMonitor(1))
        assert isinstance(bare, ScriptedMonitor)
        assert isinstance(wrapped, MonitorFaultProxy)

    def test_proxies_share_one_stats_object(self):
        plan = FaultPlan(
            (CrashSpec(process=0, after_events=1), CrashSpec(process=1, after_events=1))
        )
        injector = FaultInjector(plan, 2)
        for process in (0, 1):
            proxy = injector.wrap(process, lambda p=process: ScriptedMonitor(p))
            proxy.local_event("e")
        assert injector.stats.crashes == 2
        assert injector.fault_stats()["fault_crashes"] == 2.0

    def test_unwrap_monitor(self):
        injector = FaultInjector(FaultPlan((CrashSpec(process=0, after_events=1),)), 1)
        proxy = injector.wrap(0, ScriptedMonitor)
        bare = ScriptedMonitor()
        assert unwrap_monitor(proxy) is proxy.monitor
        assert unwrap_monitor(bare) is bare


def _undecided_token(token_id):
    entry = TokenEntry(
        transition_id=0, bits=((1, 1), (1, 1)), start_cut=[0, 0], cut=[0, 0],
        depend=[0, 0], min_positions=[0, 0], satisfied=[True, False],
    )
    return Token(parent_process=1, entries=[entry], known=[0, 0], token_id=token_id)


class _Recording:
    """A transport that keeps what it was handed."""

    def __init__(self):
        self.sent = []

    def send(self, sender, target, message):
        self.sent.append(message)


def _transported():
    monitor = ScriptedMonitor()
    monitor.transport = _Recording()
    return monitor


def make_byzantine_proxy(**behaviours):
    """A proxy of process 0 armed with *behaviours*; a cadence of 1, which
    plans refuse, is forced onto the spec (the proxy applies any)."""
    spec = ByzantineSpec(process=0, **{k: v if v != 1 else 2 for k, v in behaviours.items()})
    for name, every in behaviours.items():
        object.__setattr__(spec, name, every)
    injector = FaultInjector(FaultPlan(byzantine=(spec,)), 2)
    return injector.wrap(0, _transported), injector.stats


class TestByzantineFrames:
    """Inbound behaviours act on each message of a frame; drop-on-send drops
    whole frames."""

    def test_a_two_token_frame_meeting_corrupt_every_1_has_both_tokens_forged(self):
        proxy, stats = make_byzantine_proxy(corrupt_every=1)
        frame = (_undecided_token(1), _undecided_token(2))
        proxy.receive_message(frame)
        ((kind, delivered),) = proxy.monitor.calls
        assert kind == "message" and isinstance(delivered, tuple)
        assert [token.token_id for token in delivered] == [1, 2]
        assert [[e.eval for e in token.entries] for token in delivered] == [[True], [True]]
        assert stats.extra["fault_byz_corrupted"] == 2.0
        # forged copies: what arrived is untouched
        assert [[e.eval for e in token.entries] for token in frame] == [[None], [None]]

    def test_every_kth_message_of_a_frame_is_forged(self):
        proxy, stats = make_byzantine_proxy(corrupt_every=2)
        proxy.receive_message(tuple(_undecided_token(i) for i in range(1, 5)))
        proxy.receive_message(_undecided_token(5))
        (_, frame), (_, alone) = proxy.monitor.calls
        forged = [token.entries[0].eval for token in (*frame, alone)]
        assert forged == [None, True, None, True, None]
        assert stats.extra["fault_byz_corrupted"] == 2.0

    def test_duplicates_follow_their_message_inside_the_frame(self):
        proxy, stats = make_byzantine_proxy(duplicate_every=2)
        notice, token = TerminationNotice(1, 3), _undecided_token(7)
        proxy.receive_message((notice, token))
        ((_, delivered),) = proxy.monitor.calls
        assert delivered[:2] == (notice, token) and delivered[2] == token
        assert delivered[2] is not token and len(delivered) == 3
        assert stats.extra["fault_byz_duplicated"] == 1.0

    def test_a_lone_message_stays_alone(self):
        proxy, _ = make_byzantine_proxy(corrupt_every=5)
        proxy.receive_message(TerminationNotice(1, 3))
        assert proxy.monitor.calls == [("message", TerminationNotice(1, 3))]

    def test_drop_on_send_drops_every_kth_frame_whole(self):
        proxy, stats = make_byzantine_proxy(drop_every=2)
        frames = [(TerminationNotice(0, 1), _undecided_token(i)) for i in range(4)]
        for frame in frames:
            proxy.monitor.transport.send(0, 1, frame)
        assert proxy.monitor.transport.sent == [frames[0], frames[2]]
        assert stats.extra["fault_byz_dropped"] == 2.0
