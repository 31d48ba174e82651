"""Declarative fault plans (crash/restart, Byzantine, clock skew).

A :class:`FaultPlan` describes *which monitors fail and how* for one
monitored run, independently of the backend that executes it.  Crash and
restart triggers are expressed in **local-event space** — "monitor ``p``
crashes right after processing its ``after_events``-th local event and stays
down for the next ``down_events`` local events" — rather than in wall-clock
or virtual time.  This is the design decision that makes fault injection
*differentially testable*: both monitoring backends (the discrete-event
simulator and the asyncio streaming runtime) feed each monitor its local
events in exactly the same order, so a plan triggers at the same logical
point on both, whereas timed triggers would fall differently into each
backend's message interleavings.

While a monitor is down, its local events are buffered (progression pauses)
and inbound monitoring messages are *held by the channel layer* and flushed
at restart — channels stay reliable, as the paper's algorithm assumes
(peers would retransmit into a crashed endpoint until it returns).  What a
crash actually destroys is the monitor's volatile state, governed by the
recovery policy:

* :data:`RECOVERY_REPLAY` ("replay-from-last-verdict") — the monitor
  recovers its full exploration state from a journal; the crash costs only
  downtime (delayed token service, queued events).
* :data:`RECOVERY_REJOIN` ("rejoin-from-scratch") — the monitor loses its
  global views and outstanding tokens and rebuilds by replaying its durable
  local event log from the initial state; already-declared verdicts and
  peer-termination knowledge are durable (a declared verdict was announced
  externally and cannot be retracted; termination of a peer is stable
  knowledge).  In-flight tokens of the old incarnation die on return.

Beyond fail-stop crashes, a plan can make monitors *adversarial*
(:class:`ByzantineSpec`: message duplication, progression-state corruption,
stale-token replay, drop-on-send — counted in inbound/outbound *message*
space, so they are deterministic per backend) and perturb the vector-clock
assignment of the monitored computation itself (:class:`ClockSkewSpec`,
applied before any monitor runs — see :mod:`repro.faults.skew`).

The textual grammar accepted by ``run --fault-plan`` is comma-separated
chunks of three kinds::

    1@4:replay            # crash: monitor 1 crashes after its 4th event
    0@2+3:rejoin,2@5      # monitor 0 rejoins after 3 buffered events; 2 blips
    1!dup3!drop5          # Byzantine: monitor 1 duplicates every 3rd inbound
                          # message and drops every 5th outbound one
    skew@sound~0.25~2~7   # clock skew: mode~rate~magnitude~seed
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = [
    "RECOVERY_REPLAY",
    "RECOVERY_REJOIN",
    "RECOVERY_POLICIES",
    "SKEW_SOUND",
    "SKEW_UNSOUND",
    "SKEW_MODES",
    "CrashSpec",
    "ByzantineSpec",
    "ClockSkewSpec",
    "FaultPlan",
    "FaultStats",
    "parse_fault_plan",
    "format_fault_plan",
]

#: restart with the full pre-crash state (journal recovery): downtime only
RECOVERY_REPLAY = "replay"
#: restart from scratch, replaying the durable local event log
RECOVERY_REJOIN = "rejoin"
#: the recovery policies a :class:`CrashSpec` may name
RECOVERY_POLICIES = (RECOVERY_REPLAY, RECOVERY_REJOIN)

#: clock skew that only *inflates* non-local vector-clock components — every
#: skewed-consistent cut is consistent under the true clocks, so monitors
#: explore a sub-lattice of the real computation and verdicts stay sound
SKEW_SOUND = "sound"
#: clock skew that *deflates* received knowledge, hiding happened-before
#: edges — monitors may explore impossible interleavings (deliberately
#: soundness-breaking; for attacking the algorithm, never for evaluation)
SKEW_UNSOUND = "unsound"
#: the skew modes a :class:`ClockSkewSpec` may name
SKEW_MODES = (SKEW_SOUND, SKEW_UNSOUND)


@dataclass(frozen=True)
class CrashSpec:
    """One crash/restart cycle of one monitor, in local-event space.

    The monitor crashes immediately after processing its
    ``after_events``-th local event.  The next ``down_events`` local events
    are buffered; the arrival of the following local item (event or the
    process's termination signal, whichever comes first) restarts the
    monitor, which applies its recovery policy, drains held messages and
    buffered events, and then processes the arriving item.
    """

    process: int
    after_events: int
    down_events: int = 1
    recovery: str = RECOVERY_REPLAY

    def __post_init__(self) -> None:
        if self.process < 0:
            raise ValueError(f"process must be non-negative, got {self.process}")
        if self.after_events < 1:
            raise ValueError(
                f"after_events must be >= 1 (a monitor cannot crash before "
                f"its first event), got {self.after_events}"
            )
        if self.down_events < 0:
            raise ValueError(f"down_events must be >= 0, got {self.down_events}")
        if self.recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"unknown recovery policy {self.recovery!r} "
                f"(known: {', '.join(RECOVERY_POLICIES)})"
            )


@dataclass(frozen=True)
class ByzantineSpec:
    """Adversarial behaviours of one monitor, in local *message* space.

    Each ``*_every`` field arms one behaviour on every k-th trigger (0
    disables it).  Inbound behaviours count the monitor's received
    monitoring messages; ``drop_every`` counts its outbound sends.  Message
    arrival order is deterministic *per backend* but differs between
    backends, so Byzantine runs are reproducible on a fixed backend+seed
    while cross-backend comparisons are only meaningful for the crash/skew
    parts of a plan.

    * ``duplicate_every`` — deliver every k-th inbound message twice (the
      duplicate is a deep copy, as a re-sent frame would be).
    * ``corrupt_every`` — forge the progression state of every k-th inbound
      token: all undecided entries are marked conclusively evaluated
      (``eval=True``) without their guards ever having been checked, the
      most direct attack on the paper's soundness argument.
    * ``replay_every`` — on every k-th inbound message, additionally
      re-inject a stale deep copy of the *first* token this monitor ever
      saw, as an old incarnation or a confused peer would.
    * ``drop_every`` — silently drop every k-th outbound send (violating
      the reliable-channel assumption; attacks liveness, not soundness).
    """

    process: int
    duplicate_every: int = 0
    corrupt_every: int = 0
    replay_every: int = 0
    drop_every: int = 0

    def __post_init__(self) -> None:
        if self.process < 0:
            raise ValueError(f"process must be non-negative, got {self.process}")
        for name in ("duplicate_every", "corrupt_every", "replay_every", "drop_every"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0 (0 disables), got {value}")
            if value == 1:
                raise ValueError(
                    f"{name} cadence must be >= 2 (or 0 to disable), got 1: "
                    f"an every-message behaviour would trigger on the very "
                    f"first message, before any stale state exists to abuse"
                )

    @property
    def is_noop(self) -> bool:
        """Whether every behaviour is disabled (spec injects nothing)."""
        return not (
            self.duplicate_every
            or self.corrupt_every
            or self.replay_every
            or self.drop_every
        )


@dataclass(frozen=True)
class ClockSkewSpec:
    """A deterministic perturbation of the computation's vector clocks.

    Applied to the monitored :class:`~repro.distributed.computation.Computation`
    *before* any monitor runs (all backends monitor the identical skewed
    trace, so skew is differentially testable across backends, unlike the
    message-space Byzantine behaviours).  ``rate`` is the per-event
    perturbation probability, ``magnitude`` the maximum per-component
    distortion, drawn from a dedicated RNG seeded by ``seed`` (the run seed
    is *not* used: streaming runs have no seed of their own).

    ``mode`` selects which side of the happened-before boundary the skew
    lives on — :data:`SKEW_SOUND` only inflates what a process appears to
    know about others, :data:`SKEW_UNSOUND` deflates it.  Local components
    are never touched (an event's own component is its sequence number by
    construction) and per-process monotonicity is preserved.
    """

    mode: str = SKEW_SOUND
    rate: float = 0.25
    magnitude: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in SKEW_MODES:
            raise ValueError(
                f"unknown skew mode {self.mode!r} (known: {', '.join(SKEW_MODES)})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be within [0, 1], got {self.rate}")
        if self.magnitude < 1:
            raise ValueError(f"magnitude must be >= 1, got {self.magnitude}")

    @property
    def is_noop(self) -> bool:
        """Whether the spec perturbs nothing (zero perturbation rate)."""
        return self.rate == 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A full fault schedule: crash cycles, Byzantine monitors, clock skew.

    A plan is a plain frozen value — picklable into sweep workers and
    renderable into JSON metadata.  Multiple crashes of the same monitor
    are allowed but must not overlap or leave an ambiguous schedule: each
    spec must trigger strictly after the previous cycle's restart has been
    *observed* (see ``__post_init__``).  At most one :class:`ByzantineSpec`
    per process.
    """

    crashes: tuple[CrashSpec, ...] = ()
    byzantine: tuple[ByzantineSpec, ...] = ()
    clock_skew: ClockSkewSpec | None = None

    def __post_init__(self) -> None:
        per_process: dict[int, list[CrashSpec]] = {}
        for spec in self.crashes:
            per_process.setdefault(spec.process, []).append(spec)
        ordered: list[CrashSpec] = []
        for process in sorted(per_process):
            specs = sorted(per_process[process], key=lambda s: s.after_events)
            for earlier, later in zip(specs, specs[1:]):
                if later.after_events <= earlier.after_events + earlier.down_events:
                    raise ValueError(
                        f"overlapping crash cycles for monitor {process}: "
                        f"{earlier} is still down at event {later.after_events}"
                    )
                if (
                    earlier.down_events == 0
                    and later.after_events == earlier.after_events + 1
                ):
                    # A zero-length outage restarts on the arrival of event
                    # after_events+1 — the very event whose processing would
                    # trigger the next cycle's crash.  Restart-then-crash vs
                    # crash-while-restarting is an ambiguous schedule.
                    raise ValueError(
                        f"ambiguous crash schedule for monitor {process}: "
                        f"{earlier} has down_events=0, so its restart trigger "
                        f"(arrival of event {later.after_events}) coincides "
                        f"with the crash trigger of {later}; separate the "
                        f"cycles by at least one event"
                    )
            ordered.extend(specs)
        object.__setattr__(self, "crashes", tuple(ordered))

        byz_seen: set[int] = set()
        for byz in self.byzantine:
            if byz.process in byz_seen:
                raise ValueError(
                    f"duplicate ByzantineSpec for monitor {byz.process}: "
                    f"merge the behaviours into one spec"
                )
            byz_seen.add(byz.process)
        object.__setattr__(
            self,
            "byzantine",
            tuple(sorted(self.byzantine, key=lambda s: s.process)),
        )

    def specs_for(self, process: int) -> tuple[CrashSpec, ...]:
        """The crash cycles of *process*, ordered by trigger point."""
        return tuple(spec for spec in self.crashes if spec.process == process)

    def byzantine_for(self, process: int) -> ByzantineSpec | None:
        """The Byzantine behaviours of *process*, if any are armed."""
        for spec in self.byzantine:
            if spec.process == process and not spec.is_noop:
                return spec
        return None

    def is_noop(self, num_processes: int) -> bool:
        """Whether the plan injects nothing into a *num_processes* system.

        Specs naming processes outside the system are clipped, so a plan
        that only targets out-of-range monitors is a no-op: the runners
        skip fault wrapping entirely and outputs are byte-identical to a
        run without any plan.  Behaviour-free Byzantine specs and
        zero-rate skew are likewise no-ops.
        """
        if any(spec.process < num_processes for spec in self.crashes):
            return False
        if any(
            spec.process < num_processes and not spec.is_noop
            for spec in self.byzantine
        ):
            return False
        if self.clock_skew is not None and not self.clock_skew.is_noop:
            return False
        return True

    def build(
        self, num_processes: int, events_per_process: int, seed: int | None
    ) -> FaultPlan:
        """A literal plan is its own fault model: every cell gets it unchanged."""
        return self

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for JSON documents and the CLI).

        Tagged ``kind: explicit`` as the literal fault model; adversarial
        keys appear only when armed.
        """
        description: dict[str, object] = {
            "kind": "explicit",
            "crashes": [asdict(spec) for spec in self.crashes],
        }
        if self.byzantine:
            description["byzantine"] = [asdict(spec) for spec in self.byzantine]
        if self.clock_skew is not None:
            description["clock_skew"] = asdict(self.clock_skew)
        return description


@dataclass
class FaultStats:
    """Counters of what a fault plan actually did during one run."""

    crashes: int = 0
    restarts: int = 0
    #: restarts forced by the process's termination signal arriving while down
    forced_restarts: int = 0
    #: inbound monitoring messages held by the channel layer during downtime
    held_messages: int = 0
    #: local program events buffered while their monitor was down
    buffered_events: int = 0
    #: local events replayed from the durable log by rejoin recoveries
    replayed_events: int = 0
    #: extra per-run counters contributed by recovery policies and
    #: adversarial behaviours (kept out of the flat fields so crash-only
    #: runs keep their historical ``as_dict`` shape)
    extra: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        """Flat ``fault_*`` metric row merged into run reports."""
        row = {
            "fault_crashes": float(self.crashes),
            "fault_restarts": float(self.restarts),
            "fault_forced_restarts": float(self.forced_restarts),
            "fault_held_messages": float(self.held_messages),
            "fault_buffered_events": float(self.buffered_events),
            "fault_replayed_events": float(self.replayed_events),
        }
        row.update(self.extra)
        return row


#: grammar keys of the Byzantine chunk, in emission order
_BYZANTINE_KEYS = (
    ("dup", "duplicate_every"),
    ("corrupt", "corrupt_every"),
    ("replay", "replay_every"),
    ("drop", "drop_every"),
)


def _parse_byzantine_chunk(chunk: str) -> ByzantineSpec:
    parts = chunk.split("!")
    try:
        process = int(parts[0])
    except ValueError:
        raise ValueError(
            f"invalid Byzantine spec {chunk!r}: expected "
            f"'<process>!dup<k>!corrupt<k>!replay<k>!drop<k>' (any subset)"
        ) from None
    fields: dict[str, int] = {}
    known = dict(_BYZANTINE_KEYS)
    for part in parts[1:]:
        for key, attr in known.items():
            if part.startswith(key):
                try:
                    value = int(part[len(key) :])
                except ValueError:
                    raise ValueError(
                        f"invalid Byzantine behaviour {part!r} in {chunk!r}: "
                        f"expected an integer after {key!r}"
                    ) from None
                if attr in fields:
                    raise ValueError(
                        f"repeated Byzantine behaviour {key!r} in {chunk!r}"
                    )
                fields[attr] = value
                break
        else:
            raise ValueError(
                f"unknown Byzantine behaviour {part!r} in {chunk!r} "
                f"(known: {', '.join(key for key, _ in _BYZANTINE_KEYS)})"
            )
    if not fields:
        raise ValueError(
            f"invalid Byzantine spec {chunk!r}: at least one behaviour "
            f"(dup/corrupt/replay/drop) is required"
        )
    return ByzantineSpec(process=process, **fields)


def _parse_skew_chunk(chunk: str) -> ClockSkewSpec:
    body = chunk[len("skew@") :]
    parts = body.split("~")
    if len(parts) != 4:
        raise ValueError(
            f"invalid clock-skew spec {chunk!r}: expected "
            f"'skew@<mode>~<rate>~<magnitude>~<seed>'"
        )
    mode = parts[0].strip()
    try:
        rate = float(parts[1])
        magnitude = int(parts[2])
        seed = int(parts[3])
    except ValueError:
        raise ValueError(
            f"invalid clock-skew spec {chunk!r}: rate must be a float, "
            f"magnitude and seed integers"
        ) from None
    return ClockSkewSpec(mode=mode, rate=rate, magnitude=magnitude, seed=seed)


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse the compact ``run --fault-plan`` grammar into a plan.

    Grammar (comma-separated chunks, whitespace ignored)::

        <process>@<after_events>[+<down_events>][:<recovery>]   # crash cycle
        <process>!dup<k>!corrupt<k>!replay<k>!drop<k>           # Byzantine
        skew@<mode>~<rate>~<magnitude>~<seed>                   # clock skew

    ``down_events`` defaults to 1 and ``recovery`` to ``replay``; a
    Byzantine chunk names any non-empty subset of behaviours; at most one
    ``skew@`` chunk is allowed.
    """
    specs: list[CrashSpec] = []
    byzantine: list[ByzantineSpec] = []
    clock_skew: ClockSkewSpec | None = None
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk.startswith("skew@"):
            if clock_skew is not None:
                raise ValueError(
                    f"multiple clock-skew specs in {text!r}: at most one "
                    f"'skew@...' chunk is allowed"
                )
            clock_skew = _parse_skew_chunk(chunk)
            continue
        if "!" in chunk:
            byzantine.append(_parse_byzantine_chunk(chunk))
            continue
        spec, _, recovery = chunk.partition(":")
        recovery = recovery.strip() or RECOVERY_REPLAY
        process_text, at, trigger = spec.partition("@")
        if not at:
            raise ValueError(
                f"invalid fault spec {chunk!r}: expected "
                f"'<process>@<after_events>[+<down_events>][:<recovery>]'"
            )
        trigger, _, down_text = trigger.partition("+")
        try:
            process = int(process_text)
            after_events = int(trigger)
            down_events = int(down_text) if down_text else 1
        except ValueError:
            raise ValueError(
                f"invalid fault spec {chunk!r}: process, after_events and "
                f"down_events must be integers"
            ) from None
        specs.append(
            CrashSpec(
                process=process,
                after_events=after_events,
                down_events=down_events,
                recovery=recovery,
            )
        )
    return FaultPlan(tuple(specs), tuple(byzantine), clock_skew)


def format_fault_plan(plan: FaultPlan) -> str:
    """Render *plan* back into the ``run --fault-plan`` grammar."""
    chunks = [
        f"{spec.process}@{spec.after_events}+{spec.down_events}:{spec.recovery}"
        for spec in plan.crashes
    ]
    for byz in plan.byzantine:
        parts = [str(byz.process)]
        for key, attr in _BYZANTINE_KEYS:
            value = getattr(byz, attr)
            if value:
                parts.append(f"{key}{value}")
        if len(parts) > 1:
            chunks.append("!".join(parts))
    if plan.clock_skew is not None:
        skew = plan.clock_skew
        chunks.append(f"skew@{skew.mode}~{skew.rate}~{skew.magnitude}~{skew.seed}")
    return ",".join(chunks)
