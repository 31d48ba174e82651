"""The property-fuzzing engine: random points, oracles, classification.

One fuzz *point* is a complete, replayable monitoring configuration — a
(formula × workload × network × fault-plan) sample serialized as the same
:class:`repro.cluster.spec.RunSpec` JSON the cluster distributes to workers,
so every point (and every shrunk repro) regenerates bit-for-bit from its
document alone.  Point generation is a pure function of ``(seed, index)``:
the same seed always produces the same points, outcomes and shrunk repros.

Each point runs through two oracles:

* **sim-vs-oracle (soundness and completeness)** — the simulator's
  decentralized monitors against the lattice oracle on the *true* (never
  skewed) computation, compared through
  :func:`repro.core.monitor.verdict_divergence`; a verdict the
  decentralized run declares that the oracle denies is a soundness
  violation.  Conversely, a point with no fault plan whose run evicted no
  view must declare every verdict the oracle declares; one it misses is a
  completeness violation.  Points arming a behaviour *designed* to break
  soundness (token corruption, unsound clock skew) are flagged ``attack`` —
  their divergence is the expected, recorded outcome; divergence anywhere
  else is a genuine finding.
* **sim-vs-asyncio (backend equivalence)** — declared verdicts must be
  identical across backends for every Byzantine-free point (Byzantine
  triggers count messages, whose arrival order is backend-specific, so
  cross-backend equality is only meaningful without them).

Outcomes classify as ``sound`` / ``divergent`` / ``crash`` / ``storm``
(the simulated run blew through its event budget — message-amplification
storms under duplication/replay plans are the expected cause); every
non-sound point is shrunk (:mod:`repro.fuzz.shrink`) to a minimal repro.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from ..cluster.spec import RunSpec
from ..core.centralized import CentralizedMonitor
from ..core.monitor import verdict_divergence
from ..experiments.properties import PROPERTY_NAMES
from ..faults import (
    SKEW_UNSOUND,
    ByzantineSpec,
    ClockSkewSpec,
    CrashSpec,
    FaultPlan,
    format_fault_plan,
)

__all__ = [
    "CLASS_SOUND",
    "CLASS_DIVERGENT",
    "CLASS_CRASH",
    "CLASS_STORM",
    "FuzzOutcome",
    "FuzzReport",
    "generate_point",
    "generate_points",
    "execute_point",
    "is_attack_plan",
    "run_fuzz",
]

CLASS_SOUND = "sound"
CLASS_DIVERGENT = "divergent"
CLASS_CRASH = "crash"
CLASS_STORM = "storm"

#: simulator-event budget per fuzz point.  Rejoin recovery combined with
#: message duplication can amplify token traffic without bound (each
#: re-exploration's sends are duplicated, each duplicate triggers more
#: service work) — a liveness storm, not a soundness break.  The heaviest
#: honest fuzz-scale points execute ~50k simulator events, so this budget
#: is ~3x headroom for them while cutting storms off deterministically in
#: a bounded minute or two instead of gigabytes of runaway state.
_SIM_EVENT_BUDGET = 150_000

#: mixed into the master seed so point streams are independent of every
#: other RNG family in the repo (workload, network, fault schedules)
_FUZZ_SEED_SALT = 0xF0_77_EE_D5


def _point_rng(seed: int, index: int) -> random.Random:
    """The dedicated RNG of point *index* under master seed *seed*."""
    return random.Random(((seed ^ _FUZZ_SEED_SALT) << 16) ^ index)


#: fault-free scenarios no longer registered; points ran them as ``paper-default``
#: (same workload and network), so their pool slots stay, under that name
_RETIRED_SCENARIOS = ("paper-gossip", "paper-slicer-placement", "paper-tree-aggregation")


def _scenario_pool() -> tuple[str, ...]:
    """Names of the registered scenarios without a fault model of their own.

    The fuzzer owns the fault plan of every point, so it samples workload ×
    network conditions from the fault-free catalogue and composes its own
    adversarial schedule on top.  Retired names keep their sorted slots, so
    every seed's point stream stays where it was.
    """
    from ..scenarios import list_scenarios

    names = {s.name for s in list_scenarios() if s.faults is None}
    return tuple(
        "paper-default" if name in _RETIRED_SCENARIOS else name
        for name in sorted(names.union(_RETIRED_SCENARIOS))
    )


def _random_fault_plan(rng: random.Random, num_processes: int) -> FaultPlan | None:
    """Sample a fault plan: crashes, Byzantine behaviours, clock skew."""
    crashes: list[CrashSpec] = []
    byzantine: list[ByzantineSpec] = []
    clock_skew: ClockSkewSpec | None = None

    for process in range(num_processes):
        if rng.random() < 0.25:
            crashes.append(
                CrashSpec(
                    process=process,
                    after_events=rng.randint(1, 4),
                    down_events=rng.randint(0, 3),
                    recovery=rng.choice(("replay", "rejoin")),
                )
            )
    for process in range(num_processes):
        if rng.random() < 0.3:
            spec = ByzantineSpec(
                process=process,
                duplicate_every=rng.choice((0, 0, 2, 3)),
                corrupt_every=rng.choice((0, 0, 2, 3, 4)),
                replay_every=rng.choice((0, 0, 3, 4)),
                drop_every=rng.choice((0, 0, 0, 4, 5)),
            )
            if not spec.is_noop:
                byzantine.append(spec)
    roll = rng.random()
    if roll < 0.2:
        clock_skew = ClockSkewSpec(
            mode="sound",
            rate=rng.choice((0.25, 0.5)),
            magnitude=rng.randint(1, 2),
            seed=rng.randrange(1 << 16),
        )
    elif roll < 0.3:
        clock_skew = ClockSkewSpec(
            mode=SKEW_UNSOUND,
            rate=rng.choice((0.25, 0.5)),
            magnitude=rng.randint(1, 2),
            seed=rng.randrange(1 << 16),
        )
    if not crashes and not byzantine and clock_skew is None:
        return None
    return FaultPlan(tuple(crashes), tuple(byzantine), clock_skew)


def generate_point(seed: int, index: int) -> RunSpec:
    """The deterministic fuzz point *index* of master seed *seed*."""
    rng = _point_rng(seed, index)
    pool = _scenario_pool()
    # points stay small: the cost of a point grows steeply with the lattice
    # (n=4 runs under partition networks can take minutes — an unbounded
    # tail for the CI smoke job), and small points cover the adversarial
    # behaviour space just as well; larger scales are pinned by the
    # fixed-seed cross-backend equivalence suite instead
    num_processes = rng.choice((2, 2, 3))
    events_cap = {2: 6, 3: 5}[num_processes]
    plan = _random_fault_plan(rng, num_processes)
    return RunSpec(
        scenario=rng.choice(pool),
        property_name=rng.choice(PROPERTY_NAMES),
        num_processes=num_processes,
        events_per_process=rng.randint(3, events_cap),
        evt_mu=rng.choice((2.0, 3.0, 5.0)),
        evt_sigma=1.0,
        comm_mu=rng.choice((None, 2.0, 3.0)),
        comm_sigma=1.0,
        seed=rng.randrange(1 << 30),
        max_views_per_state=rng.choice((2, 3)),
        fault_plan=None if plan is None else format_fault_plan(plan),
    )


def generate_points(seed: int, count: int) -> list[RunSpec]:
    """The first *count* fuzz points of master seed *seed*."""
    return [generate_point(seed, index) for index in range(count)]


def is_attack_plan(plan: FaultPlan | None) -> bool:
    """Whether the plan arms a behaviour *designed* to break soundness.

    Token corruption forges progression state and unsound clock skew hides
    happened-before edges — divergence under either is the expected,
    recorded outcome.  Everything else (crashes, churn, duplication, stale
    replay, drop-on-send, sound skew) must keep verdicts sound; divergence
    there is a genuine finding.
    """
    if plan is None:
        return False
    if any(spec.corrupt_every for spec in plan.byzantine):
        return True
    return plan.clock_skew is not None and plan.clock_skew.mode == SKEW_UNSOUND


def can_storm(plan: FaultPlan | None) -> bool:
    """Whether the plan arms a message-amplifying behaviour.

    Duplication and stale replay inject extra messages, each of which can
    trigger further monitor work (and further injected messages) — the
    only behaviours that can exhaust the simulator's event budget on an
    otherwise healthy protocol.  A ``storm`` outcome under such a plan is
    an expected liveness cost; a storm under any other plan would mean the
    protocol itself fails to quiesce, which is a genuine finding.
    """
    if plan is None:
        return False
    return any(
        spec.duplicate_every or spec.replay_every for spec in plan.byzantine
    )


@dataclass
class FuzzOutcome:
    """What one fuzz point did under both oracles."""

    index: int
    spec: RunSpec
    classification: str
    #: whether the point arms a deliberately soundness-breaking behaviour
    #: (divergence is then expected rather than a finding)
    attack: bool = False
    #: verdicts the decentralized run declared but the oracle denies
    soundness_violations: tuple[str, ...] = ()
    #: verdicts the oracle declares but a fault-free run that evicted no
    #: view did not
    missed_verdicts: tuple[str, ...] = ()
    #: whether sim and asyncio declared different verdict sets
    backend_divergence: bool = False
    #: ``repr`` of the exception for ``crash`` outcomes
    error: str | None = None
    #: monitoring-overhead metrics of the simulated run
    overhead: dict[str, float] = field(default_factory=dict)
    #: wall-clock seconds the point took end to end (oracles included)
    seconds: float = 0.0

    @property
    def is_finding(self) -> bool:
        """Whether this outcome is a genuine (unexpected) failure."""
        if self.classification == CLASS_SOUND:
            return False
        if self.classification == CLASS_STORM:
            # budget exhaustion is the expected cost of message-amplifying
            # behaviours; anywhere else it means the protocol won't quiesce
            return not can_storm(self.spec.faults())
        return not self.attack

    def as_dict(self) -> dict[str, object]:
        """JSON-ready summary row (the spec travels as its own document)."""
        return {
            "index": self.index,
            "classification": self.classification,
            "attack": self.attack,
            "soundness_violations": list(self.soundness_violations),
            "missed_verdicts": list(self.missed_verdicts),
            "backend_divergence": self.backend_divergence,
            "error": self.error,
            "overhead": dict(self.overhead),
            "is_finding": self.is_finding,
            "spec": self.spec.to_json(),
        }


def execute_point(spec: RunSpec, index: int = 0) -> FuzzOutcome:
    """Run one fuzz point through both oracles and classify the outcome.

    Everything is regenerated from *spec* alone, so executing the same
    spec (including one loaded back from its JSON document) reproduces
    the identical classification.
    """
    from ..cluster.spec import build_cell_inputs
    from ..runtime.runner import run_streaming
    from ..scenarios import get_scenario
    from ..sim.engine import SimulationBudgetExceeded
    from ..sim.runner import simulate_monitored_run

    started = time.perf_counter()
    plan = spec.faults()
    attack = is_attack_plan(plan)
    try:
        computation, automaton, registry = build_cell_inputs(spec)
        scenario = get_scenario(spec.scenario)
        simulated = simulate_monitored_run(
            computation,
            automaton,
            registry,
            seed=spec.seed,
            max_views_per_state=spec.max_views_per_state,
            network=scenario.network,
            faults=plan,
            max_sim_events=_SIM_EVENT_BUDGET,
        )
        # the soundness reference always sees the *true* computation: under
        # unsound skew the monitors work on distorted clocks, and the whole
        # question is whether they still only declare real verdicts
        oracle = CentralizedMonitor.monitor_computation_declared(
            computation, automaton, registry
        )
        violations = verdict_divergence(simulated.declared_verdicts, oracle)
        # the converse: a fault-free run that evicted no view loses nothing
        complete = plan is None and simulated.metrics.views_evicted == 0
        missed = oracle - simulated.declared_verdicts if complete else frozenset()
        backend_divergence = False
        if plan is None or not plan.byzantine:
            streamed = run_streaming(
                computation,
                automaton,
                registry,
                delay=scenario.network.delay_model(spec.seed),
                max_views_per_state=spec.max_views_per_state,
                faults=plan,
            )
            backend_divergence = (
                streamed.declared_verdicts != simulated.declared_verdicts
            )
    except SimulationBudgetExceeded as error:
        return FuzzOutcome(
            index=index,
            spec=spec,
            classification=CLASS_STORM,
            attack=attack,
            error=repr(error),
            seconds=time.perf_counter() - started,
        )
    except Exception as error:  # noqa: BLE001 - crashes are an outcome class
        return FuzzOutcome(
            index=index,
            spec=spec,
            classification=CLASS_CRASH,
            attack=attack,
            error=repr(error),
            seconds=time.perf_counter() - started,
        )
    events = max(1, simulated.total_events)
    overhead = {
        "messages_per_event": simulated.monitor_messages / events,
        "token_messages": float(simulated.token_messages),
        "global_views": float(simulated.total_global_views),
        "delay_time_pct_per_view": simulated.delay_time_percentage_per_view,
    }
    divergent = bool(violations) or bool(missed) or backend_divergence
    return FuzzOutcome(
        index=index,
        spec=spec,
        classification=CLASS_DIVERGENT if divergent else CLASS_SOUND,
        attack=attack,
        soundness_violations=tuple(sorted(str(v) for v in violations)),
        missed_verdicts=tuple(sorted(str(v) for v in missed)),
        backend_divergence=backend_divergence,
        overhead=overhead,
        seconds=time.perf_counter() - started,
    )


@dataclass
class FuzzReport:
    """The full result of one fuzzing run."""

    seed: int
    outcomes: list[FuzzOutcome]
    #: minimal repros of the non-sound outcomes, keyed by point index
    shrunk: dict[int, RunSpec] = field(default_factory=dict)

    @property
    def counts(self) -> dict[str, int]:
        """Outcome counts by classification."""
        counts = {
            CLASS_SOUND: 0,
            CLASS_DIVERGENT: 0,
            CLASS_CRASH: 0,
            CLASS_STORM: 0,
        }
        for outcome in self.outcomes:
            counts[outcome.classification] += 1
        return counts

    @property
    def findings(self) -> list[FuzzOutcome]:
        """Unexpected (non-attack) divergences and crashes."""
        return [outcome for outcome in self.outcomes if outcome.is_finding]

    def worst_overhead(self) -> FuzzOutcome | None:
        """The point with the highest messages-per-event overhead."""
        scored = [o for o in self.outcomes if o.overhead]
        if not scored:
            return None
        return max(scored, key=lambda o: o.overhead["messages_per_event"])

    def as_dict(self) -> dict[str, object]:
        """JSON-ready document of the whole run."""
        return {
            "seed": self.seed,
            "points": len(self.outcomes),
            "counts": self.counts,
            "findings": [outcome.index for outcome in self.findings],
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
            "shrunk": {
                str(index): spec.to_json() for index, spec in self.shrunk.items()
            },
        }


def run_fuzz(
    seed: int,
    points: int,
    *,
    shrink: bool = True,
    progress: Callable[[FuzzOutcome], None] | None = None,
) -> FuzzReport:
    """Fuzz *points* configurations under master seed *seed*.

    Deterministic end to end: the same ``(seed, points)`` produces the same
    specs, classifications and shrunk repros.  *progress* is an optional
    ``callable(outcome)`` invoked per point (the CLI uses it for
    line-by-line reporting).
    """
    from .shrink import shrink_point

    report = FuzzReport(seed=seed, outcomes=[])
    for index in range(points):
        spec = generate_point(seed, index)
        outcome = execute_point(spec, index)
        report.outcomes.append(outcome)
        if progress is not None:
            progress(outcome)
    if shrink:
        for outcome in report.outcomes:
            if outcome.classification == CLASS_SOUND:
                continue
            if outcome.classification == CLASS_STORM and not outcome.is_finding:
                # an expected amplification storm: every shrink candidate
                # would burn the full event budget again for a point whose
                # cause (duplication/replay) is already named by its plan
                continue
            report.shrunk[outcome.index] = shrink_point(
                outcome.spec, outcome.classification
            )
    return report
