"""The property-fuzzing engine: determinism, classification, shrinking.

The fuzzer's own acceptance criteria: the point stream is a pure function
of the master seed, every outcome is reproducible from its serialized
``RunSpec`` alone (the round-trip property the shrunk repro documents rely
on), classification covers sound/divergent/crash, and shrinking is a
deterministic greedy walk that preserves the failure class.
"""

import json
from pathlib import Path

import pytest

from repro.cluster.spec import RunSpec
from repro.core.centralized import CentralizedMonitor
from repro.faults import (
    ByzantineSpec,
    ClockSkewSpec,
    FaultPlan,
    parse_fault_plan,
)
from repro.fuzz import (
    CLASS_CRASH,
    CLASS_DIVERGENT,
    CLASS_SOUND,
    CLASS_STORM,
    can_storm,
    execute_point,
    generate_points,
    is_attack_plan,
    run_fuzz,
    shrink_candidates,
    shrink_point,
)
from repro.fuzz.engine import _RETIRED_SCENARIOS, _scenario_pool
from repro.scenarios import get_scenario, list_scenarios


def _cheap_spec(**overrides):
    """A fast-to-execute point (two processes, tiny trace)."""
    base = dict(
        scenario="paper-default",
        property_name="B",
        num_processes=2,
        events_per_process=3,
        evt_mu=3.0,
        evt_sigma=1.0,
        comm_mu=3.0,
        comm_sigma=1.0,
        seed=7,
        max_views_per_state=2,
        fault_plan=None,
    )
    base.update(overrides)
    return RunSpec(**base)


#: ``generate_points(7, 12)`` as drawn before the kernel draw (the last of
#: each point's RNG) was deleted: scenario, property, n, events per process,
#: evt_mu, comm_mu, seed, max views per state, fault plan; points 1, 7, 8
#: and 10 drew retired scenario names, and ran (and are now) paper-default
_SEED_7_POINTS = (
    ('fixed-latency', 'E', 2, 6, 5.0, 3.0, 1066615033, 2, '1@2+3:replay'),
    ('paper-default', 'F', 2, 5, 2.0, 2.0, 89594208, 2, None),
    ('asymmetric-mesh', 'E', 2, 3, 2.0, 2.0, 89214715, 2, None),
    ('bursty-comm', 'A', 3, 3, 3.0, 3.0, 37289686, 3, '0@2+3:rejoin'),
    ('paper-default', 'D', 3, 4, 5.0, None, 645793797, 2, '1!corrupt3!replay3!drop4'),
    ('fixed-latency', 'C', 2, 4, 2.0, 3.0, 61201104, 2, 'skew@sound~0.25~2~37688'),
    ('partition-heal', 'B', 2, 6, 5.0, 2.0, 15525679, 2, None),
    ('paper-default', 'F', 2, 4, 5.0, 3.0, 365598762, 2, '1!dup2!corrupt2!replay4,skew@sound~0.25~1~16862'),
    ('paper-default', 'A', 3, 4, 5.0, 3.0, 527835767, 3, '0@4+3:replay'),
    ('partition-heal', 'C', 2, 4, 3.0, 3.0, 852827511, 3, '1@2+1:rejoin,1!replay4'),
    ('paper-default', 'E', 2, 5, 3.0, 2.0, 660904594, 2, '1@2+0:rejoin'),
    ('lossy-retransmit', 'C', 2, 6, 3.0, None, 660755254, 3, None),
)


class TestPointGeneration:
    def test_seed_7_stream_is_where_it_was(self):
        # the fuzz verdict gate names points of this stream by index
        assert [
            (
                p.scenario, p.property_name, p.num_processes, p.events_per_process,
                p.evt_mu, p.comm_mu, p.seed, p.max_views_per_state, p.fault_plan,
            )
            for p in generate_points(7, 12)
        ] == list(_SEED_7_POINTS)  # fmt: skip
        assert {(p.evt_sigma, p.comm_sigma) for p in generate_points(7, 12)} == {(1.0, 1.0)}

    @pytest.mark.parametrize("retired", _RETIRED_SCENARIOS)
    def test_a_retired_scenario_keeps_its_slot_as_paper_default(self, retired):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario(retired)
        registered = sorted(s.name for s in list_scenarios() if s.faults is None)
        slots = sorted([*registered, *_RETIRED_SCENARIOS])
        pool = _scenario_pool()
        assert len(pool) == len(slots) == 12
        assert pool[slots.index(retired)] == "paper-default"
        assert [name for name in pool if name != "paper-default"] == [
            name for name in registered if name != "paper-default"
        ]

    def test_stream_is_deterministic_in_the_seed(self):
        first = generate_points(99, 20)
        second = generate_points(99, 20)
        assert [s.to_json() for s in first] == [s.to_json() for s in second]

    def test_different_seeds_differ(self):
        assert [s.to_json() for s in generate_points(1, 10)] != [
            s.to_json() for s in generate_points(2, 10)
        ]

    def test_points_are_valid_replayable_specs(self):
        for spec in generate_points(5, 30):
            assert RunSpec.from_json(spec.to_json()) == spec
            spec.faults()  # the fault plan grammar parses back
            assert 2 <= spec.num_processes <= 3
            assert spec.events_per_process >= 3

    def test_generation_covers_the_adversarial_space(self):
        points = generate_points(0, 120)
        plans = [p.faults() for p in points]
        assert any(p is None for p in plans)
        assert any(p is not None and p.crashes for p in plans)
        assert any(p is not None and p.byzantine for p in plans)
        assert any(p is not None and p.clock_skew is not None for p in plans)
        assert any(is_attack_plan(p) for p in plans)


class TestAttackPlans:
    def test_no_plan_is_not_an_attack(self):
        assert not is_attack_plan(None)
        assert not is_attack_plan(FaultPlan())

    def test_corruption_is_an_attack(self):
        plan = FaultPlan(byzantine=(ByzantineSpec(process=0, corrupt_every=2),))
        assert is_attack_plan(plan)

    def test_unsound_skew_is_an_attack_sound_skew_is_not(self):
        assert is_attack_plan(FaultPlan(clock_skew=ClockSkewSpec(mode="unsound")))
        assert not is_attack_plan(FaultPlan(clock_skew=ClockSkewSpec(mode="sound")))

    def test_benign_behaviours_are_not_attacks(self):
        plan = parse_fault_plan("0@2+1:rejoin,1!dup2!replay3!drop4")
        assert not is_attack_plan(plan)


class TestExecution:
    def test_sound_point_classifies_sound_with_overhead(self):
        outcome = execute_point(_cheap_spec(), index=3)
        assert outcome.classification == CLASS_SOUND
        assert outcome.index == 3
        assert not outcome.is_finding
        assert outcome.overhead["messages_per_event"] > 0

    def test_crashing_point_classifies_crash(self):
        outcome = execute_point(_cheap_spec(scenario="no-such-scenario"))
        assert outcome.classification == CLASS_CRASH
        assert "no-such-scenario" in outcome.error
        assert outcome.is_finding  # a crash is always a finding

    def test_outcome_round_trips_through_spec_json(self):
        for spec in (
            _cheap_spec(),
            _cheap_spec(fault_plan="0@2+1:rejoin", seed=13),
            _cheap_spec(fault_plan="1!dup2!corrupt3", seed=21),
            _cheap_spec(fault_plan="skew@unsound~0.5~2~9", property_name="E"),
        ):
            direct = execute_point(spec)
            replayed = execute_point(RunSpec.from_json(spec.to_json()))
            assert direct.classification == replayed.classification
            assert direct.soundness_violations == replayed.soundness_violations
            assert direct.backend_divergence == replayed.backend_divergence
            assert direct.overhead == replayed.overhead

    def test_divergence_against_a_denying_oracle(self, monkeypatch):
        # force the oracle to deny everything: any declared verdict must be
        # reported as a soundness violation and classify the point divergent
        monkeypatch.setattr(
            CentralizedMonitor,
            "monitor_computation_declared",
            classmethod(lambda cls, *args, **kwargs: frozenset()),
        )
        # property B on this trace declares ⊤, which the stub oracle denies
        outcome = execute_point(_cheap_spec(property_name="B", seed=3))
        assert outcome.classification == CLASS_DIVERGENT
        assert outcome.soundness_violations
        assert outcome.is_finding

    def test_attack_divergence_is_not_a_finding(self, monkeypatch):
        monkeypatch.setattr(
            CentralizedMonitor,
            "monitor_computation_declared",
            classmethod(lambda cls, *args, **kwargs: frozenset()),
        )
        outcome = execute_point(
            _cheap_spec(property_name="B", seed=3, fault_plan="0!corrupt2")
        )
        assert outcome.classification == CLASS_DIVERGENT
        assert outcome.attack
        assert not outcome.is_finding


class TestStormClassification:
    """The event-budget guard against message-amplification storms.

    Rejoin recovery combined with message duplication can amplify token
    traffic without bound (found by fuzzing: seed 101, point 92 ran past
    10^5 simulator events and gigabytes of state).  The engine bounds every
    point by a simulator-event budget and classifies exhaustion as
    ``storm`` — expected under amplifying plans, a finding anywhere else.
    The tests shrink the budget so they run in milliseconds.
    """

    def test_simulator_budget_raises_the_typed_exception(self):
        from repro.cluster.spec import build_cell_inputs
        from repro.scenarios import get_scenario
        from repro.sim import SimulationBudgetExceeded, simulate_monitored_run

        spec = _cheap_spec()
        computation, automaton, registry = build_cell_inputs(spec)
        with pytest.raises(SimulationBudgetExceeded, match="event budget"):
            simulate_monitored_run(
                computation,
                automaton,
                registry,
                seed=spec.seed,
                network=get_scenario(spec.scenario).network,
                max_sim_events=5,
            )

    def test_can_storm_names_the_amplifying_behaviours(self):
        assert not can_storm(None)
        assert not can_storm(parse_fault_plan("0@2+1:rejoin"))
        assert not can_storm(parse_fault_plan("0!corrupt2!drop3"))
        assert can_storm(parse_fault_plan("0!dup2"))
        assert can_storm(parse_fault_plan("1!replay3"))

    def test_budget_exhaustion_without_amplification_is_a_finding(
        self, monkeypatch
    ):
        import repro.fuzz.engine as engine

        monkeypatch.setattr(engine, "_SIM_EVENT_BUDGET", 5)
        outcome = execute_point(_cheap_spec())
        assert outcome.classification == CLASS_STORM
        assert "event budget" in outcome.error
        assert outcome.is_finding  # no amplifying behaviour armed

    def test_expected_storms_are_recorded_but_not_findings_nor_shrunk(
        self, monkeypatch
    ):
        import repro.fuzz.engine as engine

        monkeypatch.setattr(engine, "_SIM_EVENT_BUDGET", 5)
        outcome = execute_point(_cheap_spec(fault_plan="0!dup2"), index=9)
        assert outcome.classification == CLASS_STORM
        assert not outcome.is_finding
        report = engine.FuzzReport(seed=0, outcomes=[outcome])
        assert report.counts[CLASS_STORM] == 1


class TestDiscoveredUnsoundSkewDivergence:
    """A real attack point found by fuzzing — no stubbed oracle needed.

    With unsound clock skew at full rate, the decentralized run declares ⊥
    on a trace where the centralized oracle never does: manufactured
    causality makes cuts that never happened look consistent.  The harness
    must catch this, flag it as an attack (the plan armed unsound skew, so
    it is *expected*, not a finding) and reproduce it from JSON alone.
    """

    SPEC = dict(
        scenario="paper-default",
        property_name="D",
        num_processes=3,
        events_per_process=5,
        evt_mu=3.0,
        evt_sigma=1.0,
        comm_mu=3.0,
        comm_sigma=1.0,
        seed=29,
        max_views_per_state=3,
        fault_plan="skew@unsound~1.0~3~1",
    )

    def test_unsound_skew_induces_a_caught_divergence(self):
        outcome = execute_point(RunSpec(**self.SPEC))
        assert outcome.classification == CLASS_DIVERGENT
        assert outcome.soundness_violations  # the forged ⊥
        assert outcome.attack
        assert not outcome.is_finding

    def test_the_divergence_replays_from_json(self):
        spec = RunSpec(**self.SPEC)
        replayed = execute_point(RunSpec.from_json(spec.to_json()))
        assert replayed.classification == CLASS_DIVERGENT
        assert replayed.soundness_violations == execute_point(spec).soundness_violations


class TestShrinking:
    def test_candidates_reduce_or_simplify(self):
        spec = _cheap_spec(
            num_processes=3,
            events_per_process=5,
            fault_plan="0@2+1:rejoin,1!dup2!corrupt3,skew@sound~0.5~2~4",
        )
        candidates = list(shrink_candidates(spec))
        assert candidates
        assert any(c.events_per_process < spec.events_per_process for c in candidates)
        assert any(c.num_processes < spec.num_processes for c in candidates)
        assert any(c.fault_plan is None or "corrupt" not in (c.fault_plan or "")
                   for c in candidates)
        # candidate generation is pure: same spec, same list
        assert [c.to_json() for c in shrink_candidates(spec)] == [
            c.to_json() for c in candidates
        ]

    def test_shrink_preserves_the_failure_class(self):
        # an unknown scenario crashes whatever the other parameters are, so
        # the shrinker must walk all the way down to the minimal spec
        spec = _cheap_spec(
            scenario="no-such-scenario",
            num_processes=3,
            events_per_process=6,
            fault_plan="0@2+1:rejoin,1!dup2,skew@sound~0.5~2~4",
        )
        shrunk = shrink_point(spec, CLASS_CRASH)
        assert shrunk.num_processes == 2
        assert shrunk.events_per_process == 2
        assert shrunk.fault_plan is None
        assert execute_point(shrunk).classification == CLASS_CRASH

    def test_shrunk_spec_replays_from_its_document(self, tmp_path):
        spec = _cheap_spec(scenario="no-such-scenario")
        shrunk = shrink_point(spec, CLASS_CRASH)
        path = shrunk.save(tmp_path / "repro.json")
        assert execute_point(RunSpec.load(path)).classification == CLASS_CRASH


class TestFuzzCli:
    REPO_ROOT = Path(__file__).resolve().parents[2]

    def _fuzz(self, out_dir, *extra):
        import subprocess
        import sys

        return subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "fuzz",
                "--seed",
                "7",
                "--points",
                "3",
                "--out",
                str(out_dir),
                *extra,
            ],
            capture_output=True,
            text=True,
            timeout=300,
            cwd=self.REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )

    def test_module_invocation_is_deterministic(self, tmp_path):
        first = self._fuzz(tmp_path / "a")
        second = self._fuzz(tmp_path / "b")
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr
        assert "fuzzed 3 points" in first.stdout
        report_a = (tmp_path / "a" / "fuzz-report.json").read_text()
        report_b = (tmp_path / "b" / "fuzz-report.json").read_text()
        assert report_a == report_b
        report = json.loads(report_a)
        assert report["seed"] == 7
        assert report["points"] == 3
        assert "worst monitoring overhead: point" in first.stdout
        assert sorted(path.name for path in (tmp_path / "a").iterdir()) == [
            "fuzz-report.json"
        ]


class TestCiWiring:
    def test_ci_runs_the_fuzz_smoke_and_nightly_jobs(self):
        repo_root = Path(__file__).resolve().parents[2]
        text = (repo_root / ".github" / "workflows" / "ci.yml").read_text(
            encoding="utf-8"
        )
        assert "fuzz-smoke" in text
        assert "--seed 7 --points 1000" in text
        assert "fuzz-nightly" in text
        # shrunk repros must survive the failing run that produced them
        assert text.count("if: always()") >= 2
        # PR pushes must never pay for the nightly cluster catalogue and the
        # deep fuzz pass
        assert (
            "if: github.event_name == 'schedule' || github.event_name == 'workflow_dispatch'"
            in text
        )


class TestRunFuzz:
    def test_run_is_deterministic(self):
        first = run_fuzz(17, 6, shrink=False)
        second = run_fuzz(17, 6, shrink=False)
        assert [o.as_dict() for o in first.outcomes] == [
            o.as_dict() for o in second.outcomes
        ]
        assert first.counts == second.counts

    def test_progress_callback_sees_every_point(self):
        seen = []
        run_fuzz(17, 4, shrink=False, progress=lambda o: seen.append(o.index))
        assert seen == [0, 1, 2, 3]

    def test_report_document_is_json_serialisable(self):
        report = run_fuzz(17, 4, shrink=False)
        document = json.loads(json.dumps(report.as_dict()))
        assert document["points"] == 4
        assert set(document["counts"]) == {
            CLASS_SOUND,
            CLASS_DIVERGENT,
            CLASS_CRASH,
            CLASS_STORM,
        }
        assert len(document["outcomes"]) == 4
        for row in document["outcomes"]:
            RunSpec.from_json(row["spec"])  # every row replays

    def test_failures_are_shrunk_into_replayable_repros(self, monkeypatch):
        # deny-everything oracle: every point with a declared verdict
        # diverges, so the report must carry shrunk repros for them
        monkeypatch.setattr(
            CentralizedMonitor,
            "monitor_computation_declared",
            classmethod(lambda cls, *args, **kwargs: frozenset()),
        )
        report = run_fuzz(17, 3, shrink=True)
        divergent = [
            o for o in report.outcomes if o.classification == CLASS_DIVERGENT
        ]
        assert divergent, "expected at least one divergent point under the stub"
        for outcome in divergent:
            shrunk = report.shrunk[outcome.index]
            assert execute_point(shrunk).classification == CLASS_DIVERGENT
