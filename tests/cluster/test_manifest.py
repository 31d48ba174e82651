"""Cluster manifests and run specs: parsing, validation, round-trips."""

import json

import pytest

from repro.cluster.manifest import (
    ClusterManifest,
    Endpoint,
    load_manifest,
    loopback_manifest,
    manifest_from_dict,
)
from repro.cluster import coordinator
from repro.cluster.spec import RunSpec, build_cell_inputs
from repro.experiments.engine import ExecutionConfig, run_scenario_cell
from repro.experiments.harness import ExperimentScale
from repro.faults import CrashSpec, FaultPlan
from repro.scenarios import GridPoint, get_scenario

EXAMPLE = ClusterManifest(
    coordinator=Endpoint("10.0.0.1", 7000),
    workers=(Endpoint("10.0.0.2", 7100), Endpoint("10.0.0.3", 7100)),
)


class TestManifest:
    @pytest.mark.parametrize("filename", ["cluster.toml", "cluster.json"])
    def test_save_load_round_trip(self, tmp_path, filename):
        path = EXAMPLE.save(tmp_path / filename)
        assert load_manifest(path) == EXAMPLE

    def test_worker_lookup(self):
        assert EXAMPLE.worker(1) == Endpoint("10.0.0.3", 7100)
        assert str(EXAMPLE.worker(0)) == "10.0.0.2:7100"
        with pytest.raises(KeyError, match="no worker for monitor 5"):
            EXAMPLE.worker(5)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="cluster manifest not found"):
            load_manifest(tmp_path / "absent.toml")

    def test_empty_worker_table_rejected(self):
        with pytest.raises(ValueError, match="at least one worker"):
            ClusterManifest(coordinator=Endpoint("h", 1), workers=())

    def test_non_contiguous_worker_ids_rejected(self):
        data = EXAMPLE.as_dict()
        data["workers"] = {"0": data["workers"]["0"], "2": data["workers"]["1"]}
        with pytest.raises(ValueError, match="contiguous range 0..1"):
            manifest_from_dict(data)

    def test_non_integer_worker_keys_rejected(self):
        data = EXAMPLE.as_dict()
        data["workers"] = {"zero": data["workers"]["0"]}
        with pytest.raises(ValueError, match="integer monitor ids"):
            manifest_from_dict(data)

    def test_malformed_endpoint_rejected(self):
        data = EXAMPLE.as_dict()
        data["workers"]["1"] = {"host": "10.0.0.3", "port": "7100"}
        with pytest.raises(ValueError, match="worker 1.*port an integer"):
            manifest_from_dict(data)

    def test_missing_coordinator_rejected(self):
        data = EXAMPLE.as_dict()
        del data["coordinator"]
        with pytest.raises(ValueError, match="coordinator needs 'host' and 'port'"):
            manifest_from_dict(data)

    def test_invalid_file_error_names_the_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"workers": {}}))
        with pytest.raises(ValueError, match="invalid cluster manifest .*broken"):
            load_manifest(path)

    def test_loopback_manifest_allocates_distinct_ports(self):
        manifest = loopback_manifest(3)
        assert manifest.num_workers == 3
        endpoints = [manifest.coordinator, *manifest.workers]
        assert all(e.host == "127.0.0.1" for e in endpoints)
        assert len({e.port for e in endpoints}) == len(endpoints)


class _Distributed(Exception):
    """Carries the spec a cluster cell was about to distribute."""


class TestRunSpec:
    @pytest.fixture(autouse=True)
    def _capture_instead_of_spawning_workers(self, monkeypatch):
        def capture(spec, manifest=None):
            raise _Distributed(spec)

        monkeypatch.setattr(coordinator, "cluster_monitored_run", capture)

    def _spec(self, fault_plan=None):
        """The spec the engine builds for one cluster cell."""
        with pytest.raises(_Distributed) as distributed:
            run_scenario_cell(
                get_scenario("paper-default"),
                GridPoint("B", 3),
                ExperimentScale(events_per_process=4),
                seed=2015,
                config=ExecutionConfig(backend="cluster", fault_plan=fault_plan),
            )
        (spec,) = distributed.value.args
        assert spec == RunSpec(
            scenario="paper-default",
            property_name="B",
            num_processes=3,
            events_per_process=4,
            evt_mu=3.0,
            evt_sigma=1.0,
            comm_mu=3.0,
            comm_sigma=1.0,
            seed=2015,
            max_views_per_state=2,
            fault_plan=spec.fault_plan,
        )
        return spec

    def test_json_round_trip(self, tmp_path):
        spec = self._spec()
        assert RunSpec.from_json(spec.to_json()) == spec
        path = spec.save(tmp_path / "spec.json")
        assert RunSpec.load(path) == spec

    def test_unknown_fields_rejected(self):
        document = json.loads(self._spec().to_json())
        document["surprise"] = 1
        with pytest.raises(ValueError, match="unknown fields: \\['surprise'\\]"):
            RunSpec.from_json(json.dumps(document))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda document: [1, 2], "must be a JSON object, got list"),
            (
                lambda document: {**document, "num_processes": "3"},
                "field 'num_processes' must be int, got '3'",
            ),
            (
                lambda document: {k: v for k, v in document.items() if k != "seed"},
                "missing field 'seed'",
            ),
        ],
        ids=["not-an-object", "wrong-type", "missing-field"],
    )
    def test_bad_documents_rejected_naming_the_field(self, mutate, message):
        # workers load spec files and the fuzzer writes them as repros: a bad
        # one must fail on load, not later inside a worker
        document = mutate(json.loads(self._spec().to_json()))
        with pytest.raises(ValueError, match=message):
            RunSpec.from_json(json.dumps(document))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_views_per_state", 0, "at least 1 \\(got 0\\)"),
            ("max_views_per_state", -2, "at least 1 \\(got -2\\)"),
            ("fault_plan", "0@x", "must be integers"),
            ("fault_plan", "0@2+1:explode", "unknown recovery policy 'explode'"),
            ("fault_plan", "1!nonsense2", "unknown Byzantine behaviour 'nonsense2'"),
            ("fault_plan", "skew@sound~1~2~3,skew@sound~1~2~3", "multiple clock-skew specs"),
        ],
        ids=["budget-0", "budget-negative", "crash", "recovery", "byzantine", "two-skews"],
    )
    def test_a_spec_no_worker_can_run_is_refused_at_construction(self, field, value, message):
        # else every worker fails on it inside its run, and the coordinator
        # raises a ClusterError carrying the worker's traceback
        document = {**json.loads(self._spec().to_json()), field: value}
        with pytest.raises(ValueError, match=message):
            RunSpec(**document)
        with pytest.raises(ValueError, match=message):
            RunSpec.from_json(json.dumps(document))

    def test_documents_with_the_retired_kernel_key_still_load(self):
        # every spec document written before the knob went carries the key
        document = json.loads(self._spec().to_json())
        assert "compiled_kernel" not in document
        for value in (True, False):
            old = json.dumps({**document, "compiled_kernel": value})
            assert RunSpec.from_json(old) == self._spec()

    def test_documents_with_the_retired_topology_key_still_load(self):
        # specs written while tokens could be routed several ways name one
        document = json.loads(self._spec().to_json())
        assert "topology" not in document
        old = json.dumps({**document, "topology": "gossip"})
        assert RunSpec.from_json(old) == self._spec()

    def test_fault_plan_travels_as_grammar(self):
        plan = FaultPlan(crashes=(CrashSpec(process=1, after_events=2,
                                            down_events=1, recovery="replay"),))
        spec = self._spec(fault_plan=plan)
        assert spec.fault_plan == "1@2+1:replay"
        assert spec.faults() == plan

    def test_noop_fault_plan_serializes_as_none(self):
        spec = self._spec(fault_plan=FaultPlan())
        assert spec.fault_plan is None
        assert spec.faults() is None

    def test_cell_inputs_are_deterministic(self):
        spec = self._spec()
        computation_a, automaton_a, _ = build_cell_inputs(spec)
        computation_b, automaton_b, _ = build_cell_inputs(spec)
        assert computation_a.num_events == computation_b.num_events
        assert [e.vc for e in computation_a.all_events()] == [
            e.vc for e in computation_b.all_events()
        ]
        assert automaton_a.num_states == automaton_b.num_states
