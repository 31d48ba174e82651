"""The fleet's correctness anchor: tenants equal their standalone runs.

For fixed seeds, every tenant's verdict sequence (and the rest of its
:meth:`~repro.fleet.engine.TenantResult.equivalence_key` — message counts,
global views, event totals) must be byte-identical to the same
(formula, stream) pair run standalone through the asyncio backend
(:func:`repro.fleet.engine.standalone_tenant_result`).  The property is
checked across ≥ 3 tenant-count scales, so single-session luck cannot mask
a multiplexing bug, and across shard counts, so hash partitioning cannot
change what any tenant computes.
"""

import json
from dataclasses import asdict

import pytest

from repro.fleet import (
    FleetConfig,
    run_fleet,
    standalone_tenant_result,
    synthetic_fleet,
)

#: the ≥ 3 scales the equivalence property is checked at — one lone session,
#: a handful multiplexing one loop, and a batch spanning every property A–F
TENANT_SCALES = (1, 5, 17)


def _fleet_results(num_tenants, **config_kwargs):
    tenants = synthetic_fleet(
        num_tenants, num_processes=3, events_per_process=3, base_seed=2015
    )
    report = run_fleet(FleetConfig(tenants=tenants, **config_kwargs))
    assert report.tenants_evicted == 0
    assert report.tenants_completed == num_tenants
    return tenants, report.results


class TestStandaloneEquivalence:
    @pytest.mark.parametrize("num_tenants", TENANT_SCALES)
    def test_every_tenant_matches_its_standalone_run(self, num_tenants):
        tenants, results = _fleet_results(num_tenants)
        assert [r.tenant_id for r in results] == [t.tenant_id for t in tenants]
        for spec, result in zip(tenants, results):
            reference = standalone_tenant_result(spec)
            assert result.equivalence_key() == reference.equivalence_key()

    def test_verdict_sequences_hold_conclusive_declarations_only(self):
        _, results = _fleet_results(5)
        conclusive = 0
        for result in results:
            assert len(result.verdict_sequence) == 3  # one entry per monitor
            declared = " ".join(result.verdict_sequence).split()
            assert set(declared) <= {"⊤", "⊥"}  # never the inconclusive "?"
            conclusive += bool(declared)
        assert conclusive, "at least one tenant reaches a conclusive verdict"

    def test_block_policy_without_saturation_is_lossless(self):
        _, results = _fleet_results(5)
        for result in results:
            assert result.dropped_events == 0
            assert result.blocked_events == 0
            assert result.ingested_events == result.events


class TestShardIndependence:
    def test_shard_count_does_not_change_any_tenant(self):
        _, single = _fleet_results(17, shards=1)
        _, sharded = _fleet_results(17, shards=3)
        assert [r.equivalence_key() for r in single] == [
            r.equivalence_key() for r in sharded
        ]

    def test_more_shards_than_tenants(self):
        _, single = _fleet_results(1, shards=1)
        _, wide = _fleet_results(1, shards=4)
        assert [r.equivalence_key() for r in single] == [
            r.equivalence_key() for r in wide
        ]


class TestFleetDeterminism:
    def test_repeated_runs_are_byte_identical(self):
        _, first = _fleet_results(5)
        _, second = _fleet_results(5)
        assert [r.equivalence_key() for r in first] == [
            r.equivalence_key() for r in second
        ]


class TestReportRecords:
    """The fleet's results are its records: ``as_dict()["tenants"]``."""

    @pytest.fixture(scope="class")
    def report(self):
        tenants = synthetic_fleet(4, num_processes=2, events_per_process=2)
        # admitted in reverse: the records still come out in tenant-id order
        return run_fleet(FleetConfig(tenants=tuple(reversed(tenants))))

    def test_records_every_tenant_in_id_order(self, report):
        records = report.as_dict()["tenants"]
        assert [record["tenant_id"] for record in records] == [
            f"tenant-{i:04d}" for i in range(4)
        ]
        assert report.tenants_completed == 4
        assert all(record["error"] == "" for record in records)

    def test_each_record_is_its_tenant_result(self, report):
        records = report.as_dict()["tenants"]
        assert records == [asdict(result) for result in report.results]
        # every field a per-tenant verdict line carries, and more
        assert {
            "tenant_id",
            "property_name",
            "verdict_sequence",
            "verdicts",
            "events",
            "dropped_events",
            "latency_seconds",
            "error",
        } <= set(records[0])

    def test_report_survives_a_json_round_trip(self, report):
        document = json.loads(json.dumps(report.as_dict()))
        for record, result in zip(document["tenants"], report.results, strict=True):
            assert record["verdict_sequence"] == list(result.verdict_sequence)
            assert record["verdicts"] == list(result.verdicts)
            assert record["events"] == result.events
