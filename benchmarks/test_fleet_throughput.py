"""The multi-tenant fleet: throughput and saturation counters.

One synthetic fleet per session runs to completion and its report is
checked; ``perf/``'s ``fleet-mux`` workload is what times a fleet.

The assertions pin the qualitative contract — every tenant completes, the
block policy stays lossless, the counters conserve events — rather than
absolute rates, which measure the runner, not the code.
"""

import os

from repro.fleet import FleetConfig, run_fleet, synthetic_fleet

#: smoke scale (CI wall-clock budget) vs. the default local scale
if os.environ.get("REPRO_BENCH_SMOKE"):
    _NUM_TENANTS = 40
    _EVENTS_PER_PROCESS = 3
else:
    _NUM_TENANTS = 200
    _EVENTS_PER_PROCESS = 4

_NUM_PROCESSES = 3

#: one fleet run per session, shared by every test in the file
_REPORT_CACHE: list = []


def _report():
    if _REPORT_CACHE:
        return _REPORT_CACHE[0]
    tenants = synthetic_fleet(
        _NUM_TENANTS,
        num_processes=_NUM_PROCESSES,
        events_per_process=_EVENTS_PER_PROCESS,
    )
    report = run_fleet(FleetConfig(tenants=tenants))
    _REPORT_CACHE.append(report)
    return report


def test_fleet_completes_every_tenant():
    report = _report()
    assert report.tenants_admitted == _NUM_TENANTS
    assert report.tenants_completed == _NUM_TENANTS
    assert report.tenants_evicted == 0


def test_fleet_throughput_is_measured():
    report = _report()
    assert report.wall_seconds > 0.0
    assert report.fleet_events_per_sec > 0.0
    # the workload adds communication events on top of the internal ones,
    # so the floor is the internal-event budget, the exact total the sum
    assert report.events_ingested == sum(r.events for r in report.results)
    assert (
        report.events_ingested
        >= _NUM_TENANTS * _NUM_PROCESSES * _EVENTS_PER_PROCESS
    )


def test_default_block_policy_is_lossless():
    report = _report()
    assert report.events_dropped == 0
    for result in report.results:
        assert result.ingested_events == result.events


def test_latency_percentiles_are_ordered():
    report = _report()
    assert 0.0 < report.verdict_latency_p50 <= report.verdict_latency_p99
    assert report.verdict_latency_p99 <= report.wall_seconds
