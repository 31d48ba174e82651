"""The ``fleet`` CLI sub-command: table output, verification and JSON.

``python -m repro.experiments.cli fleet`` is the operator's entry point:
it must print the saturation-counter table, spot-verify tenants against
their standalone runs with a non-zero exit on divergence, build its tenants
from ``--seed`` (2015 when absent), and write the report
(``FleetReport.as_dict()``: its counters and one record per tenant) as JSON.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fleet import standalone_tenant_result, synthetic_fleet

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *argv],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )


FAST = ("--tenants", "4", "--processes", "2", "--events", "2")


class TestFleetCommand:
    def test_reports_the_saturation_table(self):
        result = _run_cli("fleet", *FAST)
        assert result.returncode == 0, result.stderr
        assert "fleet: 4 tenants on 1 shard(s)" in result.stdout
        for counter in (
            "fleet_events_per_sec",
            "fleet_tenants_completed",
            "fleet_events_dropped",
            "fleet_verdict_latency_p99",
        ):
            assert counter in result.stdout

    def test_verify_spot_checks_against_standalone_runs(self):
        result = _run_cli("fleet", *FAST, "--verify", "2")
        assert result.returncode == 0, result.stderr
        assert result.stdout.count(": ok") == 2
        assert "verified 2 tenant(s) against standalone runs" in result.stdout
        assert "MISMATCH" not in result.stdout

    def test_unknown_backpressure_rejected_by_the_parser(self):
        result = _run_cli("fleet", *FAST, "--backpressure", "drop-oldest")
        assert result.returncode == 2
        assert "invalid choice" in result.stderr

    @pytest.mark.parametrize("argv", [("--sink", "jsonl"), ("--sink-path", "v.jsonl")])
    def test_retired_sink_options_are_rejected_by_the_parser(self, argv):
        # the report's JSON document carries the per-tenant records instead
        result = _run_cli("fleet", *FAST, *argv)
        assert result.returncode == 2
        assert "unrecognized arguments" in result.stderr

    def test_json_writes_the_report_counters(self, tmp_path):
        out = tmp_path / "fleet.json"
        result = _run_cli(
            "fleet", *FAST, "--shards", "2", "--json", str(out)
        )
        assert result.returncode == 0, result.stderr
        document = json.loads(out.read_text())
        assert document["shards"] == 2
        assert document["fleet_tenants_admitted"] == 4
        assert document["fleet_events_per_sec"] > 0.0
        assert document["fleet_verdict_latency_p99"] >= 0.0
        # one record per tenant, in tenant-id order
        assert [tenant["tenant_id"] for tenant in document["tenants"]] == [
            f"tenant-{i:04d}" for i in range(4)
        ]
        assert all(tenant["error"] == "" for tenant in document["tenants"])

    @pytest.mark.parametrize(("argv", "base_seed"), [((), 2015), (("--seed", "0"), 0)])
    def test_tenants_are_built_from_the_seed(self, tmp_path, argv, base_seed):
        """``--seed 0`` is seed 0, not the default."""
        out = tmp_path / "fleet.json"
        result = _run_cli("fleet", *FAST, *argv, "--json", str(out))
        assert result.returncode == 0, result.stderr
        got = [tenant["events"] for tenant in json.loads(out.read_text())["tenants"]]

        def events(seed):
            tenants = synthetic_fleet(4, num_processes=2, events_per_process=2, base_seed=seed)
            return [standalone_tenant_result(spec).events for spec in tenants]

        assert events(0) != events(2015)  # the two seeds are told apart
        assert got == events(base_seed)
