"""CLI backend selection: the flag error matrix and machine-readable output.

The ``run`` command accepts ``--backend {sim,asyncio,cluster}`` with two
backend-specific flags — ``--stream-transport`` (asyncio only) and
``--manifest`` (cluster only).  Mismatched combinations must fail fast with
an ``error:`` line naming both flags, and ``list-scenarios --format json``
must emit the full catalogue as parseable JSON.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios import scenario_names

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


class TestFlagErrorMatrix:
    @pytest.mark.parametrize("backend", ["sim", "cluster"])
    def test_stream_transport_rejected_off_asyncio(self, backend):
        result = _run_cli(
            "run", "--backend", backend, "--stream-transport", "tcp"
        )
        assert result.returncode == 1
        assert (
            f"error: --stream-transport only applies to --backend asyncio "
            f"(got --backend {backend})" in result.stderr
        )

    @pytest.mark.parametrize("backend", ["sim", "asyncio"])
    def test_manifest_rejected_off_cluster(self, backend):
        result = _run_cli(
            "run", "--backend", backend, "--manifest", "cluster.toml"
        )
        assert result.returncode == 1
        assert (
            f"error: --manifest only applies to --backend cluster "
            f"(got --backend {backend})" in result.stderr
        )

    def test_missing_manifest_file_rejected(self):
        result = _run_cli(
            "run", "--backend", "cluster", "--manifest", "no/such/file.toml"
        )
        assert result.returncode == 1
        assert "error: cluster manifest not found: no/such/file.toml" in result.stderr

    def test_unknown_backend_rejected_by_argparse(self):
        result = _run_cli("run", "--backend", "quantum")
        assert result.returncode == 2
        assert "invalid choice: 'quantum'" in result.stderr

    def test_negative_view_budget_rejected(self):
        result = _run_cli(
            "run", "--view-budget", "-1", "--processes", "2", "--events", "3",
            "--replications", "1",
        )
        assert result.returncode == 1
        assert "error: --view-budget must be 0 (no bound) or positive (got -1)" in result.stderr

    def test_malformed_fault_plan_rejected(self):
        result = _run_cli("run", "--fault-plan", "not-a-plan")
        assert result.returncode == 1
        assert "error:" in result.stderr


class TestListScenariosJson:
    def test_json_format_emits_full_catalogue(self):
        result = _run_cli("list-scenarios", "--format", "json")
        assert result.returncode == 0, result.stderr
        catalogue = json.loads(result.stdout)
        assert sorted(entry["name"] for entry in catalogue) == list(
            scenario_names()
        )
        for entry in catalogue:
            assert {"name", "description", "workload", "network", "grid"} <= set(
                entry
            )

    def test_table_format_still_default(self):
        result = _run_cli("list-scenarios")
        assert result.returncode == 0, result.stderr
        with pytest.raises(json.JSONDecodeError):
            json.loads(result.stdout)
        for name in scenario_names():
            assert name in result.stdout


class TestClusterBackendCli:
    def test_run_backend_cluster_smoke(self):
        result = _run_cli(
            "run",
            "--scenario",
            "paper-default",
            "--backend",
            "cluster",
            "--processes",
            "2",
            "--events",
            "3",
            "--replications",
            "1",
        )
        assert result.returncode == 0, result.stderr
        assert "backend cluster" in result.stdout
        assert "paper-default" in result.stdout
