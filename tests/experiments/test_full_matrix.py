"""Smoke tests for the full-matrix runner (``tools/run_full_matrix.py``)."""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOL = REPO_ROOT / "tools" / "run_full_matrix.py"


def _run_tool(*argv, env_extra=None):
    env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, str(TOOL), *argv],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=REPO_ROOT,
        env=env,
    )


class TestFullMatrixTool:
    def test_narrowed_matrix_emits_combined_document(self, tmp_path):
        out = tmp_path / "matrix.json"
        summary = tmp_path / "summary.md"
        result = _run_tool(
            "--out",
            str(out),
            "--scenarios",
            "paper-default",
            "crash-restart-replay",
            "--properties",
            "B",
            "--processes",
            "2",
            "--events",
            "3",
            "--replications",
            "1",
            env_extra={"GITHUB_STEP_SUMMARY": str(summary)},
        )
        assert result.returncode == 0, result.stderr
        document = json.loads(out.read_text(encoding="utf-8"))
        assert set(document) == {"cells", "scenarios"}
        # one record per (scenario x backend) cell
        cells = document["cells"]
        assert [(cell["scenario"], cell["backend"]) for cell in cells] == [
            ("paper-default", "sim"),
            ("paper-default", "asyncio"),
            ("crash-restart-replay", "sim"),
            ("crash-restart-replay", "asyncio"),
        ]
        for cell in cells:
            assert set(cell) == {"scenario", "backend", "rows", "seconds"}
            assert cell["rows"] >= 1
            assert cell["seconds"] > 0
        # scenario metadata (including the fault model) rides along
        assert (
            document["scenarios"]["crash-restart-replay"]["faults"]["kind"]
            == "single-crash"
        )
        # the job summary table was appended
        text = summary.read_text(encoding="utf-8")
        assert "Full scenario matrix" in text
        assert "crash-restart-replay" in text

    def test_unknown_scenario_fails_fast(self, tmp_path):
        result = _run_tool(
            "--out", str(tmp_path / "matrix.json"), "--scenarios", "no-such-scenario"
        )
        assert result.returncode == 2
        assert "unknown scenario" in result.stderr

    def test_ci_wires_the_nightly_job(self):
        text = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(
            encoding="utf-8"
        )
        assert "run_full_matrix.py" in text
        assert "workflow_dispatch" in text
        assert "schedule" in text
        # PR pushes must never pay for the full matrix
        assert (
            "github.event_name == 'schedule' || github.event_name == 'workflow_dispatch'"
            in text
        )
