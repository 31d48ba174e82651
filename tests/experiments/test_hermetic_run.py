"""Running the tests and the report check must leave the checkout as it found it.

This runs a small ``tests/`` + ``benchmarks/`` session the way a developer
would, then the results report's ``--check``, and checks that git sees no
change.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _git(*args: str) -> str:
    result = subprocess.run(
        ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, check=True
    )
    return result.stdout


@pytest.mark.skipif(
    shutil.which("git") is None or not (REPO_ROOT / ".git").exists(),
    reason="not a git checkout",
)
def test_a_tests_plus_benchmarks_run_leaves_git_status_unchanged():
    def snapshot() -> tuple[str, str]:
        # the diff too: a rewrite of an already-modified file keeps its
        # status line
        return _git("status", "--porcelain"), _git("diff")

    before = snapshot()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["REPRO_BENCH_SMOKE"] = "1"
    session = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "tests/ltl/test_boolmin.py",
            "benchmarks/test_kernel_hotpaths.py",
            "-k", "boolmin or box_bfs or serve_entry",
        ],  # fmt: skip
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert session.returncode == 0, session.stdout + session.stderr
    report = subprocess.run(
        [sys.executable, "tools/gen_results_report.py", "--check"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert report.returncode == 0, report.stdout + report.stderr
    assert snapshot() == before
