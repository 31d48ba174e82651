"""Tests for the benchmark comparison tool, in particular the missing-baseline path.

Regression: when the previous-main ``bench-json`` artifact was absent (first
run on a branch, expired retention, forks), ``compare_bench.py`` printed one
easily-missed log line and exited 0 — CI looked green with no comparison
having happened.  It must now emit an explicit ``::notice::`` annotation and
a job-summary entry instead of silently passing.
"""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_compare_bench():
    spec = importlib.util.spec_from_file_location(
        "compare_bench", REPO_ROOT / "benchmarks" / "compare_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_bench = _load_compare_bench()


def _write_document(directory, name="BENCH_smoke_test.json", seconds=1.0):
    directory.mkdir(parents=True, exist_ok=True)
    document = {
        "schema": compare_bench.SCHEMA,
        "timings": {"kernel_hot_path": {"seconds": seconds}},
    }
    (directory / name).write_text(json.dumps(document), encoding="utf-8")


class TestMissingBaseline:
    def test_missing_baseline_emits_notice_and_summary(self, tmp_path, capsys, monkeypatch):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        _write_document(tmp_path / "current")
        code = compare_bench.main(
            ["--previous", str(tmp_path / "missing"), "--current", str(tmp_path / "current")]
        )
        assert code == 0  # advisory: absence is loud, not fatal
        out = capsys.readouterr().out
        assert "::notice title=benchmark baseline missing::" in out
        assert "no benchmark baseline" in out
        text = summary.read_text(encoding="utf-8")
        assert "No baseline available" in text

    def test_missing_baseline_without_github_env_still_explicit(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        _write_document(tmp_path / "current")
        code = compare_bench.main(
            [
                "--previous",
                str(tmp_path / "missing"),
                "--current",
                str(tmp_path / "current"),
                "--no-github",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no benchmark baseline" in out
        assert "::notice" not in out  # annotations suppressed off-CI

    def test_missing_current_documents_reported(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        _write_document(tmp_path / "previous")
        code = compare_bench.main(
            ["--previous", str(tmp_path / "previous"), "--current", str(tmp_path / "empty")]
        )
        assert code == 0
        assert "no current documents" in capsys.readouterr().out


class TestComparison:
    def test_comparison_writes_summary_with_worst_ratio(
        self, tmp_path, capsys, monkeypatch
    ):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        _write_document(tmp_path / "previous", seconds=1.0)
        _write_document(tmp_path / "current", seconds=1.05)
        code = compare_bench.main(
            [
                "--previous",
                str(tmp_path / "previous"),
                "--current",
                str(tmp_path / "current"),
                "--no-github",
            ]
        )
        assert code == 0
        assert "worst ratio" in capsys.readouterr().out
        text = summary.read_text(encoding="utf-8")
        assert "Benchmark comparison" in text
        assert "1.05x" in text

    def test_fail_threshold_still_enforced(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        _write_document(tmp_path / "previous", seconds=1.0)
        _write_document(tmp_path / "current", seconds=2.0)
        code = compare_bench.main(
            [
                "--previous",
                str(tmp_path / "previous"),
                "--current",
                str(tmp_path / "current"),
                "--no-github",
                "--fail-threshold",
                "0.5",
            ]
        )
        assert code == 1

    def test_write_job_summary_noop_without_env(self, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        compare_bench.write_job_summary("ignored")  # must not raise


def _rate_document(directory, rate, seconds=1.0, name="BENCH_smoke_test.json"):
    directory.mkdir(parents=True, exist_ok=True)
    document = {
        "schema": compare_bench.SCHEMA,
        "timings": {
            "compiled_step_throughput": {
                "seconds": seconds,
                "events_per_sec": rate,
            }
        },
    }
    (directory / name).write_text(json.dumps(document), encoding="utf-8")


class TestEventsPerSecComparison:
    """Throughput fields compare in the inverted (higher-is-better) direction."""

    def test_rate_drop_is_a_regression(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        _rate_document(tmp_path / "previous", rate=10_000_000.0)
        _rate_document(tmp_path / "current", rate=8_000_000.0)  # 20% slower
        code = compare_bench.main(
            [
                "--previous",
                str(tmp_path / "previous"),
                "--current",
                str(tmp_path / "current"),
                "--no-github",
                "--fail-threshold",
                "0.10",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "compiled_step_throughput:events_per_sec" in out
        assert "<< regression" in out

    def test_rate_gain_is_not_a_regression(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        _rate_document(tmp_path / "previous", rate=8_000_000.0)
        _rate_document(tmp_path / "current", rate=10_000_000.0)
        code = compare_bench.main(
            [
                "--previous",
                str(tmp_path / "previous"),
                "--current",
                str(tmp_path / "current"),
                "--no-github",
                "--fail-threshold",
                "0.10",
            ]
        )
        assert code == 0
        assert "<< regression" not in capsys.readouterr().out

    def test_compare_timings_emits_both_units(self):
        previous = {
            "timings": {"x": {"seconds": 1.0, "events_per_sec": 100.0}}
        }
        current = {
            "timings": {"x": {"seconds": 2.0, "events_per_sec": 50.0}}
        }
        rows = compare_bench.compare_timings(previous, current)
        assert [(name, round(ratio, 6)) for name, _, _, ratio in rows] == [
            ("x", 2.0),
            ("x:events_per_sec", 2.0),  # halved throughput = 2x slowdown
        ]

    def test_frame_size_compares_lower_is_better(self):
        previous = {"timings": {"codec_token_roundtrip": {"bytes_per_frame": 400.0}}}
        current = {"timings": {"codec_token_roundtrip": {"bytes_per_frame": 600.0}}}
        rows = compare_bench.compare_timings(previous, current)
        assert rows == [("codec_token_roundtrip:bytes_per_frame", 400.0, 600.0, 1.5)]
        assert compare_bench.annotate("doc", rows, 0.10, github=False) == [
            "codec_token_roundtrip:bytes_per_frame"
        ]

    def test_github_annotations_use_rate_units(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        _rate_document(tmp_path / "previous", rate=10_000_000.0, seconds=1.0)
        _rate_document(tmp_path / "current", rate=5_000_000.0, seconds=1.0)
        code = compare_bench.main(
            [
                "--previous",
                str(tmp_path / "previous"),
                "--current",
                str(tmp_path / "current"),
            ]
        )
        assert code == 0  # advisory without --fail-threshold
        out = capsys.readouterr().out
        assert "::warning title=benchmark regression::" in out
        assert "ev/s" in out


class TestCiWorkflowWiring:
    def test_ci_runs_compare_unconditionally(self):
        """The workflow must not guard the comparison behind a dir check."""
        text = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(
            encoding="utf-8"
        )
        assert "skipping comparison" not in text
        assert "compare_bench.py" in text
