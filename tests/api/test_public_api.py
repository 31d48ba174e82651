"""The public API facade: surface completeness and ExecutionConfig.

Two contracts are gated here:

1. ``repro.api.__all__`` is the supported surface — every listed name
   resolves, and ``import repro; repro.api`` works from a cold interpreter.
2. :class:`ExecutionConfig` is the one way to say how cells execute: a
   frozen, validated value.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.api as api

REPO_ROOT = Path(__file__).resolve().parents[2]

SMALL_SCALE = api.ExperimentScale(
    process_counts=(2,),
    events_per_process=3,
    replications=1,
    max_views_per_state=2,
)


class TestApiSurface:
    def test_every_documented_name_resolves(self):
        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert not missing

    def test_import_repro_exposes_api_lazily(self):
        # the acceptance criterion, from a cold interpreter: the top-level
        # package exposes the facade without eagerly importing the world
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import repro; repro.api; print(len(repro.api.__all__))",
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) == len(api.__all__)

    def test_top_level_lazy_subpackages(self):
        for name in repro.__all__:
            module = getattr(repro, name)
            assert module.__name__ == f"repro.{name}"
        assert "cluster" in dir(repro)

    def test_every_subpackage_resolves_from_the_top(self):
        # a new package under src/repro must be added to the lazy __all__
        source = Path(repro.__file__).parent
        names = {p.parent.name for p in source.glob("*/__init__.py")} | {"session", "api"}
        assert {name: getattr(repro, name).__name__ for name in names} == {
            name: f"repro.{name}" for name in names
        }

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
            repro.nonsense

    def test_compile_formula_builds_a_monitor(self):
        automaton = api.compile_formula("F(P0.p & P1.q)")
        assert automaton.num_states > 0
        assert set(api.Verdict) == {
            api.Verdict.TOP, api.Verdict.BOTTOM, api.Verdict.INCONCLUSIVE
        }

    def test_run_scenario_via_facade(self):
        rows = api.run_scenario(
            "paper-default",
            SMALL_SCALE,
            grid=api.SweepGrid(properties=("B",)),
        )
        assert len(rows) == 1
        assert rows[0]["events"] > 0

    def test_both_report_names_are_the_one_run_report(self):
        from repro.session import RunReport

        assert api.RuntimeReport is RunReport
        assert api.ClusterReport is RunReport

    def test_run_cluster_via_facade(self):
        rows = api.run_cluster(
            "paper-default",
            SMALL_SCALE,
            grid=api.SweepGrid(properties=("B",)),
        )
        assert len(rows) == 1
        assert rows[0]["events"] > 0


class TestExecutionConfig:
    def test_config_is_frozen_and_validated(self):
        config = api.ExecutionConfig(backend="asyncio", stream_transport="tcp")
        with pytest.raises(AttributeError):
            config.backend = "sim"
        with pytest.raises(ValueError, match="unknown backend"):
            api.ExecutionConfig(backend="carrier-pigeon")
