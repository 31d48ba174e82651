"""Shared fixtures for the benchmark suite.

The simulated monitoring sweep behind Figures 5.4–5.8 is the expensive part
of the evaluation; it is computed once per session (for a reduced but
representative scale) and shared by the per-figure benchmarks, which then
time their own aggregation and check the qualitative shapes reported in the
paper.  ``README.md`` documents how to raise the scale to a paper-size run.

At the end of the session a machine-readable ``BENCH_*.json`` document
(schema ``repro-bench/1``, see :mod:`repro.experiments.benchjson`) is
written, combining the explicit kernel hot-path timings recorded by
``test_kernel_hotpaths.py`` with the per-test wall-clock numbers collected
by ``pytest-benchmark``.  It goes where the ``BENCH_JSON`` environment
variable points (CI sets it and uploads the file as an artifact so kernel
speedups are tracked across PRs) and otherwise under pytest's temporary
directory: a test run never touches the committed
``benchmarks/BENCH_results.json``, which only the explicit refresh command
of ``docs/benchmarks.md`` rewrites.

Setting ``REPRO_BENCH_SMOKE=1`` shrinks the suite to its smallest scale
(used by the CI ``benchmarks-smoke`` job, which runs under a wall-clock
budget).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import ExperimentScale, run_fig_5_4_5_5

#: Reduced scale used by the benchmark suite: three process counts, two
#: replications, short traces.  Large enough to exhibit the paper's trends,
#: small enough to run in a couple of minutes.  The smoke scale (CI's
#: benchmarks-smoke job) cuts the traces and replications further.
if os.environ.get("REPRO_BENCH_SMOKE"):
    BENCH_SCALE = ExperimentScale(
        process_counts=(2, 3, 4),
        events_per_process=4,
        replications=1,
        max_views_per_state=2,
    )
else:
    BENCH_SCALE = ExperimentScale(
        process_counts=(2, 3, 4),
        events_per_process=6,
        replications=2,
        max_views_per_state=2,
    )

#: Timing records contributed by the benchmark tests themselves
#: (name -> {"seconds": ..., "group": ..., ...}); merged into the emitted
#: JSON document at session finish.
_TIMING_RECORDS: dict[str, dict[str, object]] = {}

#: pytest-benchmark entries superseded by an explicit record (the explicit
#: wall-clock number is authoritative; keeping both would double-report the
#: same measurement under two names).
_HARVEST_EXCLUDE: set = set()


def record_timing(
    name: str,
    seconds: float,
    group: str = "kernel",
    replaces: str = "",
    **extra,
) -> None:
    """Record one wall-clock timing for the session's BENCH_*.json.

    ``replaces`` names the pytest-benchmark test whose harvested entry this
    record supersedes, so the same measurement is not emitted twice.
    """
    _TIMING_RECORDS[name] = {"seconds": seconds, "group": group, **extra}
    if replaces:
        _HARVEST_EXCLUDE.add(replaces)


#: where this session's artifact goes when ``BENCH_JSON`` is unset
_DEFAULT_ARTIFACT: list[str] = []


@pytest.fixture(scope="session", autouse=True)
def _default_artifact_path(tmp_path_factory):
    """Reserve a path under pytest's temporary directory for the artifact."""
    _DEFAULT_ARTIFACT.append(str(tmp_path_factory.mktemp("bench") / "BENCH_results.json"))


@pytest.fixture(scope="session")
def monitoring_sweep():
    """The (property, process-count) metric sweep shared by Figures 5.4–5.8."""
    return run_fig_5_4_5_5(scale=BENCH_SCALE)


def series_of(rows, metric):
    """Turn sweep rows into ``{property: [values by process count]}``."""
    series = {}
    for row in rows:
        series.setdefault(row["property"], []).append(row[metric])
    return series


def _harvest_pytest_benchmarks(session) -> dict[str, dict[str, object]]:
    """Pull per-test means out of pytest-benchmark's session, if present."""
    harvested: dict[str, dict[str, object]] = {}
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return harvested
    for bench in getattr(bench_session, "benchmarks", ()):
        if getattr(bench, "name", None) in _HARVEST_EXCLUDE:
            continue
        stats = getattr(bench, "stats", None)
        if stats is not None and not hasattr(stats, "mean"):
            stats = getattr(stats, "stats", None)  # older Metadata wrapping
        if stats is None:
            continue
        try:
            harvested[bench.name] = {
                "seconds": float(stats.mean),
                "min_seconds": float(stats.min),
                "rounds": int(stats.rounds),
                "group": getattr(bench, "group", None) or "ungrouped",
            }
        except (AttributeError, TypeError, ValueError):
            continue
    return harvested


def pytest_sessionfinish(session, exitstatus):
    """Emit the machine-readable BENCH_*.json artifact for this session."""
    timings = _harvest_pytest_benchmarks(session)
    timings.update(_TIMING_RECORDS)  # explicit records win over raw harvest
    if not timings:
        return
    try:
        from repro.experiments.benchjson import write_bench_json
        from repro.scenarios import get_scenario
    except ImportError:  # pragma: no cover - repro not importable
        return
    # embed the metadata of every scenario the timings reference, so the
    # document stays self-describing (the figure benchmarks run paper-default)
    names = {"paper-default"}
    names.update(
        record["scenario"]
        for record in timings.values()
        if isinstance(record, dict) and isinstance(record.get("scenario"), str)
    )
    scenarios = {}
    for name in sorted(names):
        try:
            scenarios[name] = get_scenario(name).describe()
        except KeyError:  # pragma: no cover - stale tag in a timing record
            pass
    path = os.environ.get("BENCH_JSON") or _DEFAULT_ARTIFACT[0]
    try:
        write_bench_json(path, timings, BENCH_SCALE, scenarios=scenarios)
    except OSError as error:  # pragma: no cover - read-only checkout etc.
        print(f"\n[benchmarks] could not write {path}: {error}")
    else:
        print(f"\n[benchmarks] wrote {path}")
