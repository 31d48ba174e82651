"""Shared fixtures for the benchmark suite.

The suite checks the shapes of the paper's figures; ``perf/`` is the timing
benchmark.  The simulated monitoring sweep behind Figures 5.4–5.8 is the
expensive part of the evaluation; it is computed once per session at
:data:`~repro.experiments.harness.FIGURE_SCALE` (the scale
``docs/results.md`` prints) and shared by the per-figure tests, which check
the qualitative shapes reported in the paper.  ``README.md`` documents how
to raise the scale to a paper-size run.

Setting ``REPRO_BENCH_SMOKE=1`` shrinks the suite to its smallest scale
(used by the CI ``benchmarks-smoke`` job, which runs under a wall-clock
budget).
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.experiments import FIGURE_SCALE, run_fig_5_4_5_5

#: the suite's scale: the figures' own, or with shorter traces and one
#: replication for CI's benchmarks-smoke job
if os.environ.get("REPRO_BENCH_SMOKE"):
    BENCH_SCALE = replace(FIGURE_SCALE, events_per_process=4, replications=1)
else:
    BENCH_SCALE = FIGURE_SCALE


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
