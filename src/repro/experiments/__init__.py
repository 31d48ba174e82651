"""Case-study properties and the harness regenerating Chapter 5's results.

Public API
----------
* :func:`property_formula` / :func:`case_study_monitor` /
  :func:`case_study_registry` — properties A–F of Section 5.1.
* ``run_table_5_1`` … ``run_fig_5_9`` — one function per table/figure, each
  a thin scenario+grid declaration (Figures 5.4–5.8 share
  ``run_fig_5_4_5_5``'s rows).
* :class:`ExperimentScale` — workload size knobs; ``FIGURE_SCALE`` is the
  one the benchmark suite, ``docs/results.md`` and the CLI use.
* :func:`format_table` — plain-text rendering of result rows.

The sweep engine's entry points (``run_scenario``, ``BACKENDS``,
``ExecutionConfig``) are part of the curated :mod:`repro.api` surface; the
rest of the engine lives in :mod:`repro.experiments.engine`.
"""

from .harness import (
    DEFAULT_SCALE,
    FIGURE_SCALE,
    ExperimentScale,
    format_table,
    run_fig_5_1,
    run_fig_5_2_5_3,
    run_fig_5_4_5_5,
    run_fig_5_9,
    run_monitoring_experiment,
    run_table_5_1,
)
from .properties import (
    PROPERTY_NAMES,
    case_study_monitor,
    case_study_registry,
    property_formula,
)

__all__ = [
    "DEFAULT_SCALE",
    "FIGURE_SCALE",
    "ExperimentScale",
    "format_table",
    "run_fig_5_1",
    "run_fig_5_2_5_3",
    "run_fig_5_4_5_5",
    "run_fig_5_9",
    "run_monitoring_experiment",
    "run_table_5_1",
    "PROPERTY_NAMES",
    "case_study_monitor",
    "case_study_registry",
    "property_formula",
]

