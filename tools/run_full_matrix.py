"""Run every registered scenario on every backend; write one JSON document.

CI's matrix smoke job (``cluster-smoke`` in ``.github/workflows/ci.yml``)
calls this tool at smoke scale on every PR::

    PYTHONPATH=src python tools/run_full_matrix.py --out matrix-smoke.json \
        --processes 2 3 --events 3 --replications 1

It executes the full (scenario × backend) matrix — every name in the
scenario registry, on both the discrete-event simulator and the asyncio
streaming runtime — and writes one plain JSON document: a ``cells`` list
with one record per cell (scenario, backend, result rows, wall seconds),
and under ``scenarios`` the ``describe()`` metadata of every scenario
exercised (including fault models).

The cluster backend (one OS process per monitor) is opt-in via
``--backends cluster`` because each of its cells spawns real worker
processes; the nightly ``full-matrix`` job runs it over the catalogue,
narrowed to one property, and the matrix smoke job runs one scenario the
same way.

``--scenarios`` / ``--properties`` narrow the matrix (used by the smoke test
of this tool itself); the scale flags mirror the experiment CLI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Sequence
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.experiments.engine import BACKENDS, ExecutionConfig, run_scenario  # noqa: E402
from repro.experiments.harness import ExperimentScale  # noqa: E402
from repro.scenarios import SweepGrid, get_scenario, scenario_names  # noqa: E402

#: backends the matrix sweeps by default; the cluster backend spawns real
#: worker processes per cell, so it is opt-in via ``--backends cluster``
DEFAULT_BACKENDS = ("sim", "asyncio")


def build_parser() -> argparse.ArgumentParser:
    """The command-line interface of the full-matrix runner."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="full-matrix.json",
        help="path of the JSON document (default: %(default)s)",
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="NAME",
        help="scenario subset to run (default: every registered scenario)",
    )
    parser.add_argument(
        "--backends",
        nargs="+",
        default=list(DEFAULT_BACKENDS),
        choices=list(BACKENDS),
        help="backend subset to run (default: %(default)s; 'cluster' is "
        "opt-in since every cell spawns real worker processes)",
    )
    parser.add_argument(
        "--properties",
        nargs="+",
        default=None,
        metavar="P",
        help="override every scenario's property axis (smoke runs use one)",
    )
    parser.add_argument(
        "--processes", type=int, nargs="+", default=[2, 3],
        help="process counts to sweep (default: 2 3)",
    )
    parser.add_argument(
        "--events", type=int, default=3, help="internal events per process"
    )
    parser.add_argument(
        "--replications", type=int, default=1, help="replications per point"
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="sweep-sharding worker processes"
    )
    return parser


def run_matrix(
    names: Sequence[str],
    backends: Sequence[str],
    scale: ExperimentScale,
    grid: SweepGrid | None,
) -> list[dict[str, object]]:
    """Execute the (scenario × backend) matrix: one record per cell."""
    cells: list[dict[str, object]] = []
    for name in names:
        scenario = get_scenario(name)  # fail fast on unknown names
        for backend in backends:
            print(f"[full-matrix] {name} on {backend} ...", flush=True)
            start = time.perf_counter()
            rows = run_scenario(
                scenario, scale, grid=grid, config=ExecutionConfig(backend=backend)
            )
            cells.append(
                {
                    "scenario": name,
                    "backend": backend,
                    "rows": len(rows),
                    "seconds": time.perf_counter() - start,
                }
            )
    return cells


def main(argv: Sequence[str] | None = None) -> int:
    """Run the matrix and write the combined document."""
    args = build_parser().parse_args(argv)
    names: Sequence[str] = args.scenarios or scenario_names()
    scale = ExperimentScale(
        process_counts=tuple(args.processes),
        events_per_process=args.events,
        replications=args.replications,
        max_views_per_state=2,
        workers=args.workers,
    )
    grid = SweepGrid(properties=tuple(args.properties)) if args.properties else None
    try:
        cells = run_matrix(names, args.backends, scale, grid)
        scenarios = {name: get_scenario(name).describe() for name in names}
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    document = {"cells": cells, "scenarios": scenarios}
    Path(args.out).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    total = sum(float(cell["seconds"]) for cell in cells)
    print(f"wrote {args.out}: {len(cells)} matrix cells, {total:.1f}s total")
    write_job_summary(cells)
    return 0


def write_job_summary(cells: list[dict[str, object]]) -> None:
    """Append the per-cell matrix table to the GitHub job summary, if any."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [
        "### Full scenario matrix",
        "",
        f"{len(cells)} (scenario × backend) cells",
        "",
        "| scenario | backend | seconds | rows |",
        "| --- | --- | ---: | ---: |",
    ]
    for cell in cells:
        lines.append(
            f"| {cell['scenario']} | {cell['backend']} "
            f"| {float(cell['seconds']):.2f} | {cell['rows']} |"
        )
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as error:  # pragma: no cover - runner-environment failure
        # the matrix ran and the document is written; never fail the job
        # (and skip the artifact upload) over an unwritable summary file
        print(f"cannot write job summary: {error}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
