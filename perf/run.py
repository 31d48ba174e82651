"""The whole-run benchmark: six workloads, end-to-end and per-layer metrics.

Two ways to call it, both from the root of a checkout:

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload.  The last line of stdout is one JSON object
    with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
    every end-to-end metric with ``--trace 0`` (timed passes, no wrapper
    installed), every per-layer metric with ``--trace 1`` (one traced pass).

``python3 perf/run.py [--workload W] [--repeats N] [--no-trace] [--out F]``
    The suite: ``--repeats`` timed runs and one traced run per workload,
    every metric printed by name with its unit, the full result written to
    ``--out`` (nowhere by default) for ``perf/compare.py``.

``--capture`` rewrites ``perf/expected.json`` (input fingerprints, declared
verdicts, oracle sets) from the current commit.

This process only orchestrates: every measurement happens in fresh children
(``python -m perf.child``), one at a time.  A timed run is split over
:data:`CHILDREN` of them, each measuring its share of ``--seconds``: a
process's memory layout shifts its speed by several per cent for as long as
it lives, so several short-lived processes measure the code rather than one
layout, and ``setup_s`` is the median of their set-up times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # launched as a script: import ourselves as the ``perf`` package and keep
    # this directory (which has a ``trace.py``) off the module search path
    sys.path[0] = str(ROOT)
    sys.dont_write_bytecode = True

from perf import spec  # noqa: E402 - needs the path set above

__all__ = ["CHILDREN", "run_once", "contract_line", "main"]

#: fresh children a timed run is split over
CHILDREN = 4

_CHILD_TIMEOUT_S = 170


def _child(mode: str, workload: str, seed: int, seconds: float, extra: list[str]) -> dict:
    """Start one child, wait for it, and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # str hashes order the monitors' letter sets: pin them like the inputs
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable,
        "-m",
        "perf.child",
        "--mode",
        mode,
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--spawned-at",
        repr(time.perf_counter()),
        *extra,
    ]
    done = subprocess.run(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=_CHILD_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"perf.child --mode {mode} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_once(
    workload: str, seed: int, seconds: float, trace: bool, extra: list[str] | None = None
) -> dict:
    """One run: a traced child, or :data:`CHILDREN` timed ones merged."""
    extra = extra or []
    if trace:
        return _child("traced", workload, seed, seconds, extra)
    parts = [
        _child("timed", workload, seed, seconds / CHILDREN, extra) for _ in range(CHILDREN)
    ]
    totals = {key: sum(part["totals"][key] for part in parts) for key in parts[0]["totals"]}
    result = {key: sum(part[key] for part in parts) for key in ("attempted", "failed", "unchecked")}
    result["failures"] = [failure for part in parts for failure in part["failures"]]
    result["children"] = parts
    result["metrics"] = {
        "setup_s": statistics.median(part["setup"]["ref_s"] for part in parts),
        "events_per_s": totals["events"] / totals["ref_s"],
        "msgs_per_event": totals["messages"] / totals["events"],
        "views_per_event": totals["views"] / totals["events"],
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
    }
    return result


def contract_line(result: dict, trace: bool) -> str:
    """The driver's result object: correct, attempted, failed, metrics."""
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    metrics = {}
    for metric in declared:
        value = result["metrics"].get(metric.name)
        # a layer the workload does not exercise reads 0
        metrics[metric.name] = {"value": 0.0 if value is None else value, "unit": metric.unit}
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def _print_metrics(workload: str, values: dict, declared: tuple[spec.Metric, ...]) -> None:
    for metric in declared:
        value = values.get(metric.name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {workload:15s} {metric.name:38s} {shown:>12s} {metric.unit}")


def _report_failures(workload: str, result: dict) -> None:
    for failure in result.get("failures", []):
        print(f"FAILED {workload}: {failure}", file=sys.stderr)
    for target in result.get("missing_targets", []):
        print(f"warning: trace target {target} no longer exists", file=sys.stderr)


def _suite(args: argparse.Namespace, workloads: list[str], extra: list[str]) -> int:
    """Timed repeats and one traced run per workload; print and write all."""
    document: dict = {
        "schema": "perf-result/1",
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    failed = 0
    for workload in workloads:
        entry = document["workloads"][workload] = {
            "attempted": 0,
            "failed": 0,
            "unchecked": 0,
            "end_to_end": {metric.name: [] for metric in spec.END_TO_END},
            "per_layer": {},
        }
        runs = [
            run_once(workload, args.seed, args.seconds, False, extra)
            for _ in range(args.repeats)
        ]
        if not args.no_trace:
            traced = run_once(workload, args.seed, args.seconds, True, extra)
            entry["per_layer"] = traced["metrics"]
            runs.append(traced)
        for run in runs:
            _report_failures(workload, run)
            for key in ("attempted", "failed", "unchecked"):
                entry[key] += run[key]
        for run in runs[: args.repeats]:
            for name, samples in entry["end_to_end"].items():
                samples.append(run["metrics"][name])
        failed += entry["failed"]
        medians = {name: statistics.median(s) for name, s in entry["end_to_end"].items()}
        _print_metrics(workload, medians, spec.END_TO_END)
        _print_metrics(workload, entry["per_layer"], spec.PER_LAYER if entry["per_layer"] else ())
        share = entry["failed"] / entry["attempted"]
        print(f"  {workload:15s} {'failed_share':38s} {share:12.6g} ratio")
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


def _capture(args: argparse.Namespace) -> int:
    """Rewrite ``perf/expected.json`` (always all workloads) from this commit."""
    sessions: dict = {}
    for workload in spec.WORKLOADS:
        sessions.update(_child("capture", workload, args.seed, args.seconds, [])["sessions"])
    document = {"schema": "perf-expected/1", "seed": args.seed, "sessions": sessions}
    path = Path(__file__).with_name("expected.json")
    path.write_text(
        json.dumps(document, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    print(f"pinned {len(sessions)} sessions in {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse the command line and run one workload or the suite."""
    parser = argparse.ArgumentParser(prog="perf/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), help="default: all six")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), help="single run: 0 timed, 1 traced")
    parser.add_argument("--repeats", type=int, default=3, help="suite: timed runs per workload")
    parser.add_argument("--no-trace", action="store_true", help="suite: skip the traced runs")
    parser.add_argument("--out", help="suite: write the full result JSON here")
    parser.add_argument("--spans", help="traced run: write every span here, one JSON line each")
    parser.add_argument("--capture", action="store_true", help="rewrite perf/expected.json")
    parser.add_argument(
        "--tenants", type=int, help="smoke tests: cut the fleet workloads to this many tenants"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.capture:
        return _capture(args)
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    extra = ["--tenants", str(args.tenants)] if args.tenants else []
    if args.trace is None:
        return _suite(args, workloads, extra)
    if args.workload is None:
        parser.error("--trace needs --workload")
    if args.spans:
        extra += ["--spans", args.spans]
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace), extra)
    _report_failures(args.workload, result)
    _print_metrics(
        args.workload, result["metrics"], spec.PER_LAYER if args.trace else spec.END_TO_END
    )
    print(contract_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
