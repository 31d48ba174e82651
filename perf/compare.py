"""Compare two result files of ``perf/run.py --out``: ``compare.py A.json B.json``.

A is the parent (or the first set of runs), B the change (or the second set).
Each end-to-end metric is judged per workload against its own bound from
:mod:`perf.spec`, on the medians of the timed runs:

``regressed``   B's median is worse than A's by more than the bound
``improved``    B's median is better by more than the run-to-run spread
``same``        neither
``unresolved``  the spread of either side is wider than the bound and the two
                sides' samples overlap, so the bound cannot be checked; when
                every run of B reads better (worse) than every run of A the
                row is ``improved`` (``regressed``) regardless

The spread of a side is the distance between the first and third quartile of
its samples over their median (the whole range below four samples).  The
exit code is 1 on any regression or a higher share of failed sessions, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parent.parent)
    sys.dont_write_bytecode = True

from perf import spec  # noqa: E402 - needs the path set above

__all__ = ["spread", "judge", "compare", "main"]


def spread(samples: list[float]) -> float:
    """Quartile distance over the median (whole range below four samples)."""
    middle = statistics.median(samples)
    if len(samples) < 2 or middle == 0:
        return 0.0
    if len(samples) < 4:
        return (max(samples) - min(samples)) / abs(middle)
    quartiles = statistics.quantiles(samples, n=4)
    return (quartiles[2] - quartiles[0]) / abs(middle)


def judge(metric: spec.Metric, parent: list[float], change: list[float]) -> tuple[str, float]:
    """Classify one (workload, metric) row; also return how much worse B is.

    The second value is the change of the median as a share of A's median,
    signed so that positive means worse.
    """
    sign = 1.0 if metric.better == "lower" else -1.0
    before, after = statistics.median(parent), statistics.median(change)
    worse = sign * (after - before) / abs(before) if before else 0.0
    noise = max(spread(parent), spread(change))
    if sign > 0:
        all_better, all_worse = max(change) < min(parent), min(change) > max(parent)
    else:
        all_better, all_worse = min(change) > max(parent), max(change) < min(parent)
    if noise > metric.bound:
        if all_better:
            return "improved", worse
        if all_worse and worse > metric.bound:
            return "regressed", worse
        return "unresolved", worse
    if worse > metric.bound:
        return "regressed", worse
    if -worse > noise:
        return "improved", worse
    return "same", worse


def compare(parent: dict, change: dict) -> tuple[list[tuple[str, str, str, float]], bool]:
    """Rows (workload, metric, verdict, worse-by) and whether anything regressed."""
    rows: list[tuple[str, str, str, float]] = []
    bad = False
    for workload in spec.WORKLOADS:
        a = parent["workloads"].get(workload)
        b = change["workloads"].get(workload)
        if a is None or b is None:
            continue
        for metric in spec.END_TO_END:
            verdict, worse = judge(
                metric, a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            )
            rows.append((workload, metric.name, verdict, worse))
            bad = bad or verdict == "regressed"
        share_a = a["failed"] / a["attempted"]
        share_b = b["failed"] / b["attempted"]
        verdict = "regressed" if share_b > share_a else "same"
        rows.append((workload, "failed_share", verdict, share_b - share_a))
        bad = bad or share_b > share_a
    return rows, bad


def main(argv: list[str] | None = None) -> int:
    """Print one row per (workload, metric); exit 1 on a regression."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: perf/compare.py A.json B.json", file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    rows, bad = compare(parent, change)
    for workload, name, verdict, worse in rows:
        print(f"{workload:15s} {name:16s} {verdict:11s} {worse:+.2%}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
