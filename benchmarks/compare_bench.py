"""Compare two sets of ``repro-bench/1`` BENCH_*.json documents.

CI runs this after the benchmarks-smoke job: the previous successful main
run's ``bench-json`` artifact is downloaded into one directory, the current
run's documents sit in another, and this script pairs them by file name,
compares every common timing and emits GitHub workflow annotations —
``::warning::`` for regressions at or above the threshold (default 10%),
``::notice::`` for comparable improvements.  It is equally usable locally::

    python benchmarks/compare_bench.py --previous prev/ --current .

Exit status is 0 unless ``--fail-threshold`` is given and some timing
regresses past it (CI keeps the comparison advisory; wall-clock noise on
shared runners makes a hard gate counterproductive).

The ``repro-bench/1`` document layout — including the ``backend`` /
``stream_transport`` tags distinguishing simulator timings from asyncio
streaming-runtime timings — is specified field by field in
``docs/benchmarks.md``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from collections.abc import Iterable, Sequence

SCHEMA = "repro-bench/1"


def write_job_summary(markdown: str) -> None:
    """Append *markdown* to the GitHub job summary, when one is available.

    Outside GitHub Actions (``GITHUB_STEP_SUMMARY`` unset) this is a no-op,
    so the script behaves identically when run locally.
    """
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(markdown.rstrip() + "\n")
    except OSError as error:  # pragma: no cover - runner-environment failure
        print(f"cannot write job summary: {error}", file=sys.stderr)


def load_documents(directory: str) -> dict[str, dict]:
    """Map ``basename -> parsed document`` for every BENCH_*.json under *directory*."""
    documents: dict[str, dict] = {}
    paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    if not paths:
        # artifact directories sometimes nest the files one level down
        paths = sorted(
            glob.glob(os.path.join(directory, "**", "BENCH_*.json"), recursive=True)
        )
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"skipping {path}: {error}", file=sys.stderr)
            continue
        if document.get("schema") != SCHEMA:
            print(f"skipping {path}: not a {SCHEMA} document", file=sys.stderr)
            continue
        documents[os.path.basename(path)] = document
    return documents


def compare_timings(
    previous: dict, current: dict
) -> list[tuple[str, float, float, float]]:
    """``(name, old_value, new_value, ratio)`` for every common measurement.

    ``ratio`` is always a *regression factor* (``>= 1 + threshold`` means
    regression, whatever the unit): ``new/old`` for wall-clock ``seconds``
    entries, the inverted ``old/new`` for throughput entries — timings
    that carry an ``events_per_sec`` field (higher is better) are compared
    on that field too, as a second ``<name>:events_per_sec`` row — and
    ``new/old`` for the message-baseline field (``baseline_messages_total``),
    the fleet tail-latency field (``fleet_verdict_latency_p99``) and the
    codec's frame size (``bytes_per_frame``), where lower is better, so a
    run sending more messages — or a fleet's p99 verdict latency creeping
    up, or tokens growing on the wire — annotates like a slowdown.
    """
    rows = []
    old_timings = previous.get("timings", {})
    new_timings = current.get("timings", {})
    for name in sorted(set(old_timings) & set(new_timings)):
        old_seconds = float(old_timings[name].get("seconds") or 0.0)
        new_seconds = float(new_timings[name].get("seconds") or 0.0)
        if old_seconds > 0.0 and new_seconds > 0.0:
            rows.append((name, old_seconds, new_seconds, new_seconds / old_seconds))
        old_rate = float(old_timings[name].get("events_per_sec") or 0.0)
        new_rate = float(new_timings[name].get("events_per_sec") or 0.0)
        if old_rate > 0.0 and new_rate > 0.0:
            rows.append(
                (f"{name}:events_per_sec", old_rate, new_rate, old_rate / new_rate)
            )
        for field in (
            "baseline_messages_total",
            "fleet_verdict_latency_p99",
            "bytes_per_frame",
        ):
            old_value = float(old_timings[name].get(field) or 0.0)
            new_value = float(new_timings[name].get(field) or 0.0)
            if old_value > 0.0 and new_value > 0.0:
                rows.append(
                    (f"{name}:{field}", old_value, new_value, new_value / old_value)
                )
    return rows


def annotate(
    file_name: str,
    rows: Iterable[tuple[str, float, float, float]],
    warn_threshold: float,
    github: bool,
) -> list[str]:
    """Print the comparison table; return the names that regressed."""
    regressions = []
    print(f"== {file_name}")
    print(f"{'timing':45} {'prev':>11} {'curr':>11} {'slowdown':>9}")
    for name, old_value, new_value, ratio in rows:
        # rate rows (":events_per_sec") already carry an inverted ratio, so
        # the delta below uniformly reads "percent worse"
        if name.endswith(":events_per_sec"):
            unit = "ev/s"
        elif name.endswith(":baseline_messages_total"):
            unit = "msgs"
        elif name.endswith(":fleet_verdict_latency_p99"):
            unit = "s"
        elif name.endswith(":bytes_per_frame"):
            unit = "B"
        else:
            unit = "s"
        if unit in ("ev/s", "msgs", "B"):
            old_text, new_text = f"{old_value:,.0f}", f"{new_value:,.0f}"
        else:
            old_text, new_text = f"{old_value:.3f}", f"{new_value:.3f}"
        delta = (ratio - 1.0) * 100.0
        marker = ""
        if ratio >= 1.0 + warn_threshold:
            marker = "  << regression"
            regressions.append(name)
            if github:
                print(
                    f"::warning title=benchmark regression::{name} "
                    f"({file_name}): {old_text}{unit} -> {new_text}{unit} "
                    f"(+{delta:.1f}%, threshold {warn_threshold * 100:.0f}%)"
                )
        elif ratio <= 1.0 - warn_threshold and github:
            print(
                f"::notice title=benchmark improvement::{name} "
                f"({file_name}): {old_text}{unit} -> {new_text}{unit} "
                f"({delta:.1f}%)"
            )
        print(f"{name:45} {old_text:>11} {new_text:>11} {delta:+8.1f}%{marker}")
    return regressions


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--previous", required=True, help="directory with the baseline BENCH_*.json"
    )
    parser.add_argument(
        "--current", required=True, help="directory with the current BENCH_*.json"
    )
    parser.add_argument(
        "--warn-threshold",
        type=float,
        default=0.10,
        help="relative slowdown that triggers a warning (default: 0.10 = 10%%)",
    )
    parser.add_argument(
        "--fail-threshold",
        type=float,
        default=None,
        help="relative slowdown that fails the run (default: never fail)",
    )
    parser.add_argument(
        "--no-github",
        action="store_true",
        help="plain output without ::warning:: / ::notice:: annotations",
    )
    args = parser.parse_args(argv)

    previous_documents = load_documents(args.previous)
    current_documents = load_documents(args.current)
    if not previous_documents:
        # Make the absent baseline impossible to miss: an explicit notice in
        # the job log *and* the job summary, rather than silently passing.
        message = (
            f"no benchmark baseline: no {SCHEMA} documents under "
            f"{args.previous!r} (first run on this branch, expired artifact "
            f"retention, or a fork without artifact access) — regression "
            f"comparison skipped"
        )
        if not args.no_github:
            print(f"::notice title=benchmark baseline missing::{message}")
        print(message)
        write_job_summary(
            "### Benchmark comparison\n\n"
            f":warning: **No baseline available.** {message}.\n"
        )
        return 0
    if not current_documents:
        message = f"no current documents under {args.current}; nothing to compare"
        print(message)
        write_job_summary(f"### Benchmark comparison\n\n{message}\n")
        return 0

    worst_ratio = 1.0
    compared = 0
    for file_name in sorted(set(previous_documents) & set(current_documents)):
        rows = compare_timings(previous_documents[file_name], current_documents[file_name])
        if not rows:
            continue
        compared += len(rows)
        annotate(file_name, rows, args.warn_threshold, github=not args.no_github)
        worst_ratio = max(worst_ratio, max(ratio for *_, ratio in rows))
        print()
    missing = sorted(set(current_documents) - set(previous_documents))
    if missing:
        print(f"(no baseline yet for: {', '.join(missing)})")
    print(f"compared {compared} timings; worst ratio {worst_ratio:.2f}x")
    write_job_summary(
        "### Benchmark comparison\n\n"
        f"Compared **{compared}** timings against the previous main "
        f"baseline; worst ratio **{worst_ratio:.2f}x** "
        f"(warn threshold {args.warn_threshold * 100:.0f}%)."
        + (f"\n\nNo baseline yet for: {', '.join(missing)}." if missing else "")
        + "\n"
    )
    if args.fail_threshold is not None and worst_ratio >= 1.0 + args.fail_threshold:
        print(f"failing: worst ratio exceeds {1.0 + args.fail_threshold:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
