#!/usr/bin/env python3
"""Generate ``docs/results.md`` from the committed benchmark artifact.

The evaluation chapter of the paper is reproduced module by module under
``benchmarks/``: every ``test_fig_*.py`` / ``test_table_*.py`` file
regenerates one figure or table and records its wall-clock timing into the
``repro-bench/1`` document ``benchmarks/BENCH_results.json``.  This script
renders the Chapter-5-style report mapping each module to its paper
artefact — the module docstring's summary line, the recorded timings, the
kernel reference speedups and the measurement environment — entirely from
committed inputs, so the report can never drift from either:

    python tools/gen_results_report.py              # rewrite docs/results.md
    python tools/gen_results_report.py --check      # verify, exit 1 on drift

CI runs ``--check`` in the docs job, and ``tests/docs/test_docs.py`` holds
the same gate locally.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = REPO_ROOT / "benchmarks"
BENCH_DOCUMENT = BENCHMARKS / "BENCH_results.json"
DEFAULT_OUTPUT = REPO_ROOT / "docs" / "results.md"

HEADER = (
    "<!-- GENERATED by tools/gen_results_report.py from "
    "benchmarks/BENCH_results.json; do not edit by hand. -->"
)

#: BENCH timing ``group`` tag per paper artefact number ("5.4" -> "fig-5.4")
_GROUP_OF = {"fig": "fig-{}", "table": "table-{}"}


def artefact_of(module_name: str) -> tuple[str, list[str]]:
    """``("Figures 5.2–5.3", ["5.2", "5.3"])`` for a benchmark module name.

    The module naming convention encodes the paper artefact: a ``fig`` or
    ``table`` marker followed by one or more ``<major>_<minor>`` number
    pairs (``test_fig_5_2_5_3_automata`` covers Figures 5.2 and 5.3).
    """
    match = re.match(r"test_(fig|table)((?:_\d+_\d+)+)_", module_name + "_")
    if match is None:
        raise ValueError(f"{module_name} does not follow test_(fig|table)_N_M naming")
    kind = match.group(1)
    numbers = [
        pair.replace("_", ".")
        for pair in re.findall(r"\d+_\d+", match.group(2))
    ]
    noun = "Figure" if kind == "fig" else "Table"
    if len(numbers) > 1:
        return f"{noun}s {numbers[0]}–{numbers[-1]}", numbers
    return f"{noun} {numbers[0]}", numbers


def _module_summary(path: Path) -> str:
    """The first line of the module docstring (the artefact's description)."""
    docstring = ast.get_docstring(ast.parse(path.read_text(encoding="utf-8")))
    if not docstring:
        raise ValueError(f"{path.name} has no module docstring to report")
    return docstring.strip().splitlines()[0].rstrip(".")


def _artefact_modules() -> list[Path]:
    """Every ``test_fig_*`` / ``test_table_*`` module, in artefact order."""
    paths = sorted(BENCHMARKS.glob("test_fig_*.py")) + sorted(
        BENCHMARKS.glob("test_table_*.py")
    )
    return sorted(paths, key=lambda p: artefact_of(p.stem)[1][0])


def _timings_for(timings: dict, kind_groups: set[str]) -> list[tuple[str, dict]]:
    """The (name, record) timings whose ``group`` tag is in *kind_groups*."""
    return [
        (name, record)
        for name, record in sorted(timings.items())
        if record.get("group") in kind_groups
    ]


def render_report(document: dict) -> str:
    """Render the full ``docs/results.md`` text from a bench *document*."""
    timings = document.get("timings", {})
    reference = document.get("reference", {})
    environment = document.get("environment", {})
    scale = document.get("scale", {})

    lines = [
        HEADER,
        "",
        "# Evaluation results (Chapter 5 reproduction)",
        "",
        "Every table and figure of the paper's evaluation chapter is",
        "regenerated by one benchmark module under `benchmarks/`; the wall-clock",
        "numbers below come from the committed `benchmarks/BENCH_results.json`",
        "(schema `repro-bench/1`, see [benchmarks.md](benchmarks.md)).  A test",
        "run never rewrites that file; refresh it explicitly with",
        "`BENCH_JSON=benchmarks/BENCH_results.json PYTHONPATH=src python -m pytest",
        "benchmarks -q` and regenerate this report with",
        "`python tools/gen_results_report.py`.",
        "",
        "## Paper artefacts by benchmark module",
        "",
        "| paper artefact | benchmark module | what it reproduces |",
        "| --- | --- | --- |",
    ]
    artefact_groups: set[str] = set()
    for path in _artefact_modules():
        artefact, numbers = artefact_of(path.stem)
        kind = "fig" if "Figure" in artefact else "table"
        artefact_groups.update(_GROUP_OF[kind].format(n) for n in numbers)
        if len(numbers) > 1:  # combined tags like "fig-5.2-5.3"
            artefact_groups.add(_GROUP_OF[kind].format("-".join(numbers)))
        lines.append(
            f"| {artefact} | [`benchmarks/{path.name}`](../benchmarks/{path.name}) "
            f"| {_module_summary(path)} |"
        )

    lines += [
        "",
        "## Messages no longer order the properties",
        "",
        "The paper's Figures 5.4/5.5 order the properties by monitoring",
        "messages: B and E (one outgoing transition) far below A, C, D and F.",
        "That ordering held here while every search cost a token round trip.",
        "Monitors now answer a search from the columns of events they already",
        "hold and send a token only for an event they have not seen yet, so",
        "few messages are left and their ordering **flipped**: B sends more",
        "messages than A and C, E more than D and F.  B and E look",
        "for something that has not happened yet — half their searches must",
        "travel to the process concerned and wait there — while nearly all",
        "searches of A, C, D and F are decided from events already seen.  The",
        "paper's argument — one outgoing transition, fewer searches — is",
        "intact on the **searches issued** (`entries_created` on every",
        "experiment row), where B and E stay several times below the rest, and",
        "that is what `test_fig_5_4_5_5_messages.py` asserts, next to",
        "\"messages grow with n\".  Figure 5.9 likewise: rarer communication",
        "still means fewer events and fewer searches, but the messages are",
        "about the same whatever the frequency.  The benchmark run prints the",
        "tables behind each statement.",
        "",
        "**Not reproduced.**  Figure 5.8 has B and E create the fewest views.",
        "Here D's total falls just below B's: a monitor never explores a",
        "`(state, cut)` twice, and D's violated traces stop early.  That",
        "assertion is given up; `test_fig_5_8_what_still_holds_of_the_views`",
        "gates the rest of the shape (growth with n; B, E below A, C, F; F the",
        "most).",
        "",
        "## Recorded artefact timings",
        "",
        "| timing | group | seconds |",
        "| --- | --- | --- |",
    ]
    for name, record in _timings_for(timings, artefact_groups):
        lines.append(
            f"| `{name}` | `{record['group']}` | {float(record['seconds']):.3f} |"
        )

    if reference:
        lines += [
            "",
            "## Kernel speedups vs. the seed baseline",
            "",
            "`reference` pins the pre-interning seed baseline of the kernel hot",
            "paths; the tracked speedup is `reference / seconds`:",
            "",
            "| hot path | baseline s | current s | speedup |",
            "| --- | --- | --- | --- |",
        ]
        for name in sorted(reference):
            record = timings.get(name)
            if record is None:
                continue
            seconds = float(record["seconds"])
            baseline = float(reference[name])
            lines.append(
                f"| `{name}` | {baseline:.3f} | {seconds:.3f} "
                f"| {baseline / seconds:.1f}x |"
            )

    other_groups: dict[str, list[str]] = {}
    for name, record in sorted(timings.items()):
        group = str(record.get("group", "ungrouped"))
        if group not in artefact_groups:
            other_groups.setdefault(group, []).append(name)
    if other_groups:
        lines += [
            "",
            "## Other tracked benchmark groups",
            "",
            "Beyond the paper artefacts, the suite tracks these groups in the",
            "same document (each name is one `repro-bench/1` timing entry):",
            "",
            "| group | timings |",
            "| --- | --- |",
        ]
        for group in sorted(other_groups):
            names = ", ".join(f"`{name}`" for name in other_groups[group])
            lines.append(f"| `{group}` | {names} |")

    lines += [
        "",
        "## Measurement environment",
        "",
        f"Recorded {document.get('created_at', 'at an unknown time')} on "
        f"{environment.get('implementation', 'CPython')} "
        f"{environment.get('python', '?')} "
        f"({environment.get('platform', 'unknown platform')}, "
        f"{environment.get('cpu_count', '?')} CPU(s)) at scale "
        f"`process_counts={scale.get('process_counts')}, "
        f"events_per_process={scale.get('events_per_process')}, "
        f"replications={scale.get('replications')}`.",
        "",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: write the report, or verify it with ``--check``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "output",
        nargs="?",
        default=str(DEFAULT_OUTPUT),
        help="report path (default: docs/results.md)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the report matches a fresh rendering; exit 1 on drift",
    )
    args = parser.parse_args(argv)

    try:
        document = json.loads(BENCH_DOCUMENT.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot load {BENCH_DOCUMENT}: {error}", file=sys.stderr)
        return 1
    if document.get("schema") != "repro-bench/1":
        print(f"{BENCH_DOCUMENT} is not a repro-bench/1 document", file=sys.stderr)
        return 1

    rendered = render_report(document)
    output = Path(args.output)
    if args.check:
        try:
            committed = output.read_text(encoding="utf-8")
        except OSError as error:
            print(f"cannot read {output}: {error}", file=sys.stderr)
            return 1
        if committed != rendered:
            print(
                f"{output} is out of date; regenerate it with "
                f"`python tools/gen_results_report.py`",
                file=sys.stderr,
            )
            return 1
        print(f"{output} is up to date")
        return 0
    output.write_text(rendered, encoding="utf-8")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
