#!/usr/bin/env python3
"""Generate ``docs/results.md`` from the figures' own numbers.

The evaluation chapter of the paper is reproduced module by module under
``benchmarks/``: every ``test_fig_*.py`` / ``test_table_*.py`` file
regenerates one figure or table and checks its shape.  This script renders
the Chapter-5-style report: the module of each paper artefact (its
docstring's summary line), then the tables behind the figures, computed by
the experiment harness at ``FIGURE_SCALE``.  Every number is a fixed-seed
count or average of the monitored runs, never a timing, so the report
changes exactly when a figure's number does:

    PYTHONPATH=src python tools/gen_results_report.py          # rewrite docs/results.md
    PYTHONPATH=src python tools/gen_results_report.py --check  # verify, exit 1 on drift

CI runs ``--check`` in the docs job, and ``tests/docs/test_docs.py`` holds
the same gate locally.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections.abc import Sequence
from functools import cache
from pathlib import Path

from repro.experiments import FIGURE_SCALE, run_fig_5_4_5_5, run_fig_5_9, run_table_5_1
from repro.experiments.harness import run_message_baseline

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = REPO_ROOT / "benchmarks"
DEFAULT_OUTPUT = REPO_ROOT / "docs" / "results.md"

HEADER = (
    "<!-- GENERATED by tools/gen_results_report.py from the experiment "
    "harness; do not edit by hand. -->"
)


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


@cache
def compute_figures() -> dict[str, list[dict]]:
    """The rows every table of the report is rendered from."""
    return {
        "table_5_1": run_table_5_1(process_counts=FIGURE_SCALE.process_counts),
        "sweep": run_fig_5_4_5_5(scale=FIGURE_SCALE),
        "fig_5_9": run_fig_5_9(scale=FIGURE_SCALE),
        "baseline": run_message_baseline(scale=FIGURE_SCALE),
    }


def _cell(value: object) -> str:
    """A number as the report prints it: at most four decimals."""
    if isinstance(value, float):
        return f"{round(value, 4):g}"
    return str(value)


def _table(rows: Sequence[dict], columns: Sequence[tuple[str, str]]) -> list[str]:
    """A markdown table of *rows*; *columns* pairs each key with its heading."""
    lines = [
        "| " + " | ".join(heading for _, heading in columns) + " |",
        "|" + " --- |" * len(columns),
    ]
    for row in rows:
        lines.append("| " + " | ".join(_cell(row[key]) for key, _ in columns) + " |")
    return lines


def _transition_table(rows: Sequence[dict]) -> list[str]:
    """Table 5.1 laid out as in the paper: total/outgoing/self-loops per n."""
    counts = sorted({row["processes"] for row in rows})
    by_property: dict[str, dict] = {}
    for row in rows:
        cells = by_property.setdefault(row["property"], {"property": row["property"]})
        cells[row["processes"]] = f"{row['total']}/{row['outgoing']}/{row['self_loops']}"
    return _table(
        list(by_property.values()),
        [("property", "property")] + [(n, f"n={n}") for n in counts],
    )


def render_report(figures: dict[str, list[dict]] | None = None) -> str:
    """Render the full ``docs/results.md`` text (from *figures* if given)."""
    if figures is None:
        figures = compute_figures()
    lines = [
        HEADER,
        "",
        "# Evaluation results (Chapter 5 reproduction)",
        "",
        "Every table and figure of the paper's evaluation chapter is",
        "regenerated by one module under `benchmarks/`, which checks its",
        "shape.  The numbers below are what the experiment harness computes",
        "for those figures at the scale of the benchmark suite and of the",
        "CLI's defaults:",
        "",
        f"`{FIGURE_SCALE}`",
        "",
        "They are fixed-seed counts and averages over the replications, never",
        "timings: `perf/` is the timing benchmark (see",
        "[benchmarks.md](benchmarks.md)).  Regenerate this report with",
        "`PYTHONPATH=src python tools/gen_results_report.py`; its `--check`",
        "mode fails when one of these numbers changes.",
        "",
        "## Paper artefacts by benchmark module",
        "",
        "| paper artefact | benchmark module | what it reproduces |",
        "| --- | --- | --- |",
    ]
    for path in _artefact_modules():
        artefact, _ = artefact_of(path.stem)
        lines.append(
            f"| {artefact} | [`benchmarks/{path.name}`](../benchmarks/{path.name}) "
            f"| {_module_summary(path)} |"
        )

    lines += [
        "",
        "## Table 5.1: transitions per monitor automaton",
        "",
        "Total / outgoing / self-loop transitions of each property's monitor",
        "automaton (`run_table_5_1`).",
        "",
        *_transition_table(figures["table_5_1"]),
        "",
        "## Figures 5.4–5.8: the monitored workload sweep",
        "",
        "One row per property and process count (`run_fig_5_4_5_5`):",
        "program events and monitor messages (Figs 5.4/5.5) — counted as",
        "frames, one per (callback, peer): see *Frames* below — searches issued",
        "(`entries_created`), the delay-time percentage per global view — the",
        "paper's definition of Fig 5.6 — and beside it the seconds the",
        "monitors keep working after the program ends (`monitor_extra_time`),",
        "delayed events (Fig 5.7) and global views created (Fig 5.8).",
        "",
        "The per-view column divides the delay by the views created, so a",
        "monitor that creates fewer views reads worse at an unchanged delay:",
        "in the round-robin fixture, B at n = 3 (seed 2015) went 0.0741 →",
        "0.0926 % per view while its delay stayed 0.0555 s.  Read the delay",
        "off the seconds column.",
        "",
        *_table(
            figures["sweep"],
            [
                ("property", "property"),
                ("processes", "n"),
                ("events", "events"),
                ("messages", "messages (frames)"),
                ("entries_created", "searches"),
                ("delay_time_pct_per_view", "delay % per view (paper's definition)"),
                ("monitor_extra_time", "delay (s)"),
                ("delayed_events", "delayed events"),
                ("global_views", "views"),
            ],
        ),
        "",
        "## Figure 5.9: the communication frequency",
        "",
        "Property C at four processes while the mean wait between",
        "communication events (Commμ, seconds; `no-comm`: no communication)",
        "varies (`run_fig_5_9`).",
        "",
        *_table(
            figures["fig_5_9"],
            [
                ("comm_mu", "Commμ"),
                ("events", "events"),
                ("messages", "messages (frames)"),
                ("entries_created", "searches"),
                ("delay_time_pct_per_view", "delay % per view (paper's definition)"),
                ("monitor_extra_time", "delay (s)"),
                ("delayed_events", "delayed events"),
                ("global_views", "views"),
            ],
        ),
        "",
        "## Decentralized monitors against one central monitor",
        "",
        "The same workload monitored by the decentralized monitors and by a",
        "central monitor that receives one observation per program event and",
        "broadcasts its verdict (`run_message_baseline`), with the verdicts",
        "each declared.  A frame of the decentralized monitors that holds a",
        "token counts as a token frame, one of termination notices only as a",
        "termination frame.",
        "",
        *_table(
            figures["baseline"],
            [
                ("monitor", "monitor"),
                ("property", "property"),
                ("processes", "n"),
                ("messages", "messages (frames)"),
                ("token_messages", "frames with a token"),
                ("termination_messages", "frames of notices only"),
                ("declared", "declared"),
            ],
        ),
        "",
        "## Frames (an extension of the paper)",
        "",
        "The paper counts monitor messages.  Here what one monitor sends one",
        "peer while it handles one event, one termination or one incoming",
        "frame travels as one transport message, a *frame* (wire protocol v8),",
        "and the tables count frames: small-message coalescing (Nagle, RFC 896,",
        "1984) applied to one monitor callback.  The tokens and notices inside",
        "are the ones the monitors sent one at a time before, and a frame sent",
        "alone is that message.  Frames changed no declared verdict in the",
        "tables above.  They took the sweep's messages from 808 to 725.5 in",
        "total: B at n = 4 went 120.5 → 111.5 against the central monitor's",
        "136, E at n = 4 136 → 133.5 and C at n = 4 59 → 46.5.  Fewer messages",
        "change the timing, so the delay, delayed-event and view columns moved",
        "a little too (C at n = 4: 73.5 → 73 views).  The bytes on the wire do",
        "not rise: a frame saves the 17 bytes of header, instant and count of",
        "every message after its first (`tests/core/test_frames.py`).",
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
        "about the same whatever the frequency.  The tables above hold the",
        "numbers behind each statement.  Since monitors also settle on what",
        "tokens and termination notices say the others declared (an extension",
        "of the paper), Figure 5.9's messages fell at Commμ 6 and 9 and without",
        "communication (44 → 41.5, 50.5 → 48.5, 39 → 34); Figures 5.4/5.5's",
        "did not move at this scale.",
        "",
        "**Not reproduced.**  Figure 5.8 has B and E create the fewest views.",
        "Here D's total falls below B's: a monitor never explores a",
        "`(state, cut)` twice, and D's violated traces stop early.  Nor are two",
        "more parts of its shape: D's views growing with n, and F creating",
        "the most.  A monitor stops before its next step once it has declared",
        "every conclusive state its views can still reach, so at n = 4 D's",
        "views per run fall from 37 to 7 (D's row was 11.5, 42, 37 for n = 2,",
        "3, 4; it is 11.5, 23, 7) and F's from 105 to 24.5 (13.5, 55, 105;",
        "now 13.5, 55, 24.5), below A's and C's.  Both parts rested on views",
        "forked by monitors that had already declared all they could: all 66",
        "of D's forks at n = 4, and 187 of F's 202.  Nor, last, are B and E",
        "below F.  Monitors now also settle on what tokens and termination",
        "notices say the others declared, so F's views at n = 4 fall again,",
        "from 24.5 to 14.5, and its total over n = 2, 3, 4 from 93 to 83,",
        "below E's 88 (D's row becomes 11.5, 21.5, 5).  These assertions are",
        "given up; `test_fig_5_8_what_still_holds_of_the_views` gates the rest",
        "of the shape (growth with n for A, B, C, E and F; B, E below A, C).",
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

    rendered = render_report()
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
                f"`PYTHONPATH=src python tools/gen_results_report.py`",
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
