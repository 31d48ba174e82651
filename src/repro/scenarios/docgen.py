"""Render generated-checked catalogues into the docs — and keep them true.

Several reference sections are *generated-checked*: the scenario
catalogue of ``docs/scenarios.md`` (between
:data:`BEGIN_MARKER`/:data:`END_MARKER`), the
fault-scenario section of ``docs/faults.md``
(between :data:`FAULTS_BEGIN_MARKER` and :data:`FAULTS_END_MARKER`), and
the public API reference of ``docs/api.md`` (between
:data:`API_BEGIN_MARKER` and :data:`API_END_MARKER`), and the fleet
source/sink/backpressure catalogue of ``docs/fleet.md`` (between
:data:`FLEET_BEGIN_MARKER` and :data:`FLEET_END_MARKER`).  The catalogues are
produced straight from the live registries (:mod:`repro.scenarios.registry`,
:mod:`repro.fleet`)
and the API reference from the live ``repro.api.__all__``; tests assert
each file matches the renderer's output, so the documents cannot drift
from the code.  After adding or changing a scenario or a public API name,
regenerate with::

    PYTHONPATH=src python -m repro.scenarios.docgen docs/scenarios.md
    PYTHONPATH=src python -m repro.scenarios.docgen docs/faults.md
    PYTHONPATH=src python -m repro.scenarios.docgen docs/api.md
    PYTHONPATH=src python -m repro.scenarios.docgen docs/fleet.md

``main`` replaces whichever marker pairs the given file contains.
Everything rendered comes from :meth:`repro.scenarios.Scenario.describe`:
the workload, network and fault model kinds with their parameters, the
sweep grid, the tags, and ``corresponds_to`` — which paper figure/table the
condition reproduces or which extension it is.
"""

from __future__ import annotations

import sys
from collections.abc import Callable

from .registry import list_scenarios
from .scenario import Scenario

__all__ = [
    "BEGIN_MARKER",
    "END_MARKER",
    "FAULTS_BEGIN_MARKER",
    "FAULTS_END_MARKER",
    "ADVERSARIAL_BEGIN_MARKER",
    "ADVERSARIAL_END_MARKER",
    "API_BEGIN_MARKER",
    "API_END_MARKER",
    "FLEET_BEGIN_MARKER",
    "FLEET_END_MARKER",
    "render_catalogue",
    "render_fault_catalogue",
    "render_adversarial_catalogue",
    "render_api_reference",
    "render_fleet_catalogue",
    "replace_generated_section",
    "main",
]

BEGIN_MARKER = "<!-- BEGIN GENERATED SCENARIO CATALOGUE (repro.scenarios.docgen) -->"
END_MARKER = "<!-- END GENERATED SCENARIO CATALOGUE -->"

FAULTS_BEGIN_MARKER = "<!-- BEGIN GENERATED FAULT CATALOGUE (repro.scenarios.docgen) -->"
FAULTS_END_MARKER = "<!-- END GENERATED FAULT CATALOGUE -->"

ADVERSARIAL_BEGIN_MARKER = (
    "<!-- BEGIN GENERATED ADVERSARIAL CATALOGUE (repro.scenarios.docgen) -->"
)
ADVERSARIAL_END_MARKER = "<!-- END GENERATED ADVERSARIAL CATALOGUE -->"

API_BEGIN_MARKER = "<!-- BEGIN GENERATED API REFERENCE (repro.scenarios.docgen) -->"
API_END_MARKER = "<!-- END GENERATED API REFERENCE -->"

FLEET_BEGIN_MARKER = "<!-- BEGIN GENERATED FLEET CATALOGUE (repro.scenarios.docgen) -->"
FLEET_END_MARKER = "<!-- END GENERATED FLEET CATALOGUE -->"


def _format_params(description: dict[str, object]) -> str:
    """Render a model description's parameters as ``key=value`` pairs."""
    pairs = [
        f"{key}={value!r}" for key, value in description.items() if key != "kind"
    ]
    return ", ".join(pairs) if pairs else "(defaults)"


def _render_scenario(scenario: Scenario) -> list[str]:
    """Markdown block for one scenario."""
    description = scenario.describe()
    workload = description["workload"]
    network = description["network"]
    faults = description["faults"]
    grid = description["grid"]
    lines = [
        f"### `{scenario.name}`",
        "",
        scenario.description,
        "",
        f"- **Corresponds to:** {scenario.corresponds_to}",
        f"- **Workload:** `{workload['kind']}` — {_format_params(workload)}",
        f"- **Network:** `{network['kind']}` — {_format_params(network)}",
    ]
    if faults is not None:
        lines.append(f"- **Faults:** `{faults['kind']}` — {_format_params(faults)}")
    return [
        *lines,
        f"- **Grid:** properties={grid['properties']!r}, "
        f"process_counts={grid['process_counts']!r}, comm_mus={grid['comm_mus']!r}",
        f"- **Tags:** {', '.join(scenario.tags) if scenario.tags else '(none)'}",
        "",
    ]


def render_catalogue() -> str:
    """The generated catalogue section, markers included."""
    scenarios = list_scenarios()
    lines = [
        BEGIN_MARKER,
        "",
        f"{len(scenarios)} scenarios are registered (sorted by name).",
        "",
    ]
    for scenario in scenarios:
        lines.extend(_render_scenario(scenario))
    lines.append(END_MARKER)
    return "\n".join(lines)


def render_fault_catalogue() -> str:
    """The generated fault-scenario section of ``docs/faults.md``."""
    scenarios = [s for s in list_scenarios() if s.describe()["faults"] is not None]
    lines = [
        FAULTS_BEGIN_MARKER,
        "",
        f"{len(scenarios)} registered scenarios carry a fault model "
        "(sorted by name).",
        "",
    ]
    for scenario in scenarios:
        lines.extend(_render_scenario(scenario))
    lines.append(FAULTS_END_MARKER)
    return "\n".join(lines)


def render_adversarial_catalogue() -> str:
    """The generated adversarial-scenario section of ``docs/faults.md``.

    Adversarial scenarios are the ``adversarial``-tagged subset of the
    fault catalogue: Byzantine monitors, clock skew and node churn — the
    conditions that attack the paper's soundness claims rather than just
    its availability assumptions.
    """
    scenarios = [s for s in list_scenarios() if "adversarial" in s.tags]
    lines = [
        ADVERSARIAL_BEGIN_MARKER,
        "",
        f"{len(scenarios)} registered scenarios are adversarial "
        "(sorted by name).",
        "",
    ]
    for scenario in scenarios:
        lines.extend(_render_scenario(scenario))
    lines.append(ADVERSARIAL_END_MARKER)
    return "\n".join(lines)


def render_api_reference() -> str:
    """The generated name-by-name section of ``docs/api.md``.

    Rendered straight from the live ``repro.api.__all__`` — every listed
    name with its kind and the first line of its docstring — so the
    documented surface cannot drift from the code.
    """
    import inspect

    from .. import api

    lines = [
        API_BEGIN_MARKER,
        "",
        f"`repro.api.__all__` lists {len(api.__all__)} supported names.",
        "",
        "| name | kind | summary |",
        "| --- | --- | --- |",
    ]
    for name in api.__all__:
        obj = getattr(api, name)
        if inspect.isclass(obj):
            kind = "class"
        elif callable(obj):
            kind = "function"
        else:
            kind = "constant"
        if kind == "constant":
            summary = f"`{obj!r}`"
        else:
            doc = inspect.getdoc(obj) or ""
            summary = doc.splitlines()[0] if doc else ""
        lines.append(f"| `{name}` | {kind} | {summary} |")
    lines.extend(["", API_END_MARKER])
    return "\n".join(lines)


def render_fleet_catalogue() -> str:
    """The generated source/sink/backpressure section of ``docs/fleet.md``.

    Rendered straight from the live :mod:`repro.fleet` registries — the
    event-source kinds, the verdict-sink kinds and the backpressure
    policies, each with the first line of its docstring or its behaviour
    summary — so the operator guide cannot drift from the code.
    """
    import inspect

    from ..fleet import SINK_KINDS, SOURCE_KINDS, describe_backpressure

    def first_line(cls: type) -> str:
        doc = inspect.getdoc(cls) or ""
        return doc.splitlines()[0] if doc else ""

    lines = [
        FLEET_BEGIN_MARKER,
        "",
        f"{len(SOURCE_KINDS)} event sources drive tenant sessions "
        "(`TenantSpec.source`):",
        "",
        "| source | summary |",
        "| --- | --- |",
    ]
    for name, cls in SOURCE_KINDS.items():
        lines.append(f"| `{name}` | {first_line(cls)} |")
    lines.extend(
        [
            "",
            f"{len(SINK_KINDS)} verdict sinks receive per-tenant records "
            "(`run_fleet(..., sink=...)`, CLI `--sink`):",
            "",
            "| sink | summary |",
            "| --- | --- |",
        ]
    )
    for name, cls in SINK_KINDS.items():
        lines.append(f"| `{name}` | {first_line(cls)} |")
    policies = describe_backpressure()
    lines.extend(
        [
            "",
            f"{len(policies)} backpressure policies govern saturated tenant "
            "inboxes (`FleetConfig.backpressure`):",
            "",
            "| policy | behaviour | loss |",
            "| --- | --- | --- |",
        ]
    )
    for policy in policies:
        lines.append(
            f"| `{policy['name']}` | {policy['behaviour']} | {policy['loss']} |"
        )
    lines.extend(["", FLEET_END_MARKER])
    return "\n".join(lines)


#: every generated-checked section ``main`` knows how to refresh
_SECTIONS: tuple[tuple[str, str, object], ...] = (
    (BEGIN_MARKER, END_MARKER, render_catalogue),
    (FAULTS_BEGIN_MARKER, FAULTS_END_MARKER, render_fault_catalogue),
    (ADVERSARIAL_BEGIN_MARKER, ADVERSARIAL_END_MARKER, render_adversarial_catalogue),
    (API_BEGIN_MARKER, API_END_MARKER, render_api_reference),
    (FLEET_BEGIN_MARKER, FLEET_END_MARKER, render_fleet_catalogue),
)


def replace_generated_section(
    text: str,
    begin_marker: str = BEGIN_MARKER,
    end_marker: str = END_MARKER,
    render: Callable[[], str] = render_catalogue,
) -> str:
    """Return *text* with the marked section replaced by ``render()``'s output.

    Defaults to the scenario-catalogue markers; ``main`` reuses it for every
    marker pair of :data:`_SECTIONS`.
    """
    begin = text.index(begin_marker)
    end = text.index(end_marker) + len(end_marker)
    return text[:begin] + render() + text[end:]


def main(argv: list[str] | None = None) -> int:
    """Rewrite the generated sections of the given markdown file in place.

    Each marker pair present in the file (scenario catalogue, fault
    catalogue) is replaced by a fresh rendering; a file with no markers at
    all is an error.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print(
            "usage: python -m repro.scenarios.docgen "
            "docs/scenarios.md|docs/faults.md|docs/api.md|docs/fleet.md",
            file=sys.stderr,
        )
        return 2
    path = argv[0]
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    replaced = 0
    for begin_marker, end_marker, render in _SECTIONS:
        if begin_marker in text and end_marker in text:
            text = replace_generated_section(text, begin_marker, end_marker, render)
            replaced += 1
    if not replaced:
        print(f"error: {path} has no generated-section markers", file=sys.stderr)
        return 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"regenerated {replaced} catalogue section(s) in {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
