"""Render generated-checked catalogues into the docs — and keep them true.

Several reference sections are *generated-checked*: the scenario
catalogue of ``docs/scenarios.md`` (between
:data:`BEGIN_MARKER`/:data:`END_MARKER`), the fault-scenario and
adversarial-scenario sections of ``docs/faults.md`` (between
:data:`FAULTS_BEGIN_MARKER`/:data:`FAULTS_END_MARKER` and
:data:`ADVERSARIAL_BEGIN_MARKER`/:data:`ADVERSARIAL_END_MARKER`), the
public API reference of ``docs/api.md`` (between :data:`API_BEGIN_MARKER`
and :data:`API_END_MARKER`), and the fleet source/backpressure catalogue of
``docs/fleet.md`` (between :data:`FLEET_BEGIN_MARKER` and
:data:`FLEET_END_MARKER`).  One renderer, :func:`render`, draws each of
them from its entry in :data:`_SECTIONS`: the catalogues straight from the
live registries (:mod:`repro.scenarios.registry`, :mod:`repro.fleet`) and
the API reference from the live ``repro.api.__all__``; tests assert each
file matches the renderer's output, so the documents cannot drift from the
code.  After adding or changing a scenario or a public API name, regenerate
with::

    PYTHONPATH=src python -m repro.scenarios.docgen docs/scenarios.md
    PYTHONPATH=src python -m repro.scenarios.docgen docs/faults.md
    PYTHONPATH=src python -m repro.scenarios.docgen docs/api.md
    PYTHONPATH=src python -m repro.scenarios.docgen docs/fleet.md

``main`` replaces whichever marker pairs the given file contains.
Everything rendered about a scenario comes from
:meth:`repro.scenarios.Scenario.describe`: the workload, network and fault
model kinds with their parameters, the sweep grid, the tags, and
``corresponds_to`` — which paper figure/table the condition reproduces or
which extension it is.
"""

from __future__ import annotations

import inspect
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
    "render",
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


def _scenarios(keep: Callable[[Scenario], bool], counted: str) -> Callable[[], list[str]]:
    """A scenario catalogue: the registered scenarios *keep* admits, by name."""

    def body() -> list[str]:
        scenarios = [scenario for scenario in list_scenarios() if keep(scenario)]
        lines = ["", f"{len(scenarios)} {counted} (sorted by name).", ""]
        for scenario in scenarios:
            lines.extend(_render_scenario(scenario))
        return lines

    return body


def _first_line(obj: object) -> str:
    """The first line of *obj*'s docstring (empty when it has none)."""
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else ""


def _api_reference() -> list[str]:
    """Every name of ``repro.api.__all__`` with its kind and summary."""
    from .. import api

    lines = [
        "",
        f"`repro.api.__all__` lists {len(api.__all__)} supported names.",
        "",
        "| name | kind | summary |",
        "| --- | --- | --- |",
    ]
    for name in api.__all__:
        obj = getattr(api, name)
        if inspect.isclass(obj):
            kind, summary = "class", _first_line(obj)
        elif callable(obj):
            kind, summary = "function", _first_line(obj)
        else:
            kind, summary = "constant", f"`{obj!r}`"
        lines.append(f"| `{name}` | {kind} | {summary} |")
    return [*lines, ""]


def _fleet_catalogue() -> list[str]:
    """The fleet's event-source kinds and backpressure policies."""
    from ..fleet import SOURCE_KINDS, describe_backpressure

    lines = [
        "",
        f"{len(SOURCE_KINDS)} event sources drive tenant sessions "
        "(`TenantSpec.source`):",
        "",
        "| source | summary |",
        "| --- | --- |",
    ]
    for name, cls in SOURCE_KINDS.items():
        lines.append(f"| `{name}` | {_first_line(cls)} |")
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
    return [*lines, ""]


#: every generated-checked section: begin marker -> (end marker, body lines)
_SECTIONS: dict[str, tuple[str, Callable[[], list[str]]]] = {
    BEGIN_MARKER: (END_MARKER, _scenarios(lambda s: True, "scenarios are registered")),
    FAULTS_BEGIN_MARKER: (
        FAULTS_END_MARKER,
        _scenarios(
            lambda s: s.faults is not None, "registered scenarios carry a fault model"
        ),
    ),
    ADVERSARIAL_BEGIN_MARKER: (
        ADVERSARIAL_END_MARKER,
        # Byzantine monitors, clock skew and node churn: the conditions that
        # attack the paper's soundness claims, not just its availability
        _scenarios(lambda s: "adversarial" in s.tags, "registered scenarios are adversarial"),
    ),
    API_BEGIN_MARKER: (API_END_MARKER, _api_reference),
    FLEET_BEGIN_MARKER: (FLEET_END_MARKER, _fleet_catalogue),
}


def render(begin_marker: str) -> str:
    """The generated section opened by *begin_marker*, markers included."""
    end_marker, body = _SECTIONS[begin_marker]
    return "\n".join([begin_marker, *body(), end_marker])


def main(argv: list[str] | None = None) -> int:
    """Rewrite the generated sections of the given markdown file in place.

    Each marker pair of :data:`_SECTIONS` present in the file is replaced by
    a fresh rendering; a file with no markers at all is an error.
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
    for begin_marker, (end_marker, _) in _SECTIONS.items():
        if begin_marker in text and end_marker in text:
            begin = text.index(begin_marker)
            end = text.index(end_marker) + len(end_marker)
            text = text[:begin] + render(begin_marker) + text[end:]
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
