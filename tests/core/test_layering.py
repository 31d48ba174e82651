"""The monitor's layers do not call back up into the monitor.

``repro.core.columns``, ``repro.core.box``, ``repro.core.global_view`` and
``repro.core.tokens`` each hide one decision of the algorithm; the monitor
(``repro.core.monitor``) wires them together.  None of them may import the
monitor's module or name ``DecentralizedMonitor``: what a layer needs of the
monitor it is handed (its columns, its metrics, a callable that declares).
"""

import ast
from pathlib import Path

import pytest

CORE = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"
LAYERS = ["columns.py", "box.py", "global_view.py", "tokens.py"]


def _upward_references(source):
    """The imports of ``repro.core.monitor`` and the uses of the name
    ``DecentralizedMonitor`` in *source*, as ``(line, what)`` pairs."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = [alias.name for alias in node.names]
            if module in (".monitor", "repro.core.monitor") or (
                module in (".", "repro.core") and "monitor" in names
            ):
                found.append((node.lineno, f"from {module} import {', '.join(names)}"))
            found += [(node.lineno, name) for name in names if name == "DecentralizedMonitor"]
        elif isinstance(node, ast.Import):
            found += [
                (node.lineno, alias.name)
                for alias in node.names
                if alias.name == "repro.core.monitor"
            ]
        elif isinstance(node, ast.Name) and node.id == "DecentralizedMonitor":
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr == "DecentralizedMonitor":
            found.append((node.lineno, node.attr))
    return found


@pytest.mark.parametrize("layer", LAYERS)
def test_a_layer_neither_imports_the_monitor_nor_names_it(layer):
    assert _upward_references((CORE / layer).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .monitor import MonitorMetrics",
        "from repro.core.monitor import DecentralizedMonitor",
        "from . import monitor",
        "import repro.core.monitor",
        "def f(m: 'x') -> None:\n    return DecentralizedMonitor",
        "import repro.core\nrepro.core.DecentralizedMonitor",
    ],
)
def test_the_check_sees_every_way_up(source):
    assert _upward_references(source) != []
