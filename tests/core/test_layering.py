"""The monitor's layers do not call back up into the monitor, and the box
search writes no view.

``repro.core.columns``, ``repro.core.box``, ``repro.core.global_view`` and
``repro.core.tokens`` each hide one decision of the algorithm; the monitor
(``repro.core.monitor``) wires them together.  None of them may import the
monitor's module or name ``DecentralizedMonitor``: what a layer needs of the
monitor it is handed (its columns, its metrics, a callable that declares).
The box search returns its answers; what a view keeps of them
(``GlobalView.searched``) the views layer writes.
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


def _view_writes(source):
    """The lines of *source* that assign to, or delete, an attribute or an
    item of a view: of a parameter annotated ``GlobalView``, or named ``view``."""
    tree = ast.parse(source)
    views = {"view"} | {
        node.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.arg) and "GlobalView" in ast.unparse(node.annotation or ast.Tuple([]))
    }

    def of_a_view(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(map(of_a_view, target.elts))
        if isinstance(target, ast.Starred):
            return of_a_view(target.value)
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return False
        while isinstance(target, (ast.Attribute, ast.Subscript)):
            target = target.value
        return isinstance(target, ast.Name) and target.id in views

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("setattr", "delattr"):
            targets = [ast.Attribute(node.args[0], "_")] if node.args else []
        else:
            continue
        found += [node.lineno] if any(map(of_a_view, targets)) else []
    return found


def test_the_box_search_writes_no_view():
    assert _view_writes((CORE / "box.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "def f(view, cut, one):\n    reached = view.searched[view.state, cut] = one",
        "def f(view):\n    view.searched = {}",
        "def f(v: GlobalView, key):\n    v.searched[key] |= 1",
        "def f(v: 'GlobalView'):\n    del v.searched[0]",
        "def f(view):\n    view.cut[0], other = 1, 2",
        "def f(view):\n    setattr(view, 'state', 3)",
    ],
)
def test_the_check_sees_every_view_write(source):
    assert _view_writes(source) != []


def test_the_check_passes_what_only_reads_a_view():
    source = "def f(view, cuts):\n    reached = [view.searched.get(c) for c in cuts]\n    x = view"
    assert _view_writes(source) == []
