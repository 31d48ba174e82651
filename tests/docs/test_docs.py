"""Documentation gates: generated catalogue sync, links, docstring ratchet."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios import docgen, scenario_names

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS = REPO_ROOT / "docs"
SCENARIOS_DOC = DOCS / "scenarios.md"
FAULTS_DOC = DOCS / "faults.md"
API_DOC = DOCS / "api.md"

#: packages/modules held to the "every public API has a docstring" ratchet
#: (mirrored by the ruff D100–D104 configuration in pyproject.toml)
RATCHETED_PATHS = [
    REPO_ROOT / "src" / "repro" / "scenarios",
    REPO_ROOT / "src" / "repro" / "runtime",
    REPO_ROOT / "src" / "repro" / "faults",
    REPO_ROOT / "src" / "repro" / "core",
    REPO_ROOT / "src" / "repro" / "coordination",
    REPO_ROOT / "src" / "repro" / "distributed",
    REPO_ROOT / "src" / "repro" / "fuzz",
    REPO_ROOT / "src" / "repro" / "fleet",
    REPO_ROOT / "src" / "repro" / "experiments",
    REPO_ROOT / "src" / "repro" / "cluster",
    REPO_ROOT / "src" / "repro" / "api.py",
    REPO_ROOT / "src" / "repro" / "session.py",
    REPO_ROOT / "src" / "repro" / "sim",
    REPO_ROOT / "src" / "repro" / "ltl",
]


class TestScenariosDoc:
    def test_doc_exists_with_markers(self):
        text = SCENARIOS_DOC.read_text(encoding="utf-8")
        assert docgen.BEGIN_MARKER in text
        assert docgen.END_MARKER in text

    def test_scenarios_doc_matches_registry(self):
        """The generated section must equal a fresh rendering — no drift."""
        text = SCENARIOS_DOC.read_text(encoding="utf-8")
        begin = text.index(docgen.BEGIN_MARKER)
        end = text.index(docgen.END_MARKER) + len(docgen.END_MARKER)
        assert text[begin:end] == docgen.render(docgen.BEGIN_MARKER), (
            "docs/scenarios.md is out of date; regenerate it with "
            "`PYTHONPATH=src python -m repro.scenarios.docgen docs/scenarios.md`"
        )

    def test_every_registered_scenario_documented(self):
        text = SCENARIOS_DOC.read_text(encoding="utf-8")
        for name in scenario_names():
            assert f"### `{name}`" in text

    def test_docgen_cli_roundtrip(self, tmp_path):
        copy = tmp_path / "scenarios.md"
        copy.write_text(
            "# header\n\n"
            f"{docgen.BEGIN_MARKER}\nstale content\n{docgen.END_MARKER}\n"
            "tail\n",
            encoding="utf-8",
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.scenarios.docgen", str(copy)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        updated = copy.read_text(encoding="utf-8")
        assert "stale content" not in updated
        assert updated.startswith("# header")
        assert updated.endswith("tail\n")
        assert docgen.render(docgen.BEGIN_MARKER) in updated

    def test_docgen_rejects_file_without_markers(self, tmp_path):
        plain = tmp_path / "plain.md"
        plain.write_text("no markers here\n", encoding="utf-8")
        assert docgen.main([str(plain)]) == 1


class TestFaultsDoc:
    def test_doc_exists_with_markers(self):
        text = FAULTS_DOC.read_text(encoding="utf-8")
        assert docgen.FAULTS_BEGIN_MARKER in text
        assert docgen.FAULTS_END_MARKER in text

    def test_faults_doc_matches_registry(self):
        """The generated fault catalogue must equal a fresh rendering."""
        text = FAULTS_DOC.read_text(encoding="utf-8")
        begin = text.index(docgen.FAULTS_BEGIN_MARKER)
        end = text.index(docgen.FAULTS_END_MARKER) + len(docgen.FAULTS_END_MARKER)
        assert text[begin:end] == docgen.render(docgen.FAULTS_BEGIN_MARKER), (
            "docs/faults.md is out of date; regenerate it with "
            "`PYTHONPATH=src python -m repro.scenarios.docgen docs/faults.md`"
        )

    def test_every_fault_scenario_documented(self):
        from repro.scenarios import list_scenarios

        text = FAULTS_DOC.read_text(encoding="utf-8")
        fault_scenarios = [s for s in list_scenarios() if s.faults is not None]
        assert len(fault_scenarios) >= 4
        for scenario in fault_scenarios:
            assert f"### `{scenario.name}`" in text

    def test_every_exported_fault_model_named(self):
        import repro.faults as faults

        models = [
            name
            for name in faults.__all__
            if isinstance(getattr(faults, name), type)
            and issubclass(getattr(faults, name), faults.FaultModel)
            and name != "FaultModel"
        ]
        text = FAULTS_DOC.read_text(encoding="utf-8")
        section = text[text.index("## Per-seed fault models") :]
        section = section[: section.index("\n## ", 1)]
        words = {4: "Four", 5: "Five", 6: "Six", 7: "Seven", 8: "Eight"}
        assert f"{words[len(models)]} models ship" in section
        for name in models:
            assert f"`{name}`" in section

    def test_docgen_refreshes_fault_markers(self, tmp_path):
        copy = tmp_path / "faults.md"
        copy.write_text(
            "# header\n\n"
            f"{docgen.FAULTS_BEGIN_MARKER}\nstale content\n{docgen.FAULTS_END_MARKER}\n",
            encoding="utf-8",
        )
        assert docgen.main([str(copy)]) == 0
        updated = copy.read_text(encoding="utf-8")
        assert "stale content" not in updated
        assert docgen.render(docgen.FAULTS_BEGIN_MARKER) in updated


class TestAdversarialDoc:
    def test_doc_exists_with_markers(self):
        text = FAULTS_DOC.read_text(encoding="utf-8")
        assert docgen.ADVERSARIAL_BEGIN_MARKER in text
        assert docgen.ADVERSARIAL_END_MARKER in text

    def test_adversarial_catalogue_matches_registry(self):
        """The generated adversarial catalogue must equal a fresh rendering."""
        text = FAULTS_DOC.read_text(encoding="utf-8")
        begin = text.index(docgen.ADVERSARIAL_BEGIN_MARKER)
        end = text.index(docgen.ADVERSARIAL_END_MARKER) + len(
            docgen.ADVERSARIAL_END_MARKER
        )
        assert text[begin:end] == docgen.render(docgen.ADVERSARIAL_BEGIN_MARKER), (
            "docs/faults.md is out of date; regenerate it with "
            "`PYTHONPATH=src python -m repro.scenarios.docgen docs/faults.md`"
        )

    def test_every_adversarial_scenario_documented(self):
        from repro.scenarios import list_scenarios

        text = FAULTS_DOC.read_text(encoding="utf-8")
        adversarial = [s for s in list_scenarios() if "adversarial" in s.tags]
        assert len(adversarial) >= 3
        for scenario in adversarial:
            assert f"### `{scenario.name}`" in text

    def test_hand_written_sections_cover_the_attack_surface(self):
        text = FAULTS_DOC.read_text(encoding="utf-8")
        for needle in (
            "## Adversarial (Byzantine) behaviours",
            "## Clock skew and the soundness boundary",
            "## Property fuzzing (`repro.fuzz`)",
            "fault_byz_corrupted",
            "skew@<mode>~<rate>~<magnitude>~<seed>",
        ):
            assert needle in text, needle


class TestApiDoc:
    def test_doc_exists_with_markers(self):
        text = API_DOC.read_text(encoding="utf-8")
        assert docgen.API_BEGIN_MARKER in text
        assert docgen.API_END_MARKER in text

    def test_api_doc_matches_public_surface(self):
        """The generated reference must equal a fresh rendering — no drift."""
        text = API_DOC.read_text(encoding="utf-8")
        begin = text.index(docgen.API_BEGIN_MARKER)
        end = text.index(docgen.API_END_MARKER) + len(docgen.API_END_MARKER)
        assert text[begin:end] == docgen.render(docgen.API_BEGIN_MARKER), (
            "docs/api.md is out of date; regenerate it with "
            "`PYTHONPATH=src python -m repro.scenarios.docgen docs/api.md`"
        )

    def test_every_public_name_documented(self):
        from repro import api

        text = API_DOC.read_text(encoding="utf-8")
        for name in api.__all__:
            assert f"| `{name}` |" in text

    def test_docgen_refreshes_api_markers(self, tmp_path):
        copy = tmp_path / "api.md"
        copy.write_text(
            "# header\n\n"
            f"{docgen.API_BEGIN_MARKER}\nstale\n{docgen.API_END_MARKER}\n",
            encoding="utf-8",
        )
        assert docgen.main([str(copy)]) == 0
        updated = copy.read_text(encoding="utf-8")
        assert "stale" not in updated
        assert docgen.render(docgen.API_BEGIN_MARKER) in updated


class TestFleetDoc:
    FLEET_DOC = DOCS / "fleet.md"

    def test_doc_exists_with_markers(self):
        text = self.FLEET_DOC.read_text(encoding="utf-8")
        assert docgen.FLEET_BEGIN_MARKER in text
        assert docgen.FLEET_END_MARKER in text

    def test_fleet_catalogue_matches_registries(self):
        """The generated fleet catalogue must equal a fresh rendering."""
        text = self.FLEET_DOC.read_text(encoding="utf-8")
        begin = text.index(docgen.FLEET_BEGIN_MARKER)
        end = text.index(docgen.FLEET_END_MARKER) + len(docgen.FLEET_END_MARKER)
        assert text[begin:end] == docgen.render(docgen.FLEET_BEGIN_MARKER), (
            "docs/fleet.md is out of date; regenerate it with "
            "`PYTHONPATH=src python -m repro.scenarios.docgen docs/fleet.md`"
        )

    def test_every_source_and_policy_documented(self):
        from repro.fleet.config import BACKPRESSURE_POLICIES
        from repro.fleet.sources import SOURCE_KINDS

        text = self.FLEET_DOC.read_text(encoding="utf-8")
        for name in (*SOURCE_KINDS, *BACKPRESSURE_POLICIES):
            assert f"`{name}`" in text, name

    def test_hand_written_sections_cover_the_operator_surface(self):
        text = self.FLEET_DOC.read_text(encoding="utf-8")
        for needle in (
            "## Tenants and admission",
            "## The correctness anchor",
            "## Saturation metrics",
            "## Capacity planning: a worked example",
            "fleet_events_per_sec",
            "fleet_verdict_latency_p99",
        ):
            assert needle in text, needle

    def test_docgen_refreshes_fleet_markers(self, tmp_path):
        copy = tmp_path / "fleet.md"
        copy.write_text(
            "# header\n\n"
            f"{docgen.FLEET_BEGIN_MARKER}\nstale\n{docgen.FLEET_END_MARKER}\n",
            encoding="utf-8",
        )
        assert docgen.main([str(copy)]) == 0
        updated = copy.read_text(encoding="utf-8")
        assert "stale" not in updated
        assert docgen.render(docgen.FLEET_BEGIN_MARKER) in updated


class TestResultsDoc:
    RESULTS_DOC = DOCS / "results.md"

    def test_doc_exists_and_is_marked_generated(self):
        text = self.RESULTS_DOC.read_text(encoding="utf-8")
        assert text.startswith("<!-- GENERATED by tools/gen_results_report.py")

    def test_results_doc_matches_the_figures(self):
        """docs/results.md must equal a fresh rendering of the harness's figures."""
        result = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "gen_results_report.py"),
                "--check",
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == 0, (
            result.stdout
            + result.stderr
            + "\nregenerate with `PYTHONPATH=src python tools/gen_results_report.py`"
        )

    def test_every_artefact_module_mapped_to_its_figure(self):
        text = self.RESULTS_DOC.read_text(encoding="utf-8")
        benchmarks = REPO_ROOT / "benchmarks"
        modules = sorted(benchmarks.glob("test_fig_*.py")) + sorted(
            benchmarks.glob("test_table_*.py")
        )
        assert len(modules) >= 6
        for path in modules:
            assert f"`benchmarks/{path.name}`" in text, path.name


class TestDocsLinks:
    def test_all_relative_links_resolve(self):
        result = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "check_docs_links.py"),
                str(REPO_ROOT / "README.md"),
                str(DOCS),
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_required_documents_exist(self):
        for name in (
            "architecture.md",
            "scenarios.md",
            "benchmarks.md",
            "faults.md",
            "api.md",
            "fleet.md",
            "results.md",
        ):
            assert (DOCS / name).exists(), f"docs/{name} is missing"

    def test_readme_links_architecture_doc(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/architecture.md" in readme


def _ratcheted_files():
    files = []
    for path in RATCHETED_PATHS:
        if path.is_dir():
            files.extend(sorted(path.glob("*.py")))
        else:
            files.append(path)
    return files


@pytest.mark.parametrize(
    "path", _ratcheted_files(), ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_docstring_ratchet(path):
    """Every public module/class/function in ratcheted paths is documented.

    This is the locally-runnable mirror of the ruff ``D100``–``D104``
    configuration in ``pyproject.toml``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append("module")

    def walk(node, qualname):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                public = not name.startswith("_")
                if public and ast.get_docstring(child) is None:
                    missing.append(f"{qualname}{name}")
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{qualname}{name}.")

    walk(tree, "")
    assert not missing, f"{path}: missing docstrings for {missing}"


#: paths held to the mypy ``disallow_untyped_defs`` /
#: ``disallow_incomplete_defs`` bar in pyproject.toml; the AST check below
#: mirrors it on hosts without mypy installed
TYPED_DEF_PATHS = [
    REPO_ROOT / "src" / "repro" / "api.py",
    REPO_ROOT / "src" / "repro" / "runtime",
    REPO_ROOT / "src" / "repro" / "ltl",
    REPO_ROOT / "src" / "repro" / "session.py",
    REPO_ROOT / "src" / "repro" / "core",
    REPO_ROOT / "src" / "repro" / "coordination",
    REPO_ROOT / "src" / "repro" / "cluster",
    REPO_ROOT / "src" / "repro" / "distributed",
    REPO_ROOT / "src" / "repro" / "experiments",
    REPO_ROOT / "src" / "repro" / "faults",
    REPO_ROOT / "src" / "repro" / "fleet",
    REPO_ROOT / "src" / "repro" / "fuzz",
    REPO_ROOT / "src" / "repro" / "scenarios",
    REPO_ROOT / "src" / "repro" / "sim",
]


def _typed_def_files():
    files = []
    for path in TYPED_DEF_PATHS:
        if path.is_dir():
            files.extend(sorted(path.glob("*.py")))
        else:
            files.append(path)
    return files


@pytest.mark.parametrize(
    "path", _typed_def_files(), ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_typed_defs_ratchet(path):
    """Every def in typed-ratchet paths carries complete annotations.

    This is the locally-runnable mirror of the strict
    ``disallow_untyped_defs`` / ``disallow_incomplete_defs`` mypy overrides
    in ``pyproject.toml`` (``repro.api``, ``repro.runtime.*``, ``repro.session``,
    ``repro.core.*``, ``repro.coordination.*``, ``repro.cluster.*``,
    ``repro.distributed.*``, ``repro.experiments.*``, ``repro.faults.*``,
    ``repro.fleet.*``, ``repro.fuzz.*``, ``repro.scenarios.*``,
    ``repro.sim.*`` and ``repro.ltl.*``).
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    incomplete = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        names = args.posonlyargs + args.args + args.kwonlyargs
        missing = [
            a.arg
            for a in names
            if a.annotation is None and a.arg not in ("self", "cls")
        ]
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append(f"*{args.vararg.arg}")
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append(f"**{args.kwarg.arg}")
        if node.returns is None:
            missing.append("return")
        if missing:
            incomplete.append(f"{node.name}:{node.lineno} ({', '.join(missing)})")
    assert not incomplete, f"{path}: incomplete annotations on {incomplete}"


#: the committed ceiling on ``src/``'s size; lowering it is the only
#: accepted edit (a PR that shrinks ``src/`` lowers it to its own result)
SRC_LINE_CEILING = Path(__file__).with_name("src_line_ceiling.txt")


def test_src_line_count_stays_under_its_ceiling():
    """``src/`` may shrink, not grow: physical lines of ``src/**/*.py``.

    Counts what ``find src -name '*.py' | xargs cat | wc -l`` counts.  The
    ROADMAP tracks this number; a change that needs more lines has to take
    at least as many out elsewhere.
    """
    ceiling = int(SRC_LINE_CEILING.read_text().split()[0])
    lines = sum(
        path.read_bytes().count(b"\n") for path in (REPO_ROOT / "src").rglob("*.py")
    )
    assert lines <= ceiling, (
        f"src/ has {lines} lines of Python, above the committed ceiling of "
        f"{ceiling} ({SRC_LINE_CEILING.name}); delete before you add"
    )


#: where a use of a ``src/`` definition counts
_REFERENCE_ROOTS = ("src", "tests", "perf", "tools", "examples", "benchmarks")
#: a string that names code: ``name``, ``pkg.module:Class.method`` and the like
_CODE_PATH = re.compile(r"[A-Za-z_][\w.:]*")


def _all_entries(tree):
    """The string constants of every module-level ``__all__`` assignment."""
    entries = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            entries.extend(c for c in ast.walk(node) if isinstance(c, ast.Constant))
    return entries


def test_every_src_definition_is_referenced():
    """Nothing in ``src/`` goes uncalled.

    Every function, method and class under ``src/`` must be named somewhere
    outside its own ``def`` and the ``__all__`` lists: as a name, an
    attribute, an imported name or a string that spells a code path (a
    ``monkeypatch`` target, a ``perf/`` trace target), in any Python file
    under ``src/``, ``tests/``, ``perf/``, ``tools/``, ``examples/`` or
    ``benchmarks/``.  A package importing a name only to list it in its
    ``__all__`` re-exports it and does not count.  Dunder methods are called
    by the language and exempt.  A definition nothing names is deleted, not
    kept for later.
    """
    definitions = []
    references: dict[str, list[tuple[Path, int]]] = {}
    for root in _REFERENCE_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            entries = _all_entries(tree)
            skipped = {id(entry) for entry in entries}
            exported = {entry.value for entry in entries}
            for node in ast.walk(tree):
                names = ()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if root == "src" and not node.name.startswith("__"):
                        definitions.append((node.name, path, node.lineno, node.end_lineno))
                elif isinstance(node, ast.Name):
                    names = (node.id,)
                elif isinstance(node, ast.Attribute):
                    names = (node.attr,)
                elif isinstance(node, ast.ImportFrom):
                    names = tuple(
                        alias.name
                        for alias in node.names
                        if (alias.asname or alias.name) not in exported
                    )
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in skipped
                    and _CODE_PATH.fullmatch(node.value)
                ):
                    names = tuple(re.split(r"[.:]", node.value))
                for name in names:
                    references.setdefault(name, []).append((path, node.lineno))
    unreferenced = [
        f"{path.relative_to(REPO_ROOT)}:{start} {name}"
        for name, path, start, end in definitions
        if not any(
            where != path or not start <= line <= end
            for where, line in references.get(name, ())
        )
    ]
    assert not unreferenced, (
        "defined under src/ and named nowhere else (delete them):\n  "
        + "\n  ".join(unreferenced)
    )
