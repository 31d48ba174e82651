"""The documentation tooling itself: link checker, docgen, results report.

``tools/check_docs_links.py`` and the docgen marker machinery are the gates
every doc in this repo passes through; a bug in either silently un-gates
the documentation.  These tests pin their contracts: broken targets and
missing anchors fail with exit 1, code fences are skipped, unknown-marker
files are rejected, stale generated blocks are refreshed, multi-marker
files refresh every section, and the results report round-trips through
its ``--check`` mode.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.scenarios import docgen

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs_links = _load_tool("check_docs_links")
gen_results_report = _load_tool("gen_results_report")


class TestLinkChecker:
    def test_valid_relative_link_passes(self, tmp_path):
        (tmp_path / "target.md").write_text("# Target\n")
        (tmp_path / "doc.md").write_text("[see](target.md)\n")
        assert check_docs_links.main([str(tmp_path)]) == 0

    def test_broken_target_fails(self, tmp_path, capsys):
        (tmp_path / "doc.md").write_text("[see](missing.md)\n")
        assert check_docs_links.main([str(tmp_path)]) == 1
        assert "broken link target 'missing.md'" in capsys.readouterr().out

    def test_anchor_must_match_a_heading(self, tmp_path, capsys):
        (tmp_path / "target.md").write_text("# Real Heading\n")
        (tmp_path / "doc.md").write_text(
            "[ok](target.md#real-heading)\n[bad](target.md#no-such)\n"
        )
        assert check_docs_links.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "missing anchor 'target.md#no-such'" in out
        assert "real-heading" not in out  # the valid anchor is not reported

    def test_same_file_anchor(self, tmp_path):
        (tmp_path / "doc.md").write_text("# My Section\n\n[jump](#my-section)\n")
        assert check_docs_links.main([str(tmp_path)]) == 0

    def test_links_inside_code_fences_are_skipped(self, tmp_path):
        (tmp_path / "doc.md").write_text(
            "```md\n[not a real link](missing.md)\n```\n"
        )
        assert check_docs_links.main([str(tmp_path)]) == 0

    def test_external_targets_are_skipped(self, tmp_path):
        (tmp_path / "doc.md").write_text(
            "[x](https://example.com/404) [y](mailto:a@b.c)\n"
        )
        assert check_docs_links.main([str(tmp_path)]) == 0

    def test_no_arguments_is_a_usage_error(self):
        assert check_docs_links.main([]) == 2

    def test_slugify_matches_github_style(self):
        assert check_docs_links.slugify("The `fleet` CLI!") == "the-fleet-cli"
        assert check_docs_links.slugify("Sharding & amortization") == (
            "sharding--amortization"
        )


#: every registered docgen section: (begin marker, end marker)
_SECTIONS = [
    (docgen.BEGIN_MARKER, docgen.END_MARKER),
    (docgen.FAULTS_BEGIN_MARKER, docgen.FAULTS_END_MARKER),
    (docgen.ADVERSARIAL_BEGIN_MARKER, docgen.ADVERSARIAL_END_MARKER),
    (docgen.API_BEGIN_MARKER, docgen.API_END_MARKER),
    (docgen.FLEET_BEGIN_MARKER, docgen.FLEET_END_MARKER),
]


class TestDocgenMachinery:
    def test_file_without_any_known_marker_fails(self, tmp_path, capsys):
        plain = tmp_path / "plain.md"
        plain.write_text("# doc\n\n<!-- BEGIN SOMETHING ELSE -->\n")
        assert docgen.main([str(plain)]) == 1
        assert "no generated-section markers" in capsys.readouterr().err

    def test_stale_block_is_refreshed_in_place(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "before\n\n"
            f"{docgen.FLEET_BEGIN_MARKER}\nSTALE\n{docgen.FLEET_END_MARKER}\n\n"
            "after\n"
        )
        assert docgen.main([str(doc)]) == 0
        text = doc.read_text()
        assert "STALE" not in text
        assert text.startswith("before\n")
        assert text.endswith("after\n")
        assert docgen.render(docgen.FLEET_BEGIN_MARKER) in text

    def test_multi_marker_file_refreshes_every_section(self, tmp_path):
        doc = tmp_path / "doc.md"
        body = "\n\n".join(
            f"{begin}\nstale {i}\n{end}"
            for i, (begin, end) in enumerate(_SECTIONS)
        )
        doc.write_text(f"# all catalogues\n\n{body}\n")
        assert docgen.main([str(doc)]) == 0
        text = doc.read_text()
        for i, (begin, _) in enumerate(_SECTIONS):
            assert f"stale {i}" not in text
            assert docgen.render(begin) in text

    def test_refresh_is_idempotent(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            f"{docgen.FLEET_BEGIN_MARKER}\nx\n{docgen.FLEET_END_MARKER}\n"
        )
        assert docgen.main([str(doc)]) == 0
        first = doc.read_text()
        assert docgen.main([str(doc)]) == 0
        assert doc.read_text() == first


@pytest.fixture(scope="module")
def figures():
    """The harness rows of the report, computed once for the module."""
    return gen_results_report.compute_figures()


class TestResultsReport:
    def test_artefact_naming_convention(self):
        assert gen_results_report.artefact_of("test_fig_5_1_series") == (
            "Figure 5.1",
            ["5.1"],
        )
        assert gen_results_report.artefact_of("test_fig_5_2_5_3_automata") == (
            "Figures 5.2–5.3",
            ["5.2", "5.3"],
        )
        assert gen_results_report.artefact_of("test_table_5_1_transitions") == (
            "Table 5.1",
            ["5.1"],
        )
        with pytest.raises(ValueError, match="naming"):
            gen_results_report.artefact_of("test_kernel_hotpaths")

    def test_every_artefact_module_is_reported(self, figures):
        rendered = gen_results_report.render_report(figures)
        for path in sorted(REPO_ROOT.glob("benchmarks/test_fig_*.py")) + sorted(
            REPO_ROOT.glob("benchmarks/test_table_*.py")
        ):
            assert f"`benchmarks/{path.name}`" in rendered

    def test_the_figures_numbers_are_reported(self, figures):
        """Each sweep row is a table row, and no column is a timing."""
        rendered = gen_results_report.render_report(figures)
        cell = gen_results_report._cell
        for row in figures["sweep"]:
            line = " | ".join(
                cell(row[key])
                for key in ("property", "processes", "events", "messages", "entries_created")
            )
            assert f"| {line} |" in rendered, line
        for row in figures["baseline"]:
            assert f"| {row['monitor']} | {row['property']} |" in rendered
        assert "wall" not in rendered
        assert "speedup" not in rendered

    def test_a_changed_number_is_drift(self, figures, tmp_path, capsys):
        report = tmp_path / "results.md"
        rendered = gen_results_report.render_report(figures)
        assert gen_results_report.main([str(report)]) == 0
        assert report.read_text() == rendered
        row = figures["sweep"][0]
        events = gen_results_report._cell(row["events"])
        old = f"| {row['property']} | {row['processes']} | {events} |"
        assert old in rendered
        report.write_text(rendered.replace(old, f"{old[:-2]}0 |", 1))
        assert gen_results_report.main(["--check", str(report)]) == 1
        assert "out of date" in capsys.readouterr().err

    def test_check_mode_detects_drift(self, tmp_path, capsys):
        report = tmp_path / "results.md"
        report.write_text("stale report\n")
        assert (
            gen_results_report.main(["--check", str(report)]) == 1
        )
        assert "out of date" in capsys.readouterr().err

    def test_write_then_check_round_trips(self, tmp_path):
        report = tmp_path / "results.md"
        assert gen_results_report.main([str(report)]) == 0
        assert gen_results_report.main(["--check", str(report)]) == 0

    def test_committed_report_is_in_sync(self):
        assert gen_results_report.main(["--check"]) == 0
