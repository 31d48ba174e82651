"""Tests for the case-study properties and the experiment harness."""

import pytest

from repro.experiments import (
    ExperimentScale,
    PROPERTY_NAMES,
    case_study_monitor,
    case_study_registry,
    format_table,
    property_formula,
    run_fig_5_1,
    run_fig_5_2_5_3,
    run_fig_5_9,
    run_monitoring_experiment,
    run_table_5_1,
)
from repro.ltl import atoms_of, build_monitor, parse


SMALL_SCALE = ExperimentScale(
    process_counts=(2, 3),
    events_per_process=4,
    replications=1,
    max_views_per_state=2,
)


class TestPropertyFormulas:
    @pytest.mark.parametrize("name", PROPERTY_NAMES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_formulas_parse_and_use_only_grid_atoms(self, name, n):
        formula = parse(property_formula(name, n))
        registry = case_study_registry(n)
        for atom in atoms_of(formula):
            assert atom in registry

    def test_a_and_c_coincide_for_small_systems(self):
        assert property_formula("A", 2) == property_formula("C", 2)
        assert property_formula("A", 3) == property_formula("C", 3)
        assert property_formula("A", 4) != property_formula("C", 4)

    def test_b_mentions_only_p_variables(self):
        formula = parse(property_formula("B", 4))
        assert all(atom.endswith(".p") for atom in atoms_of(formula))

    def test_e_mentions_all_variables(self):
        formula = parse(property_formula("E", 3))
        assert len(atoms_of(formula)) == 6

    def test_unknown_property_rejected(self):
        with pytest.raises(ValueError):
            property_formula("Z", 3)

    def test_single_process_rejected(self):
        with pytest.raises(ValueError):
            property_formula("A", 1)


class TestCaseStudyMonitors:
    @pytest.mark.parametrize("name", ["A", "B", "D", "E"])
    def test_paper_style_and_minimal_monitors_agree_on_verdict_domain(self, name):
        paper = case_study_monitor(name, 2)
        minimal = build_monitor(property_formula(name, 2))
        assert {paper.verdict(s) for s in paper.states} == {
            minimal.verdict(s) for s in minimal.states
        }

    def test_monitors_are_cached(self):
        assert case_study_monitor("A", 2) is case_study_monitor("A", 2)

    def test_table_5_1_exact_rows(self):
        rows = {
            (r["property"], r["processes"]): (r["total"], r["outgoing"], r["self_loops"])
            for r in run_table_5_1(process_counts=(2, 3))
        }
        assert rows[("A", 2)] == (7, 4, 3)
        assert rows[("D", 2)] == (15, 11, 4)
        assert rows[("E", 3)] == (8, 1, 7)
        assert rows[("C", 3)] == (11, 7, 4)

    def test_fig_5_1_series_shapes(self):
        series = run_fig_5_1(process_counts=(2, 3))
        assert set(series) == {"all_transitions", "outgoing_transitions"}
        assert series["outgoing_transitions"]["B"] == [1, 1]

    def test_fig_5_2_5_3_descriptions(self):
        descriptions = run_fig_5_2_5_3(2)
        assert set(descriptions) == {"A", "B", "D", "E", "F"}
        assert "verdict" in descriptions["A"]


class TestHarness:
    def test_monitoring_experiment_returns_metrics(self):
        row = run_monitoring_experiment("B", 2, SMALL_SCALE)
        assert row["property"] == "B"
        assert row["processes"] == 2
        assert row["events"] > 0
        assert row["messages"] >= 0
        assert row["global_views"] >= 2

    def test_simple_property_cheaper_than_complex(self):
        # E has a single outgoing transition, F the richest automaton of the
        # case study; even at this tiny scale E issues far fewer searches
        # (messages no longer tell: most searches are answered at home).
        simple = run_monitoring_experiment("E", 3, SMALL_SCALE)
        complex_ = run_monitoring_experiment("F", 3, SMALL_SCALE)
        assert simple["entries_created"] <= complex_["entries_created"]

    def test_fig_5_9_no_comm_reduces_events(self):
        rows = run_fig_5_9(
            comm_mus=(3.0, None), num_processes=3, property_name="C", scale=SMALL_SCALE
        )
        assert rows[0]["comm_mu"] == 3.0
        assert rows[1]["comm_mu"] == "no-comm"
        assert rows[1]["events"] < rows[0]["events"]

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 223, "b": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[:2])) <= 2

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"
