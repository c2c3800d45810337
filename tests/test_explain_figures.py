"""Tests for rank explanations and the ASCII figure renderers."""

import re

import pytest

from repro.core.explain import explain_rank
from repro.core.query import Query
from repro.eval.figures import render_bar_chart, render_scatter
from tests.test_ranking import rank


class TestExplain:
    def test_explanation_sums_to_score(self, figure1_index, figure1_repo,
                                       fig1_ids):
        query = Query.of(["a", "b", "c", "d"], s=2)
        breakdown = rank(figure1_index, query, fig1_ids["x3"])
        explanation = explain_rank(figure1_index, breakdown,
                                   repository=figure1_repo)
        total = sum(terminal.received
                    for terminal in explanation.terminals)
        assert total == pytest.approx(breakdown.score)

    def test_steps_carry_tags_and_counts(self, figure1_index,
                                         figure1_repo, fig1_ids):
        query = Query.of(["d"], s=1)
        breakdown = rank(figure1_index, query, fig1_ids["x3"])
        explanation = explain_rank(figure1_index, breakdown,
                                   repository=figure1_repo)
        d_terminal = explanation.terminals[0]
        tags = [step.tag for step in d_terminal.steps]
        assert tags == ["x3", "y"]
        counts = [step.child_count for step in d_terminal.steps]
        assert counts == [3, 2]

    def test_render_mentions_everything(self, figure1_index,
                                        figure1_repo, fig1_ids):
        query = Query.of(["a", "b"], s=2)
        breakdown = rank(figure1_index, query, fig1_ids["x2"])
        text = explain_rank(figure1_index, breakdown,
                            repository=figure1_repo).render()
        assert "P = 2" in text
        assert "'a'" in text and "'b'" in text
        assert "receives" in text

    def test_engine_explain_facade(self, figure2a_engine):
        response = figure2a_engine.search("karen mike", s=2)
        text = figure2a_engine.explain(response[0])
        assert "rank =" in text
        assert "Students" in text

    def test_probabilistic_node_reports_its_probability(self):
        from repro.api import EngineConfig, GKSEngine, Texts

        engine = GKSEngine.open(Texts([
            "<bib><paper><title>keyword search</title><year>2016</year>"
            "</paper><paper><title>graph search</title></paper></bib>"]),
            EngineConfig(mode="probabilistic"))
        response = engine.search("keyword search", s=1)
        node = next(node for node in response if node.dewey == (0,))
        assert node.breakdown is None and node.score == 1.0
        first = engine.explain(node).splitlines()[0]
        match = re.fullmatch(r"node 0: P = 2 distinct keyword\(s\), "
                             r"probability = 1\.0000, "
                             r"structural rank = (\d+\.\d{4})", first)
        assert match and float(match[1]) != node.score

    def test_terminal_at_node_itself(self, figure2a_engine):
        # tag keyword 'course' terminates at the Course node itself
        response = figure2a_engine.search("course", s=1)
        top = response[0]
        text = figure2a_engine.explain(top)
        assert "(at the node itself)" in text


class TestBarChart:
    def test_bars_scale_to_peak(self):
        text = render_bar_chart("T", [("a", 10.0), ("b", 5.0)], width=10)
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].count("#") == 10
        assert lines[2].count("#") == 5

    def test_zero_values(self):
        text = render_bar_chart("T", [("a", 0.0)])
        assert "#" not in text

    def test_empty_series(self):
        assert "(no data)" in render_bar_chart("T", [])

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            render_bar_chart("T", [("a", 1.0)], width=0)

    def test_labels_aligned(self):
        text = render_bar_chart("T", [("x", 1.0), ("long", 2.0)])
        lines = text.splitlines()[1:]
        assert lines[0].index("|") == lines[1].index("|")


class TestScatter:
    def test_grid_dimensions(self):
        text = render_scatter("S", [(0, 0), (10, 10)], width=20,
                              height=5)
        lines = text.splitlines()
        assert len(lines) == 1 + 5 + 2  # title + grid + axis + ranges
        assert all(len(line) == 21 for line in lines[1:6])

    def test_extremes_are_plotted(self):
        text = render_scatter("S", [(0, 0), (10, 10)], width=10,
                              height=4)
        lines = text.splitlines()
        assert lines[1].rstrip().endswith("*")   # top-right
        assert lines[4].startswith("|*")          # bottom-left

    def test_single_point(self):
        text = render_scatter("S", [(3, 3)])
        assert "*" in text

    def test_empty(self):
        assert "(no data)" in render_scatter("S", [])
