"""Tests for the experiment runners (content-level checks — the
benchmarks wrap these same functions with timers)."""

from repro.eval.runner import (build_hybrid_repository, engine_for,
                               feedback_table, figure9_series,
                               figure10_series, frequency_ladder,
                               hybrid_experiment, queries_for_figure8,
                               refinement_case, table7_rows, table8_rows)


class TestEngineCache:
    def test_engine_for_caches(self):
        assert engine_for("figure1") is engine_for("figure1")
        assert engine_for("figure1") is not engine_for("figure2a")


class TestFrequencyLadder:
    def test_descending_document_frequency(self):
        engine = engine_for("figure2a")
        ladder = frequency_ladder(engine.index, count=5, minimum_df=1)
        frequencies = [engine.index.inverted.document_frequency(keyword)
                       for keyword in ladder]
        assert frequencies == sorted(frequencies, reverse=True)

    def test_minimum_df_filter(self):
        engine = engine_for("figure2a")
        ladder = frequency_ladder(engine.index, count=50, minimum_df=3)
        for keyword in ladder:
            assert engine.index.inverted.document_frequency(keyword) >= 3


class TestQueryFactories:
    def test_figure8_queries_have_fixed_n(self):
        engine = engine_for("nasa")
        for query in queries_for_figure8(engine.index, n=8):
            assert len(query.keywords) == 8

    def test_figure9_series_points(self):
        points = figure9_series("figure2a", sizes=(2, 4))
        assert [n for n, _ in points] == [2, 4]
        assert all(ms >= 0 for _, ms in points)


class TestExperimentContent:
    def test_table7_rows_cover_workload(self):
        rows = table7_rows()
        assert len(rows) == 14
        assert all(row.gks_s1 >= row.gks_half for row in rows)

    def test_table8_rows_have_di(self):
        rows = table8_rows(top=2)
        assert len(rows) == 14
        assert any(row.di_s1 for row in rows)

    def test_refinement_case(self):
        case = refinement_case()
        assert case.di_coauthor_found
        assert case.refined_results == 10

    def test_hybrid_outcome(self):
        outcome = hybrid_experiment()
        assert (outcome.total_results, outcome.dblp_hits,
                outcome.sigmod_hits) == (8, 3, 5)
        assert outcome.sigmod_ranked_first

    def test_hybrid_repository_shape(self):
        repository = build_hybrid_repository()
        assert len(repository) == 1  # one common root
        root = repository[0].root
        assert root.tag == "collection"
        # the SIGMOD side sits two connecting nodes deeper (§7.6)
        sigmod = root.find_first("SigmodRecord")
        dblp = root.find_first("dblp")
        assert sigmod is not None and dblp is not None
        assert len(sigmod.dewey) - len(dblp.dewey) == 2

    def test_feedback_table_dimensions(self):
        table = feedback_table(users=10)
        assert len(table.rows) == 12
        assert table.total_ratings == 120

    def test_figure10_sl_scales_linearly(self):
        points = figure10_series(dataset="figure2a", factors=(1, 2))
        assert points[1][2] == points[0][2] * 2
