"""E-EXT — extension benchmarks: schema categorization, top-k exactness,
incremental maintenance.

These are not paper tables; they quantify the future-work feature the
paper sketches (§2.2 schema-level categorization) and the engineering
extensions (top-k, append-only maintenance).
"""

from __future__ import annotations

from repro.baselines.ranking_models import xrank_ranker, xsearch_ranker
from repro.core.engine import GKSEngine
from repro.core.query import Query
from repro.core.ranking import rank_by_keyword_count, rank_node
from repro.core.search import search
from repro.core.topk import search_top_k
from repro.datasets.registry import load_dataset
from repro.eval.reporting import render_table
from repro.eval.runner import engine_for
from repro.schema import compare_with_instance_level, infer_schema
from repro.xmltree.serialize import serialize_document

RANKERS = (rank_node, rank_by_keyword_count, xrank_ranker, xsearch_ranker)


def test_schema_inference_speed(benchmark):
    repository = load_dataset("dblp")
    schema = benchmark(infer_schema, repository)
    assert len(schema) > 5


def test_schema_smoothing_report(results_writer, benchmark):
    def measure():
        rows = []
        for name in ("dblp", "sigmod", "interpro"):
            repository = load_dataset(name)
            counters = compare_with_instance_level(repository)
            rows.append((name, counters["total"], counters["agree"],
                         counters["promoted_to_entity"],
                         counters["promoted_to_repeating"],
                         counters["other_flips"]))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    results_writer("ext_schema_smoothing", render_table(
        ["Data Set", "nodes", "agree", "→entity", "→repeating", "other"],
        rows, title="EXT — schema-level vs instance-level categorization"))
    by_name = {row[0]: row for row in rows}
    assert by_name["dblp"][3] > 0   # single-author promotions exist


def test_full_ranking_speed(benchmark):
    engine = engine_for("interpro", scale=2)
    query = Query.of(["kringl", "domain"], s=1)
    benchmark(lambda: search(engine.index, query))


def test_topk_matches_and_reports(results_writer, benchmark):
    """Top-k is the head of the full ranking (dewey and score) for every
    shipped ranker, including ones whose scores exceed ``P²``."""
    def measure():
        engine = engine_for("interpro", scale=2)
        query = Query.of(["kringl", "domain"], s=1)
        rows = []
        for ranker in RANKERS:
            full = search(engine.index, query, ranker=ranker)
            head = [(node.dewey, node.score) for node in full]
            for k in (1, 5, 20, 100):
                top = search_top_k(engine.index, query, k, ranker=ranker)
                exact = [(node.dewey, node.score) for node in top] == head[:k]
                rows.append((ranker.__name__, k, len(full),
                             "yes" if exact else "NO"))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    results_writer("ext_topk", render_table(
        ["ranker", "k", "|RQ(s)|", "top-k == head of full ranking"], rows,
        title="EXT — top-k exactness"))
    assert all(row[3] == "yes" for row in rows)


def test_incremental_append_speed(benchmark):
    """Appending one document must not re-index the corpus."""
    new_doc_text = serialize_document(load_dataset("figure2a")[0])

    def append_once():
        engine = GKSEngine(load_dataset("swissprot"))
        engine.add_document(new_doc_text)
        return engine.index

    index = benchmark.pedantic(append_once, rounds=3, iterations=1)
    assert index.stats.documents == 2
