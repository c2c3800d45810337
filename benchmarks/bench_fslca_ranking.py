"""§7.3 FSLCA comparison + related-work ranking models.

The paper compares GKS against MESSIAH's FSLCA on QI1/QI2/QM1/QM2: the
top GKS node should appear in the FSLCA result set where a sensible
target type exists, while GKS keeps answering when FSLCA has nothing.
The second half ranks the same responses with XRank- and XSEarch-style
models, extending ablation A2 with the related-work baselines the paper
argues are insufficient for GKS (§5).
"""

from __future__ import annotations

import pytest

from repro.baselines.fslca import fslca
from repro.baselines.ranking_models import xrank_ranker, xsearch_ranker
from repro.eval.metrics import response_rank_score
from repro.eval.reporting import render_table
from repro.eval.runner import engine_for
from repro.eval.workload import by_id

FSLCA_QUERIES = ["QI1", "QI2", "QM1", "QM2"]


@pytest.mark.parametrize("qid", FSLCA_QUERIES)
def test_fslca_speed(qid, benchmark):
    workload = by_id(qid)
    engine = engine_for(workload.dataset)
    query = engine.parse_query(workload.text)
    result = benchmark(lambda: fslca(engine.repository, engine.index,
                                     query))
    assert result is not None


def test_fslca_comparison_report(results_writer, benchmark):
    def measure():
        rows = []
        for qid in FSLCA_QUERIES:
            workload = by_id(qid)
            engine = engine_for(workload.dataset)
            response = engine.search(workload.text, s=1)
            result = fslca(engine.repository, engine.index,
                           engine.parse_query(workload.text))
            top_in_fslca = (bool(response)
                            and response[0].dewey in set(result.nodes))
            rows.append((qid, len(response), len(result),
                         result.target.tag if result.target else "-",
                         "yes" if top_in_fslca else "no",
                         len(result.forgiven_keywords)))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    results_writer("sec73_fslca", render_table(
        ["Query", "#GKS s=1", "#FSLCA", "target type",
         "GKS top ∈ FSLCA", "forgiven"],
        rows, title="§7.3 — GKS vs FSLCA (MESSIAH-style baseline)"))

    by_qid = {row[0]: row for row in rows}
    # the paper's observation: the top GKS node appears in the FSLCA set
    # for the QI queries
    assert by_qid["QI1"][4] == "yes"
    # and GKS never returns fewer nodes than FSLCA
    for row in rows:
        assert row[1] >= row[2]


def test_ranking_models_report(results_writer, benchmark):
    from repro.eval.compare import compare_responses

    def measure():
        rows = []
        for qid in ("QS4", "QD2", "QD4", "QM4", "QI2"):
            workload = by_id(qid)
            engine = engine_for(workload.dataset)
            flow = engine.search(workload.text, s=1)
            scores = [response_rank_score(flow)]
            taus = []
            for ranker in (xrank_ranker, xsearch_ranker):
                response = engine.search(workload.text, s=1,
                                         ranker=ranker)
                scores.append(response_rank_score(response))
                taus.append(compare_responses(flow,
                                              response).kendall_tau)
            rows.append((qid, *scores, *(f"{tau:.2f}" for tau in taus)))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    results_writer("sec5_ranking_models", render_table(
        ["Query", "potential flow", "XRank-style", "XSEarch-style",
         "τ vs XRank", "τ vs XSEarch"],
        rows, title="§5 — ranking-model comparison (rank score + "
                    "Kendall τ order agreement)"))
    flow_mean = sum(row[1] for row in rows) / len(rows)
    xrank_mean = sum(row[2] for row in rows) / len(rows)
    assert flow_mean >= xrank_mean - 1e-9
