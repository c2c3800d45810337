"""E8/E9 — Table 8 + §7.4: DI discovered per query, and the DI-driven
refinement case study.

Paper-reported anchors: QD2's DI exposes <year: 2001> and
<journal: SIGMOD Record>; QD3's exposes <year: 1999> and
<booktitle: ICCD>; QD1's DI reveals Marek Rusinkiewicz, and refining the
query to (Georgakopoulos, Rusinkiewicz) finds 10 joint articles where the
original query had one.
"""

from __future__ import annotations

import pytest

from repro.eval.reporting import render_table
from repro.eval.runner import engine_for, refinement_case, table8_rows
from repro.eval.workload import by_id


@pytest.mark.parametrize("qid", ["QD1", "QD2", "QM1", "QI1"])
def test_di_speed(qid, benchmark):
    workload = by_id(qid)
    engine = engine_for(workload.dataset)
    response = engine.search(workload.text, s=1)
    report = benchmark(lambda: engine.insights(response, top=10))
    assert report is not None


def test_table8_report(results_writer, benchmark):
    rows = benchmark.pedantic(table8_rows, rounds=1, iterations=1)
    results_writer("table8_di", render_table(
        ["Query", "DI, s=1", "DI, s=|Q|/2"],
        [(row.qid, "; ".join(row.di_s1) or "NA",
          "; ".join(row.di_half) or "NA") for row in rows],
        title="Table 8 — DI discovered for different queries"))

    by_qid = {row.qid: row for row in rows}
    qd2 = " ".join(by_qid["QD2"].di_s1)
    assert "2001" in qd2                       # the paper's <year: 2001>
    qd3 = " ".join(by_qid["QD3"].di_s1)
    assert "ICCD" in qd3 and "1999" in qd3     # the paper's exact DI
    for row in rows:
        assert row.di_s1 or row.di_half        # DI exists somewhere


def test_refinement_case_study(results_writer, benchmark):
    case = benchmark.pedantic(refinement_case, rounds=1, iterations=1)
    results_writer("sec74_refinement", render_table(
        ["original #results", "DI reveals co-author", "refined #results"],
        [(case.original_results,
          "yes" if case.di_coauthor_found else "no",
          case.refined_results)],
        title="§7.4 — QD1 + DI: Georgakopoulos & Rusinkiewicz"))
    assert case.di_coauthor_found
    assert case.refined_results == 10          # the paper's number
