"""E3 — Figure 8: response time vs merged-list size |SL| (n = 8 fixed).

The paper: on NASA and SwissProt, response time grows *linearly* with
|SL| for fixed n and d (21.5–139 ms on their hardware).  We reproduce the
series on the synthetic corpora and check the linear shape via the
Pearson correlation between |SL| and time.
"""

from __future__ import annotations

import pytest

from repro.core.search import search
from repro.eval.reporting import render_series
from repro.eval.runner import engine_for, figure8_series, queries_for_figure8


@pytest.mark.parametrize("dataset", ["nasa", "swissprot"])
def test_search_speed_fixed_n(dataset, benchmark):
    """Benchmark one representative n=8 query per corpus."""
    engine = engine_for(dataset, scale=2)
    queries = queries_for_figure8(engine.index, n=8)
    assert queries, "frequency ladder too short"
    query = queries[0]
    response = benchmark(lambda: search(engine.index, query))
    assert response.stats.postings_scanned > 0


@pytest.mark.parametrize("dataset", ["nasa", "swissprot"])
def test_figure8_series(dataset, results_writer, benchmark):
    points = benchmark.pedantic(
        lambda: figure8_series(dataset, scale=2), rounds=1, iterations=1)
    assert len(points) >= 3
    from repro.eval.figures import render_scatter

    results_writer(f"figure8_{dataset}", render_series(
        f"Figure 8 — response time vs |SL| ({dataset}, n=8)",
        [(sl, f"{ms:.2f}") for sl, ms in points],
        x_label="|SL|", y_label="RT (ms)") + "\n\n" + render_scatter(
        "RT vs |SL|", [(float(sl), ms) for sl, ms in points],
        x_label="|SL|", y_label="ms"))

    # shape check: strong positive linear correlation
    xs = [float(sl) for sl, _ in points]
    ys = [ms for _, ms in points]
    correlation = _pearson(xs, ys)
    assert correlation > 0.6, f"RT not increasing with |SL|: {points}"


def _pearson(xs, ys):
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs) ** 0.5
    var_y = sum((y - mean_y) ** 2 for y in ys) ** 0.5
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / (var_x * var_y)
