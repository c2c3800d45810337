"""Scatter-gather serving benchmark.

Measures query latency (p50/p95) for shards ∈ {1, 2, 4} over a
replicated synthetic corpus, then writes the record to
``benchmarks/results/BENCH_sharding.json`` (with ``os.cpu_count()`` so
readers can interpret it).  Correctness (sharded == monolithic
responses) is asserted unconditionally.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

from repro.core.query import Query
from repro.core.scatter import sharded_search
from repro.core.search import search
from repro.datasets.registry import load_dataset
from repro.index.builder import IndexBuilder
from repro.index.sharding import build_sharded_index
from repro.xmltree.serialize import serialize_document

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_sharding.json"

SHARD_COUNTS = (1, 2, 4)
CORPUS_DOCUMENTS = 48
QUERY_ROUNDS = 60
QUERIES = [("karen mike data mining", 1), ("databases courses", 1),
           ("karen mining students", 2)]


def _corpus_texts() -> list[str]:
    """A multi-document corpus: the figure2a document replicated."""
    document = load_dataset("figure2a")[0]
    text = serialize_document(document)
    return [text] * CORPUS_DOCUMENTS


def _percentiles(samples: list[float]) -> dict[str, float]:
    ordered = sorted(samples)
    return {
        "p50_ms": statistics.median(ordered) * 1000.0,
        "p95_ms": ordered[min(len(ordered) - 1,
                              int(0.95 * len(ordered)))] * 1000.0,
    }


def _query_latencies(texts: list[str]
                     ) -> tuple[dict[str, dict[str, float]], dict]:
    from repro.analysis import verify_index
    from repro.xmltree.repository import Repository

    repository = Repository.from_texts(texts)
    monolithic = IndexBuilder()
    monolithic.add_repository(repository)
    mono_index = monolithic.build()

    # teardown-style audit: every index this benchmark serves must pass
    # the deep invariant verifier; audit cost is recorded in the JSON
    audit = {"indexes_audited": 0, "violations": 0, "audit_seconds": 0.0}

    def audited(index):
        started = time.perf_counter()
        violations = verify_index(index)
        audit["audit_seconds"] += time.perf_counter() - started
        audit["indexes_audited"] += 1
        audit["violations"] += len(violations)
        assert not violations, [v.render() for v in violations]
        return index

    audited(mono_index)
    latencies: dict[str, dict[str, float]] = {}
    for shards in SHARD_COUNTS:
        index = audited(build_sharded_index(repository, shards=shards))
        # correctness gate: every benchmarked configuration must answer
        # exactly like the monolithic index before its latency counts
        for text, s in QUERIES:
            query = Query.parse(text, s=s)
            expected = search(mono_index, query)
            actual = sharded_search(index, query)
            assert [(n.dewey, n.score) for n in actual.nodes] == \
                [(n.dewey, n.score) for n in expected.nodes], \
                f"sharded response diverged at shards={shards}"
        samples = []
        for _ in range(QUERY_ROUNDS):
            started = time.perf_counter()
            for text, s in QUERIES:
                sharded_search(index, Query.parse(text, s=s))
            samples.append(time.perf_counter() - started)
        latencies[str(shards)] = _percentiles(samples)
    return latencies, audit


def test_sharding_benchmark_report():
    latencies, audit = _query_latencies(_corpus_texts())
    record = {
        "cpu_count": os.cpu_count(),
        "corpus_documents": CORPUS_DOCUMENTS,
        "query_latency_by_shards": latencies,
        "query_rounds": QUERY_ROUNDS,
        "index_audit": audit,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(record, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
    print()
    print(f"sharding bench -> {RESULTS_PATH}")
    print(json.dumps(record, indent=2, sort_keys=True))
