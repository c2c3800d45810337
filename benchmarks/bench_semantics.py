"""Query-modes benchmark: probabilistic overhead.

One claim of the semantics subsystem is measured and gated, and the
record lands in ``benchmarks/results/BENCH_semantics.json``:
**probabilistic mode is pay-for-what-you-use.**  On a corpus with no
``p:`` annotations the compiled tables are empty and no
subset distribution is built, so a probabilistic engine must answer
within 2x the strict engine's median latency on the same query mix
(the gate is deliberately loose: the remaining overhead is the stack
pass over the merged list and the mode dispatch).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.core.config import EngineConfig
from repro.core.engine import GKSEngine
from repro.datasets.registry import load_dataset

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_semantics.json"

ROUNDS = 30
OVERHEAD_GATE = 2.0
QUERIES = [("databases compression", 1), ("rivera indexing", 1),
           ("storage streams retrieval", 2)]


def _round_seconds(engine: GKSEngine) -> float:
    started = time.perf_counter()
    for text, s in QUERIES:
        engine.search(text, s=s, use_cache=False)
    return time.perf_counter() - started


def _interleaved_medians(strict_engine: GKSEngine,
                         prob_engine: GKSEngine) -> tuple[float, float]:
    """Median round time of each engine over ROUNDS pairs of rounds.

    Each pair runs one round per engine, and the pairs alternate which
    engine goes first, so a drift in host speed lands on both sides of
    the ratio alike instead of on whichever engine ran second.
    """
    strict, prob = [], []
    for pair in range(ROUNDS):
        order = [(strict, strict_engine), (prob, prob_engine)]
        if pair % 2:
            order.reverse()
        for samples, engine in order:
            samples.append(_round_seconds(engine))
    return statistics.median(strict), statistics.median(prob)


def test_semantics_benchmark_report():
    repository = load_dataset("mirrors", scale=2)
    strict_engine = GKSEngine(repository)
    prob_engine = GKSEngine(repository,
                            config=EngineConfig(mode="probabilistic"))

    strict_s, prob_s = _interleaved_medians(strict_engine, prob_engine)
    ratio = prob_s / strict_s if strict_s else float("inf")

    record = {
        "corpus": {"dataset": "mirrors", "scale": 2,
                   "documents": len(repository),
                   "nodes": strict_engine.index.stats.total_nodes},
        "queries_per_round": len(QUERIES),
        "rounds": ROUNDS,
        "strict_median_s": strict_s,
        "probabilistic_median_s": prob_s,
        "probabilistic_over_strict": ratio,
        "overhead_gate": OVERHEAD_GATE,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(record, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
    print(f"semantics bench -> {RESULTS_PATH}")
    print(json.dumps(record, indent=2, sort_keys=True))

    # the gate: empty tables must not make probabilistic mode pay for
    # the DP it never runs
    assert ratio < OVERHEAD_GATE, (
        f"probabilistic mode is {ratio:.2f}x strict on a "
        f"non-probabilistic corpus (gate {OVERHEAD_GATE}x)")
