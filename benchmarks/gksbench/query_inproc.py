"""Workload ``query_inproc``: the paper's pipeline and nothing else.

A monolithic in-memory engine with the response cache off answers a
stratified pool of distinct queries, two full searches to one top-k.
Serving, codecs and the store are not on the path.
"""

from __future__ import annotations

import gc
import random

from repro.api import EngineConfig, GKSEngine, Texts
from repro.core.search import search

import common
import inputs
import layers as L
import oracle

#: repetitions of the sequence at the reference run length
REPS = 4


def make_inputs(seed: int, scale: inputs.Scale):
    """Corpus, pool and the fixed sequence of ``(spec, top_k)``: every
    query of the pool as a search and every second one also as a top-k
    (2 : 1), in seeded order."""
    corpus = inputs.protein_corpus(seed, scale)
    pool = inputs.query_pool(corpus, scale.inproc_pool)
    sequence = [(spec, False) for spec in pool]
    sequence += [(spec, True) for spec in pool[1::2]]
    random.Random(f"gksbench-order-{seed}").shuffle(sequence)
    return corpus, pool, sequence


def _open(corpus) -> GKSEngine:
    return GKSEngine.open(Texts(corpus.texts), EngineConfig(cache_size=0))


def _answer(engine, spec, top_k: bool):
    if top_k:
        return engine.search_top_k(spec.text, k=common.TOP_K, s=spec.s)
    return engine.search(spec.text, s=spec.s, use_cache=False)


def check_reference(engine, pool, scale, checker) -> None:
    """Sampled checks: soundness against the brute-force search space,
    and top-k is the head of the full ranking."""
    specs = oracle.sample(pool, scale.sample)
    full = {spec: common.answer(_answer(engine, spec, False).nodes)
            for spec in specs}
    oracle.check_sound(engine.repository, engine.analyzer, specs,
                       full.__getitem__, checker)
    for spec in specs:
        head = common.answer(_answer(engine, spec, True).nodes)
        checker.expect(head == full[spec][:common.TOP_K],
                       f"{spec.text}: top-{common.TOP_K} is not the head of the "
                       "full ranking")


def run(seed: int, scale: inputs.Scale, seconds: float,
        checker: common.Checker) -> dict:
    corpus, pool, sequence = make_inputs(seed, scale)
    meter = common.Meter()
    reps = []
    engine = None
    for _ in range(common.repetitions(REPS, seconds)):
        engine = None
        gc.collect()
        engine = meter.time("setup", _open, corpus, long=True)
        meter.time("first", _answer, engine, pool[0], False)
        for spec, top_k in sequence:
            response = meter.time("topk" if top_k else "search", _answer,
                                  engine, spec, top_k)
            checker.answered(common.query_key(spec, top_k), response.nodes)
        rep = meter.take()
        rep["cold"] = [rep["setup"][0] + rep["first"][0]]
        reps.append(rep)
    rss = common.peak_rss_mb()
    checker.ops(len(reps) * len(sequence))
    check_reference(engine, pool, scale, checker)
    return dict(common.end_to_end(reps, rss, queries=("search",),
                                  topks=("topk",), ops=("search", "topk")),
                corpus=corpus_facts(corpus, engine))


def corpus_facts(corpus, engine) -> dict:
    return {"documents": len(corpus.texts),
            "nodes": engine.repository.total_nodes,
            "xml_bytes": corpus.xml_bytes}


def trace(seed: int, scale: inputs.Scale, seconds: float,
          checker: common.Checker) -> dict:
    """Per-layer pass: the set-up replayed layer by layer, every
    distinct query replayed stage by stage (and asserted node-for-node
    equal to ``search()``), top-k under a counting ranker."""
    corpus, pool, sequence = make_inputs(seed, scale)
    layers = L.zero_layers()
    spans = common.Spans()

    spans.new_op()
    with spans.span("setup") as root:
        engine = _open(corpus)
    L.build_layers(spans, root, corpus, 1, layers)

    totals = L.PipelineTotals()
    parse_s, engine_self, topk_self = [], [], []
    candidates = ranked = 0
    replayed = pool[:common.scaled(len(pool), seconds)]
    for spec in replayed:
        spans.new_op()
        with spans.span("engine.search") as root:
            response = engine.search(spec.text, s=spec.s, use_cache=False)
        query, seconds_parse = L.timed(engine.parse_query, spec.text,
                                       s=spec.s)
        spans.add("core.engine.parse_query", seconds_parse, root)
        parse_s.append(seconds_parse)
        _, seconds_search = L.timed(search, engine.index, query)
        pipeline = spans.add("core.search", seconds_search, root)
        nodes, lce = totals.replay(spans, pipeline, engine.index, query)
        checker.expect(
            common.answer(nodes) == common.answer(response.nodes),
            f"{spec.text}: stage-by-stage replay differs from search()")
        engine_self.append(max(0.0, root.seconds - seconds_parse
                               - seconds_search))

        spans.new_op()
        ranker = L.CountingRanker()
        with spans.span("engine.search_top_k") as root:
            engine.search_top_k(spec.text, k=common.TOP_K, s=spec.s, ranker=ranker)
        stages = sum(totals.seconds[name][-1]
                     for name in ("core.merge", "core.lcp", "core.lce"))
        spans.add("core.search.candidates", stages, root)
        spans.add("core.ranking", ranker.seconds, root)
        topk_self.append(max(0.0, root.seconds - stages - ranker.seconds))
        candidates += len(lce.response_deweys())
        ranked += ranker.calls
    totals.into(layers)
    layers["core.engine.parse_query_ms"] = common.ms(common.median(parse_s))
    layers["core.engine.overhead_ms"] = common.ms(common.median(engine_self))
    layers["core.topk.self_ms"] = common.ms(common.median(topk_self))
    layers["core.topk.candidates"] = float(candidates)
    layers["core.topk.ranked_share"] = ranked / candidates if candidates else 0.0
    layers["trace.coverage"] = spans.coverage()

    overhead = L.Overhead(spans)
    for spec, top_k in sequence[:common.scaled(96, seconds)]:
        overhead.both("loop.op", lambda: _answer(engine, spec, top_k))
    layers["trace.overhead"] = overhead.ratio
    checker.ops(len(replayed) * 2)
    spans.write("query_inproc", seed, scale.label)
    return {"metrics": layers, "corpus": corpus_facts(corpus, engine)}
