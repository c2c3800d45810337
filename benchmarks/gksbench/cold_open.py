"""Workload ``cold_open``: load a persisted index, then answer.

A mirror corpus is built and saved once per codec (``raw``,
``varint-dag``); cycles alternate codec, each one ``load_index`` ->
first query (rotating) -> warm queries -> drop; the whole, set-up
included, is repeated.  This is what a
one-shot user of a saved index pays; the two codecs share
``index.storage``, so a gain for one that costs the other shows in
the same run.  Reads come from the OS page cache: the latencies are
this sandbox's, not a device's.
"""

from __future__ import annotations

import gc
import os
import shutil

from repro.core.query import Query
from repro.core.search import search
from repro.core.topk import search_top_k
from repro.index.builder import build_index
from repro.index.storage import load_index, save_index
from repro.xmltree.repository import Repository

import common
import inputs
import layers as L
import oracle

CODECS = (("raw", "raw"), ("dag", "varint-dag"))
#: repetitions (set-up, then ``scale.cold_cycles`` load-and-answer
#: cycles) at the reference run length
REPS = 3


def make_inputs(seed: int, scale: inputs.Scale):
    corpus = inputs.mirror_corpus(seed, "cold", scale.cold_sites,
                                  scale.cold_records, scale.vocabulary)
    pool = inputs.query_pool(corpus, scale.cold_first + scale.cold_pool)
    return corpus, pool[:scale.cold_first], pool[scale.cold_first:]


def plan(cycle: int, firsts, pool, scale):
    """Cycle -> ``(codec, first query, warm queries)``.  Codecs
    alternate; each pair of cycles takes the next first query and the
    next window of the warm pool, so the pooled latencies cover many
    distinct queries.  The raw-loaded index answers the first quarter
    of the window only: its warm queries count towards ``ops_per_s``
    and the equivalence check, not towards the latency metrics."""
    pair = cycle // 2
    short = CODECS[cycle % 2][0]
    start = pair * scale.cold_warm % len(pool)
    width = scale.cold_warm if short == "dag" else scale.cold_warm // 4
    return (short, firsts[pair % len(firsts)],
            (pool + pool)[start:start + width])


def is_top_k(slot: int) -> bool:
    """Warm slot -> kind: searches and top-ks alternate."""
    return slot % 2 == 1


def ask(index, spec, top_k: bool):
    """One query against a loaded (or freshly built) index, through the
    public stage functions: a saved index needs no repository."""
    query = Query.parse(spec.text, s=spec.s, analyzer=index.analyzer)
    if top_k:
        return search_top_k(index, query, common.TOP_K)
    return search(index, query)


def set_up(corpus, directory) -> tuple:
    """Parse, build, save once per codec; returns
    ``(repository, index, {short codec name: path}, save seconds)``."""
    directory.mkdir(parents=True, exist_ok=True)
    repository = Repository.from_texts(corpus.texts)
    index = build_index(repository)
    paths, save_s = {}, {}
    for short, codec in CODECS:
        paths[short] = directory / f"corpus-{short}.gksindex"
        _, save_s[short] = L.timed(save_index, index, paths[short],
                                   codec=codec)
    return repository, index, paths, save_s


def check_reference(repository, index, answers, scale, checker) -> None:
    """Every distinct answer from a loaded index against the index
    still in memory (the monolithic reference), plus the soundness
    sample."""
    expected = {}
    for (short, spec, top_k), got in answers.items():
        if (spec, top_k) not in expected:
            expected[spec, top_k] = common.answer(
                ask(index, spec, top_k).nodes)
        checker.expect(got == expected[spec, top_k],
                       f"{common.query_key(spec, top_k)}: the {short}-loaded "
                       "index answers differently from the in-memory index")
    specs = oracle.sample([spec for spec, top_k in expected if not top_k],
                          scale.sample)
    oracle.check_sound(repository, index.analyzer, specs,
                       lambda spec: expected[spec, False], checker)


def run(seed: int, scale: inputs.Scale, seconds: float,
        checker: common.Checker) -> dict:
    corpus, firsts, pool = make_inputs(seed, scale)
    directory = common.OUT_DIR / f"cold-{os.getpid()}"
    meter = common.Meter()
    reps = []
    answers: dict[tuple, tuple] = {}
    try:
        for _ in range(common.repetitions(REPS, seconds)):
            shutil.rmtree(directory, ignore_errors=True)
            repository = index = None
            gc.collect()
            repository, index, paths, _ = meter.time(
                "setup", set_up, corpus, directory, long=True)
            for cycle in range(scale.cold_cycles):
                short, first, warms = plan(cycle, firsts, pool, scale)
                loaded = meter.time(f"load.{short}", load_index,
                                    paths[short], long=True)
                asked = [(f"first.{short}", first, False)]
                asked += [(f"{'topk' if is_top_k(slot) else 'search'}.{short}",
                           spec, is_top_k(slot))
                          for slot, spec in enumerate(warms)]
                for kind, spec, top_k in asked:
                    response = meter.time(kind, ask, loaded, spec, top_k)
                    if short == "dag":
                        checker.answered(common.query_key(spec, top_k),
                                         response.nodes)
                    answers.setdefault((short, spec, top_k),
                                       common.answer(response.nodes))
                del loaded, response
                gc.collect()
            rep = meter.take()
            rep["cold"] = [load + first for load, first
                           in zip(rep["load.dag"], rep["first.dag"])]
            reps.append(rep)
        rss = common.peak_rss_mb()
        kinds = tuple(kind for kind in reps[0]
                      if kind not in ("setup", "cold"))
        checker.ops(len(reps) * sum(len(reps[0][kind]) for kind in kinds))
        check_reference(repository, index, answers, scale, checker)
        nodes = repository.total_nodes
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return dict(common.end_to_end(reps, rss, queries=("search.dag",),
                                  topks=("topk.dag",), ops=kinds),
                corpus={"documents": len(corpus.texts), "nodes": nodes,
                        "xml_bytes": corpus.xml_bytes})


def trace(seed: int, scale: inputs.Scale, seconds: float,
          checker: common.Checker) -> dict:
    """Per-layer pass: spans around ``save_index``, ``load_index``, the
    first query and the warm queries, per codec; warm searches are also
    replayed stage by stage on the loaded index (the replay finds the
    postings already decoded, so what ``trace.coverage`` leaves
    uncovered here is mostly decode work)."""
    corpus, firsts, pool = make_inputs(seed, scale)
    layers = L.zero_layers()
    spans = common.Spans()
    directory = common.OUT_DIR / f"cold-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    totals = L.PipelineTotals()
    loads = {short: [] for short, _ in CODECS}
    first_s = {short: [] for short, _ in CODECS}
    warm_s = {short: [] for short, _ in CODECS}
    overhead = L.Overhead(spans)
    try:
        spans.new_op()
        with spans.span("setup") as root:
            repository, index, paths, save_s = set_up(corpus, directory)
        L.build_layers(spans, root, corpus, 1, layers)
        for short, _ in CODECS:
            spans.add(f"index.storage.save.{short}", save_s[short], root)
            layers[f"index.storage.save_s.{short}"] = save_s[short]
            layers[f"index.codec.bytes.{short}"] = float(
                paths[short].stat().st_size)
        layers["index.codec.bytes_per_user_byte.dag"] = (
            paths["dag"].stat().st_size / corpus.xml_bytes)

        for cycle in range(scale.cold_cycles):
            short, first, warms = plan(cycle, firsts, pool, scale)
            spans.new_op()
            with spans.span(f"cold_answer.{short}"):
                with spans.span(f"index.storage.load.{short}") as span:
                    loaded = load_index(paths[short])
                loads[short].append(span.seconds)
                with spans.span(f"index.codec.first_query.{short}") as span:
                    ask(loaded, first, False)
                first_s[short].append(span.seconds)
            for slot, spec in enumerate(warms):
                top_k = is_top_k(slot)
                spans.new_op()
                with spans.span(f"warm_query.{short}") as span:
                    response = ask(loaded, spec, top_k)
                warm_s[short].append(span.seconds)
                if top_k:
                    continue
                query = Query.parse(spec.text, s=spec.s,
                                    analyzer=loaded.analyzer)
                nodes, _ = totals.replay(spans, span, loaded, query)
                checker.expect(
                    common.answer(nodes) == common.answer(response.nodes),
                    f"{spec.text}: stage-by-stage replay on the "
                    f"{short}-loaded index differs from search()")
            for slot, spec in enumerate(warms):
                overhead.both("loop.op",
                              lambda: ask(loaded, spec, is_top_k(slot)))
            del loaded
            gc.collect()
        nodes_total = repository.total_nodes
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    totals.into(layers)
    for short, _ in CODECS:
        layers[f"index.storage.load_ms.{short}"] = common.ms(
            common.median(loads[short]))
        layers[f"index.codec.first_query_ms.{short}"] = common.ms(
            common.median(first_s[short]))
        layers[f"index.codec.warm_query_ms.{short}"] = common.ms(
            common.median(warm_s[short]))
    layers["trace.coverage"] = spans.coverage()
    layers["trace.overhead"] = overhead.ratio
    checker.ops(sum(len(v) for v in warm_s.values()))
    spans.write("cold_open", seed, scale.label)
    return {"metrics": layers,
            "corpus": {"documents": len(corpus.texts), "nodes": nodes_total,
                       "xml_bytes": corpus.xml_bytes}}
