"""Workload ``ingest_mixed``: writes beside reads on a durable store.

A two-shard segmented store (``memtable_docs=8``,
``compact_segments=4``, response cache off; the WAL fsyncs every
append) is initialised from a mirror corpus, then fed ~10 KB
documents, one ``add_document`` to two reads, on one thread.  The
store directory is then byte-copied *without* ``close()`` and the copy
recovered; the whole is repeated on a fresh store.  WAL, memtable
flush, compaction, reads over stacked segments and recovery do the
work.

The copy is read through the OS page cache: it proves every
acknowledged write reached the store's files, not that it reached a
device.
"""

from __future__ import annotations

import gc
import os
import shutil

from repro.api import EngineConfig, GKSEngine, Texts
from repro.core.durable import build_unit
from repro.core.scatter import sharded_search
from repro.index.segments import read_manifest
from repro.index.wal import WriteAheadLog
from repro.xmltree.parser import parse_document

import common
import inputs
import layers as L
import oracle

SHARDS = 2
MEMTABLE_DOCS = 8
COMPACT_SEGMENTS = 4
#: TAIL_DOCS stay in the memtable, so recovery has a WAL tail to replay
TAIL_DOCS = 4
#: fresh stores (each fed ``scale.feed_docs + TAIL_DOCS`` documents,
#: crashed and recovered) at the reference run length
REPS = 3
#: the traced pass feeds one store this many times ``scale.feed_docs``,
#: so it sees several compaction cycles
TRACE_FEEDS = 3


def make_inputs(seed: int, scale: inputs.Scale, feeds: int = 1):
    corpus = inputs.mirror_corpus(seed, "ingest", scale.ingest_sites,
                                  scale.ingest_records, scale.vocabulary)
    pool = inputs.query_pool(corpus, scale.ingest_pool)
    count = feeds * scale.feed_docs + TAIL_DOCS
    return corpus, pool, inputs.feed_documents(seed, count, scale)


def config_for(directory, **overrides) -> EngineConfig:
    return EngineConfig(store_path=directory, shards=SHARDS,
                        memtable_docs=MEMTABLE_DOCS,
                        compact_segments=COMPACT_SEGMENTS,
                        cache_size=0).replace(**overrides)


def reads_after(number: int, pool):
    """The two reads that follow fed document *number*: a search, then
    a top-k."""
    first = pool[(2 * number) % len(pool)]
    second = pool[(2 * number + 1) % len(pool)]
    return ((first, False), (second, True))


def ask(engine, spec, top_k: bool):
    if top_k:
        return engine.search_top_k(spec.text, k=common.TOP_K, s=spec.s)
    return engine.search(spec.text, s=spec.s, use_cache=False)


def key_of(docs: int, spec, top_k: bool) -> str:
    """Answers depend on how many documents the store holds."""
    return f"docs={docs}|{common.query_key(spec, top_k)}"


def directory_bytes(directory) -> int:
    return sum(entry.stat().st_size for entry in directory.rglob("*")
               if entry.is_file())


def check_durable(recovered, base_docs: int, feed, pending: int,
                  checker) -> None:
    """Every acknowledged document is in the recovered store and found
    by its guid."""
    checker.expect(
        len(recovered.repository) == base_docs + len(feed),
        f"recovered {len(recovered.repository)} documents, "
        f"acknowledged {base_docs + len(feed)} ({pending} in the WAL)")
    for document in feed:
        found = recovered.search(document.guid, use_cache=False).nodes
        checker.expect(bool(found),
                       f"lost write: {document.name} ({document.guid}) "
                       "not found after recovery")


def check_rebuilt(recovered, corpus, feed, pool, scale, checker) -> None:
    """The recovered engine answers like a fresh monolithic rebuild of
    base + fed documents (which is also checked for soundness)."""
    rebuilt = GKSEngine.open(
        Texts(corpus.texts + tuple(d.text for d in feed)),
        EngineConfig(cache_size=0))
    specs = oracle.sample(pool, scale.sample)
    expected = {}
    for spec in specs:
        for top_k in (False, True):
            expected[spec, top_k] = common.answer(
                ask(rebuilt, spec, top_k).nodes)
            checker.expect(
                common.answer(ask(recovered, spec, top_k).nodes)
                == expected[spec, top_k],
                f"{key_of(len(rebuilt.repository), spec, top_k)}: the "
                "recovered store answers differently from a fresh rebuild")
    oracle.check_sound(rebuilt.repository, rebuilt.analyzer, specs,
                       lambda spec: expected[spec, False], checker)


def run(seed: int, scale: inputs.Scale, seconds: float,
        checker: common.Checker) -> dict:
    corpus, pool, feed = make_inputs(seed, scale)
    root = common.OUT_DIR / f"ingest-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    base_docs = len(corpus.texts)
    meter = common.Meter()
    reps = []
    engine = recovered = None
    try:
        count = common.repetitions(REPS, seconds)
        for number in range(count):
            gc.collect()
            store = root / f"store-{number}"
            engine = meter.time("setup", GKSEngine.open, Texts(corpus.texts),
                                config_for(store), long=True)
            for position, document in enumerate(feed):
                info = meter.time("add", engine.add_document, document.text,
                                  name=document.name)
                checker.expect(info["doc_id"] == base_docs + position,
                               f"{document.name}: acknowledged as document "
                               f"{info['doc_id']}")
                for spec, top_k in reads_after(position, pool):
                    response = meter.time("topk" if top_k else "search", ask,
                                          engine, spec, top_k)
                    checker.answered(
                        key_of(base_docs + position + 1, spec, top_k),
                        response.nodes)
            # the crash: copy the files as they are, then let go
            crash = root / f"crash-{number}"
            shutil.copytree(store, crash)
            engine.close()
            engine = None
            gc.collect()
            recovered = meter.time("recover", GKSEngine.open,
                                   Texts(corpus.texts), config_for(crash),
                                   long=True)
            meter.time("first", ask, recovered, pool[0], False)
            rep = meter.take()
            rep["cold"] = [rep["recover"][0] + rep["first"][0]]
            reps.append(rep)
            check_durable(recovered, base_docs, feed, info["pending"], checker)
            if number == count - 1:
                check_rebuilt(recovered, corpus, feed, pool, scale, checker)
            recovered.close()
            recovered = None
            shutil.rmtree(store)
            shutil.rmtree(crash)
        rss = common.peak_rss_mb()
    finally:
        for opened in (engine, recovered):
            if opened is not None:
                opened.close()
        shutil.rmtree(root, ignore_errors=True)
    checker.ops(len(reps) * (3 * len(feed) + 1))
    return dict(common.end_to_end(reps, rss, queries=("search", "topk"),
                                  topks=("topk",),
                                  ops=("add", "search", "topk")),
                corpus={"documents": base_docs + len(feed),
                        "xml_bytes": corpus.xml_bytes
                        + sum(len(d.text.encode()) for d in feed)})


def _files(directory) -> dict[str, int]:
    return {str(entry): entry.stat().st_size
            for entry in directory.rglob("*") if entry.is_file()}


def _written(before: dict[str, int], after: dict[str, int]) -> int:
    """Bytes an operation wrote, from the store's file sizes around it:
    new files whole, grown files by their growth (the WAL appends),
    shrunk files whole (they were rewritten)."""
    total = 0
    for name, size in after.items():
        old = before.get(name)
        if old is None or size < old:
            total += size
        else:
            total += size - old
    return total


def trace(seed: int, scale: inputs.Scale, seconds: float,
          checker: common.Checker) -> dict:
    """Per-layer pass.  The engine is opened with the automatic flush
    and compaction thresholds out of reach and the same policy is
    applied from here — ``flush()`` every ``MEMTABLE_DOCS`` documents,
    ``compact()`` when a shard's chain reaches ``COMPACT_SEGMENTS`` —
    so each call gets its own span.  A write op is the add plus
    whatever flush and compaction it triggers, which is what the
    automatic policy makes the caller of ``add_document`` wait for."""
    corpus, pool, feed = make_inputs(seed, scale, TRACE_FEEDS)
    layers = L.zero_layers()
    spans = common.Spans()
    root_dir = common.OUT_DIR / f"ingest-{os.getpid()}"
    shutil.rmtree(root_dir, ignore_errors=True)
    root_dir.mkdir(parents=True)
    store = root_dir / "store"
    manual = {"memtable_docs": 10 ** 9, "compact_segments": 10 ** 9}
    totals = L.PipelineTotals()
    writes, flushes, compactions, wal_s, unit_s, parse_s = ([] for _ in
                                                            range(6))
    reads, scatter = [], []
    written = user_bytes = shards_hit = 0
    overhead = L.Overhead(spans)
    engine = None
    try:
        spans.new_op()
        with spans.span("setup") as root:
            engine = GKSEngine.open(Texts(corpus.texts),
                                    config_for(store, **manual))
        L.build_layers(spans, root, corpus, SHARDS, layers)
        wal = WriteAheadLog.create(root_dir / "replay.wal")
        base_docs = len(corpus.texts)
        for number, document in enumerate(feed):
            before = _files(store)
            spans.new_op()
            with spans.span("write") as write:
                with spans.span("core.engine.add_document") as add:
                    engine.add_document(document.text, name=document.name)
                if (number + 1) % MEMTABLE_DOCS == 0:
                    with spans.span("index.segments.flush") as span:
                        engine.flush()
                    flushes.append(span.seconds)
                    chains: dict[int, int] = {}
                    for segment in read_manifest(store).segments:
                        chains[segment.shard_id] = chains.get(
                            segment.shard_id, 0) + 1
                    if max(chains.values()) >= COMPACT_SEGMENTS:
                        with spans.span("index.segments.compact") as span:
                            engine.compact()
                        compactions.append(span.seconds)
            writes.append(write.seconds)
            written += _written(before, _files(store))
            user_bytes += len(document.text.encode())
            # the add's inner layers, replayed on the same document
            parsed, seconds_parse = L.timed(
                parse_document, document.text, doc_id=base_docs + number,
                attributes_as_children=True, name=document.name)
            spans.add("xmltree.parser", seconds_parse, add)
            _, seconds_wal = L.timed(wal.append, {
                "op": "add", "doc_id": base_docs + number,
                "name": document.name, "text": document.text})
            spans.add("index.wal", seconds_wal, add)
            _, seconds_unit = L.timed(build_unit, parsed, engine.analyzer,
                                      True)
            spans.add("index.builder.unit", seconds_unit, add)
            parse_s.append(seconds_parse)
            wal_s.append(seconds_wal)
            unit_s.append(seconds_unit)

            for spec, top_k in reads_after(number, pool):
                response, read = overhead.both(
                    "read", lambda: ask(engine, spec, top_k))
                reads.append(read.seconds)
                if top_k:
                    continue
                query = engine.parse_query(spec.text, s=spec.s)
                _, scatter_s = L.timed(sharded_search, engine.index, query)
                in_scatter = spans.add("core.scatter", scatter_s, read)
                assembled, shards_s, hit = totals.replay_shards(
                    spans, in_scatter, engine.index, query)
                shards_hit += hit
                checker.expect(
                    common.answer(assembled)
                    == common.answer(response.nodes),
                    f"{spec.text}: per-shard stage replay over the "
                    "stacked store differs from search()")
                scatter.append(scatter_s - shards_s)
        layers["index.wal.bytes"] = float(
            wal.path.stat().st_size)
        wal.close()
        store_bytes = directory_bytes(store)

        crash = root_dir / "crash"
        shutil.copytree(store, crash)
        engine.close()
        engine = None
        spans.new_op()
        with spans.span("core.durable.recover") as span:
            recovered = GKSEngine.open(Texts(corpus.texts),
                                       config_for(crash, **manual))
        layers["core.durable.recover_s"] = span.seconds
        layers["core.durable.replayed_docs"] = float(
            len(recovered.repository) - len(read_manifest(crash)
                                            .document_names))
        checker.expect(len(recovered.repository) == base_docs + len(feed),
                       f"recovered {len(recovered.repository)} documents, "
                       f"acknowledged {base_docs + len(feed)}")
        recovered.close()
    finally:
        if engine is not None:
            engine.close()
        shutil.rmtree(root_dir, ignore_errors=True)
    totals.into(layers)
    slowest = sorted(writes)[-max(1, len(writes) // 20):]
    layers["core.engine.add_p50_ms"] = common.ms(common.median(writes))
    layers["core.engine.add_stall_ms"] = common.ms(
        sum(slowest) / len(slowest))
    layers["core.engine.add_docs_per_s"] = len(writes) / (
        sum(writes) + sum(reads))
    layers["xmltree.parser.parse_s"] = sum(parse_s)
    layers["index.builder.unit_build_ms"] = common.ms(common.median(unit_s))
    layers["index.wal.append_ms"] = common.ms(common.median(wal_s))
    layers["index.segments.flush_ms"] = common.ms(common.median(flushes))
    layers["index.segments.flushes"] = float(len(flushes))
    layers["index.segments.compact_ms"] = common.ms(
        common.median(compactions))
    layers["index.segments.compactions"] = float(len(compactions))
    layers["index.segments.bytes_written_per_user_byte"] = (
        written / user_bytes)
    layers["index.segments.store_bytes_per_user_byte"] = store_bytes / (
        corpus.xml_bytes + user_bytes)
    layers["core.scatter.overhead_ms"] = common.ms(common.median(scatter))
    layers["core.scatter.shards_hit"] = float(shards_hit)
    layers["trace.coverage"] = spans.coverage()
    layers["trace.overhead"] = overhead.ratio
    checker.ops(len(writes) + len(reads))
    spans.write("ingest_mixed", seed, scale.label)
    return {"metrics": layers,
            "corpus": {"documents": base_docs + len(feed),
                       "xml_bytes": corpus.xml_bytes + user_bytes}}
