"""Incremental maintenance: document-disjoint units compose exactly.

Appending a document never touches existing entries — its postings and
hash keys all start with its document number — so an index grown one
unit at a time must equal a from-scratch build over the same corpus,
whichever way the units are currently grouped (memtable, merged runs,
compacted chains; with a store or without; one shard or several).
"""

import shutil

import pytest

from repro.core.config import EngineConfig, Texts
from repro.core.durable import build_unit
from repro.core.engine import GKSEngine
from repro.core.query import Query
from repro.core.search import search
from repro.index.builder import build_index
from repro.index.composite import CompositeIndex, merge_indexes
from repro.index.postings import DERIVED_LISTS_CACHED
from repro.text.analyzer import DEFAULT_ANALYZER
from repro.xmltree.parser import parse_document
from repro.xmltree.repository import Repository

DOC0 = "<r><a>karen</a><b>mike</b></r>"
DOC1 = "<r><a>karen</a><c>zoe</c></r>"

BASE = [
    "<bib><paper><author>Peter Buneman</author>"
    "<title>keyword search</title></paper></bib>",
    "<bib><paper><author>Wenfei Fan</author>"
    "<title>graph search</title></paper></bib>",
]
FEED = [
    f"<bib><paper><author>Author{i} Buneman</author>"
    f"<title>keyword paper {i} search</title></paper>"
    f"<book><title>graph {i}</title></book></bib>"
    for i in range(9)
]
QUERIES = ["keyword", "keyword search", "buneman fan", "graph paper author3",
           '"keyword search"']
COUNTERS = ("documents", "total_nodes", "attribute_nodes", "entity_nodes",
            "repeating_nodes", "connecting_nodes", "text_keywords",
            "tag_keywords", "max_depth")


def fresh_index(*texts):
    return build_index(Repository.from_texts(list(texts)))


def runs_with(index, text):
    """The runs of *index* plus *text* indexed as the next document."""
    count = len(index.document_names)
    unit = build_unit(parse_document(text, doc_id=count),
                      DEFAULT_ANALYZER, True)
    return [(tuple(range(count)), index), ((count,), unit)]


def _answers(engine):
    out = []
    for raw in QUERIES:
        for response in (engine.search(raw, use_cache=False),
                         engine.search(raw, s=2, use_cache=False),
                         engine.search_top_k(raw, 3)):
            out.append([(node.dewey, node.score, node.matched_keywords,
                         node.is_lce) for node in response.nodes])
    return out


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("store", [False, True], ids=["memory", "store"])
def test_every_add_equals_a_rebuild(tmp_path, store, shards):
    """After every add — through memtable, flushes and compactions — the
    serving index is the from-scratch index and answers like a monolithic
    engine over the same corpus."""
    engine = GKSEngine.open(Texts(BASE), config=EngineConfig(
        shards=shards, memtable_docs=2, compact_segments=2, cache_size=0,
        store_path=tmp_path / "store" if store else None))
    for position, text in enumerate(FEED):
        info = engine.add_document(text, name=f"feed{position}.xml")
        assert set(info) == {"doc_id", "name", "generation", "pending",
                             "flushed"} | ({"lsn", "durable"} if store
                                           else set())
        assert info["doc_id"] == len(BASE) + position

        corpus = BASE + FEED[:position + 1]
        rebuilt = fresh_index(*corpus)
        served = engine.index
        assert dict(served.inverted.items()) == \
            dict(rebuilt.inverted.items())
        assert served.hashes.entity_table == rebuilt.hashes.entity_table
        assert served.hashes.element_table == rebuilt.hashes.element_table
        for counter in COUNTERS:
            assert getattr(served.stats, counter) == \
                getattr(rebuilt.stats, counter), counter
        assert served.document_names == tuple(
            document.name for document in engine.repository)
        assert _answers(engine) == _answers(
            GKSEngine.open(Texts(corpus), config=EngineConfig(cache_size=0)))
    maintenance = [span.name for span in engine.recent_traces()]
    assert maintenance.count("flush") >= 4
    assert maintenance.count("compact") >= 2
    engine.close()


class TestAppend:
    def test_appended_index_equals_batch_index(self):
        incremental = merge_indexes(runs_with(fresh_index(DOC0), DOC1))
        batch = fresh_index(DOC0, DOC1)
        assert dict(incremental.inverted.items()) == \
            dict(batch.inverted.items())
        assert incremental.hashes.entity_table == \
            batch.hashes.entity_table
        assert incremental.hashes.element_table == \
            batch.hashes.element_table
        assert incremental.document_names == batch.document_names

    def test_search_after_append(self):
        index = CompositeIndex(runs_with(fresh_index(DOC0), DOC1))
        response = search(index, Query.of(["karen"], s=1))
        docs = {node.dewey[0] for node in response}
        assert docs == {0, 1}

    def test_stats_continue(self):
        index = fresh_index(DOC0)
        before = index.stats.total_nodes
        index = merge_indexes(runs_with(index, DOC1))
        assert index.stats.documents == 2
        assert index.stats.total_nodes > before


class TestEngineMaintenance:
    def test_engine_add_document_end_to_end(self):
        engine = GKSEngine(Repository.from_texts([DOC0]))
        assert len(engine.search("zoe")) == 0
        engine.add_document(DOC1, name="update.xml")
        response = engine.search("zoe")
        assert len(response) == 1
        assert response[0].dewey[0] == 1
        # snippets resolve against the updated repository
        assert "zoe" in engine.snippet(response[0])

    def test_derived_list_caches_stay_bounded(self, tmp_path):
        """Client-chosen keywords cannot grow an index's caches: the
        phrase intersections of a plain index and the merged lists of a
        store's composite both keep the last ``DERIVED_LISTS_CACHED``."""
        plain = GKSEngine.open(Texts(BASE), EngineConfig(cache_size=0))
        store = GKSEngine.open(Texts(BASE[:1]), EngineConfig(
            store_path=tmp_path / "store", memtable_docs=8, cache_size=0))
        try:
            store.add_document(BASE[1])
            assert isinstance(store.index, CompositeIndex)
            probes = ('"peter buneman" keyword', "buneman search")
            before = [[(n.dewey, n.score) for n in engine.search(probe)]
                      for engine in (plain, store) for probe in probes]
            for i in range(DERIVED_LISTS_CACHED + 20):
                plain.search(f'"peter w{i}" keyword')
                store.search(f"zz{i} keyword")
            assert len(plain.index._phrase_cache) <= DERIVED_LISTS_CACHED
            assert len(store.index._postings_cache) <= DERIVED_LISTS_CACHED
            after = [[(n.dewey, n.score) for n in engine.search(probe)]
                     for engine in (plain, store) for probe in probes]
            assert after == before and all(before)
        finally:
            store.close()

    def test_phrase_cache_not_stale_after_append(self):
        engine = GKSEngine(Repository.from_texts([DOC0]))
        # warm the phrase cache: karen and mike sit in *different*
        # elements of DOC0, so the phrase matches nothing yet
        assert engine.search('"karen mike"').deweys == []
        engine.add_document("<r><e>karen mike</e></r>")
        response = engine.search('"karen mike"')
        assert {node.dewey[0] for node in response} == {1}


class TestOneLayoutPerFamily:
    """Every unit of an engine packs its ids under one Dewey layout; a
    document that outgrows it re-lays the family out once
    (``gks_dewey_relayouts_total``)."""

    @staticmethod
    def _relayouts() -> int:
        from repro.obs.metrics import global_registry

        return global_registry().counter(
            "gks_dewey_relayouts_total").total()

    @staticmethod
    def _gksbench_inputs():
        import importlib.util
        import sys
        from pathlib import Path

        path = (Path(__file__).resolve().parent.parent / "benchmarks"
                / "gksbench" / "inputs.py")
        spec = importlib.util.spec_from_file_location("gksbench_inputs",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        sys.modules.setdefault(spec.name, module)  # its dataclasses need it
        spec.loader.exec_module(module)
        return module

    def test_an_ingest_shaped_feed_never_relays(self, tmp_path):
        inputs = self._gksbench_inputs()
        scale = inputs.FULL
        corpus = inputs.mirror_corpus(0, "ingest", scale.ingest_sites,
                                      scale.ingest_records, scale.vocabulary)
        feed = inputs.feed_documents(0, 36, scale)
        before = self._relayouts()
        engine = GKSEngine.open(Texts(corpus.texts), EngineConfig(
            shards=2, store_path=tmp_path / "store", memtable_docs=8,
            cache_size=0))
        try:
            layout = engine.index.layout
            for document in feed:
                engine.add_document(document.text, name=document.name)
            assert self._relayouts() == before
            assert engine.index.layout == layout
        finally:
            engine.close()

    @pytest.mark.parametrize("store", [False, True])
    def test_a_deeper_document_relays_once(self, store, tmp_path):
        deeper = "<bib><x><y><z><w><v>keyword deep</v></w></z></y></x></bib>"
        wider = ("<bib>" + "<paper><title>keyword wide</title></paper>" * 40
                 + "</bib>")
        config = EngineConfig(shards=2, memtable_docs=3, cache_size=0,
                              store_path=tmp_path / "store" if store
                              else None)
        engine = GKSEngine.open(Texts(BASE), config)
        try:
            for text in FEED[:4]:
                engine.add_document(text)
            layout = engine.index.layout
            before = self._relayouts()
            engine.add_document(deeper)
            assert self._relayouts() == before + 1
            assert engine.index.layout != layout
            engine.add_document(wider)
            assert self._relayouts() == before + 2
            texts = BASE + FEED[:4] + [deeper, wider]
            rebuilt = GKSEngine.open(Texts(texts), EngineConfig(
                cache_size=0))
            for raw in QUERIES + ["deep keyword", "wide"]:
                for s in (1, 2):
                    got = engine.search(raw, s=s)
                    want = rebuilt.search(raw, s=s)
                    assert [(node.dewey, node.score.hex())
                            for node in got.nodes] == \
                        [(node.dewey, node.score.hex())
                         for node in want.nodes]
        finally:
            engine.close()

    def test_recovery_after_a_relayout_answers_like_a_rebuild(self,
                                                              tmp_path):
        deeper = "<bib><x><y><z><w><v>keyword deep</v></w></z></y></x></bib>"
        config = EngineConfig(shards=2, memtable_docs=2, cache_size=0,
                              store_path=tmp_path / "store")
        engine = GKSEngine.open(Texts(BASE), config)
        try:
            for text in FEED[:3] + [deeper]:  # a flush, then a WAL tail
                engine.add_document(text)
        finally:
            engine.close()
        reopened = GKSEngine.open(Texts(BASE), config)
        try:
            rebuilt = GKSEngine.open(Texts(BASE + FEED[:3] + [deeper]),
                                     EngineConfig(cache_size=0))
            for raw in QUERIES + ["deep keyword"]:
                got = reopened.search(raw, s=1)
                want = rebuilt.search(raw, s=1)
                assert [(node.dewey, node.score.hex()) for node in got] \
                    == [(node.dewey, node.score.hex()) for node in want]
        finally:
            reopened.close()

    def test_recovery_admits_like_a_live_add(self, tmp_path):
        """WAL recovery and a live add share one admit step: a crash copy
        of a store, recovered, holds the live write path's memtable,
        layout and chains, and answers alike."""
        deeper = "<bib><x><y><z><w><v>keyword deep</v></w></z></y></x></bib>"
        config = EngineConfig(shards=2, memtable_docs=3, cache_size=0,
                              store_path=tmp_path / "store")
        live = GKSEngine.open(Texts(BASE), config)
        try:
            for i, text in enumerate(FEED[:3]):  # one flush
                live.add_document(text, name=f"feed{i}.xml")
            # the WAL tail: a document that outgrows the layout between
            # two that do not
            live.add_document(FEED[3], name="feed3.xml")
            layout = live._writes.layout
            live.add_document(deeper)
            assert live._writes.layout != layout
            assert len(live._writes.pending) == 2
            # the directory as a kill -9 leaves it: no close()
            shutil.copytree(tmp_path / "store", tmp_path / "crashed")
            recovered = GKSEngine.open(Texts(BASE), config.replace(
                store_path=tmp_path / "crashed"))
            try:
                def state(engine):
                    writes = engine._writes
                    return ([(doc.doc_id, doc.shard_id, doc.lsn, doc.name)
                             for doc in writes.pending],
                            writes.layout,
                            {shard_id: [doc_ids for doc_ids, _ in chain]
                             for shard_id, chain in writes.chains.items()})

                assert state(recovered) == state(live)
                for raw in QUERIES + ["deep keyword"]:
                    got = recovered.search(raw, s=1)
                    want = live.search(raw, s=1)
                    assert [(node.dewey, node.score.hex())
                            for node in got.nodes] == \
                        [(node.dewey, node.score.hex())
                         for node in want.nodes]
            finally:
                recovered.close()
        finally:
            live.close()
