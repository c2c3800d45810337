"""Parse when it will build, check when it will load.

An open whose index is already on disk (a store manifest) only checks
its texts for well-formedness and builds each tree
on first read.  The bar: a checked document is a parsed document — the
same tree, the same error, the same quarantine — and an index on disk is
never served for a corpus whose texts differ from the ones it was built
over.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import pytest

from repro.core.config import EngineConfig, Paths, Texts
from repro.core.engine import GKSEngine
from repro.datasets.registry import load_dataset
from repro.errors import StorageError, XMLSyntaxError
from repro.index.segments import (file_crc32, read_manifest,
                                  write_manifest)
from repro.index.storage import atomic_write_json_gz, read_json_gz
from repro.obs.metrics import global_registry
from repro.obs.trace import Tracer
from repro.xmltree.parser import RecoveryPolicy, parse_document
from repro.xmltree.repository import (Repository, TextCheck,
                                      ingest_document, text_sources)
from repro.xmltree.serialize import serialize_document
from tests.reference_scanner import tree_outcome
from tests.test_parser_conformance import MALFORMED, WELL_FORMED

BOOKS = [f"<book><title>alpha entry {n}</title><author>karen</author>"
         f"</book>" for n in range(4)]


def _trees_built() -> float:
    return global_registry().counter(
        "gks_ingest_deferred_trees_total").value()


def _checked(text: str, attributes_as_children: bool = True):
    return ingest_document(text, 0, builder=TextCheck,
                           attributes_as_children=attributes_as_children)


def _failures(repository: Repository) -> list[tuple]:
    return [(failure.name, failure.position, str(failure.error))
            for failure in repository.quarantine]


def _corpus_texts(name: str) -> list[str]:
    return [serialize_document(document, declaration=False)
            for document in load_dataset(name)]


class TestCheckedIsParsed:
    @pytest.mark.parametrize("as_children", [True, False])
    @pytest.mark.parametrize("text", WELL_FORMED + MALFORMED)
    def test_battery(self, text, as_children):
        assert tree_outcome(
            lambda source: _checked(source, as_children), text) == \
            tree_outcome(lambda source: parse_document(
                source, attributes_as_children=as_children), text)

    @pytest.mark.parametrize("as_children", [True, False])
    @pytest.mark.parametrize("name", ["protein", "mirrors"])
    def test_generated_corpora(self, name, as_children):
        for text in _corpus_texts(name):
            assert tree_outcome(
                lambda source: _checked(source, as_children), text) == \
                tree_outcome(lambda source: parse_document(
                    source, attributes_as_children=as_children), text)

    def test_a_checked_document_keeps_its_text_until_first_read(self):
        document = _checked(BOOKS[0])
        assert not document.parsed
        assert document.doc_id == 0 and document.name == "doc0"
        before = _trees_built()
        root = document.root
        assert document.parsed and document.root is root
        assert _trees_built() == before + 1

    def test_concurrent_first_reads_build_one_tree(self):
        document = _checked(_corpus_texts("mirrors")[0])
        before = _trees_built()
        roots, start = [], threading.Barrier(8)

        def read():
            start.wait()
            roots.append(document.root)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(roots) == 8 and len({id(root) for root in roots}) == 1
        assert _trees_built() == before + 1

    def test_skip_document_quarantines_the_same_documents(self):
        texts = [BOOKS[0], *MALFORMED[:8], BOOKS[1]]
        policy = RecoveryPolicy.SKIP_DOCUMENT
        parsed = Repository.from_texts(texts, policy=policy)
        checked = Repository()
        checked.ingest(text_sources(texts), policy, TextCheck)
        assert _failures(checked) == _failures(parsed)
        assert [d.name for d in checked] == [d.name for d in parsed]
        assert not any(document.parsed for document in checked)

    def test_open_over_a_store_quarantines_as_a_parse_does(self,
                                                           tmp_path):
        texts = Texts([BOOKS[0], "<a><b></a>", BOOKS[1]])
        config = EngineConfig(store_path=tmp_path / "store",
                              recovery="skip_document")
        fresh = GKSEngine.open(texts, config)
        fresh.close()
        tracer = Tracer()
        reopened = GKSEngine.open(texts, config, tracer=tracer)
        reopened.close()
        assert tracer.roots[-1].find("parse").attributes == {
            "documents": 2, "checked": 2, "parsed": 0}
        assert _failures(reopened.repository) == \
            _failures(fresh.repository)
        with pytest.raises(XMLSyntaxError) as strict:
            GKSEngine.open(texts, config.replace(recovery="strict"))
        with pytest.raises(XMLSyntaxError) as parsed:
            parse_document(texts[1])
        assert (strict.value.message, strict.value.offset) == \
            (parsed.value.message, parsed.value.offset)

    def test_salvage_still_parses(self, tmp_path):
        (tmp_path / "a.xml").write_text(BOOKS[0], encoding="utf-8")
        (tmp_path / "b.xml").write_text(BOOKS[1], encoding="utf-8")
        paths = Paths([tmp_path / "a.xml", tmp_path / "b.xml"])
        config = EngineConfig(store_path=tmp_path / "store")
        GKSEngine.open(paths, config).close()
        engine = GKSEngine.open(paths, config)
        engine.close()
        assert [d.parsed for d in engine.repository] == [False, False]
        salvaged = GKSEngine.open(paths, config.replace(recovery="salvage"))
        salvaged.close()
        assert all(document.parsed for document in salvaged.repository)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_fresh_open_streams_and_builds_no_tree(self, shards):
        # the build's stream is the check: every document enters
        # text-backed, searching builds no tree, a snippet builds one
        before = _trees_built()
        tracer = Tracer()
        engine = GKSEngine.open(Texts(BOOKS), shards=shards, tracer=tracer)
        root = tracer.roots[-1]
        assert root.find("parse").attributes == {
            "documents": 4, "checked": 0, "parsed": 0}
        assert root.find("build").attributes["streamed"] == 4
        assert not any(document.parsed for document in engine.repository)
        response = engine.search("karen alpha")
        assert len(response.nodes) == 4
        engine.search_top_k("entry", 2)
        assert _trees_built() == before
        assert "alpha entry" in engine.snippet(response.nodes[0])
        assert _trees_built() == before + 1


class TestStaleCorpus:
    """``Texts`` names are positional: only the corpus CRC32 tells two
    corpora of one size apart."""

    ALPHA = ["<a><b>alpha</b></a>"]
    OMEGA = ["<a><b>omega</b></a>"]

    def test_a_store_of_another_corpus_refuses_to_open(self, tmp_path):
        config = EngineConfig(store_path=tmp_path / "store")
        GKSEngine.open(Texts(self.ALPHA), config).close()
        with pytest.raises(StorageError) as excinfo:
            GKSEngine.open(Texts(self.OMEGA), config)
        assert excinfo.value.diagnosis == "incompatible"
        assert "CRC32" in str(excinfo.value)

    def test_a_store_without_the_crc_opens(self, tmp_path):
        store = tmp_path / "store"
        config = EngineConfig(store_path=store)
        GKSEngine.open(Texts(self.ALPHA), config).close()
        manifest = read_manifest(store)
        assert manifest.corpus_crc32 == \
            Repository.from_texts(self.ALPHA).corpus_crc32
        write_manifest(store, replace(manifest, corpus_crc32=None))
        assert read_manifest(store).corpus_crc32 is None
        engine = GKSEngine.open(Texts(self.ALPHA), config)
        assert len(engine.search("alpha").nodes) == 1
        engine.close()

    def test_the_crc_is_over_the_texts_in_order(self):
        crc = Repository.from_texts(BOOKS).corpus_crc32
        assert crc == Repository.from_texts(BOOKS).corpus_crc32
        assert crc != Repository.from_texts(BOOKS[::-1]).corpus_crc32
        repository = Repository.from_texts(BOOKS)
        repository.add_root(parse_document(BOOKS[0]).root)
        assert repository.corpus_crc32 is None


class TestRecoveredStore:
    @staticmethod
    def _crashed(tmp_path):
        """A store whose base, flushed sidecar and WAL tail all hold
        documents, closed as a crash leaves it."""
        config = EngineConfig(store_path=tmp_path / "store",
                              memtable_docs=2, cache_size=0)
        engine = GKSEngine.open(Texts(BOOKS[:2]), config)
        for text in BOOKS[2:]:
            engine.add_document(text)  # flushed at the memtable threshold
        engine.add_document("<book><title>alpha tail</title></book>")
        engine.close()
        return config

    def test_search_builds_no_tree_and_a_snippet_builds_one(self,
                                                             tmp_path):
        config = self._crashed(tmp_path)
        tracer = Tracer()
        before = _trees_built()
        engine = GKSEngine.open(Texts(BOOKS[:2]), config, tracer=tracer)
        try:
            root = tracer.roots[-1]
            assert root.find("parse").attributes == {
                "documents": 2, "checked": 2, "parsed": 0}
            texts = root.find("store").find("texts").attributes
            assert texts == {"documents": 2, "checked": 2, "parsed": 0}
            assert not any(d.parsed for d in engine.repository)
            response = engine.search("alpha")
            assert {node.dewey[0] for node in response.nodes} == \
                {0, 1, 2, 3, 4}
            assert _trees_built() == before
            flushed = next(node for node in response.nodes
                           if node.dewey[0] == 2)
            assert "alpha entry 2" in engine.snippet(flushed)
            assert _trees_built() == before + 1
        finally:
            engine.close()

    def test_a_rotted_sidecar_text_is_corrupted(self, tmp_path):
        """The sidecar's bytes match the manifest CRC, but a document in
        it no longer parses: recovery must refuse, not serve it."""
        config = self._crashed(tmp_path)
        store = tmp_path / "store"
        manifest = read_manifest(store)
        record = manifest.texts[0]
        sidecar = store / record.file
        body = read_json_gz(sidecar, "texts sidecar")
        body["documents"][0][2] = body["documents"][0][2].replace(
            "</title>", "", 1)
        atomic_write_json_gz(body, sidecar)
        write_manifest(store, replace(manifest, texts=(
            replace(record, crc32=file_crc32(sidecar)),
            *manifest.texts[1:])))
        with pytest.raises(StorageError) as excinfo:
            GKSEngine.open(Texts(BOOKS[:2]), config)
        assert excinfo.value.diagnosis == "corrupted"
        assert "no longer parses" in str(excinfo.value)
