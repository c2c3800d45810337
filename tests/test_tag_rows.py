"""A rendered node's ``tag`` / ``tag_path`` come from its document's
label-path rows, filled from the element stream: serving builds no tree.

The bar: for every kind of document — checked texts (a fresh open, a
saved index file, a recovered store), salvaged and replicated
trees, either ``attributes_as_children`` — the rows equal
``XMLNode.tag`` / ``XMLNode.tag_path()``; and an id the repository does
not hold renders no tag.  The probabilistic mode's tables, derived from
the corpus, read each document once however the corpus grows.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import threading
import urllib.request

import pytest

from repro import cli
from repro.core.config import EngineConfig, Texts
from repro.core.engine import GKSEngine
from repro.core.export import node_to_dict, response_to_dict
from repro.datasets.registry import load_dataset
from repro.index.storage import load_index, save_index
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.semantics.pdoc import compile_tables, extract_pdoc
from repro.serve import ServeConfig, ServerCore, serve_http
from repro.xmltree.dewey import parse_dewey
from repro.xmltree.repository import (Repository, TextCheck,
                                      ingest_document)
from repro.xmltree.serialize import escape_attribute, escape_text

QUERIES = ["graph index", "databas storag", "rec", "merg token term"]


def _counter(name: str) -> float:
    return global_registry().counter(name).value()


def _trees_built() -> float:
    return _counter("gks_ingest_deferred_trees_total")


def _rows_filled() -> float:
    return _counter("gks_xmltree_tag_rows_filled_total")


def _xml(node, attributes: bool) -> str:
    """*node*'s subtree as XML; with *attributes*, each leaf child whose
    tag is unique among its siblings is written as an attribute."""
    tags = [child.tag for child in node.children]
    moved = [child for child in node.children
             if not child.children and child.text
             and tags.count(child.tag) == 1] if attributes else []
    head = node.tag + "".join(
        f' {child.tag}="{escape_attribute(child.text)}"' for child in moved)
    body = escape_text(node.text or "") + "".join(
        _xml(child, attributes) for child in node.children
        if child not in moved)
    return f"<{head}>{body}</{node.tag}>"


def _texts(name: str = "mirrors", attributes: bool = False) -> list[str]:
    return [_xml(document.root, attributes) for document in load_dataset(name)]


def _checked(texts: list[str], attributes_as_children: bool) -> Repository:
    """*texts* as text-backed documents, as an open over a store holds
    them."""
    repository = Repository()
    for text in texts:
        repository.add(ingest_document(
            text, len(repository), builder=TextCheck,
            attributes_as_children=attributes_as_children), text=text)
    return repository


def _assert_rows_equal_trees(repository: Repository, deweys: list) -> None:
    labels = [repository.tag_path(dewey) for dewey in deweys]
    assert labels == [tuple(repository.node_at(dewey).tag_path())
                      for dewey in deweys]


def _assert_payload_tags(repository: Repository, payload: dict) -> None:
    assert payload["nodes"]
    for node in payload["nodes"]:
        element = repository.node_at(parse_dewey(node["dewey"]))
        assert node["tag"] == element.tag
        assert node["tag_path"] == element.tag_path()


def _all_deweys(texts: list[str], attributes_as_children: bool = True):
    reference = Repository()
    for text in texts:
        reference.parse(text, attributes_as_children=attributes_as_children)
    return [node.dewey for document in reference for node in document]


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------
class TestServingBuildsNoTree:
    def test_http_searches_over_texts(self):
        texts = _texts(attributes=True)
        engine = GKSEngine.open(Texts(texts), EngineConfig(shards=2))
        core = ServerCore(engine, ServeConfig(workers=2),
                          registry=MetricsRegistry())
        server = serve_http(core)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.01},
                                  daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        trees, filled = _trees_built(), _rows_filled()
        payloads = []
        try:
            for query in QUERIES:
                for k in ("", "&k=10"):
                    url = f"{base}/search?q={query.replace(' ', '+')}{k}"
                    with urllib.request.urlopen(url, timeout=10) as response:
                        payloads.append(json.load(response))
        finally:
            server.shutdown()
            server.server_close()
            core.close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert _trees_built() == trees
        assert not any(document.parsed for document in engine.repository)
        assert 1 <= _rows_filled() - filled <= len(texts)
        for payload in payloads:
            _assert_payload_tags(engine.repository, payload)
        assert max(len(payload["nodes"]) for payload in payloads[1::2]) == 10

    def test_cli_search_builds_no_tree(self, tmp_path, capsys):
        files = []
        for offset, text in enumerate(_texts()):
            path = tmp_path / f"doc{offset}.xml"
            path.write_text(text, encoding="utf-8")
            files.append(str(path))
        trees = _trees_built()
        assert cli.main(["search", *files, "-q", "graph index", "-s",
                         "2"]) == 0
        assert "node(s) for" in capsys.readouterr().out
        assert _trees_built() == trees


# ---------------------------------------------------------------------------
# the rows equal the tree, for every kind of document
# ---------------------------------------------------------------------------
class TestRowsEqualTheTree:
    @pytest.mark.parametrize("as_children", [True, False])
    def test_checked_texts(self, as_children):
        texts = _texts(attributes=True)
        repository = _checked(texts, as_children)
        deweys = _all_deweys(texts, as_children)
        labels = [repository.tag_path(dewey) for dewey in deweys]
        assert not any(document.parsed for document in repository)
        assert labels == [tuple(repository.node_at(dewey).tag_path())
                          for dewey in deweys]

    @pytest.mark.parametrize("codec", ["raw", "varint-dag"])
    def test_saved_index_file(self, tmp_path, codec):
        texts = _texts(attributes=True)
        path = save_index(GKSEngine.open(Texts(texts)).index,
                          tmp_path / "idx", codec=codec)
        engine = GKSEngine(_checked(texts, True), index=load_index(path))
        payload = response_to_dict(engine.search("graph index"),
                                   engine.repository)
        assert not any(document.parsed for document in engine.repository)
        _assert_rows_equal_trees(engine.repository, _all_deweys(texts))
        _assert_payload_tags(engine.repository, payload)

    def test_recovered_store(self, tmp_path):
        texts = _texts(attributes=True)
        config = EngineConfig(store_path=tmp_path / "store", shards=2,
                              memtable_docs=2)
        GKSEngine.open(Texts(texts), config).close()
        engine = GKSEngine.open(Texts(texts), config)
        try:
            payload = response_to_dict(engine.search("graph index"),
                                       engine.repository)
            assert not any(document.parsed
                           for document in engine.repository)
            _assert_rows_equal_trees(engine.repository, _all_deweys(texts))
            _assert_payload_tags(engine.repository, payload)
        finally:
            engine.close()

    def test_salvaged_documents(self):
        texts = [text.replace("</rec>", "", 1) for text in _texts()]
        engine = GKSEngine.open(Texts(texts),
                                EngineConfig(recovery="salvage"))
        assert all(document.parsed for document in engine.repository)
        deweys = [node.dewey for document in engine.repository
                  for node in document]
        _assert_rows_equal_trees(engine.repository, deweys)

    def test_replicated_documents(self):
        repository = load_dataset("mirrors").extend_replicated(2)
        deweys = [node.dewey for document in repository
                  for node in document]
        _assert_rows_equal_trees(repository, deweys)
        engine = GKSEngine(repository)
        _assert_payload_tags(repository, response_to_dict(
            engine.search("graph index"), repository))

    def test_ids_the_repository_does_not_hold_render_no_tag(self):
        engine = GKSEngine.open(Texts(_texts()))
        node = engine.search("graph index")[0]
        last = len(engine.repository) - 1
        for dewey in [(last, 10 ** 6), (0, 0, 0, 0, 0, 0, 0, 0, 0),
                      (last + 1,), (last + 1, 0)]:
            assert engine.repository.tag_path(dewey) is None
            assert engine.repository.node_at(dewey) is None
            payload = node_to_dict(dataclasses.replace(node, dewey=dewey),
                                   engine.repository)
            assert "tag" not in payload and "tag_path" not in payload


# ---------------------------------------------------------------------------
# the probabilistic mode's tables
# ---------------------------------------------------------------------------
P_TEXTS = ['<r><s p:type="IND"><i p:p="0.5">apple</i><i>pear</i></s></r>',
           '<r><s p:type="MUX"><i p:p="0.4">apple</i>'
           '<i p:p="0.6">fig</i></s></r>',
           '<r><i>apple fig</i></r>']


def _counting_extractions(monkeypatch) -> list:
    extracted = []

    def counting(root):
        extracted.append(root.dewey[0])
        return extract_pdoc(root)

    monkeypatch.setattr("repro.semantics.pdoc.extract_pdoc", counting)
    return extracted


def test_tables_extract_each_document_once(monkeypatch):
    extracted = _counting_extractions(monkeypatch)
    engine = GKSEngine.open(Texts(P_TEXTS[:1]))
    for _ in range(2):
        engine.search("apple", mode="probabilistic")
    for text in P_TEXTS[1:]:
        engine.add_document(text)
        for _ in range(2):
            engine.search("apple fig", mode="probabilistic")
    assert sorted(extracted) == list(range(len(P_TEXTS)))


def test_derived_parts_read_each_document_once():
    """The per-document parts outlive generations: a grown corpus
    derives only its new documents, and the tables equal a fresh
    compile of the whole corpus."""
    engine = GKSEngine.open(Texts(P_TEXTS[:1]))
    engine.search("apple", mode="probabilistic")
    documents = engine._derived_parts[compile_tables]
    parts = dict(documents)
    for text in P_TEXTS[1:]:
        engine.add_document(text)
    engine.search("apple", mode="probabilistic")
    assert sorted(documents) == list(range(len(P_TEXTS)))
    assert all(documents[doc_id] is part for doc_id, part in parts.items())
    assert engine._corpus_derived(compile_tables) == compile_tables(
        _checked(P_TEXTS, True))


def test_probabilistic_add_document_defers_extraction(monkeypatch):
    extracted = _counting_extractions(monkeypatch)
    engine = GKSEngine.open(Texts(P_TEXTS[:1]),
                            EngineConfig(mode="probabilistic"))
    assert extracted == []  # opening extracts nothing
    engine.search("apple")
    assert extracted == [0]
    for text in P_TEXTS[1:]:
        engine.add_document(text)
    assert extracted == [0]
    engine.search("apple")
    assert extracted == [0, 1, 2]


# ---------------------------------------------------------------------------
# concurrent first renders
# ---------------------------------------------------------------------------
@pytest.mark.concurrency
def test_concurrent_first_renders_install_one_rows_object():
    texts = _texts(attributes=True)
    engine = GKSEngine.open(Texts(texts), EngineConfig(shards=2))
    responses = [engine.search(query) for query in QUERIES]
    filled = _rows_filled()
    results: dict[int, list] = {}
    start = threading.Barrier(8)

    def render(seed: int) -> None:
        order = list(range(len(responses)))
        random.Random(seed).shuffle(order)
        start.wait(timeout=30)
        payloads = {}
        labels = []
        for offset in order:
            payloads[offset] = response_to_dict(responses[offset],
                                                engine.repository)
            labels.extend(engine.repository.tag_path(node.dewey)
                          for node in responses[offset])
        results[seed] = [payloads, labels, order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=render, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8
    first = results[0][0]
    assert all(payloads == first for payloads, _, _ in results.values())
    touched = {node.dewey[0] for response in responses for node in response}
    documents = list(engine.repository)
    assert all("_rows" in vars(documents[doc_id]) for doc_id in touched)
    # the registry's counters are not atomic across threads: bounded
    assert 1 <= _rows_filled() - filled <= len(touched)
    for _, labels, order in results.values():
        deweys = [node.dewey for offset in order
                  for node in responses[offset]]
        for dewey, found in zip(deweys, labels):
            ids, paths = vars(documents[dewey[0]])["_rows"]
            assert found is paths[ids[dewey]]
