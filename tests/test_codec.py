"""The v4 binary codec: round-trips, raw equivalence, deep audits.

The load-bearing guarantee mirrors the sharding suite's: the codec is
an implementation detail no caller can observe through results.  For
every corpus — including adversarial near-duplicate subtrees built to
stress the DAG sharing — a ``varint-dag`` index must answer every
query node-for-node, score-for-score identically to the ``raw``
envelope, across shard counts and under budget degradation.  On top of
that: semantic corruption sealed behind fresh block CRCs must be
invisible to the structural check and caught by ``--deep``, and the
:class:`~repro.core.config.SearchOptions` record must mean the same
thing at the engine, broker and HTTP surfaces.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import urllib.error
import urllib.request
import zlib
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import cli
from repro.cli import main
from repro.core.budget import SearchBudget
from repro.core.config import EngineConfig, SearchOptions, Texts
from repro.core.engine import GKSEngine
from repro.core.query import Query
from repro.core.ranking import rank_node
from repro.core.search import search
from repro.core.topk import search_top_k
from repro.datasets.mirrors import generate_mirrors
from repro.errors import ConfigError, StorageError, ValidationError
from repro.eval.querygen import WorkloadSpec, generate_queries
from repro.index.builder import IndexBuilder, build_index
from repro.index import codec as codec_module
from repro.index.codec import (CODEC_NAMES, SHARED_MIN_ENTRIES,
                               SHARED_MIN_OCCURRENCES, Codec, DecodedIndex,
                               DecodedShard, RawCodec, VarintDagCodec,
                               _decode_run, _write_dewey, _write_file,
                               decode_file, is_binary_index,
                               load_binary_index, read_binary_header,
                               read_uvarint, resolve_codec,
                               write_binary_index, write_svarint)
from repro.index.composite import _RoutedHashes
from repro.index.hashtables import NodeHashes
from repro.index.inverted import InvertedIndex
from repro.index.sharding import build_sharded_index
from repro.index.storage import (check_index, describe_layout, load_index,
                                 save_index)
from repro.analysis.invariants import (INVARIANT_NAMES, verify_index,
                                       verify_store)
from repro.obs.metrics import global_registry
from repro.obs.trace import Tracer
from repro.testing.faults import (FakeClock, IndexCorruptor, StoreCorruptor,
                                  TornWriter)
from repro.xmltree.dewey import DeweyLayout
from repro.xmltree.node import build_tree
from repro.xmltree.repository import Repository
from tests.conftest import tuple_postings, unpacked

pytestmark = pytest.mark.codec

KEYWORDS = ["kilo", "lima", "mike", "november", "oscar"]
TAGS = ["va", "vb", "vc", "vd"]

CORPUS = [
    "<bib><paper><author>Peter Buneman</author>"
    "<title>keyword search</title></paper></bib>",
    "<bib><paper><author>Wenfei Fan</author>"
    "<title>graph search</title></paper>"
    "<paper><author>Peter Buneman</author>"
    "<title>archiving data</title></paper></bib>",
    "<bib><paper><author>Karen Smith</author>"
    "<title>data mining keyword</title></paper></bib>",
    "<bib><book><author>Wenfei Fan</author>"
    "<title>keyword mining</title></book></bib>",
    "<bib><paper><title>search engines</title></paper></bib>",
]

QUERIES = ["keyword", "keyword search", "buneman fan",
           "data mining search"]

# every document holds a dual-role node (``dept``: entity and repeating)
ENTITY_CORPUS = [
    f"<uni><dept><name>cs{i}</name><course>algorithms</course>"
    f"<course>databases</course></dept><dept><name>ee{i}</name>"
    f"<course>signals</course><course>power</course></dept></uni>"
    for i in range(4)]


def _saved(texts, path, codec, **overrides):
    """*texts* built under *overrides* and saved to *path* in *codec*."""
    built = GKSEngine.open(Texts(texts), **overrides)
    return save_index(built.index, path, codec=codec)


def _reopened(texts, path, codec, **overrides) -> GKSEngine:
    """An engine over the index of *texts*, saved to *path* in *codec*
    and loaded back."""
    return GKSEngine(Repository.from_texts(texts),
                     index=load_index(_saved(texts, path, codec,
                                             **overrides)))


def _signature(response):
    """Everything a caller can observe about a response's content."""
    return (
        tuple((node.dewey, node.score, node.distinct_keywords,
               node.matched_keywords, node.is_lce, node.estimated_keywords)
              for node in response.nodes),
        response.degraded,
    )


def _index_fingerprint(index):
    """Full observable content of a (possibly lazy) loaded index."""
    if hasattr(index, "shards"):
        return (index.strategy, tuple(index.document_names),
                tuple(_index_fingerprint(shard.index)
                      for shard in index.shards))
    unpack = index.layout.unpack
    return (
        tuple(sorted((kw, tuple(map(unpack, postings)))
                     for kw, postings in index.inverted.items())),
        tuple(sorted(unpacked(index, index.hashes.entity_table).items())),
        tuple(sorted(unpacked(index, index.hashes.element_table).items())),
        tuple(index.document_names),
    )


def spec_strategy():
    """Nested (tag, text?, children?) specs for build_tree."""
    leaf = st.tuples(st.sampled_from(TAGS), st.sampled_from(KEYWORDS))
    return st.recursive(
        leaf,
        lambda children: st.tuples(
            st.sampled_from(TAGS),
            st.lists(children, min_size=1, max_size=4)),
        max_leaves=16,
    ).map(lambda spec: ("root", [spec]) if not isinstance(spec[1], list)
          else ("root", spec[1]))


def _roundtrip(index, tmp_path, name="rt.gksindex"):
    path = tmp_path / name
    write_binary_index(index, path)
    assert is_binary_index(path)
    return load_binary_index(path)


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(specs=st.lists(spec_strategy(), min_size=1, max_size=4))
    def test_random_trees_roundtrip(self, specs, tmp_path_factory):
        repo = Repository()
        for spec in specs:
            repo.add_root(build_tree(spec))
        index = build_index(repo)
        tmp_path = tmp_path_factory.mktemp("codec")
        loaded = _roundtrip(index, tmp_path)
        assert _index_fingerprint(loaded) == _index_fingerprint(index)

    def test_empty_index_roundtrip(self, tmp_path):
        index = IndexBuilder().build()
        loaded = _roundtrip(index, tmp_path)
        assert _index_fingerprint(loaded) == _index_fingerprint(index)
        assert len(loaded.inverted) == 0

    def test_single_document_roundtrip(self, tmp_path):
        index = build_index(Repository.from_texts([CORPUS[0]]))
        loaded = _roundtrip(index, tmp_path)
        assert _index_fingerprint(loaded) == _index_fingerprint(index)

    @settings(max_examples=20, deadline=None)
    @given(depth=st.integers(min_value=10, max_value=60))
    def test_deep_dewey_paths_roundtrip(self, depth, tmp_path_factory):
        text = ("".join(f"<d{i}>" for i in range(depth))
                + "kilo lima"
                + "".join(f"</d{i}>" for i in reversed(range(depth))))
        index = build_index(Repository.from_texts([f"<r>{text}</r>"]))
        tmp_path = tmp_path_factory.mktemp("deep")
        loaded = _roundtrip(index, tmp_path)
        assert _index_fingerprint(loaded) == _index_fingerprint(index)

    @settings(max_examples=20, deadline=None)
    @given(copies=st.integers(min_value=2, max_value=8),
           twist=st.integers(min_value=0, max_value=7))
    def test_near_duplicate_subtrees_roundtrip(self, copies, twist,
                                               tmp_path_factory):
        # many repeats of one subtree plus a near-duplicate differing in
        # exactly one keyword — the adversarial case for DAG sharing:
        # the codec must never conflate the twisted copy with the rest
        block = ("<rec><name>kilo lima</name>"
                 "<note>mike november</note></rec>")
        twisted = ("<rec><name>kilo oscar</name>"
                   "<note>mike november</note></rec>")
        parts = [block] * copies
        parts.insert(twist % (copies + 1), twisted)
        index = build_index(Repository.from_texts(
            ["<r>" + "".join(parts) + "</r>"]))
        tmp_path = tmp_path_factory.mktemp("dup")
        loaded = _roundtrip(index, tmp_path)
        assert _index_fingerprint(loaded) == _index_fingerprint(index)

    def test_sharded_roundtrip(self, tmp_path):
        sharded = build_sharded_index(Repository.from_texts(CORPUS),
                                      shards=3)
        loaded = _roundtrip(sharded, tmp_path)
        assert _index_fingerprint(loaded) == _index_fingerprint(sharded)

    def test_no_dag_roundtrip(self, tmp_path):
        index = build_index(Repository.from_texts(CORPUS))
        path = tmp_path / "nodag.gksindex"
        write_binary_index(index, path, use_dag=False)
        loaded = load_binary_index(path)
        assert _index_fingerprint(loaded) == _index_fingerprint(index)


# ---------------------------------------------------------------------------
# DAG sharing: the writer against a brute-force reference
# ---------------------------------------------------------------------------
def _record_strategy():
    """A small (tag, text-or-children) subtree spec."""
    leaf = st.tuples(st.sampled_from(TAGS), st.sampled_from(KEYWORDS))
    return st.recursive(
        leaf,
        lambda children: st.tuples(st.sampled_from(TAGS),
                                   st.lists(children, min_size=1,
                                            max_size=3)),
        max_leaves=5)


def _twisted(spec, keyword):
    """*spec* differing from itself by one keyword of its first leaf."""
    tag, body = spec
    if isinstance(body, str):
        return (tag, keyword if keyword != body else f"{body} {keyword}")
    return (tag, [_twisted(body[0], keyword), *body[1:]])


@st.composite
def sharing_documents(draw):
    """Document specs built from one random record: verbatim copies,
    copies nested inside copies, one-keyword near-copies, and copies
    that are an only child — whose root categorises differently from a
    copy with same-tag siblings."""
    record = draw(_record_strategy())
    variants = {
        "copy": record,
        "near": _twisted(record, draw(st.sampled_from(KEYWORDS))),
        "nested": ("vn", [record, ("vn", [record])]),
        "alone": ("vx", [record]),
    }
    documents = draw(st.lists(
        st.lists(st.sampled_from(sorted(variants)), min_size=1, max_size=6),
        min_size=1, max_size=3))
    return [("root", [variants[kind] for kind in kinds])
            for kinds in documents]


@st.composite
def synthetic_tables(draw):
    """Index tables no categoriser writes — rows drawn at random — built
    from one random record: verbatim copies, copies nested inside
    copies, copies with one keyword more, and copies whose root differs
    in its entity row alone."""
    steps = st.lists(st.integers(0, 2), max_size=2).map(tuple)
    record = {path: (draw(st.sets(st.sampled_from(KEYWORDS), max_size=2)),
                     draw(st.sampled_from((None, 1, 2))),
                     draw(st.sampled_from((None, 0, 3))))
              for path in {(), *draw(st.lists(steps, max_size=4))}}
    keywords, entity, element = record[()]
    variants = {
        "copy": [((), record)],
        "near": [((), {**record, (): (keywords | {"oscar"}, entity,
                                      element)})],
        "entity": [((), {**record, (): (keywords, 2 if entity == 1 else 1,
                                        element)})],
        "nested": [((), record), ((7,), record)],
    }
    kinds = draw(st.lists(st.sampled_from(sorted(variants)), min_size=1,
                          max_size=6))
    postings: dict[str, list] = {}
    entity_table, element_table = {}, {}
    for slot, kind in enumerate(kinds):
        for offset, copy in variants[kind]:
            for path, (words, in_entity, in_element) in copy.items():
                dewey = (0, slot, *offset, *path)
                for keyword in words:
                    postings.setdefault(keyword, []).append(dewey)
                if in_entity is not None:
                    entity_table[dewey] = in_entity
                if in_element is not None:
                    element_table[dewey] = in_element
    return DecodedShard(0, None, ("d0",), {}, {
        keyword: sorted(ids) for keyword, ids in sorted(postings.items())},
        dict(sorted(entity_table.items())),
        dict(sorted(element_table.items())))


def _reference_sharing(shard: DecodedShard) -> set[tuple]:
    """The topmost occurrences of every shared subtree, one tuple per
    DAG node, from first principles: a node's relative content is the
    set of index entries under it (postings and both hash rows, ids
    relative to it); content repeating ``SHARED_MIN_OCCURRENCES`` times
    with ``SHARED_MIN_ENTRIES`` entries is shared, and only occurrences
    under no shared ancestor count."""
    entries = [(dewey, ("posting", keyword))
               for keyword, postings in shard.postings.items()
               for dewey in postings]
    entries += [(dewey, ("entity", count))
                for dewey, count in shard.entity.items()]
    entries += [(dewey, ("element", count))
                for dewey, count in shard.element.items()]
    nodes = {dewey[:depth] for dewey, _ in entries
             for depth in range(1, len(dewey) + 1)}
    content = {node: frozenset((dewey[len(node):], what)
                               for dewey, what in entries
                               if dewey[:len(node)] == node)
               for node in nodes}
    repeats = Counter(content.values())
    shared = {node for node in nodes
              if repeats[content[node]] >= SHARED_MIN_OCCURRENCES
              and len(content[node]) >= SHARED_MIN_ENTRIES}
    classes: dict[frozenset, list] = {}
    for node in sorted(shared):
        if not any(node[:depth] in shared for depth in range(1, len(node))):
            classes.setdefault(content[node], []).append(node)
    return set(map(tuple, classes.values()))


class TestDagSharing:
    @settings(max_examples=80, deadline=None)
    @given(specs=sharing_documents())
    def test_writer_shares_what_the_reference_shares(self, specs,
                                                     tmp_path_factory):
        repo = Repository()
        for spec in specs:
            repo.add_root(build_tree(spec))
        index = build_index(repo)
        loaded = _roundtrip(index, tmp_path_factory.mktemp("share"))
        written = loaded.inverted._reader.directory.occurrences
        assert set(map(tuple, written)) == _reference_sharing(
            DecodedIndex.of(index).shards[0])
        assert len(written) == len(set(map(tuple, written)))
        assert _index_fingerprint(loaded) == _index_fingerprint(index)

    @settings(max_examples=80, deadline=None)
    @given(shard=synthetic_tables())
    def test_any_differing_row_keeps_subtrees_apart(self, shard,
                                                    tmp_path_factory):
        view = DecodedIndex.of(build_index(Repository.from_texts(
            ["<r>kilo</r>"])))
        view.shards = [shard]
        view.dewey_widths = DeweyLayout.covering(
            [*shard.entity, *shard.element,
             *(dewey for ids in shard.postings.values() for dewey in ids)]
        ).widths
        path = tmp_path_factory.mktemp("rows") / "synthetic.gksindex"
        codec_module._write_decoded(view, path, use_dag=True)
        written = load_binary_index(path).inverted._reader.directory
        assert set(map(tuple, written.occurrences)) == \
            _reference_sharing(shard)
        decoded = decode_file(path).shards[0]
        assert ({keyword: sorted(ids)
                 for keyword, ids in decoded.postings.items()},
                decoded.entity, decoded.element) == \
            (shard.postings, shard.entity, shard.element)

    def test_writer_matches_the_reference_on_mirrors(self, tmp_path):
        index = build_index(_mirrors_repo())
        written = _roundtrip(index, tmp_path).inverted._reader.directory
        reference = _reference_sharing(DecodedIndex.of(index).shards[0])
        assert reference
        assert set(map(tuple, written.occurrences)) == reference


def _aliasing(alias_root):
    """A DAG model that also covers the subtree at *alias_root* as an
    occurrence of the first shared DAG node — two differing subtrees
    under one id."""
    class Aliasing(codec_module._DagModel):
        def __init__(self, postings, entity, element):
            super().__init__(postings, entity, element)
            dag_id = min(self.occurrences)
            hit = (alias_root, dag_id)
            for dewey in (*entity, *element,
                          *(d for ids in postings.values() for d in ids)):
                if dewey[:len(alias_root)] == alias_root:
                    self.cover[dewey] = hit
            self.occurrences[dag_id] = sorted(
                [*self.occurrences[dag_id], alias_root])
    return Aliasing


class TestDagConsistencyChecks:
    RECORD = "<rec><name>kilo lima</name><note>mike november</note></rec>"
    ENTITY = "<rec><name>kilo</name><tag>lima</tag><tag>mike</tag></rec>"

    @pytest.mark.parametrize("last", [False, True])
    @pytest.mark.parametrize("copy, variant, step, what", [
        # a shared keyword at another relative path
        (RECORD, "<rec><name>lima</name><note>kilo mike november</note>"
                 "</rec>", (), "suffix sets"),
        # a keyword the aliased subtree lacks
        (RECORD, "<rec><name>kilo</name><note>mike november</note></rec>",
         (), "suffix sets"),
        # same postings, but an only child: no repeating-node row
        (ENTITY, f"<box>{ENTITY}</box>", (0,), "hash rows"),
    ], ids=["moved-keyword", "missing-keyword", "only-child"])
    def test_an_aliased_subtree_fails_the_save(self, tmp_path, monkeypatch,
                                               copy, variant, step, what,
                                               last):
        # the aliased subtree closes a span in the middle or at the end
        parts = [copy, copy, variant] if last else [copy, variant, copy]
        index = build_index(Repository.from_texts(
            [f"<r>{''.join(parts)}</r>"]))
        alias_root = (0, parts.index(variant), *step)
        monkeypatch.setattr(codec_module, "_DagModel", _aliasing(alias_root))
        path = tmp_path / "aliased.gksindex"
        with pytest.raises(StorageError, match=what) as excinfo:
            resolve_codec("varint-dag").save(index, path)
        assert excinfo.value.diagnosis == "corrupted"
        assert "DAG model is inconsistent" in str(excinfo.value)
        assert not path.exists()
        monkeypatch.undo()
        resolve_codec("varint-dag").save(index, path)  # the real model
        assert _index_fingerprint(load_binary_index(path)) == \
            _index_fingerprint(index)


class TestByteDeterminism:
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_saving_a_loaded_file_gives_its_bytes(self, tmp_path, codec,
                                                  shards):
        first, again = tmp_path / "first", tmp_path / "again"
        save_index(_build(_mirrors_repo(), shards), first, codec=codec)
        save_index(load_index(first), again, codec=codec)
        assert again.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_dag_bytes_ignore_dict_order(self, tmp_path, shards):
        index = _build(_mirrors_repo(), shards)
        write_binary_index(index, tmp_path / "ordered")
        view = DecodedIndex.of(index)
        rng = random.Random(shards)
        for shard in view.shards:
            for name in ("postings", "entity", "element"):
                items = list(getattr(shard, name).items())
                rng.shuffle(items)
                setattr(shard, name, dict(items))
        codec_module._write_decoded(view, tmp_path / "shuffled",
                                    use_dag=True)
        assert (tmp_path / "shuffled").read_bytes() == \
            (tmp_path / "ordered").read_bytes()


# ---------------------------------------------------------------------------
# Codec registry and EngineConfig surface
# ---------------------------------------------------------------------------
class TestCodecAPI:
    def test_registry_names(self):
        assert CODEC_NAMES == ("raw", "varint-dag")
        for name in CODEC_NAMES:
            codec = resolve_codec(name)
            assert isinstance(codec, Codec)
            assert codec.name == name

    def test_unknown_codec_is_config_error(self):
        with pytest.raises(ConfigError):
            resolve_codec("lz4-of-the-future")
        with pytest.raises(ConfigError):
            EngineConfig(codec="lz4-of-the-future")

    def test_sniff_disambiguates(self, tmp_path):
        index = build_index(Repository.from_texts(CORPUS))
        raw_path, v4_path = tmp_path / "raw.idx", tmp_path / "v4.idx"
        RawCodec().save(index, raw_path)
        VarintDagCodec().save(index, v4_path)
        assert not RawCodec().sniff(v4_path)
        assert RawCodec().sniff(raw_path)
        assert VarintDagCodec().sniff(v4_path)
        assert not VarintDagCodec().sniff(raw_path)

    def test_one_read_per_open(self, tmp_path, monkeypatch, capsys):
        """Reopening a raw saved index, and ``check-index`` on it, each
        gunzip the file once — the codec name costs a sniff."""
        from repro.index import codec as codec_module

        reads = []
        read_json_gz = codec_module.read_json_gz
        monkeypatch.setattr(
            codec_module, "read_json_gz",
            lambda path, *args: reads.append(path)
            or read_json_gz(path, *args))
        path = _saved(CORPUS, tmp_path / "saved.idx", "raw")
        assert reads == []
        reopened = GKSEngine(Repository.from_texts(CORPUS),
                             index=load_index(path))
        assert reads == [path]
        assert _signature(reopened.search("keyword")) == _signature(
            GKSEngine.open(Texts(CORPUS)).search("keyword"))
        assert main(["check-index", str(path)]) == 0
        assert reads == [path, path]
        assert "format: v2 raw monolithic(1)\n" in capsys.readouterr().out

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    @pytest.mark.parametrize("saved_tags", (True, False))
    def test_a_saved_index_records_its_flags(self, tmp_path, codec,
                                             saved_tags):
        """A saved file records the ``index_tags`` and corpus CRC32 it
        was built under, and serves by them: ``book`` is a keyword only
        where element names were indexed."""
        texts = ["<book><title>alpha</title></book>"]
        path = _saved(texts, tmp_path / "saved.idx", codec,
                      index_tags=saved_tags)
        loaded = load_index(path)
        assert loaded.index_tags is saved_tags
        repository = Repository.from_texts(texts)
        assert loaded.corpus_crc32 == repository.corpus_crc32 is not None
        engine = GKSEngine(repository, index=loaded,
                           config=EngineConfig(index_tags=saved_tags))
        assert bool(len(engine.search("book"))) is saved_tags

    def test_store_layout_names_what_the_segments_hold(self, tmp_path):
        for codec in CODEC_NAMES:
            GKSEngine.open(Texts(CORPUS), shards=2, codec=codec,
                           store_path=tmp_path / codec).close()
            layout = describe_layout(tmp_path / codec)
            assert layout["codec"] == codec and "mode" not in layout
            assert layout["layout"] == "store" and layout["segments"] == 2

    def test_describe_layout_reports_codec(self, tmp_path):
        index = build_index(Repository.from_texts(CORPUS))
        raw_path, binary_path = tmp_path / "raw.idx", tmp_path / "binary.idx"
        RawCodec().save(index, raw_path)
        VarintDagCodec().save(index, binary_path)
        raw_layout = describe_layout(raw_path)
        binary_layout = describe_layout(binary_path)
        assert raw_layout["codec"] == "raw"
        assert binary_layout["codec"] == "varint-dag"
        assert binary_layout["version"] == 5
        assert raw_layout["layout"] == binary_layout["layout"] == "monolithic"

    def test_either_codec_opens_the_other(self, tmp_path):
        index = build_index(Repository.from_texts(CORPUS))
        for writer in (RawCodec(), VarintDagCodec()):
            path = tmp_path / f"{writer.name}.idx"
            writer.save(index, path)
            assert _index_fingerprint(load_index(path)) == \
                _index_fingerprint(index)


# ---------------------------------------------------------------------------
# Node-for-node search equivalence
# ---------------------------------------------------------------------------
class TestEquivalence:
    @pytest.mark.parametrize("shards", (1, 2, 4))
    def test_codec_invisible_through_results(self, shards, tmp_path):
        built = GKSEngine.open(Texts(CORPUS), shards=shards)
        raw = _reopened(CORPUS, tmp_path / "raw.idx", "raw", shards=shards)
        # the lazy reopen is the interesting path: query straight off
        # the mmap-backed index, nothing pre-materialized
        dag = _reopened(CORPUS, tmp_path / "dag.idx", "varint-dag",
                        shards=shards)
        assert describe_layout(tmp_path / "dag.idx")["codec"] == \
            "varint-dag"
        assert raw.config.shards == dag.config.shards == shards
        for query in QUERIES:
            want = _signature(built.search(query, use_cache=False))
            assert _signature(raw.search(query, use_cache=False)) == want
            assert _signature(dag.search(query, use_cache=False)) == want

    @pytest.mark.parametrize("shards", (1, 2))
    def test_degraded_budget_path_equivalence(self, shards, tmp_path):
        raw = GKSEngine.open(Texts(CORPUS * 4), shards=shards)
        lazy = _reopened(CORPUS * 4, tmp_path / "dag.idx", "varint-dag",
                         shards=shards)
        budget = lambda: SearchBudget(max_sl=2)  # noqa: E731
        for query in QUERIES:
            want = raw.search(query, budget=budget(), use_cache=False)
            got = lazy.search(query, budget=budget(), use_cache=False)
            assert _signature(got) == _signature(want)
            assert got.degraded == want.degraded

    def test_top_k_equivalence_on_lazy_index(self, tmp_path):
        lazy = _reopened(CORPUS, tmp_path / "d.idx", "varint-dag")
        eager = GKSEngine.open(Texts(CORPUS))
        for query in QUERIES:
            assert _signature(lazy.search_top_k(query, 3)) == \
                _signature(eager.search_top_k(query, 3))


# ---------------------------------------------------------------------------
# Fault injection and the deep audit
# ---------------------------------------------------------------------------
class TestDeepAudit:
    def _saved_index(self, tmp_path, codec="varint-dag", shards=1,
                     corpus=CORPUS):
        repo = Repository.from_texts(corpus)
        index = (build_index(repo) if shards == 1
                 else build_sharded_index(repo, shards=shards))
        path = tmp_path / "audit.gksindex"
        resolve_codec(codec).save(index, path)
        return path

    def test_codec_names_registered(self):
        for name in ("codec-block-crc", "codec-block-metadata",
                     "codec-dag-suffix"):
            assert name in INVARIANT_NAMES

    def test_healthy_binary_index_audits_clean(self, tmp_path):
        path = self._saved_index(tmp_path)
        assert check_index(path)["ok"]
        assert verify_store(path) == []

    def test_healthy_sharded_binary_audits_clean(self, tmp_path):
        path = self._saved_index(tmp_path, shards=3)
        assert verify_store(path) == []

    def test_corrupt_codec_block_is_deep_only(self, tmp_path):
        for codec in CODEC_NAMES:
            path = self._saved_index(tmp_path, codec)
            stored = resolve_codec(codec).decode(path)
            IndexCorruptor(seed=11).corrupt_postings(path)
            # structural checks pass end to end: CRCs were resealed
            assert check_index(path)["ok"]
            load_index(path)
            # only the deep audit can tell
            violations = {v.invariant for v in verify_store(path)}
            assert "postings-sorted" in violations
            # ... because decode hands back what is stored, not re-sorted
            damaged = resolve_codec(codec).decode(path)
            broken = [keyword for keyword, entries
                      in damaged.shards[0].postings.items()
                      if entries != stored.shards[0].postings[keyword]]
            assert len(broken) == 1
            entries = damaged.shards[0].postings[broken[0]]
            assert entries != sorted(set(entries))

    def test_corrupt_codec_block_exits_2_from_cli(self, tmp_path, capsys):
        path = self._saved_index(tmp_path)
        IndexCorruptor(seed=11).corrupt_postings(path)
        assert main(["check-index", str(path)]) == 0
        assert main(["check-index", str(path), "--deep"]) == 2
        assert "postings-sorted" in capsys.readouterr().out

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    @pytest.mark.parametrize("fault, shards, invariant", [
        ("corrupt_postings", 1, "postings-sorted"),
        ("corrupt_postings", 2, "postings-sorted"),
        ("skew_child_count", 1, "hash-cross-consistency"),
        ("skew_child_count", 2, "hash-cross-consistency"),
        ("drop_manifest_document", 2, "shard-partition"),
    ])
    def test_every_fault_on_every_codec_exits_2_from_cli(
            self, codec, fault, shards, invariant, tmp_path, capsys):
        path = self._saved_index(tmp_path, codec, shards, ENTITY_CORPUS)
        getattr(IndexCorruptor(seed=11), fault)(path)
        assert main(["check-index", str(path)]) == 0
        assert main(["check-index", str(path), "--deep"]) == 2
        assert invariant in capsys.readouterr().out

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    @pytest.mark.parametrize("shards", (1, 2))
    def test_decode_encode_round_trip(self, codec, shards, tmp_path):
        path = self._saved_index(tmp_path, codec, shards)
        healthy = load_index(path)
        writer = resolve_codec(codec)
        writer.encode(writer.decode(path), tmp_path / "resealed")
        assert _index_fingerprint(load_index(tmp_path / "resealed")) == \
            _index_fingerprint(healthy)
        assert verify_store(tmp_path / "resealed") == []

    def test_byte_corruption_is_structural(self, tmp_path):
        path = self._saved_index(tmp_path)
        TornWriter(seed=5).tear(path, fraction=0.6)
        # a torn binary file is a structural failure — exit 1 without
        # needing --deep (the bytes-level region audit catches it even
        # when the lazy loader has not touched the torn region yet)
        assert main(["check-index", str(path)]) == 1

    def test_torn_header_fails_at_load(self, tmp_path):
        path = self._saved_index(tmp_path)
        TornWriter(seed=5).tear(path, fraction=0.01)
        with pytest.raises(StorageError):
            load_binary_index(path)
        assert check_index(path)["ok"] is False

    def test_decode_file_collects_instead_of_raising(self, tmp_path):
        path = self._saved_index(tmp_path)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # flip a byte inside the last posting region
        path.write_bytes(bytes(data))
        collected: list[tuple[str, str]] = []
        decode_file(path, on_violation=lambda name, detail:
                    collected.append((name, detail)))
        assert collected, "tampered region must surface a codec violation"
        assert all(name.startswith("codec-") for name, _ in collected)


# ---------------------------------------------------------------------------
# A loaded index is a plain index: decode once per keyword, lazily
# ---------------------------------------------------------------------------
def _mirrors_repo():
    return generate_mirrors(scale=1, seed=3)


#: ``_mirrors_repo()`` saved as varint-dag by the v4 writer (format
#: version 4): the committed sample of a file the current writer no
#: longer produces
V4_FIXTURE = Path(__file__).parent / "golden" / "v4-mirrors.gksindex"


def _directory_payloads(path) -> list[bytes]:
    """Every shard's inflated directory payload in a binary file."""
    data = Path(path).read_bytes()
    header = read_binary_header(path)
    cursor = header["blob_offset"]
    payloads = []
    for section in header["body"]["shards"]:
        stored = section["directory"][0]
        payloads.append(zlib.decompress(data[cursor:cursor + stored]))
        cursor += stored + sum(row[0] for row in section["frames"])
    return payloads


def _reseal_directory(path, mutate) -> None:
    """Replace a one-shard file's directory by ``mutate(payload)``, under
    fresh CRCs: what only a parse of the payload can catch."""
    data = Path(path).read_bytes()
    header = read_binary_header(path)
    cursor = header["blob_offset"]
    section, = header["body"]["shards"]
    stored = section["directory"][0]
    payload = mutate(zlib.decompress(data[cursor:cursor + stored]))
    directory = zlib.compress(payload)
    section["directory"] = [len(directory), len(payload),
                            zlib.crc32(directory)]
    _write_file(header["body"], [directory, data[cursor + stored:]], path)


def _build(repo, shards):
    return (build_index(repo) if shards == 1
            else build_sharded_index(repo, shards=shards))


def _units(index):
    """The per-shard (or the one) plain ``GKSIndex`` objects."""
    return ([shard.index for shard in index.shards]
            if hasattr(index, "shards") else [index])


def _read_dewey(data: bytes, pos: int, previous) -> tuple:
    """One front-coded Dewey id, one ``read_uvarint`` per field."""
    lcp, pos = read_uvarint(data, pos)
    suffix_len, pos = read_uvarint(data, pos)
    if lcp > len(previous):
        raise StorageError(
            f"codec data front-codes against a {lcp}-component prefix "
            f"but only {len(previous)} are available",
            diagnosis="corrupted")
    components = list(previous[:lcp])
    for _ in range(suffix_len):
        component, pos = read_uvarint(data, pos)
        components.append(component)
    return tuple(components), pos


def read_svarint(data: bytes, pos: int) -> tuple[int, int]:
    raw, pos = read_uvarint(data, pos)
    return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), pos


def _reference_run(payload, count, counted=False):
    """The per-posting ``_read_dewey`` loop the kernel replaced."""
    items, pos, previous = [], 0, ()
    for _ in range(count):
        previous, pos = _read_dewey(payload, pos, previous)
        if counted:
            value, pos = read_svarint(payload, pos)
            items.append((previous, value))
        else:
            items.append(previous)
    if pos != len(payload):
        raise StorageError("trailing bytes", diagnosis="corrupted")
    return items


def _encode_run(deweys, counts=None):
    out, previous = bytearray(), ()
    for position, dewey in enumerate(deweys):
        _write_dewey(out, dewey, previous)
        if counts is not None:
            write_svarint(out, counts[position])
        previous = dewey
    return bytes(out)


def _diagnosis(decode, *args, **kwargs):
    with pytest.raises(StorageError) as caught:
        decode(*args, **kwargs)
    return caught.value.diagnosis


#: sorted runs of ids with multi-byte components and, rarely, ids deep
#: enough (>= 128 components) for a multi-byte lcp / suffix length
dewey_runs = st.lists(
    st.one_of(
        st.lists(st.integers(0, 300), min_size=1, max_size=6),
        st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=4),
        st.lists(st.integers(0, 3), min_size=120, max_size=140)),
    min_size=1, max_size=24, unique_by=tuple,
).map(lambda ids: sorted(map(tuple, ids)))


class TestPlainPostings:
    @pytest.mark.parametrize("shards", (1, 2))
    def test_mirrors_postings_are_the_built_lists(self, shards, tmp_path):
        built = _build(_mirrors_repo(), shards)
        loaded = _roundtrip(built, tmp_path)
        for want, got in zip(_units(built), _units(loaded)):
            self._same_lists(want, got)
        # phrase keywords intersect the decoded word lists
        for phrase in ("cc by", "public domain", "rivera databases"):
            assert type(loaded.postings(phrase)) is list
            assert loaded.postings(phrase) == built.postings(phrase)
            assert loaded.postings(phrase) is loaded.postings(phrase)

    @settings(max_examples=25, deadline=None)
    @given(specs=st.lists(spec_strategy(), min_size=2, max_size=4),
           shards=st.sampled_from((1, 2)))
    def test_random_postings_are_the_built_lists(self, specs, shards,
                                                 tmp_path_factory):
        repo = Repository()
        for spec in specs:
            repo.add_root(build_tree(spec))
        built = _build(repo, shards)
        loaded = _roundtrip(built, tmp_path_factory.mktemp("plain"))
        for want, got in zip(_units(built), _units(loaded)):
            self._same_lists(want, got)
        assert loaded.postings("kilo lima") == built.postings("kilo lima")

    @staticmethod
    def _same_lists(built, loaded):
        assert loaded.inverted.vocabulary == built.inverted.vocabulary
        for keyword in built.inverted.vocabulary:
            first = loaded.inverted.postings(keyword)
            assert type(first) is list
            assert first == built.inverted.postings(keyword)
            assert loaded.inverted.postings(keyword) is first
        assert loaded.inverted.postings("no-such-keyword") == []

    def test_hash_tables_become_instance_dicts(self, tmp_path):
        built = build_index(_mirrors_repo())
        hashes = _roundtrip(built, tmp_path).hashes
        assert "_entity" not in vars(hashes)
        dewey = next(iter(built.hashes.entity_table))
        assert hashes.child_count(dewey) == built.hashes.child_count(dewey)
        assert type(vars(hashes)["_entity"]) is dict
        assert hashes.entity_table == built.hashes.entity_table
        assert hashes.element_table == built.hashes.element_table
        with pytest.raises(AttributeError):
            hashes._no_such_table

    def test_first_whole_index_use_leaves_a_plain_inverted_index(
            self, tmp_path):
        built = build_index(Repository.from_texts(CORPUS))
        loaded = _roundtrip(built, tmp_path)
        inverted = loaded.inverted
        kept = inverted.postings("keyword")
        pack = loaded.layout.pack
        inverted.add("keyword", pack((9, 0)))   # reaches ``_postings``
        inverted.add("brandnew", pack((9, 1)))
        assert type(inverted) is InvertedIndex
        assert inverted.postings("keyword") is kept
        assert kept[-1] == pack((9, 0))
        assert "brandnew" in inverted and "brandnew" in inverted.vocabulary
        assert len(inverted) == len(built.inverted) + 1
        assert inverted.total_postings == built.inverted.total_postings + 2
        # every list still sorted (document 9 and the extra postings are
        # other invariants' business)
        assert "postings-sorted" not in {
            violation.invariant for violation in verify_index(loaded)}


class TestLaziness:
    @staticmethod
    def _readers(loaded):
        return [unit.inverted._reader for unit in _units(loaded)]

    @pytest.mark.parametrize("shards", (1, 2))
    def test_counts_come_from_the_directory(self, shards, tmp_path):
        built = _build(_mirrors_repo(), shards)
        path = tmp_path / "dag.idx"
        VarintDagCodec().save(built, path)
        loaded = load_index(path)
        for want, got in zip(_units(built), _units(loaded)):
            assert len(got.inverted) == len(want.inverted)
            assert got.inverted.total_postings == \
                want.inverted.total_postings
            for keyword in want.inverted.vocabulary:
                assert got.inverted.document_frequency(keyword) == \
                    want.inverted.document_frequency(keyword)
            assert got.inverted.document_frequency("no-such-keyword") == 0
            assert all(keyword in got.inverted
                       for keyword in want.inverted.vocabulary)
            assert "no-such-keyword" not in got.inverted
        if shards > 1:
            assert loaded.shard_table() == built.shard_table()
        assert check_index(path)["postings"] == sum(
            unit.inverted.total_postings for unit in _units(built))
        # ... and none of it inflated a frame, let alone decoded a list
        for reader in self._readers(loaded):
            assert reader.frames._cache == {}

    def test_a_keyword_decodes_only_its_own_blocks(self, tmp_path,
                                                   monkeypatch):
        texts = [f"<r><a>alpha w{i}</a><b>beta w{i}</b></r>"
                 for i in range(300)]
        built = build_index(Repository.from_texts(texts))
        loaded = _roundtrip(built, tmp_path)
        reader, = self._readers(loaded)
        assert reader.frames._cache == {}
        touched = []
        decode_block = reader.block_postings
        monkeypatch.setattr(
            reader, "block_postings",
            lambda block, what: touched.append(block) or
            decode_block(block, what))
        assert loaded.postings("alpha") == built.postings("alpha")
        alpha, beta = (reader.directory.entry(keyword).blocks
                       for keyword in ("alpha", "beta"))
        assert len(alpha) > 1 and len(beta) > 1
        assert touched == alpha
        assert not set(touched) & set(beta)
        assert "beta" not in loaded.inverted._decoded

    def test_a_failed_decode_is_never_cached(self, tmp_path):
        texts = [f"<r><a>alpha w{i}</a></r>" for i in range(300)]
        built = build_index(Repository.from_texts(texts))
        loaded = _roundtrip(built, tmp_path)
        reader, = self._readers(loaded)
        blocks = reader.directory.entry("alpha").blocks
        assert len(blocks) > 1
        # tamper the *last* block behind its now stale CRC: the frame
        # itself was verified when it was inflated
        frame, offset = blocks[-1][0], blocks[-1][1]
        raw = bytearray(reader.frames.frame(frame))
        raw[offset + 1] ^= 0x01
        reader.frames._cache[frame] = bytes(raw)
        for _ in range(2):
            with pytest.raises(StorageError, match="CRC32") as caught:
                loaded.postings("alpha")
            assert caught.value.diagnosis == "corrupted"
            assert "alpha" not in loaded.inverted._decoded
        with pytest.raises(StorageError):
            search(loaded, Query.parse("alpha", s=1))

    def test_block_disagreeing_with_its_directory_is_rejected(
            self, tmp_path):
        built = build_index(Repository.from_texts(CORPUS))
        loaded = _roundtrip(built, tmp_path)
        reader, = self._readers(loaded)
        blocks = reader.directory.entry("keyword").blocks
        first = blocks[0]
        blocks[0] = first[:5] + (first[5] + (7,),)
        with pytest.raises(StorageError, match="directory metadata"):
            loaded.postings("keyword")
        blocks[0] = first[:3] + (first[3] + 1,) + first[4:]
        assert _diagnosis(loaded.postings, "keyword") == "truncated"


class TestLazyDirectory:
    """A load parses the fixed tables; a keyword's entry parses once,
    on its first touch; v4 files parse whole and stay readable."""

    TEXTS = [f"<r><a>alpha w{i}</a><b>beta w{i}</b></r>" for i in range(8)]

    @staticmethod
    def _parsed() -> int:
        return global_registry().counter(
            "gks_codec_directory_entries_parsed_total").total()

    def _saved(self, tmp_path, built=None):
        built = built or build_index(Repository.from_texts(self.TEXTS))
        path = tmp_path / "dag.idx"
        VarintDagCodec().save(built, path)
        return built, path

    def test_a_load_parses_no_entry_and_a_touch_one(self, tmp_path):
        _, path = self._saved(tmp_path)
        before = self._parsed()
        loaded = load_index(path)
        assert len(loaded.inverted) > 2 and "beta" in loaded.inverted
        assert self._parsed() == before
        loaded.postings("alpha")
        assert self._parsed() == before + 1
        loaded.postings("alpha")
        loaded.inverted.document_frequency("alpha")
        loaded.postings("no-such-keyword")
        assert self._parsed() == before + 1

    def test_a_search_parses_its_keywords_in_the_vocabulary(self,
                                                             tmp_path):
        built, path = self._saved(tmp_path, build_index(_mirrors_repo()))
        query = Query.parse("license rivera zzyzx", s=1,
                            analyzer=built.analyzer)
        known = {keyword for keyword in query.keywords
                 if keyword in built.inverted}
        assert 0 < len(known) < len(query.keywords)
        for _ in range(2):  # the count repeats exactly
            loaded = load_index(path)
            before = self._parsed()
            assert _signature(search(loaded, query)) == \
                _signature(search(built, query))
            assert self._parsed() - before == len(known)

    def test_check_index_parses_every_entry(self, tmp_path):
        built, path = self._saved(tmp_path)
        before = self._parsed()
        assert check_index(path)["ok"]
        assert self._parsed() - before == len(built.inverted)

    def test_a_resealed_malformed_entry_fails_at_first_touch(
            self, tmp_path, capsys):
        built, path = self._saved(tmp_path)
        position = sorted(built.inverted.vocabulary).index("alpha")

        def break_alpha(payload: bytes) -> bytes:
            # alpha's block count -> 127: more rows than its entry holds
            count = int.from_bytes(payload[:4], "little")
            ends = [int.from_bytes(payload[at:at + 4], "little")
                    for at in range(4, 4 + 8 * (count + 1), 4)]
            at = 4 + 8 * (count + 1) + ends[count] + ends[count + 1 + position]
            return payload[:at] + b"\x7f" + payload[at + 1:]

        _reseal_directory(path, break_alpha)
        loaded = load_index(path)  # sizes still add up: the load passes
        assert loaded.postings("beta") == built.postings("beta")
        for _ in range(2):
            assert _diagnosis(loaded.postings, "alpha") == "corrupted"
        report = check_index(path)
        assert not report["ok"] and report["diagnosis"] == "corrupted"
        assert "'alpha'" in report["error"]
        assert main(["check-index", str(path)]) == 1
        capsys.readouterr()

    def test_a_v4_file_stays_readable(self, capsys):
        built = build_index(_mirrors_repo())
        before = self._parsed()
        loaded = load_index(V4_FIXTURE)
        # v4 has no per-keyword offsets: its load parses every entry
        assert self._parsed() - before == len(built.inverted)
        assert sorted(loaded.inverted.vocabulary) == \
            sorted(built.inverted.vocabulary)
        for keyword in built.inverted.vocabulary:
            assert tuple_postings(loaded, keyword) == \
                tuple_postings(built, keyword)
            assert loaded.inverted.document_frequency(keyword) == \
                built.inverted.document_frequency(keyword)
        assert unpacked(loaded, loaded.hashes.entity_table) == \
            unpacked(built, built.hashes.entity_table)
        assert unpacked(loaded, loaded.hashes.element_table) == \
            unpacked(built, built.hashes.element_table)
        assert describe_layout(V4_FIXTURE)["version"] == 4
        assert check_index(V4_FIXTURE)["ok"]
        assert verify_store(V4_FIXTURE) == []
        assert main(["check-index", str(V4_FIXTURE), "--deep"]) == 0
        capsys.readouterr()

    def test_concurrent_first_touches_share_one_memo(self, tmp_path):
        built, path = self._saved(tmp_path, build_index(_mirrors_repo()))
        vocabulary = sorted(built.inverted.vocabulary)
        want = {keyword: (built.postings(keyword),
                          built.inverted.document_frequency(keyword))
                for keyword in vocabulary}
        loaded = load_index(path)
        directory = loaded.inverted._reader.directory
        barrier = threading.Barrier(8)
        results, entries, errors = [], [], []

        def read_all(seed: int) -> None:
            order = list(vocabulary)
            random.Random(seed).shuffle(order)
            try:
                barrier.wait(timeout=30)
                # the entry each thread's first touch hands back
                entries.append({keyword: directory.entry(keyword)
                                for keyword in order})
                results.append({keyword: (
                    loaded.postings(keyword),
                    loaded.inverted.document_frequency(keyword))
                    for keyword in order})
            except Exception as exc:  # surfaced by the asserts below
                errors.append(exc)

        before = self._parsed()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read_all, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 8
        assert all(result == want for result in results)
        # one memoised entry per keyword, whatever the first touches
        # raced: every thread holds the same object; only an installed
        # entry counts (the registry's counters are not atomic across
        # threads, so a racing increment may drop)
        assert sorted(directory._entries) == vocabulary
        assert all(seen[keyword] is directory.entry(keyword)
                   for seen in entries for keyword in vocabulary)
        assert 0 < self._parsed() - before <= len(vocabulary)


class TestDecodeKernel:
    @settings(max_examples=150, deadline=None)
    @given(deweys=dewey_runs, data=st.data())
    def test_equals_the_read_dewey_loop(self, deweys, data):
        payload = _encode_run(deweys)
        assert _decode_run(payload, len(deweys), "run", None) == \
            _reference_run(payload, len(deweys)) == deweys
        counts = data.draw(st.lists(
            st.integers(-200, 2 ** 20), min_size=len(deweys),
            max_size=len(deweys)))
        payload = _encode_run(deweys, counts)
        assert _decode_run(payload, len(deweys), "rows", None,
                           counted=True) == \
            _reference_run(payload, len(deweys), counted=True) == \
            list(zip(deweys, counts))

    def test_multi_byte_lcp_and_suffix_length(self):
        deep = (1,) * 130
        deweys = [deep, deep + (2,), deep[:129] + (3,) * 200,
                  deep[:129] + (3,) * 200 + (2 ** 35,)]
        payload = _encode_run(deweys)
        assert _decode_run(payload, 4, "run", None) == \
            _reference_run(payload, 4) == deweys

    @settings(max_examples=60, deadline=None)
    @given(deweys=dewey_runs, counted=st.booleans())
    def test_rejects_what_the_reference_rejects(self, deweys, counted):
        counts = list(range(-3, len(deweys) - 3)) if counted else None
        payload = _encode_run(deweys, counts)
        count = len(deweys)
        for cut in range(len(payload)):
            assert _diagnosis(_decode_run, payload[:cut], count, "run",
                              None, counted=counted) == \
                _diagnosis(_reference_run, payload[:cut], count,
                           counted) == "truncated"
        assert _diagnosis(_decode_run, payload + b"\x00", count, "run",
                          None, counted=counted) == \
            _diagnosis(_reference_run, payload + b"\x00", count,
                       counted) == "corrupted"

    @pytest.mark.parametrize("payload, count", [
        (b"\x01\x01\x05", 1),                    # lcp 1 against ()
        (b"\x00\x01\x05\x03\x01\x07", 2),        # lcp 3 against (5,)
        (b"\x00\x01\x05\x81\x01\x00", 2),        # multi-byte lcp 129
    ])
    def test_lcp_overrun_is_corruption(self, payload, count):
        assert _diagnosis(_decode_run, payload, count, "run", None) == \
            _diagnosis(_reference_run, payload, count) == "corrupted"


class TestLoadedEqualsInMemory:
    @staticmethod
    def _queries(index):
        queries = generate_queries(index, WorkloadSpec(
            queries=40, max_keywords=4, selectivity=0.8, noise=0.05,
            seed=5))
        queries += [Query.parse(text, s=s, analyzer=index.analyzer)
                    for text, s in (('"cc by" databases', 1),
                                    ('"public domain" rivera', 2),
                                    ("record title license", 2))]
        return queries

    @pytest.mark.parametrize("shards", (1, 2))
    def test_search_top_k_and_rank_node(self, shards, tmp_path):
        built = _build(_mirrors_repo(), shards)
        loaded = _roundtrip(built, tmp_path)
        answered = 0
        for query in self._queries(built):
            want = search(built, query)
            got = search(loaded, query)
            assert _signature(got) == _signature(want)
            assert _signature(search_top_k(loaded, query, 5)) == \
                _signature(search_top_k(built, query, 5))
            for node in want.nodes[:20]:
                assert rank_node(loaded, query,
                                 loaded.layout.pack(node.dewey)) == \
                    rank_node(built, query, built.layout.pack(node.dewey))
            answered += bool(want.nodes)
        assert answered > 20

    @pytest.mark.parametrize("limits", ({"max_sl": 7}, {"max_nodes": 3}))
    @pytest.mark.parametrize("shards", (1, 2))
    def test_degraded_answers_are_equal_too(self, shards, limits,
                                            tmp_path):
        built = _build(_mirrors_repo(), shards)
        loaded = _roundtrip(built, tmp_path)
        degraded = 0
        for query in self._queries(built):
            want = search(built, query, budget=SearchBudget(**limits))
            got = search(loaded, query, budget=SearchBudget(**limits))
            assert _signature(got) == _signature(want)
            assert _signature(search_top_k(
                loaded, query, 5, budget=SearchBudget(**limits))) == \
                _signature(search_top_k(
                    built, query, 5, budget=SearchBudget(**limits)))
            degraded += want.degraded
        assert degraded > 0


class TestCodecObservability:
    NAMES = ("gks_codec_frames_inflated_total",
             "gks_codec_blocks_decoded_total",
             "gks_codec_postings_decoded_total")

    def _totals(self):
        registry = global_registry()
        return ([registry.counter(name).total() for name in self.NAMES]
                + [registry.histogram("gks_codec_decode_seconds").count()])

    def test_counters_move_once_per_keyword(self, tmp_path):
        built = build_index(_mirrors_repo())
        loaded = _roundtrip(built, tmp_path)
        keyword = max(built.inverted.vocabulary,
                      key=built.inverted.document_frequency)
        before = self._totals()
        postings = loaded.postings(keyword)
        frames, blocks, decoded, keywords = (
            after - was for after, was in zip(self._totals(), before))
        assert frames >= 1 and keywords == 1
        assert decoded == len(postings) > 0
        assert blocks == len(
            loaded.inverted._reader.directory.entry(keyword).blocks)
        loaded.postings(keyword)
        assert self._totals() == [was + step for was, step in zip(
            before, (frames, blocks, decoded, keywords))]
        assert "gks_codec_decode_seconds_bucket" in \
            global_registry().render_prometheus()

    def test_one_decode_span_per_keyword_on_a_real_tracer(self, tmp_path):
        built = build_index(_mirrors_repo())
        loaded = _roundtrip(built, tmp_path)
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        query = Query.parse("license rivera", s=1, analyzer=built.analyzer)
        search(loaded, query, tracer=tracer)
        merge = tracer.roots[-1].find("merge")
        spans = [span for span in merge.children if span.name == "decode"]
        assert [span.attributes["keyword"] for span in spans] == \
            list(query.keywords)
        assert [span.counters["postings"] for span in spans] == \
            [len(built.postings(keyword)) for keyword in query.keywords]
        # decoded once: the repeat records none
        search(loaded, query, tracer=tracer)
        assert tracer.roots[-1].find("decode") is None

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_traced_save_plans_each_shard_under_encode(self, tmp_path,
                                                         shards):
        tracer = Tracer()
        resolve_codec("varint-dag").save(_build(_mirrors_repo(), shards),
                                         tmp_path / "traced", tracer)
        encode, write = tracer.roots
        assert (encode.name, write.name) == ("encode", "write")
        assert [span.name for span in encode.children] == ["plan"] * shards
        assert sum(span.duration_s for span in encode.children) <= \
            encode.duration_s


# ---------------------------------------------------------------------------
# check-index --json
# ---------------------------------------------------------------------------
class TestCheckIndexJson:
    def _report(self, capsys, *argv):
        exit_code = main(["check-index", *argv, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["exit"] == exit_code
        return report

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_json_reports_format_block(self, codec, tmp_path, capsys):
        index = build_index(Repository.from_texts(CORPUS))
        path = tmp_path / "idx"
        resolve_codec(codec).save(index, path)
        report = self._report(capsys, str(path))
        assert report["ok"] is True and report["exit"] == 0
        assert report["format"]["codec"] == codec
        assert report["format"]["layout"] == "monolithic"
        assert report["summary"]["documents"] == len(CORPUS)

    def test_json_is_stable(self, tmp_path, capsys):
        index = build_index(Repository.from_texts(CORPUS))
        path = tmp_path / "idx"
        VarintDagCodec().save(index, path)
        first = self._report(capsys, str(path))
        second = self._report(capsys, str(path))
        assert first == second

    def test_json_on_broken_file(self, tmp_path, capsys):
        path = tmp_path / "broken.idx"
        path.write_bytes(b"GKSIDX04 but not really")
        report = self._report(capsys, str(path))
        assert report["ok"] is False and report["exit"] == 1

    def test_json_on_store_directory(self, tmp_path, capsys):
        engine = GKSEngine.open(Texts(CORPUS),
                                store_path=tmp_path / "store")
        engine.close()
        report = self._report(capsys, str(tmp_path / "store"))
        assert report["ok"] is True
        assert report["format"]["layout"] == "store"
        assert report["format"]["codec"] == "raw"

    @staticmethod
    def _target(tmp_path, codec, case) -> list[str]:
        """check-index argv for one damage *case* of a file or store."""
        if case.startswith("store"):
            store = tmp_path / "store"
            engine = GKSEngine.open(Texts(CORPUS), config=EngineConfig(
                store_path=store, shards=2, codec=codec, memtable_docs=2))
            for position, text in enumerate(CORPUS[:3]):
                engine.add_document(text, name=f"extra{position}.xml")
            engine.close()
            if case == "store-crc":
                segment = next(store.glob("seg-*"))
                data = bytearray(segment.read_bytes())
                data[len(data) // 2] ^= 0xFF
                segment.write_bytes(bytes(data))
            elif case == "store-deep":
                StoreCorruptor(seed=17).corrupt_segment_postings(store)
                return [str(store), "--deep"]
            return [str(store)]
        path = tmp_path / "idx"
        resolve_codec(codec).save(
            build_sharded_index(Repository.from_texts(CORPUS), shards=2),
            path)
        if case == "torn":
            TornWriter(seed=5).tear(path, fraction=0.5)
        elif case == "deep":
            IndexCorruptor(seed=11).corrupt_postings(path)
            return [str(path), "--deep"]
        return [str(path)]

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    @pytest.mark.parametrize("case, exit_code", [
        ("healthy", 0), ("torn", 1), ("deep", 2),
        ("store", 0), ("store-crc", 1), ("store-deep", 2)])
    def test_text_is_rendered_from_the_json_report(
            self, tmp_path, capsys, codec, case, exit_code):
        argv = self._target(tmp_path, codec, case)
        assert main(["check-index", *argv]) == exit_code
        text = capsys.readouterr().out
        report = self._report(capsys, *argv)
        assert report["exit"] == exit_code
        assert text == cli._render_check_report(report) + "\n"
        noun = "store" if case.startswith("store") else "index"
        assert text.startswith(f"{noun} {'OK' if report['ok'] else 'BAD'}")

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_node_counts_do_not_copy_the_hash_tables(
            self, tmp_path, monkeypatch, codec):
        built = build_sharded_index(Repository.from_texts(ENTITY_CORPUS),
                                    shards=2)
        entities = len(built.hashes.entity_table)
        elements = len(built.hashes.element_table)
        path = tmp_path / "two-shards.idx"
        resolve_codec(codec).save(built, path)

        def copied(self):
            raise AssertionError("counted by copying a hash table")
        for tables in (NodeHashes, _RoutedHashes):
            monkeypatch.setattr(tables, "entity_table", property(copied))
            monkeypatch.setattr(tables, "element_table", property(copied))
        summary = check_index(path)
        assert summary["ok"]
        assert (summary["entity_nodes"], summary["element_nodes"]) == \
            (entities, elements)


# ---------------------------------------------------------------------------
# SearchOptions across every surface
# ---------------------------------------------------------------------------
class TestSearchOptions:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SearchOptions(s=0)
        with pytest.raises(ConfigError):
            SearchOptions(k=0)
        with pytest.raises(ConfigError):
            SearchOptions(deadline_s=-1)

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValidationError):
            SearchOptions.from_mapping({"strict": True})
        with pytest.raises(ValidationError):
            SearchOptions.from_mapping({"s": "not-a-number"})
        with pytest.raises(ValidationError):
            SearchOptions.from_mapping([1, 2])

    def test_from_mapping_validates_and_never_coerces(self):
        # query strings carry strings, bodies carry JSON types: each
        # field admits its type or that type's spelling, nothing else
        assert SearchOptions.from_mapping(
            {"use_cache": "false"}).use_cache is False
        assert SearchOptions.from_mapping(
            {"s": "2", "strict_deadline": "1", "threshold": 1}) == \
            SearchOptions(s=2, strict_deadline=True, threshold=1.0)
        for raw in ({"s": 1.9}, {"k": True}, {"s": None}, {"k": []},
                    {"use_cache": "yes"}, {"use_cache": 2},
                    {"deadline_ms": None}, {"deadline_ms": "nan"},
                    {"deadline_s": "inf"}, {"deadline_ms": {}},
                    {"threshold": "nan"}, {"mode": 5}):
            with pytest.raises(ValidationError):
                SearchOptions.from_mapping(raw)
        with pytest.raises(ConfigError):
            SearchOptions(deadline_s=float("nan"))

    def test_from_mapping_wire_spelling(self):
        options = SearchOptions.from_mapping(
            {"s": 2, "k": 3, "deadline_ms": 1500, "use_cache": False})
        assert options == SearchOptions(s=2, k=3, deadline_s=1.5,
                                        use_cache=False)

    def test_engine_options_equal_explicit_kwargs(self):
        engine = GKSEngine.open(Texts(CORPUS))
        via_kwargs = engine.search("keyword search", s=2, use_cache=False)
        via_options = engine.search(
            "keyword search",
            options=SearchOptions(s=2, use_cache=False))
        assert _signature(via_options) == _signature(via_kwargs)

    def test_explicit_kwargs_beat_options(self):
        engine = GKSEngine.open(Texts(CORPUS))
        response = engine.search("keyword search", s=1,
                                 options=SearchOptions(s=2))
        assert _signature(response) == \
            _signature(engine.search("keyword search", s=1))

    def test_top_k_via_options(self):
        engine = GKSEngine.open(Texts(CORPUS))
        via_options = engine.search_top_k("keyword",
                                          options=SearchOptions(k=2))
        assert _signature(via_options) == \
            _signature(engine.search_top_k("keyword", 2))
        with pytest.raises(ValidationError):
            engine.search_top_k("keyword")

    def test_strict_deadline_via_options(self):
        from repro.errors import SearchTimeout

        engine = GKSEngine.open(Texts(CORPUS * 4))
        clock = FakeClock(auto_advance=1.0)
        budget = SearchBudget(deadline_s=0.5, clock=clock)
        with pytest.raises(SearchTimeout):
            engine.search("keyword", budget=budget,
                          options=SearchOptions(strict_deadline=True))

    def test_server_core_accepts_options(self):
        from repro.serve.core import ServerCore

        engine = GKSEngine.open(Texts(CORPUS))
        core = ServerCore(engine)
        try:
            via_options = core.search("keyword",
                                      options=SearchOptions(k=1))
            assert len(via_options.nodes) <= 1
            assert _signature(via_options) == \
                _signature(core.search("keyword", k=1))
        finally:
            core.close()

    def test_option_requests_skip_the_engine_cache(self):
        from repro.serve.core import ServerCore

        engine = GKSEngine.open(Texts(CORPUS))
        core = ServerCore(engine)
        try:
            core.search("keyword")
            core.search("keyword")   # LRU hit: identical, option-less
            assert engine.cache_info()["hits"] == 1
            before = engine.cache_info()
            # the record reaches the engine as it came: use_cache=False
            # excludes the request in both directions — no hit, no store
            core.search("keyword", options=SearchOptions(use_cache=False))
            assert engine.cache_info() == before
        finally:
            core.close()


@pytest.fixture()
def http_server():
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.config import ServeConfig
    from repro.serve.core import ServerCore
    from repro.serve.http import serve_http

    engine = GKSEngine.open(Texts(CORPUS))
    core = ServerCore(engine, ServeConfig(workers=2),
                      registry=MetricsRegistry())
    server = serve_http(core)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    core.close()


class TestHTTPOptions:
    def _post(self, base, body: dict):
        request = urllib.request.Request(
            f"{base}/search", data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.load(response)

    def test_options_object_travels_to_the_engine(self, http_server):
        status, payload = self._post(
            http_server, {"q": "keyword", "options": {"k": 1, "s": 1}})
        assert status == 200
        assert len(payload["nodes"]) <= 1

    def test_unknown_option_is_400(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as caught:
            self._post(http_server,
                       {"q": "keyword", "options": {"turbo": True}})
        assert caught.value.code == 400

    def test_explicit_params_win_over_options(self, http_server):
        _, via_options = self._post(
            http_server, {"q": "keyword search", "s": 1,
                          "options": {"s": 2}})
        _, direct = self._post(http_server, {"q": "keyword search",
                                             "s": 1})
        assert [n["dewey"] for n in via_options["nodes"]] == \
            [n["dewey"] for n in direct["nodes"]]


# ---------------------------------------------------------------------------
# The api facade
# ---------------------------------------------------------------------------
class TestApiFacade:
    def test_every_name_resolves(self):
        import repro.api as api

        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_facade_is_the_real_surface(self):
        import repro.api as api

        assert api.GKSEngine is GKSEngine
        assert api.EngineConfig is EngineConfig
        assert api.SearchOptions is SearchOptions
        assert api.resolve_codec is resolve_codec

    def test_quickstart_works_end_to_end(self, tmp_path):
        from repro.api import EngineConfig as Config
        from repro.api import GKSEngine as Engine
        from repro.api import SearchOptions as Options

        config = Config(store_path=tmp_path / "corpus.store",
                        codec="varint-dag", shards=2)
        engine = Engine.open(CORPUS, config=config)
        response = engine.search("keyword search", options=Options(s=2))
        assert response.nodes
        engine.close()
        reopened = Engine.open(CORPUS, config=config)
        assert _signature(reopened.search(
            "keyword search", options=Options(s=2))) == _signature(response)
        reopened.close()


# ---------------------------------------------------------------------------
# The Dewey layout a file records: old files derive it, wrong widths fail
# ---------------------------------------------------------------------------
#: ``_mirrors_repo()`` saved as varint-dag by the v5 writer before files
#: recorded their ``dewey_widths``
V5_FIXTURE = Path(__file__).parent / "golden" / "v5-mirrors.gksindex"


class TestRecordedLayout:
    def test_both_codecs_record_the_layout(self, tmp_path):
        from repro.index.storage import read_json_gz

        built = build_index(_mirrors_repo())
        widths = list(built.layout.widths)
        dag = VarintDagCodec().save(built, tmp_path / "dag.idx")
        raw = RawCodec().save(built, tmp_path / "raw.idx")
        assert read_binary_header(dag)["body"]["dewey_widths"] == widths
        assert read_json_gz(raw)["payload"]["dewey_widths"] == widths
        for path in (dag, raw):
            assert load_index(path).layout == built.layout

    def test_a_v5_file_without_widths_loads_like_a_fresh_build(self,
                                                                capsys):
        built = build_index(_mirrors_repo())
        assert "dewey_widths" not in read_binary_header(V5_FIXTURE)["body"]
        loaded = load_index(V5_FIXTURE)
        assert loaded.layout == loaded.layout.covering(
            dewey for keyword in built.inverted.vocabulary
            for dewey in tuple_postings(built, keyword))
        for keyword in built.inverted.vocabulary:
            assert tuple_postings(loaded, keyword) == \
                tuple_postings(built, keyword)
        assert unpacked(loaded, loaded.hashes.entity_table) == \
            unpacked(built, built.hashes.entity_table)
        for query in (Query.parse("license rivera", s=1,
                                  analyzer=built.analyzer),
                      Query.parse("license rivera archive", s=2,
                                  analyzer=built.analyzer)):
            assert _signature(search(loaded, query)) == \
                _signature(search(built, query))
        assert check_index(V5_FIXTURE)["ok"]
        assert main(["check-index", str(V5_FIXTURE), "--deep"]) == 0
        capsys.readouterr()

    @staticmethod
    def _narrow(widths: list[int]) -> list[int]:
        """Widths one bit short on the widest level: some ids misfit."""
        narrowed = list(widths)
        widest = narrowed.index(max(narrowed))
        narrowed[widest] = max(1, narrowed[widest] - 2)
        return narrowed

    def test_dag_widths_that_misfit_are_corrupt(self, tmp_path, capsys):
        built = build_index(_mirrors_repo())
        path = VarintDagCodec().save(built, tmp_path / "dag.idx")
        header = read_binary_header(path)
        data = path.read_bytes()
        body = header["body"]
        body["dewey_widths"] = self._narrow(body["dewey_widths"])
        _write_file(body, [data[header["blob_offset"]:]], path)
        try:  # the load decodes the DAG occurrences: it may fail here
            loaded = load_index(path)
        except StorageError as exc:
            assert exc.diagnosis == "corrupted"
            loaded = None
        failures = 0
        for keyword in built.inverted.vocabulary if loaded else ():
            try:
                postings = loaded.postings(keyword)
            except StorageError as exc:
                assert exc.diagnosis == "corrupted"
                failures += 1
            else:  # what decodes is never a wrong answer
                assert list(map(loaded.layout.unpack, postings)) == \
                    tuple_postings(built, keyword)
        assert failures or loaded is None
        report = check_index(path)
        assert not report["ok"] and report["diagnosis"] == "corrupted"
        assert main(["check-index", str(path)]) == 1
        capsys.readouterr()

    def test_raw_widths_that_misfit_are_corrupt(self, tmp_path, capsys):
        from repro.index.storage import (atomic_write_gz, canonical_json,
                                         payload_crc32, read_json_gz)

        built = build_index(_mirrors_repo())
        path = RawCodec().save(built, tmp_path / "raw.idx")
        envelope = read_json_gz(path)
        payload = envelope["payload"]
        payload["dewey_widths"] = self._narrow(payload["dewey_widths"])
        envelope["crc32"] = payload_crc32(payload)
        atomic_write_gz(canonical_json(envelope), path)
        with pytest.raises(StorageError) as caught:
            load_index(path)
        assert caught.value.diagnosis == "corrupted"
        report = check_index(path)
        assert not report["ok"] and report["diagnosis"] == "corrupted"
        assert main(["check-index", str(path), "--deep"]) != 0
        capsys.readouterr()

    @pytest.mark.parametrize("widths", ["wide", [3, "x"], [0, 2], None])
    def test_malformed_widths_are_corrupt(self, widths, tmp_path):
        built = build_index(_mirrors_repo())
        path = VarintDagCodec().save(built, tmp_path / "dag.idx")
        header = read_binary_header(path)
        data = path.read_bytes()
        header["body"]["dewey_widths"] = widths
        _write_file(header["body"], [data[header["blob_offset"]:]], path)
        assert _diagnosis(load_index, path) == "corrupted"
