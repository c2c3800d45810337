"""Sharded index: partitioning, parallel build, scatter-gather equivalence,
storage manifest round-trips and the unified ``EngineConfig`` API.

The load-bearing guarantee is *exact equivalence*: for every corpus,
query and budget, a sharded search must return node-for-node,
score-for-score the same response a monolithic index produces — the
shard layout is an implementation detail no caller can observe through
results.
"""

from __future__ import annotations

import gzip
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import SearchBudget
from repro.core.config import EngineConfig, Texts
from repro.core.engine import GKSEngine
from repro.core.query import Query
from repro.core.scatter import sharded_search, sharded_top_k
from repro.core.search import search
from repro.core.topk import search_top_k
from repro.datasets.registry import load_dataset
from repro.errors import ConfigError, GKSError, StorageError
from repro.index.builder import IndexBuilder
from repro.index.sharding import ShardedIndex, build_sharded_index, shard_of
from repro.index.storage import check_index, load_index, save_index
from repro.testing.faults import FakeClock, TornWriter
from repro.xmltree.repository import Repository

pytestmark = pytest.mark.sharding

SHARD_COUNTS = (1, 2, 4, 7)

# A small multi-document corpus with overlapping vocabulary so queries
# cross shard boundaries: the same keywords recur in different documents.
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

QUERIES = ["keyword", "keyword search", "buneman fan", "data mining search"]


def _monolithic(repository):
    builder = IndexBuilder()
    builder.add_repository(repository)
    return builder.build()


def _signature(response):
    """Everything a caller can observe about a response's content."""
    return (
        tuple((node.dewey, node.score, node.distinct_keywords,
               node.matched_keywords, node.is_lce, node.estimated_keywords)
              for node in response.nodes),
        response.degraded,
        (response.degradation.stage, response.degradation.reason)
        if response.degradation else None,
    )


def _counters(response):
    """The work counters of the §4.2 bound: layout must not move them."""
    stats = response.stats
    return (stats.postings_scanned, stats.lcp_entries, stats.lce_nodes,
            stats.nodes_emitted)


def _assert_equivalent(repository, query, shards, **budget_kwargs):
    mono = _monolithic(repository)
    sharded = build_sharded_index(repository, shards=shards)

    def budget():
        return SearchBudget(**budget_kwargs) if budget_kwargs else None

    expected = search(mono, query, budget=budget())
    # both names of the one driver: the plain entry point on a sharded
    # layout scatter-gathers too
    for entry_point in (sharded_search, search):
        actual = entry_point(sharded, query, budget=budget())
        assert _signature(actual) == _signature(expected)
        assert _counters(actual) == _counters(expected)


class TestPartitioning:
    def test_round_robin_cycles_documents(self):
        assert [shard_of(i, f"d{i}", 3, "round_robin") for i in range(6)] \
            == [0, 1, 2, 0, 1, 2]

    def test_hash_is_deterministic_by_name(self):
        first = shard_of(0, "corpus.xml", 4, "hash")
        assert shard_of(99, "corpus.xml", 4, "hash") == first

    @staticmethod
    def _partitions(names, shards, strategy):
        repository = Repository()
        for name in names:
            repository.parse("<a>x</a>", name=name)
        return [shard.doc_ids for shard in build_sharded_index(
            repository, shards=shards, strategy=strategy).shards]

    def test_partition_covers_every_document_once(self):
        names = [f"d{i}.xml" for i in range(11)]
        for strategy in ("round_robin", "hash"):
            partitions = self._partitions(names, 4, strategy)
            assert sorted(sum(partitions, ())) == list(range(11))

    def test_empty_shards_are_allowed(self):
        partitions = self._partitions(["only.xml"], 7, "round_robin")
        assert partitions[0] == (0,)
        assert all(not p for p in partitions[1:])

    @pytest.mark.parametrize("shards,strategy", [
        (0, "round_robin"), (-1, "hash"), (2, "alphabetical")])
    def test_invalid_arguments_raise_config_error(self, shards, strategy):
        with pytest.raises(ConfigError):
            shard_of(0, "d.xml", shards, strategy)


class TestShardedBuild:
    def test_facade_matches_monolithic_index(self):
        repository = Repository.from_texts(CORPUS)
        mono = _monolithic(repository)
        for shards in SHARD_COUNTS:
            sharded = build_sharded_index(repository, shards=shards)
            assert sharded.num_shards == shards
            assert sharded.document_names == mono.document_names
            for keyword in dict(mono.inverted.items()):
                assert sharded.postings(keyword) == \
                    list(mono.postings(keyword))
            assert sharded.stats.total_nodes == mono.stats.total_nodes
            assert sharded.hashes.entity_table == mono.hashes.entity_table
            assert sharded.hashes.element_table == mono.hashes.element_table

    def test_invalid_builder_arguments(self):
        repository = Repository.from_texts(CORPUS)
        with pytest.raises(ConfigError):
            build_sharded_index(repository, shards=0)
        with pytest.raises(ConfigError):
            build_sharded_index(repository, strategy="modulo")


class TestEquivalence:
    """Sharded answers must be indistinguishable from monolithic ones."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("raw", QUERIES)
    def test_search_identical_on_synthetic_corpus(self, shards, raw):
        repository = Repository.from_texts(CORPUS)
        for s in (1, 2):
            _assert_equivalent(repository, Query.parse(raw, s=s), shards)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("name,raw", [
        ("figure1", "karen mike data mining"),
        ("figure2a", "peter buneman"),
        ("plays", "king lear night"),
    ])
    def test_search_identical_on_bundled_datasets(self, shards, name, raw):
        repository = load_dataset(name)
        _assert_equivalent(repository, Query.parse(raw), shards)
        _assert_equivalent(repository, Query.parse(raw, s=2), shards)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_top_k_identical(self, shards, k):
        repository = Repository.from_texts(CORPUS)
        mono = _monolithic(repository)
        sharded = build_sharded_index(repository, shards=shards)
        for raw in QUERIES:
            query = Query.parse(raw)
            expected = search_top_k(mono, query, k)
            assert _signature(expected)[0] == \
                _signature(search(mono, query))[0][:k]
            for entry_point in (sharded_top_k, search_top_k):
                actual = entry_point(sharded, query, k)
                assert _signature(actual) == _signature(expected)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_max_sl_trip_identical(self, shards):
        repository = Repository.from_texts(CORPUS)
        for max_sl in (1, 2, 3, 5):
            _assert_equivalent(repository, Query.parse("keyword search"),
                               shards, max_sl=max_sl)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_max_nodes_trip_identical(self, shards):
        repository = Repository.from_texts(CORPUS)
        for max_nodes in (1, 2):
            _assert_equivalent(repository, Query.parse("keyword search"),
                               shards, max_nodes=max_nodes)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_expired_deadline_identical(self, shards):
        # both clocks jump far past the deadline on first read, so every
        # stage trips immediately and the recovery_k path is exercised
        repository = Repository.from_texts(CORPUS)
        query = Query.parse("keyword search")
        mono = _monolithic(repository)
        sharded = build_sharded_index(repository, shards=shards)
        expected = search(mono, query, budget=SearchBudget(
            deadline_s=0.001, recovery_k=2,
            clock=FakeClock(auto_advance=1.0)))
        actual = sharded_search(sharded, query, budget=SearchBudget(
            deadline_s=0.001, recovery_k=2,
            clock=FakeClock(auto_advance=1.0)))
        assert _signature(actual) == _signature(expected)
        assert actual.degraded and actual.degradation.reason == "deadline"

    @settings(max_examples=25, deadline=None)
    @given(
        docs=st.lists(
            st.lists(
                st.sampled_from(["alpha", "beta", "gamma", "delta",
                                 "epsilon"]),
                min_size=1, max_size=6),
            min_size=1, max_size=6),
        shards=st.sampled_from(SHARD_COUNTS),
        s=st.integers(min_value=1, max_value=3))
    def test_search_identical_on_generated_corpora(self, docs, shards, s):
        texts = [
            "<doc>" + "".join(f"<item>{word} note</item>" for word in words)
            + "</doc>"
            for words in docs]
        repository = Repository.from_texts(texts)
        query = Query.parse("alpha beta gamma", s=s)
        _assert_equivalent(repository, query, shards)
        _assert_equivalent(repository, query, shards, max_sl=3)


class TestStorageManifest:
    def _sharded(self, shards=3):
        return build_sharded_index(Repository.from_texts(CORPUS),
                                   shards=shards)

    def test_round_trip_preserves_layout_and_postings(self, tmp_path):
        index = self._sharded()
        path = save_index(index, tmp_path / "sharded.gks")
        loaded = load_index(path)
        assert isinstance(loaded, ShardedIndex)
        assert loaded.num_shards == index.num_shards
        assert loaded.strategy == index.strategy
        assert loaded.document_names == index.document_names
        for shard, original in zip(loaded.shards, index.shards):
            assert shard.doc_ids == original.doc_ids
        for keyword in ("keyword", "search", "buneman"):
            assert loaded.postings(keyword) == index.postings(keyword)
        query = Query.parse("keyword search")
        assert _signature(sharded_search(loaded, query)) == \
            _signature(sharded_search(index, query))

    def test_check_index_reports_shard_layout(self, tmp_path):
        path = save_index(self._sharded(), tmp_path / "sharded.gks")
        summary = check_index(path)
        assert summary["ok"]
        assert summary["shards"] == 3
        assert summary["strategy"] == "round_robin"

    def test_torn_write_is_diagnosed_not_crashed(self, tmp_path):
        path = save_index(self._sharded(), tmp_path / "sharded.gks")
        TornWriter(seed=7).tear(path, fraction=0.5)
        summary = check_index(path)
        assert not summary["ok"]
        assert summary["diagnosis"] in ("truncated", "corrupted")
        with pytest.raises(StorageError):
            load_index(path)

    def test_corrupted_shard_payload_rejects_whole_file(self, tmp_path):
        path = save_index(self._sharded(), tmp_path / "sharded.gks")
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            envelope = json.load(handle)
        # flip one posting inside a shard payload; the manifest (and its
        # CRC) stay intact, so only the per-shard checksum can catch it
        payload = envelope["shards"][0]
        keyword = next(iter(payload["postings"]))
        payload["postings"][keyword][0] = "999.999"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(envelope, handle)
        with pytest.raises(StorageError):
            load_index(path)

    def test_tampered_manifest_rejects_whole_file(self, tmp_path):
        path = save_index(self._sharded(), tmp_path / "sharded.gks")
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            envelope = json.load(handle)
        envelope["manifest"]["strategy"] = "hash"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(envelope, handle)
        with pytest.raises(StorageError):
            load_index(path)


class TestEngineConfig:
    def test_config_is_frozen(self):
        config = EngineConfig()
        with pytest.raises(Exception):
            config.s = 3

    @pytest.mark.parametrize("kwargs", [
        {"s": 0}, {"cache_size": -1}, {"shards": 0}, {"memtable_docs": 0},
        {"shard_strategy": "alphabetical"}, {"ranker": 42},
        {"recovery": "panic"}])
    def test_invalid_config_raises_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            EngineConfig(**kwargs)

    def test_replace_validates_and_rejects_unknown_fields(self):
        config = EngineConfig().replace(shards=4)
        assert config.shards == 4
        with pytest.raises(ConfigError):
            config.replace(shard_count=4)
        with pytest.raises(ConfigError):
            config.replace(shards=0)

    def test_workers_is_gone(self):
        with pytest.raises(ConfigError, match="unknown EngineConfig field"):
            GKSEngine.open(Texts(CORPUS), workers=2)

    def test_open_builds_sharded_engine(self):
        engine = GKSEngine.open(Texts(CORPUS), shards=4)
        assert isinstance(engine.index, ShardedIndex)
        assert engine.index.num_shards == 4
        assert engine.config.shards == 4

    def test_open_sniffs_texts_and_rejects_mixtures(self, tmp_path):
        assert len(GKSEngine.open("<a><b>x</b></a>").repository) == 1
        path = tmp_path / "d.xml"
        path.write_text("<a><b>x</b></a>", encoding="utf-8")
        assert len(GKSEngine.open(path).repository) == 1
        with pytest.raises(ConfigError):
            GKSEngine.open(["<a/>", str(path)])

    def test_search_tuning_params_are_keyword_only(self):
        engine = GKSEngine.open(CORPUS)
        with pytest.raises(TypeError):
            engine.search("keyword", 1, None)
        with pytest.raises(TypeError):
            engine.search_top_k("keyword", 3, 1, None)

    def test_config_s_is_the_default_threshold(self):
        strict = GKSEngine.open(Texts(CORPUS), s=2)
        loose = GKSEngine.open(Texts(CORPUS))
        assert strict.search("keyword search").query.effective_s == 2
        assert loose.search("keyword search").query.effective_s == 1

    def test_engine_over_a_saved_index_adopts_its_layout(self, tmp_path):
        first = GKSEngine.open(Texts(CORPUS), shards=2)
        path = save_index(first.index, tmp_path / "sharded.gks")
        # the file's layout wins over the config's: new documents route
        # by the shards the index was built with
        second = GKSEngine(Repository.from_texts(CORPUS),
                           index=load_index(path),
                           config=EngineConfig(shards=1))
        assert isinstance(second.index, ShardedIndex)
        assert (second.config.shards, second.config.shard_strategy) == \
            (2, first.config.shard_strategy)
        assert _signature(second.search("keyword search")) == \
            _signature(first.search("keyword search"))


class TestAddDocument:
    NEW_DOC = ("<bib><paper><author>Peter Buneman</author>"
               "<title>provenance keyword</title></paper></bib>")

    @pytest.mark.parametrize("shards", (2, 4))
    def test_sharded_append_equals_monolithic(self, shards):
        mono = GKSEngine.open(CORPUS)
        sharded = GKSEngine.open(Texts(CORPUS), shards=shards)
        mono.add_document(self.NEW_DOC)
        sharded.add_document(self.NEW_DOC)
        assert isinstance(sharded.index, ShardedIndex)
        for raw in QUERIES + ["provenance"]:
            assert _signature(sharded.search(raw, use_cache=False)) == \
                _signature(mono.search(raw, use_cache=False))

    def test_append_rebuilds_only_the_owning_shard(self):
        engine = GKSEngine.open(Texts(CORPUS), shards=2)
        untouched = [shard.index for shard in engine.index.shards
                     if shard.shard_id != len(CORPUS) % 2]
        engine.add_document(self.NEW_DOC)
        survivors = [shard.index for shard in engine.index.shards
                     if shard.shard_id != len(CORPUS) % 2]
        assert all(before is after
                   for before, after in zip(untouched, survivors))

    def test_cache_cleared_even_when_indexing_fails(self, monkeypatch):
        engine = GKSEngine.open(CORPUS)
        engine.search("keyword")
        assert engine.cache_info()["size"] == 1

        import repro.core.durable as durable_module

        def boom(*args):
            raise RuntimeError("mid-append crash")

        # the unit is streamed before the repository grows; what can
        # still fail after it grew is filing the unit in the memtable
        monkeypatch.setattr(durable_module, "pending_document", boom)
        with pytest.raises(RuntimeError):
            engine.add_document(self.NEW_DOC)
        # the repository already grew, so stale responses must be gone
        assert engine.cache_info()["size"] == 0


class TestErrors:
    def test_config_error_is_a_value_error_and_gks_error(self):
        assert issubclass(ConfigError, ValueError)
        assert issubclass(ConfigError, GKSError)
        with pytest.raises(ValueError):
            EngineConfig(shards=0)

    def test_budget_validation_uses_config_error(self):
        with pytest.raises(ConfigError):
            SearchBudget(deadline_s=-1)
        with pytest.raises(ConfigError):
            SearchBudget(max_sl=0)

    def test_top_k_validation_uses_config_error(self):
        engine = GKSEngine.open(CORPUS)
        with pytest.raises(ConfigError):
            engine.search_top_k("keyword", 0)
