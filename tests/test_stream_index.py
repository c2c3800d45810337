"""The stream index is the tree index.

An open that builds indexes each text straight from the parser's
element stream, with no tree.  The reference here is the tree walk the
builder used to run: parse the tree, post each element's tag keywords
and then its direct-text keywords when it *opens* (pre-order), and file
``categorize_tree``'s records into the hash tables and the Table 4/5
counters in the order they are emitted.  The two agree on every index
structure — postings, both hash tables with their insertion order,
``IndexStats`` and ``category_by_tag`` — and on the vocabulary order,
except where an element has both direct text and child elements: the
stream posts that text when the element closes, after its children.
"""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig, Texts
from repro.core.engine import GKSEngine
from repro.datasets.registry import DATASETS, load_dataset
from repro.errors import XMLSyntaxError
from repro.index.builder import IndexBuilder, build_index
from repro.index.categorize import NodeCategory, categorize_tree
from repro.index.sharding import ShardedBuilder, build_sharded_index, shard_of
from repro.index.statistics import IndexStats
from repro.text.analyzer import DEFAULT_ANALYZER
from repro.xmltree.parser import RecoveryPolicy, parse_document
from repro.xmltree.repository import Repository, ingest_document
from repro.xmltree.serialize import serialize_document
from tests.conftest import unpacked
from tests.test_parser_conformance import WELL_FORMED

# the battery's one case whose vocabulary order the stream changes: <a>
# holds text around its child, posted when <a> closes
MIXED = "<a>mixed <b>content</b> here</a>"


def facts(index) -> dict:
    """Every structure a build decides, the vocabulary and both hash
    tables in insertion order."""
    stats = index.stats.to_dict()
    del stats["build_seconds"]
    unpack = index.layout.unpack
    return {"vocabulary": [keyword for keyword, _ in index.inverted.items()],
            "postings": {keyword: list(map(unpack, postings))
                         for keyword, postings in index.inverted.items()},
            "entity": list(unpacked(index, index.hashes.entity_table).items()),
            "element": list(unpacked(index,
                                     index.hashes.element_table).items()),
            "stats": stats,
            "category_by_tag": index.stats.category_by_tag,
            "names": tuple(index.document_names)}


def tree_walk(documents) -> dict:
    """:func:`facts` of the tree walk that posts at open."""
    analyzer = DEFAULT_ANALYZER
    postings: dict[str, list] = {}
    entity, element = {}, {}
    stats = IndexStats()
    for document in documents:
        stats.documents += 1
        for node in document.root.iter_subtree():
            keywords = list(analyzer.analyze_tag(node.tag))
            stats.tag_keywords += len(keywords)
            if node.has_text:
                text_keywords = analyzer.analyze(node.text)
                stats.text_keywords += len(text_keywords)
                keywords += text_keywords
            for keyword in keywords:
                deweys = postings.setdefault(keyword, [])
                if node.dewey not in deweys:
                    deweys.append(node.dewey)
        for record in categorize_tree(document.root).values():
            category = record.category
            stats.total_nodes += 1
            stats.max_depth = max(stats.max_depth, len(record.dewey) - 1)
            stats.category_by_tag.setdefault(record.tag, category.value)
            if category is NodeCategory.ENTITY:
                entity[record.dewey] = record.child_count
                stats.entity_nodes += 1
                if record.is_repeating:
                    element[record.dewey] = record.child_count
                    stats.repeating_nodes += 1
            elif category is NodeCategory.ATTRIBUTE:
                stats.attribute_nodes += 1
            else:
                element[record.dewey] = record.child_count
                if category is NodeCategory.REPEATING:
                    stats.repeating_nodes += 1
                else:
                    stats.connecting_nodes += 1
    by_tag = stats.category_by_tag
    counters = stats.to_dict()
    del counters["build_seconds"]
    return {"vocabulary": list(postings),
            "postings": {keyword: sorted(deweys)
                         for keyword, deweys in postings.items()},
            "entity": list(entity.items()),
            "element": list(element.items()),
            "stats": counters, "category_by_tag": by_tag,
            "names": tuple(document.name for document in documents)}


def streamed(texts, as_children: bool, shards: int):
    """The index of *texts* streamed as an open streams them: each text
    enters text-backed, its one scan feeding its shard's builder."""
    builder = (ShardedBuilder(shards=shards) if shards > 1
               else IndexBuilder())
    repository = Repository()
    for doc_id, text in enumerate(texts):
        repository.add(ingest_document(
            text, doc_id, attributes_as_children=as_children,
            builder=builder), text=text)
    assert not any(document.parsed for document in repository)
    return builder.build()


def assert_stream_is_tree(texts, as_children: bool,
                          same_vocabulary: bool = True) -> None:
    trees = [parse_document(text, doc_id, as_children)
             for doc_id, text in enumerate(texts)]
    for shards in (1, 2):
        index = streamed(texts, as_children, shards)
        if shards == 1:
            units, expected = [index], [tree_walk(trees)]
        else:
            units = [shard.index for shard in index.shards]
            expected = [tree_walk([tree for tree in trees
                                   if shard_of(tree.doc_id, tree.name, 2,
                                               "round_robin") == shard_id])
                        for shard_id in range(2)]
        for unit, reference in zip(units, expected):
            got = facts(unit)
            if not same_vocabulary:
                assert sorted(got.pop("vocabulary")) == \
                    sorted(reference.pop("vocabulary"))
            assert got == reference


def corpus_texts(name: str) -> list[str]:
    return [serialize_document(document, declaration=False)
            for document in load_dataset(name)]


@pytest.mark.parametrize("as_children", [True, False])
class TestStreamIsTree:
    @pytest.mark.parametrize("text", WELL_FORMED)
    def test_battery(self, text, as_children):
        assert_stream_is_tree([text], as_children,
                              same_vocabulary=text != MIXED)

    def test_battery_as_one_corpus(self, as_children):
        texts = [text for text in WELL_FORMED if text != MIXED]
        assert_stream_is_tree(texts, as_children)

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_datasets(self, name, as_children):
        assert_stream_is_tree(corpus_texts(name), as_children)


def test_mixed_content_text_is_posted_at_close():
    assert MIXED in WELL_FORMED
    assert facts(build_index(MIXED))["vocabulary"] == \
        ["a", "b", "content", "mix"]
    assert tree_walk([parse_document(MIXED)])["vocabulary"] == \
        ["a", "mix", "b", "content"]


def test_an_open_streams_the_index_a_tree_replay_builds():
    texts = corpus_texts("mondial") + corpus_texts("figure2a")
    repository = Repository.from_texts(texts)
    assert all(document.parsed for document in repository)
    engine = GKSEngine.open(Texts(texts), EngineConfig(cache_size=0))
    assert facts(engine.index) == facts(build_index(repository))
    sharded = GKSEngine.open(Texts(texts), EngineConfig(shards=2))
    for got, replayed in zip(sharded.index.shards,
                             build_sharded_index(repository,
                                                 shards=2).shards):
        assert got.doc_ids == replayed.doc_ids
        assert facts(got.index) == facts(replayed.index)


class TestFailingDocumentLeavesNoTrace:
    """A document that fails deep inside — after it posted new keywords
    and tags and filed hash rows — is taken back out."""

    GOOD = [f"<book><title>alpha entry {n}</title><author>karen</author>"
            f"</book>" for n in range(3)]
    # <novel> closes (filing its repeated <chapter> rows, a new tag with
    # a first-seen category) before the mismatched </book> raises
    BAD = ("<book><title>zebra unseen</title><novel><chapter>quokka"
           "</chapter><chapter>wombat</chapter></novel><shelf><oops>"
           "</book>")

    def test_the_bad_document_files_rows_before_it_fails(self):
        seen = []
        builder = IndexBuilder()
        original = builder._roll_back

        def spy(doc_id, entities, elements, tags):
            seen.append((len(builder._hashes._element) - elements,
                         len(builder._stats.category_by_tag) - tags,
                         "quokka" in builder._inverted))
            original(doc_id, entities, elements, tags)

        builder._roll_back = spy
        builder.add_xml(self.GOOD[0])
        with pytest.raises(XMLSyntaxError):
            builder.add_xml(self.BAD)
        assert seen == [(2, 1, True)]

    def test_mono(self):
        builder = IndexBuilder()
        builder.add_xml(self.GOOD[0])
        builder.add_xml(self.GOOD[1])
        with pytest.raises(XMLSyntaxError):
            builder.add_xml(self.BAD)
        builder.add_xml(self.GOOD[2])
        clean = IndexBuilder()
        for text in self.GOOD:
            clean.add_xml(text)
        assert facts(builder.build()) == facts(clean.build())

    def test_shard_one_of_two(self):
        builder = ShardedBuilder(shards=2)
        repository = Repository()
        for text in (self.GOOD[0], self.BAD, *self.GOOD[1:]):
            try:
                document = ingest_document(text, len(repository),
                                           builder=builder)
            except XMLSyntaxError:
                assert len(repository) == 1  # it was bound for shard 1
                continue
            repository.add(document, text=text)
        clean = build_sharded_index(Repository.from_texts(self.GOOD),
                                    shards=2)
        index = builder.build()
        assert [shard.doc_ids for shard in index.shards] == \
            [shard.doc_ids for shard in clean.shards]
        for got, expected in zip(index.shards, clean.shards):
            assert facts(got.index) == facts(expected.index)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_skip_document_quarantines_and_indexes_as_a_parse_does(
            self, shards):
        texts = [self.GOOD[0], self.BAD, "<a><b></a>", *self.GOOD[1:]]
        policy = RecoveryPolicy.SKIP_DOCUMENT
        engine = GKSEngine.open(Texts(texts), EngineConfig(
            recovery=policy, shards=shards))
        parsed = Repository.from_texts(texts, policy=policy)
        assert [(failure.name, failure.position, str(failure.error))
                for failure in engine.repository.quarantine] == \
            [(failure.name, failure.position, str(failure.error))
             for failure in parsed.quarantine]
        if shards == 1:
            assert facts(engine.index) == facts(build_index(parsed))
        else:
            for got, expected in zip(
                    engine.index.shards,
                    build_sharded_index(parsed, shards=2).shards):
                assert facts(got.index) == facts(expected.index)

    def test_a_malformed_add_document_touches_nothing(self, tmp_path):
        store = tmp_path / "store"
        engine = GKSEngine.open(Texts(self.GOOD[:2]),
                                EngineConfig(store_path=store))
        try:
            engine.add_document(self.GOOD[2])
            files = {path.name: path.read_bytes()
                     for path in sorted(store.iterdir())}
            index, generation = engine.index, engine.generation
            before = facts(build_index(engine.repository))
            with pytest.raises(XMLSyntaxError):
                engine.add_document(self.BAD)
            assert {path.name: path.read_bytes()
                    for path in sorted(store.iterdir())} == files
            assert len(engine.repository) == 3
            assert engine.index is index
            assert engine.generation == generation
            assert facts(build_index(engine.repository)) == before
        finally:
            engine.close()
