"""Unit tests for the indexing engine: inverted index, hash tables,
builder, statistics (paper §2.4)."""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_index
from repro.datasets.toy import figure2a
from repro.errors import IndexError_, XMLSyntaxError
from repro.index.builder import GKSIndex, IndexBuilder, build_index
from repro.index.hashtables import NodeHashes
from repro.index.inverted import InvertedIndex
from repro.index.postings import (count_in_subtree, intersect_postings,
                                  merge_posting_lists, subtree_range)
from repro.index.sharding import build_sharded_index
from repro.index.statistics import IndexStats
from repro.text.analyzer import Analyzer
from repro.xmltree.repository import Repository
from repro.xmltree.serialize import serialize_node
from repro.xmltree.dewey import DeweyLayout
from repro.xmltree.tree import XMLDocument
from tests.conftest import tuple_postings, unpacked


def index_facts(index) -> tuple:
    """Everything a build decides: the postings in vocabulary order, both
    hash tables in filing order, every counter but the stopwatch."""
    stats = asdict(index.stats)
    del stats["build_seconds"]
    unpack = index.layout.unpack
    return ([(keyword, list(map(unpack, postings)))
             for keyword, postings in index.inverted.items()],
            list(unpacked(index, index.hashes.entity_table).items()),
            list(unpacked(index, index.hashes.element_table).items()),
            stats, index.document_names)


WORDS = ["foo", "bar", "baz", "qux", "Karen", "publications", "2001"]
# what can sit directly inside an element besides child elements: text,
# CDATA, and the comments / PIs / entity references that split a run of
# character data without separating its words
pieces = st.one_of(
    st.sampled_from(WORDS), st.sampled_from([" ", "\n", "  "]),
    st.sampled_from(WORDS).map(lambda word: f"<![CDATA[{word}]]>"),
    st.sampled_from(["<!-- c -->", "<?pi d?>", "&amp;", "&#65;",
                     "<![CDATA[ ]]>", "<![CDATA[]]>"]))
attributes = st.lists(st.sampled_from(WORDS), max_size=2, unique=True).map(
    lambda words: "".join(f' k{n}="{word} &lt;{word}"'
                          for n, word in enumerate(words)))


@st.composite
def elements(draw, depth=0):
    tag = draw(st.sampled_from(["a", "b", "item", "Dept_Name"]))
    content = st.lists(
        pieces if depth >= 3 else pieces | elements(depth=depth + 1),
        max_size=5)
    body = "".join(draw(content))
    return f"<{tag}{draw(attributes)}>{body}</{tag}>"


@pytest.fixture(scope="module")
def fig2a_index():
    repo = Repository()
    repo.add_root(figure2a())
    return build_index(repo)


class TestInvertedIndex:
    def test_add_keeps_sorted_and_deduped(self):
        layout = DeweyLayout([3])
        pack = layout.pack
        index = InvertedIndex()
        index.add("k", pack((0, 2)))
        index.add("k", pack((0, 2)))      # duplicate
        index.add("k", pack((0, 5)))
        index.add("k", pack((0, 3)))      # out of order (mixed content)
        assert index.postings("k") == [pack((0, 2)), pack((0, 3)),
                                       pack((0, 5))]
        built = GKSIndex(inverted=index, hashes=NodeHashes(layout),
                         stats=IndexStats(documents=1), layout=layout,
                         document_names=("doc",))
        assert verify_index(built) == []

    def test_missing_keyword_is_empty(self):
        assert InvertedIndex().postings("nope") == []

    def test_vocabulary_and_counts(self):
        index = InvertedIndex()
        index.add_all(["a", "b"], (0, 1))
        index.add("a", (0, 2))
        assert index.vocabulary == ["a", "b"]
        assert index.document_frequency("a") == 2
        assert index.total_postings == 3
        assert "a" in index and "c" not in index


class TestPostingOps:
    def test_subtree_range_binary_search(self):
        postings = [(0, 1), (0, 2, 0), (0, 2, 5), (0, 3), (1, 0)]
        lo, hi = subtree_range(postings, (0, 2))
        assert postings[lo:hi] == [(0, 2, 0), (0, 2, 5)]
        assert count_in_subtree(postings, (0,)) == 4
        assert count_in_subtree(postings, (2,)) == 0

    def test_merge_tags_keyword_indexes(self):
        layout = DeweyLayout([3])
        pack = layout.pack
        merged = merge_posting_lists(
            [[pack((0, 1)), pack((0, 5))], [pack((0, 3))]], layout)
        assert merged.keyword_bits == 1
        assert [(layout.unpack(entry >> 1), entry & 1)
                for entry in merged] == [((0, 1), 0), ((0, 3), 1),
                                         ((0, 5), 0)]

    def test_merge_result_is_sorted(self):
        layout = DeweyLayout([1])
        pack = layout.pack
        merged = merge_posting_lists(
            [[pack((1, 0))], [pack((0, 0)), pack((2, 0))], []], layout)
        deweys = [layout.unpack(entry >> merged.keyword_bits)
                  for entry in merged]
        assert deweys == sorted(deweys) == [(0, 0), (1, 0), (2, 0)]

    def test_intersect_postings(self):
        a = [(0, 1), (0, 2), (0, 5)]
        b = [(0, 2), (0, 5), (0, 9)]
        c = [(0, 2), (0, 9)]
        assert intersect_postings([a, b]) == [(0, 2), (0, 5)]
        assert intersect_postings([a, b, c]) == [(0, 2)]
        assert intersect_postings([a, []]) == []
        assert intersect_postings([]) == []


class TestTable3:
    def test_karen_and_mike_postings(self, fig2a_index):
        # Table 3: Karen → did.0.1.1.0.1.0, did.0.1.1.2.1.0, …
        karen = tuple_postings(fig2a_index, "karen")
        assert (0, 1, 1, 0, 1, 0) in karen
        assert (0, 1, 1, 2, 1, 0) in karen
        mike = tuple_postings(fig2a_index, "mike")
        assert (0, 1, 1, 0, 1, 1) in mike

    def test_tag_names_are_indexed(self, fig2a_index):
        # queries may search element names (QM2: 'country', 'name')
        assert fig2a_index.postings("student")
        assert (0, 1, 0) in tuple_postings(fig2a_index, "name")

    def test_phrase_postings_intersect_per_element(self, fig2a_index):
        # phrase keywords hold *analysed* words ("mining" stems to "mine")
        assert tuple_postings(fig2a_index, "data mine") == \
            [(0, 1, 1, 0, 0)]
        assert fig2a_index.postings("data serena") == []


class TestHashTables:
    def test_is_entity_and_is_element_return_child_counts(self,
                                                          fig2a_index):
        hashes = fig2a_index.hashes
        pack = fig2a_index.layout.pack
        assert hashes.is_entity(pack((0, 1))) == 2          # Area
        assert hashes.is_element(pack((0, 1, 1))) == 3      # Courses (CN)
        assert hashes.is_entity(pack((0, 1, 1))) is None
        # Course is both entity and repeating → in both tables (§2.4)
        assert hashes.is_entity(pack((0, 1, 1, 0))) == 2
        assert hashes.is_element(pack((0, 1, 1, 0))) == 2

    def test_attribute_nodes_in_neither_table(self, fig2a_index):
        hashes = fig2a_index.hashes
        pack = fig2a_index.layout.pack
        assert hashes.is_entity(pack((0, 1, 0))) is None
        assert hashes.is_element(pack((0, 1, 0))) is None
        assert hashes.is_attribute(pack((0, 1, 0)))

    def test_nearest_entity_walks_ancestors(self, fig2a_index):
        hashes = fig2a_index.hashes
        pack, unpack = fig2a_index.layout.pack, fig2a_index.layout.unpack
        # Student node → nearest entity is its Course
        assert unpack(hashes.nearest_entity(pack((0, 1, 1, 0, 1, 0)))) \
            == (0, 1, 1, 0)
        assert unpack(hashes.nearest_entity(pack((0, 1, 1, 0)))) == \
            (0, 1, 1, 0)

    def test_entity_ancestors_ordered_nearest_first(self, fig2a_index):
        pack, hashes = fig2a_index.layout.pack, fig2a_index.hashes
        student = (0, 1, 1, 0, 1, 0)
        chain = [student[:depth] for depth in range(len(student), 0, -1)
                 if hashes.is_entity(pack(student[:depth])) is not None]
        assert chain == [(0, 1, 1, 0), (0, 1), (0,)]


class TestBuilder:
    def test_tree_and_stream_paths_agree(self):
        xml = serialize_node(figure2a())
        repo = Repository()
        repo.parse(xml)
        from_tree = build_index(repo)
        from_text = build_index(xml)
        assert dict(from_tree.inverted.items()) == \
            dict(from_text.inverted.items())
        assert from_tree.hashes.entity_table == \
            from_text.hashes.entity_table
        assert from_tree.hashes.element_table == \
            from_text.hashes.element_table

    def test_direct_text_is_defined_once(self):
        # The drift this pins: the text build used to analyse each
        # character-data event on its own ("foo", "bar", " baz", "qux")
        # while the tree build analysed the element's joined text.
        xml = "<b>foo<![CDATA[bar]]> baz<!-- c -->qux</b>"
        index = build_index(xml)
        assert [keyword for keyword, _ in index.inverted.items()] == \
            ["b", "foobar", "bazqux"]
        assert index.stats.text_keywords == 2
        assert index_facts(index) == \
            index_facts(build_index(Repository.from_texts([xml])))

    @given(st.lists(elements(), min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_text_and_tree_builds_cannot_disagree(self, texts):
        repository = Repository.from_texts(texts)
        from_tree = build_index(repository)
        builder = IndexBuilder()
        for text in texts:
            builder.add_xml(text)
        assert index_facts(builder.build()) == index_facts(from_tree)
        assert index_facts(build_index(texts[0])) == \
            index_facts(build_index(repository[0]))
        for shard in build_sharded_index(repository, shards=2).shards:
            from_text = IndexBuilder()
            for doc_id in shard.doc_ids:
                from_text.add_xml(texts[doc_id], doc_id=doc_id,
                                  name=repository[doc_id].name)
            assert index_facts(from_text.build()) == \
                index_facts(shard.index)

    def test_malformed_text_leaves_the_builder_untouched(self):
        builder = IndexBuilder()
        builder.add_xml("<a>x</a>")
        with pytest.raises(XMLSyntaxError):
            builder.add_xml("<b>y<c>z</b>")
        # failing deep inside, after new keywords, tags and hash rows
        with pytest.raises(XMLSyntaxError):
            builder.add_xml("<b><d><e>w</e><e>v</e></d><f>u</f><g></b>")
        builder.add_xml("<b>y</b>")
        index = builder.build()
        assert index.document_names == ("doc0", "doc1")
        assert index.postings("z") == [] and index.stats.documents == 2
        clean = IndexBuilder()
        clean.add_xml("<a>x</a>")
        clean.add_xml("<b>y</b>")
        assert index_facts(index) == index_facts(clean.build())

    def test_multi_document_postings_carry_doc_ids(self):
        repo = Repository.from_texts(["<r><a>karen</a></r>",
                                      "<r><a>karen</a></r>"])
        index = build_index(repo)
        assert tuple_postings(index, "karen") == [(0, 0), (1, 0)]

    def test_builder_rejects_use_after_build(self):
        builder = IndexBuilder()
        builder.add_xml("<a>x</a>")
        builder.build()
        with pytest.raises(IndexError_):
            builder.add_xml("<b>y</b>")
        with pytest.raises(IndexError_):
            builder.build()

    def test_tag_indexing_can_be_disabled(self):
        index = build_index("<country><name>Laos</name></country>",
                            index_tags=False)
        assert not index.postings("country")
        assert index.postings("lao")  # text keyword still there (stemmed)

    def test_analyzer_is_applied(self):
        index = build_index("<r><a>The Publications</a></r>",
                            analyzer=Analyzer())
        assert index.postings("public")
        assert not index.postings("the")

    def test_stats_counts(self):
        repo = Repository()
        repo.add_root(figure2a())
        stats = build_index(repo).stats
        row = stats.category_row()
        assert row["total"] == 36
        assert row["EN"] == 8          # Dept + 2 Areas + 5 Courses
        assert stats.max_depth == 5
        assert stats.documents == 1

    def test_build_index_rejects_unknown_source(self):
        with pytest.raises(TypeError):
            build_index(42)

    def test_document_ids_must_be_consecutive(self):
        builder = IndexBuilder()
        from repro.xmltree.node import XMLNode
        with pytest.raises(IndexError_):
            builder.add_document(XMLDocument(XMLNode("r", (3,))))
