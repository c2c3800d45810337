"""Unit tests for LCE discovery with independent witnesses (paper §4.2)."""

import pytest

from repro.core.lce import discover_lce
from repro.core.lcp import compute_lcp_list
from repro.core.merge import merged_list
from repro.core.query import Query
from repro.core.search import search
from repro.datasets.registry import dataset_names, load_dataset
from repro.datasets.toy import figure2a
from repro.index.builder import build_index
from repro.xmltree.node import build_tree
from repro.xmltree.repository import Repository
from tests.test_answer_digest import queries


def run_pipeline(index, keywords, s):
    query = Query.of(list(keywords), s=s)
    sl = merged_list(index, query)
    lcp = compute_lcp_list(sl, min(s, len(query)))
    return discover_lce(lcp, sl, index), sl


def lce_nodes(index, result) -> set:
    """The LCE nodes of *result* as Dewey tuples (ids are packed)."""
    return set(map(index.layout.unpack, result.lce))


def check_witness_rule(index, result) -> None:
    """Discovery's one witness rule: a surviving LCE node is the nearest
    entity of its witness (lifted off an attribute node), no survivor's
    witness lies inside the subtree of another survivor below it, and a
    rejected entity has no witness."""
    hashes, layout = index.hashes, index.layout
    for dewey, info in result.lce.items():
        lifted = info.witness
        if lifted & layout.inner_mask and hashes.is_attribute(lifted):
            lifted = layout.pack(layout.unpack(lifted)[:-1])
        assert hashes.nearest_entity(lifted) == dewey
        for other in result.lce:
            if dewey < other < layout.subtree_end(dewey):
                assert not other <= info.witness < layout.subtree_end(other)
    assert all(info.witness is None for info in result.rejected.values())


@pytest.fixture(scope="module")
def fig2a_index():
    repo = Repository()
    repo.add_root(figure2a())
    return build_index(repo)


class TestExample3:
    """Q4 = {student, karen, mike, john, harry}, s=2 → the three
    Databases courses plus the OS course (harry) as LCE nodes."""

    def test_courses_are_the_lce_nodes(self, fig2a_index):
        result, _ = run_pipeline(
            fig2a_index, ["student", "karen", "mike", "john", "harri"], 2)
        courses = {(0, 1, 1, 0), (0, 1, 1, 1), (0, 1, 1, 2)}
        assert courses <= lce_nodes(fig2a_index, result)

    def test_every_lce_node_is_an_entity(self, fig2a_index):
        result, _ = run_pipeline(
            fig2a_index, ["student", "karen", "mike"], 2)
        for dewey in result.lce:
            assert fig2a_index.hashes.is_entity(dewey) is not None


class TestWitnesses:
    def test_surviving_lce_nodes_have_witnesses(self, fig2a_index):
        result, _ = run_pipeline(
            fig2a_index, ["karen", "mike", "john", "databas"], 2)
        for info in result.lce.values():
            assert info.witness is not None

    def test_ancestor_with_own_witness_survives(self, fig2a_index):
        # 'databas' lives in Area's attribute — an independent witness for
        # Area even though Courses below also match.
        result, _ = run_pipeline(fig2a_index,
                                 ["databas", "karen", "mike"], 2)
        found = lce_nodes(fig2a_index, result)
        assert (0, 1) in found                 # Area survives
        assert (0, 1, 1, 0) in found           # Data Mining course too

    def test_ancestor_without_witness_is_evicted(self):
        # Both keywords only inside the deeper entity: the outer entity
        # has no independent witness and must not appear.
        root = build_tree(("outer", [
            ("title", "misc"),
            ("items", [
                ("inner", [("name", "karen mike"),
                           ("w", "1"), ("w", "2")]),
                ("inner", [("name", "other"), ("w", "3"), ("w", "4")]),
            ]),
        ]))
        repo = Repository()
        repo.add_root(root)
        index = build_index(repo)
        pack = index.layout.pack
        assert index.hashes.is_entity(pack((0,))) is not None
        assert index.hashes.is_entity(pack((0, 1, 0))) is not None
        result, _ = run_pipeline(index, ["karen", "mike"], 2)
        assert (0, 1, 0) in lce_nodes(index, result)
        assert (0,) not in lce_nodes(index, result)


class TestUnmapped:
    def test_nodes_without_entity_ancestor_are_unmapped(self,
                                                        figure1_index):
        result, _ = run_pipeline(figure1_index, ["a", "b"], 2)
        assert not result.lce               # Figure 1 has no entities
        assert result.unmapped

    def test_response_filters_unmapped_ancestors(self, figure1_index,
                                                 fig1_ids):
        result, _ = run_pipeline(figure1_index, ["a", "b", "c"], 3)
        response = result.response_deweys()
        assert response == [figure1_index.layout.pack(fig1_ids["x2"])]

    def test_attribute_lcp_is_lifted_to_parent(self, fig2a_index):
        # s=1 on a keyword that lives in an attribute node: the candidate
        # must be the attribute's parent (Def 2.1.1), then its entity.
        result, _ = run_pipeline(fig2a_index, ["databas"], 1)
        assert (0, 1) in lce_nodes(fig2a_index, result)  # Area, not the AN


class TestEstimates:
    def test_example4_style_accumulation(self, fig2a_index):
        # an entity whose subtree produces several blocks accumulates
        # counter-based estimates ≥ its exact distinct count
        result, sl = run_pipeline(
            fig2a_index, ["karen", "mike", "john"], 2)
        course = result.lce.get(fig2a_index.layout.pack((0, 1, 1, 0)))
        assert course is not None
        assert course.estimated_keywords >= 2


class TestRegistryWitnesses:
    """Every registry dataset, the two queries of
    ``tests/test_answer_digest.py`` at s = 1, 2 and |Q|."""

    @pytest.mark.parametrize("name", dataset_names())
    def test_witnesses_and_estimates(self, name):
        """:func:`check_witness_rule` holds, and a surviving LCE node
        estimates at least ``s`` keywords.

        The estimate is not bounded by the exact distinct count
        (:class:`TestPaperEstimate`).  A witness is independent against
        the whole entity table, so no entity that enters later can hold
        it in its subtree, and the walk needs no Lemma 5 maintenance.
        ``tests/test_properties.py::test_lce_witness_rule`` checks the
        same rule on random trees, at every s.
        """
        index = build_index(load_dataset(name))
        for keywords in queries(index):
            for s in sorted({1, 2, len(keywords)}):
                result, _ = run_pipeline(index, keywords, s)
                check_witness_rule(index, result)
                assert all(info.estimated_keywords >= min(s, len(keywords))
                           for info in result.lce.values())


class TestPaperEstimate:
    """The paper's keyword estimate is at least ``s``
    (``tests/test_properties.py::test_estimated_counts_at_least_s``) but
    no bound on the exact distinct count: keywords filed under a
    descendant entity before a node entered the LCE list never reach its
    counter.  These are the undercounted nodes at s = 1, pinned."""

    @pytest.mark.parametrize("name, keywords, exact, estimates", [
        ("mirrors", ("titl", "guid", "year", "compress"), 4,
         {(0,): 2, (1,): 3, (3,): 3, (5,): 3}),
        ("treebank", ("pp", "np", "whnp", "index"), 2, {(0, 75): 1}),
    ], ids=["mirrors", "treebank"])
    def test_undercounts_the_exact_count(self, name, keywords, exact,
                                         estimates):
        index = build_index(load_dataset(name))
        response = search(index, Query.of(list(keywords), s=1))
        undercounted = [node for node in response
                        if node.estimated_keywords < node.distinct_keywords]
        assert {node.dewey: node.estimated_keywords
                for node in undercounted} == estimates
        assert {node.distinct_keywords for node in undercounted} == {exact}
