"""Tests for the synthetic corpus generators (planted structure +
determinism)."""

import pytest

from repro.core.engine import GKSEngine
from repro.datasets import names
from repro.datasets.registry import dataset_names, load_dataset
from repro.errors import DatasetError
from repro.index.builder import build_index
from repro.xmltree.serialize import serialize_node


@pytest.fixture(scope="module")
def dblp_engine():
    return GKSEngine(load_dataset("dblp"))


@pytest.fixture(scope="module")
def sigmod_engine():
    return GKSEngine(load_dataset("sigmod"))


class TestRegistry:
    def test_all_names_load(self):
        for name in dataset_names():
            repository = load_dataset(name)
            assert repository.total_nodes > 0

    def test_unknown_name_rejected(self):
        with pytest.raises(DatasetError):
            load_dataset("nope")

    def test_determinism(self):
        first = load_dataset("dblp", seed=3)
        second = load_dataset("dblp", seed=3)
        assert serialize_node(first[0].root) == \
            serialize_node(second[0].root)

    def test_seeds_differ(self):
        first = load_dataset("nasa", seed=1)
        second = load_dataset("nasa", seed=2)
        assert serialize_node(first[0].root) != \
            serialize_node(second[0].root)

    def test_scale_grows_corpus(self):
        small = load_dataset("swissprot", scale=1)
        large = load_dataset("swissprot", scale=2)
        assert large.total_nodes > small.total_nodes * 1.5


class TestDBLPPlants:
    def test_qd2_trio_articles(self, dblp_engine):
        # Example 2: Buneman+Fan+Weinstein share 5 inproceedings, 4 of
        # them by just the trio; Banerjee never joins them.
        response = dblp_engine.search(
            '"Peter Buneman" "Wenfei Fan" "Scott Weinstein"', s=3)
        joint = [node for node in response if node.distinct_keywords == 3]
        assert len(joint) >= 4
        banerjee = dblp_engine.search(
            '"Prithviraj Banerjee" "Peter Buneman"', s=2)
        # no entity (article-level) node joins them — only the root
        # container can cover both names
        assert all(not node.is_lce for node in banerjee)

    def test_qd1_single_joint_article(self, dblp_engine):
        response = dblp_engine.search(
            '"Dimitrios Georgakopoulos" "Joe D. Morrison"', s=2)
        assert len(response) == 1

    def test_refinement_pair_has_ten_joints(self, dblp_engine):
        response = dblp_engine.search(
            '"Dimitrios Georgakopoulos" "Marek Rusinkiewicz"', s=2)
        assert len(response) == 10  # §7.4's number

    def test_single_author_articles_are_connecting(self, dblp_engine):
        repository = dblp_engine.repository
        hashes = dblp_engine.index.hashes
        single = [node for node in repository[0].root.children
                  if sum(1 for child in node.children
                         if child.tag == "author") == 1]
        assert single, "bulk generation must produce 1-author entries"
        pack = dblp_engine.index.layout.pack
        for node in single[:10]:
            assert hashes.is_entity(pack(node.dewey)) is None

    def test_multi_author_articles_are_entities(self, dblp_engine):
        repository = dblp_engine.repository
        hashes = dblp_engine.index.hashes
        multi = [node for node in repository[0].root.children
                 if sum(1 for child in node.children
                        if child.tag == "author") >= 2]
        pack = dblp_engine.index.layout.pack
        for node in multi[:10]:
            assert hashes.is_entity(pack(node.dewey)) is not None


class TestSigmodPlants:
    def test_qs1_authors_never_coauthor(self, sigmod_engine):
        response = sigmod_engine.search(
            '"Anthony I. Wasserman" "Lawrence A. Rowe"', s=2)
        # only a top-level container can cover both names — no shared
        # article exists (Table 7: QS1 max keywords = 1)
        assert all(not node.is_lce and len(node.dewey) <= 2
                   for node in response)

    def test_qs4_eight_author_article_exists(self, sigmod_engine):
        query = " ".join(f'"{author}"' for author in names.QS4_AUTHORS)
        response = sigmod_engine.search(query, s=1)
        assert response.max_distinct_keywords() == 8

    def test_hybrid_pair_has_five_articles(self, sigmod_engine):
        response = sigmod_engine.search(
            '"Lawrence A. Rowe" "Michael Stonebraker"', s=2)
        assert len(response) == 5


class TestMondialPlants:
    def test_qm2_laos_exists(self):
        engine = GKSEngine(load_dataset("mondial"))
        response = engine.search("Laos country name", s=3)
        assert len(response) >= 1

    def test_religions_planted(self):
        engine = GKSEngine(load_dataset("mondial"))
        response = engine.search("country Muslim", s=2)
        assert len(response) >= 5


class TestShapes:
    def test_treebank_is_deep(self):
        assert load_dataset("treebank").depth >= 30

    def test_plays_are_multi_document(self):
        assert len(load_dataset("plays")) >= 2

    def test_nasa_keywords_are_deep(self):
        repository = load_dataset("nasa")
        index = build_index(repository)
        postings = index.postings("quasar")
        assert postings and all(index.layout.depth(dewey) >= 2
                                for dewey in postings)

    def test_interpro_publications_are_entities(self):
        repository = load_dataset("interpro")
        index = build_index(repository)
        publication = next(
            node for node in repository.iter_nodes()
            if node.tag == "publication")
        assert index.hashes.is_entity(
            index.layout.pack(publication.dewey)) is not None

    def test_figure_fixtures_match_paper_counts(self):
        fig2a = load_dataset("figure2a")
        assert fig2a.total_nodes == 36
        fig1 = load_dataset("figure1")
        assert fig1.total_nodes == 18
