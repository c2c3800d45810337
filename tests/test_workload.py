"""Table 6 workload integrity and synthetic-corpus determinism.

:mod:`repro.eval.workload` is the Table 6 workload — its integrity and
the determinism of the synthetic corpora it targets are what makes the
eval harness reproducible.
"""

from __future__ import annotations

import pytest

from repro.core.query import Query
from repro.datasets import load_dataset
from repro.eval import workload
from repro.xmltree.serialize import serialize_document


# ---------------------------------------------------------------------------
# Table 6 workload
# ---------------------------------------------------------------------------
class TestWorkloadTable:
    def test_table6_ids_unique_and_complete(self):
        ids = [query.qid for query in workload.TABLE6]
        assert len(ids) == len(set(ids)) == 14
        assert ids == sorted(
            ids, key=lambda qid: ("SDMI".index(qid[1]), qid))

    def test_every_query_names_a_known_dataset(self):
        from repro.datasets.registry import dataset_names

        known = set(dataset_names())
        for query in workload.TABLE6:
            assert query.dataset in known, query.qid

    def test_by_id_roundtrip_and_unknown(self):
        for query in workload.TABLE6:
            assert workload.by_id(query.qid) is query
        with pytest.raises(KeyError):
            workload.by_id("QX9")

    def test_for_dataset_partitions_the_table(self):
        datasets = {query.dataset for query in workload.TABLE6}
        recovered = [query for dataset in sorted(datasets)
                     for query in workload.for_dataset(dataset)]
        assert sorted(q.qid for q in recovered) == \
            sorted(q.qid for q in workload.TABLE6)

    def test_half_s_is_paper_setting(self):
        assert workload.by_id("QS1").half_s() == 1
        assert workload.by_id("QS4").half_s() == 4
        assert workload.by_id("QM2").half_s() == 1
        for query in workload.TABLE6:
            assert query.half_s() >= 1

    def test_size_matches_term_count(self):
        # |Q| counts query *terms*: each quoted author is one term
        for query in workload.TABLE6:
            if query.qid.startswith(("QS", "QD")):
                assert query.text.count('"') == 2 * query.size, query.qid

    def test_hybrid_query_merges_both_author_pools(self):
        from repro.datasets import names

        for author in (names.HYBRID_DBLP_AUTHORS
                       + names.HYBRID_SIGMOD_AUTHORS):
            assert f'"{author}"' in workload.HYBRID_QUERY

    def test_queries_parse_against_their_corpus(self):
        query = workload.by_id("QM1")
        assert Query.parse(query.text, s=query.half_s()).keywords


class TestWorkloadDeterminism:
    @pytest.mark.parametrize("dataset", ["sigmod", "mondial"])
    def test_same_seed_same_corpus(self, dataset):
        first = load_dataset(dataset, scale=1, seed=11)
        second = load_dataset(dataset, scale=1, seed=11)
        assert len(first) == len(second)
        for left, right in zip(first, second):
            assert serialize_document(left) == serialize_document(right)

    def test_different_seed_different_corpus(self):
        first = load_dataset("sigmod", scale=1, seed=1)
        second = load_dataset("sigmod", scale=1, seed=2)
        texts_first = [serialize_document(doc) for doc in first]
        texts_second = [serialize_document(doc) for doc in second]
        assert texts_first != texts_second

    def test_workload_queries_hit_their_seeded_corpus(self):
        from repro.core.engine import GKSEngine

        repository = load_dataset("sigmod", scale=1, seed=0)
        engine = GKSEngine(repository)
        query = workload.by_id("QS1")
        response = engine.search(query.text, s=query.half_s())
        assert len(response) > 0
