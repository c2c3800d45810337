"""Property tests for the extension modules (hypothesis)."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.query import Query
from repro.core.search import search
from repro.core.topk import search_top_k
from repro.index.builder import build_index
from repro.schema.inference import infer_schema
from repro.text.analyzer import Analyzer
from repro.xmltree.node import build_tree
from repro.xmltree.repository import Repository

KEYWORDS = ["kilo", "lima", "mike", "november"]
TAGS = ["va", "vb", "vc"]
ANALYZER = Analyzer(use_stemming=False)


def spec_strategy():
    leaf = st.tuples(st.sampled_from(TAGS), st.sampled_from(KEYWORDS))
    return st.recursive(
        leaf,
        lambda children: st.tuples(
            st.sampled_from(TAGS),
            st.lists(children, min_size=1, max_size=4)),
        max_leaves=14,
    ).map(lambda spec: ("root", [spec]) if not isinstance(spec[1], list)
          else ("root", spec[1]))


@st.composite
def repo_query_k(draw):
    spec = draw(spec_strategy())
    repo = Repository()
    repo.add_root(build_tree(spec))
    count = draw(st.integers(min_value=1, max_value=3))
    keywords = draw(st.lists(st.sampled_from(KEYWORDS), min_size=count,
                             max_size=count, unique=True))
    s = draw(st.integers(min_value=1, max_value=count))
    k = draw(st.integers(min_value=1, max_value=6))
    return repo, Query.of(keywords, s=s), k


@settings(max_examples=120, deadline=None)
@given(repo_query_k())
def test_topk_is_head_of_full_ranking(case):
    repo, query, k = case
    index = build_index(repo, analyzer=ANALYZER)
    full = search(index, query)
    top = search_top_k(index, query, k)
    assert top.deweys == full.deweys[:k]


@settings(max_examples=80, deadline=None)
@given(spec_strategy())
def test_schema_multiplicities_bound_instances(spec):
    """Every instance's child counts fall inside the inferred bounds."""
    root = build_tree(spec)
    schema = infer_schema(root)
    for node in root.iter_subtree():
        element_type = schema.type_of(tuple(node.tag_path()))
        assert element_type is not None
        counts: dict[str, int] = {}
        for child in node.children:
            counts[child.tag] = counts.get(child.tag, 0) + 1
        for tag, (low, high) in element_type.child_multiplicity.items():
            observed = counts.get(tag, 0)
            assert low <= observed <= high


@settings(max_examples=80, deadline=None)
@given(spec_strategy())
def test_schema_occurrences_sum_to_node_count(spec):
    root = build_tree(spec)
    schema = infer_schema(root)
    total = sum(element_type.occurrences for element_type in schema)
    assert total == sum(1 for _ in root.iter_subtree())
