"""Property-based tests (hypothesis): the efficient algorithms are
cross-validated against brute-force oracles on randomized documents, and
the paper's structural invariants are checked on arbitrary trees."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.baselines.bruteforce import (brute_candidates, brute_elca,
                                        brute_slca, subtree_keyword_map)
from repro.baselines.elca import elca
from repro.baselines.lca import dewey_postings
from repro.baselines.slca import slca_indexed_lookup_eager, slca_scan
from repro.core.lce import discover_lce
from repro.core.lcp import compute_lcp_list, sliding_blocks
from repro.core.merge import merged_list
from repro.core.query import Query
from repro.core.search import search
from repro.index.builder import build_index
from repro.index.postings import MergedList, merge_posting_lists
from repro.text.analyzer import Analyzer
from repro.xmltree.dewey import DeweyLayout, is_ancestor_or_self
from repro.xmltree.node import build_tree
from repro.xmltree.parser import parse_document
from repro.xmltree.repository import Repository
from repro.xmltree.serialize import serialize_node
from tests.test_lce import check_witness_rule
from tests.test_lcp import dewey_at, filed_blocks, heap_merged, keyword_at
from tests.test_ranking import composed_rank, rank

# Text keywords use an alphabet the analyzer maps to itself.
KEYWORDS = ["kilo", "lima", "mike", "november", "oscar"]
TAGS = ["va", "vb", "vc", "vd"]
#: an entity template's attribute leaf: no other element carries it
ATTRIBUTE_TAG = "vn"

ANALYZER = Analyzer(use_stemming=False)


def spec_strategy():
    """Nested (tag, text?, children?) specs for build_tree."""
    leaf = st.tuples(st.sampled_from(TAGS), st.sampled_from(KEYWORDS))
    return st.recursive(
        leaf,
        lambda children: st.tuples(
            st.sampled_from(TAGS),
            st.lists(children, min_size=1, max_size=4)),
        max_leaves=12,
    ).map(lambda spec: ("root", [spec]) if not isinstance(spec[1], list)
          else ("root", spec[1]))


def entity_strategy():
    """An entity node (Def 2.1.3, the AN + repeating-group rule of
    ``repro.index.categorize``): a unique-tag attribute leaf beside two
    or more same-tag siblings, each a leaf or itself an entity."""
    def entity(member):
        return st.tuples(
            st.sampled_from(KEYWORDS), st.sampled_from(TAGS),
            st.lists(member, min_size=2, max_size=3),
        ).map(lambda parts: [(ATTRIBUTE_TAG, parts[0])]
              + [(parts[1], body) for body in parts[2]])

    # a member's body: a keyword (a leaf) or an entity's children
    body = entity(st.recursive(st.sampled_from(KEYWORDS), entity,
                               max_leaves=6))
    return st.tuples(st.sampled_from(TAGS), body)


def _with_child(spec, child, target: int, position: int):
    """*spec* with *child* inserted at *position* among the children of
    its *target*-th inner node (pre-order)."""
    numbers = iter(range(target + 1))

    def rebuild(node):
        tag, body = node
        if not isinstance(body, list):
            return node
        here = next(numbers, None)
        children = [rebuild(item) for item in body]
        if here == target:
            children.insert(position % (len(children) + 1), child)
        return tag, children

    return rebuild(spec)


def _inner_nodes(spec) -> int:
    tag, body = spec
    if not isinstance(body, list):
        return 0
    return 1 + sum(_inner_nodes(child) for child in body)


def _query(draw) -> Query:
    count = draw(st.integers(min_value=1, max_value=3))
    keywords = draw(st.lists(st.sampled_from(KEYWORDS), min_size=count,
                             max_size=count, unique=True))
    s = draw(st.integers(min_value=1, max_value=count))
    return Query.of(keywords, s=s)


@st.composite
def repo_and_query(draw):
    spec = draw(spec_strategy())
    repo = Repository()
    repo.add_root(build_tree(spec))
    return repo, _query(draw)


@st.composite
def entity_repo_and_query(draw):
    """:func:`repo_and_query` with an :func:`entity_strategy` subtree
    placed under a random inner node: every tree holds an entity."""
    spec = draw(spec_strategy())
    target = draw(st.integers(min_value=0,
                              max_value=_inner_nodes(spec) - 1))
    spec = _with_child(spec, draw(entity_strategy()), target,
                       draw(st.integers(min_value=0, max_value=4)))
    repo = Repository()
    repo.add_root(build_tree(spec))
    return repo, _query(draw)


def _entity_index(repo):
    index = build_index(repo, analyzer=ANALYZER)
    assert index.hashes.entity_count >= 1
    return index


@settings(max_examples=120, deadline=None)
@given(repo_and_query())
def test_slca_matches_bruteforce(case):
    repo, query = case
    index = build_index(repo, analyzer=ANALYZER)
    oracle = brute_slca(repo, query, analyzer=ANALYZER)
    assert slca_indexed_lookup_eager(index, query) == oracle
    assert slca_scan(index, query) == oracle
    from repro.baselines.slca_intersect import slca_set_intersection

    assert slca_set_intersection(index, query) == oracle


@settings(max_examples=120, deadline=None)
@given(repo_and_query())
def test_elca_matches_bruteforce(case):
    repo, query = case
    index = build_index(repo, analyzer=ANALYZER)
    oracle = brute_elca(repo, query, analyzer=ANALYZER)
    assert elca(index, query) == oracle
    from repro.baselines.elca_stack import elca_stack

    assert elca_stack(index, query) == oracle


@settings(max_examples=120, deadline=None)
@given(entity_repo_and_query())
def test_gks_response_soundness(case):
    """Every response node's subtree really holds ≥ s distinct keywords."""
    repo, query = case
    index = _entity_index(repo)
    response = search(index, query)
    candidates = set(brute_candidates(repo, query, analyzer=ANALYZER))
    for node in response:
        assert node.dewey in candidates
        assert node.distinct_keywords >= query.effective_s


@settings(max_examples=120, deadline=None)
@given(entity_repo_and_query())
def test_gks_response_coverage(case):
    """Minimal candidates are always represented, and matches imply a
    non-empty response.

    A *minimal* candidate (no candidate strictly inside it), lifted off an
    attribute node per Def 2.1.1, must be comparable to some response node
    — in its subtree or on its ancestor chain.  Non-minimal candidates may
    legitimately go unrepresented: the response follows SLCA semantics and
    drops shallower matches in favour of deeper ones (Table 1's Q1 returns
    x2, not x1).
    """
    repo, query = case
    index = _entity_index(repo)
    response = search(index, query)
    candidates = brute_candidates(repo, query, analyzer=ANALYZER)
    candidate_set = set(candidates)
    if candidates:
        assert len(response) > 0

    from repro.xmltree.dewey import is_ancestor

    for candidate in candidates:
        if any(other != candidate and is_ancestor(candidate, other)
               for other in candidate_set):
            continue  # not minimal
        lifted = candidate
        if len(candidate) > 1 and index.hashes.is_attribute(
                index.layout.pack(candidate)):
            lifted = candidate[:-1]
        assert any(is_ancestor_or_self(lifted, dewey)
                   or is_ancestor_or_self(dewey, lifted)
                   for dewey in response.deweys), (
            f"minimal candidate {candidate} not represented")


@settings(max_examples=100, deadline=None)
@given(repo_and_query())
def test_lcp_blocks_have_s_unique_keywords(case):
    repo, query = case
    index = build_index(repo, analyzer=ANALYZER)
    sl = merged_list(index, query)
    for left, right, prefix in sliding_blocks(sl, query.effective_s):
        block_keywords = {keyword_at(sl, i) for i in range(left, right + 1)}
        assert len(block_keywords) == query.effective_s
        if prefix is not None:
            for position in range(left, right + 1):
                assert is_ancestor_or_self(sl.layout.unpack(prefix),
                                           dewey_at(sl, position))


DEWEYS = st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                  max_size=4).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(DEWEYS, max_size=8, unique=True).map(sorted),
                max_size=5))
def test_merge_equals_tagged_heap_merge(lists):
    """The run-sort merge is the tagged k-way heap merge it replaced:
    document order, equal Dewey ids ordered by keyword index, empty
    lists contributing nothing."""
    reference = heap_merged(lists)
    layout = DeweyLayout.covering(
        [dewey for posting_list in lists for dewey in posting_list])
    merged = merge_posting_lists(
        [list(map(layout.pack, posting_list)) for posting_list in lists],
        layout)
    assert type(merged) is MergedList and merged == sorted(merged)
    assert [(dewey_at(merged, i), keyword_at(merged, i))
            for i in range(len(merged))] == reference


@settings(max_examples=100, deadline=None)
@given(repo_and_query())
def test_lcp_list_equals_filing_the_reference_blocks(case):
    """The production sweep files exactly the blocks of the readable
    ``sliding_blocks`` — same entries in the same creation order, same
    counters, same first block — for every s up to |Q|."""
    repo, query = case
    index = build_index(repo, analyzer=ANALYZER)
    sl = merged_list(index, query)
    for s in range(1, len(query.keywords) + 1):
        expected = filed_blocks(sl, s)
        lcp = compute_lcp_list(sl, s)
        assert lcp == expected
        assert list(lcp.entries) == list(expected.entries)


@settings(max_examples=100, deadline=None)
@given(repo_and_query())
def test_rank_node_equals_the_readable_composition(case):
    """Exact equality — floats included — on every node of the tree, so
    subtrees with no, one and many occurrences are all covered."""
    repo, query = case
    index = build_index(repo, analyzer=ANALYZER)
    for node in repo.iter_nodes():
        breakdown = rank(index, query, node.dewey)
        score, terminals = composed_rank(index, query, node.dewey)
        assert breakdown.score == score
        assert breakdown.terminals == terminals
        assert list(breakdown.terminals) == list(terminals)
        assert breakdown.initial_potential == len(terminals)


@settings(max_examples=100, deadline=None)
@given(repo_and_query())
def test_reference_semantics_monotone_in_s(case):
    """Lemma 2 on reference semantics: candidates shrink as s grows."""
    repo, query = case
    previous = None
    for s in range(1, len(query.keywords) + 1):
        current = set(brute_candidates(repo, query.with_s(s),
                                       analyzer=ANALYZER))
        if previous is not None:
            assert current <= previous
        previous = current


@settings(max_examples=100, deadline=None)
@given(repo_and_query())
def test_ranking_bounds(case):
    """0 < rank ≤ P·(#terminals per keyword)·… — concretely: positive and
    at most P times the total number of terminal points."""
    repo, query = case
    index = build_index(repo, analyzer=ANALYZER)
    response = search(index, query)
    for node in response:
        breakdown = rank(index, query, node.dewey)
        assert breakdown.score > 0
        terminal_count = sum(len(points)
                             for points in breakdown.terminals.values())
        assert breakdown.score <= \
            breakdown.initial_potential * terminal_count + 1e-9


@settings(max_examples=100, deadline=None)
@given(entity_repo_and_query())
def test_estimated_counts_at_least_s(case):
    repo, query = case
    index = _entity_index(repo)
    response = search(index, query)
    for node in response:
        assert node.estimated_keywords >= query.effective_s


@settings(max_examples=200, deadline=None)
@given(entity_repo_and_query())
def test_lce_witness_rule(case):
    """The registry's ``check_witness_rule`` on random trees that hold
    entities, at every s: no survivor's witness lies inside a deeper
    survivor, so the case Lemma 5's eviction would handle cannot
    arise."""
    repo, query = case
    index = _entity_index(repo)
    sl = merged_list(index, query)
    for s in range(1, len(query.keywords) + 1):
        check_witness_rule(index,
                           discover_lce(compute_lcp_list(sl, s), sl, index))


@settings(max_examples=100, deadline=None)
@given(spec_strategy())
def test_serializer_parser_round_trip(spec):
    root = build_tree(spec)
    reparsed = parse_document(serialize_node(root))
    original = [(node.dewey, node.tag, node.text)
                for node in root.iter_subtree()]
    rebuilt = [(node.dewey, node.tag, node.text)
               for node in reparsed.root.iter_subtree()]
    assert original == rebuilt


@settings(max_examples=100, deadline=None)
@given(spec_strategy())
def test_subtree_keyword_map_consistency(spec):
    """The oracle keyword map agrees with the index on every node."""
    repo = Repository()
    repo.add_root(build_tree(spec))
    index = build_index(repo, analyzer=ANALYZER)
    mapping = subtree_keyword_map(repo, analyzer=ANALYZER)
    from repro.index.postings import count_in_subtree

    for dewey, keywords in mapping.items():
        for keyword in KEYWORDS:
            expected = keyword in keywords
            found = count_in_subtree(
                dewey_postings(index, keyword), dewey) > 0
            assert expected == found
