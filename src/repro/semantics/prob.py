"""Probabilistic keyword search over p-documents (exact, budget-aware).

For every candidate node ``n`` this computes the possible-worlds
marginal

    P(n) = P(n exists) × P(subtree(n) holds ≥ min(s,|Q|) distinct
                           query keywords | n exists)

under the PrXML independence semantics: choices at distinct
distributional nodes are independent, a MUX node's annotated children
are one mutually exclusive choice, and deleting a node deletes its
subtree.  The result set is every node with ``P(n) ≥ threshold``,
ordered by descending probability then document order.

The evaluation is exact, not sampled.  Per document it builds the
*occurrence trie* — all Dewey prefixes of the query keywords' posting
entries — and runs one bottom-up **keyword-subset distribution** pass:
``dist[v]`` maps each subset (bitmask) of the query keywords to the
probability that exactly that subset appears in ``v``'s subtree, given
``v`` exists.  Ordinary/IND children combine by subset-union
convolution (an uncertain child contributes ``(1-p)·δ∅ + p·dist[c]``);
a MUX node's annotated children combine as the mixture
``Σ wᵢ·dist[cᵢ] + (1-Σw)·δ∅``.  Restricting to the occurrence trie is
exact because keyword-free subtrees can only contribute ``δ∅``.

Candidates are the trie nodes whose *all-present* keyword union meets
the bar — any other node has probability 0.  On a deterministic corpus
(empty tables) every candidate has probability 1 and the distribution
pass is skipped entirely, which keeps probabilistic mode within the
benchmarked 2× of strict on ordinary documents.
"""

from __future__ import annotations

from repro.core.budget import SearchBudget
from repro.core.query import Query
from repro.core.results import (GKSResponse, RankedNode, SemanticsInfo,
                                respond)
from repro.core.search import units_of
from repro.errors import ConfigError
from repro.index.builder import GKSIndex
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.trace import NOOP_TRACER
from repro.semantics.pdoc import ProbTables
from repro.xmltree.dewey import Dewey

#: Bitmask distribution type: keyword-subset mask → probability.
Dist = dict[int, float]


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _convolve(left: Dist, right: Dist) -> Dist:
    if left == {0: 1.0}:
        return dict(right)
    out: Dist = {}
    for m1, p1 in left.items():
        for m2, p2 in right.items():
            key = m1 | m2
            out[key] = out.get(key, 0.0) + p1 * p2
    return out


def _occurrences(index: GKSIndex, keywords: tuple[str, ...]
                 ) -> dict[Dewey, int]:
    """Dewey → bitmask of the query keywords occurring directly there."""
    occ: dict[Dewey, int] = {}
    unpack = index.layout.unpack
    for bit, keyword in enumerate(keywords):
        for dewey in map(unpack, index.postings(keyword)):
            occ[dewey] = occ.get(dewey, 0) | (1 << bit)
    return occ


def _union_masks(occ: dict[Dewey, int]) -> dict[Dewey, int]:
    """Every prefix of an occurrence → union mask of its subtree."""
    union: dict[Dewey, int] = {}
    for dewey, mask in occ.items():
        for depth in range(1, len(dewey) + 1):
            prefix = dewey[:depth]
            union[prefix] = union.get(prefix, 0) | mask
    return union


def _distributions(union: dict[Dewey, int], occ: dict[Dewey, int],
                   tables: ProbTables) -> dict[Dewey, Dist]:
    """One bottom-up subset-distribution pass over the occurrence trie."""
    children: dict[Dewey, list[Dewey]] = {}
    for dewey in union:
        if len(dewey) > 1:
            children.setdefault(dewey[:-1], []).append(dewey)
    dist: dict[Dewey, Dist] = {}
    for dewey in sorted(union, key=len, reverse=True):
        base: Dist = {occ.get(dewey, 0): 1.0}
        mux = tables.kinds.get(dewey) == "MUX"
        mixture: Dist = {}
        weight_total = 0.0
        for child in children.get(dewey, ()):
            branch = dist[child]
            prob = tables.edge_p.get(child)
            if mux and prob is not None:
                # Annotated MUX children form one exclusive choice.
                weight_total += prob
                for mask, share in branch.items():
                    mixture[mask] = mixture.get(mask, 0.0) + prob * share
                continue
            if prob is not None and prob < 1.0:
                mixed: Dist = {0: 1.0 - prob}
                for mask, share in branch.items():
                    mixed[mask] = mixed.get(mask, 0.0) + prob * share
                branch = mixed
            base = _convolve(base, branch)
        if mixture or weight_total:
            leftover = 1.0 - weight_total
            if leftover > 0.0:
                mixture[0] = mixture.get(0, 0.0) + leftover
            base = _convolve(base, mixture)
        dist[dewey] = base
    return dist


def _evaluate_index(index: GKSIndex, query: Query, tables: ProbTables,
                    threshold: float, budget: SearchBudget | None, tracer,
                    counters: dict[str, int]) -> tuple[list[RankedNode], bool]:
    """Evaluate one (monolithic or shard) index; returns (nodes, tripped)."""
    keywords = query.keywords
    need = query.s

    with tracer.span("postings") as span:
        occ = _occurrences(index, keywords)
        span.add("occurrences", len(occ))
    counters["postings"] += len(occ)
    if budget is not None and budget.checkpoint("merge", len(occ), len(occ)):
        return [], True

    union = _union_masks(occ)
    candidates = sorted(dewey for dewey, mask in union.items()
                        if _popcount(mask) >= need)
    counters["candidates"] += len(candidates)

    dist: dict[Dewey, Dist] | None = None
    if tables:
        with tracer.span("distributions") as span:
            dist = _distributions(union, occ, tables)
            span.add("trie_nodes", len(dist))

    nodes: list[RankedNode] = []
    halted = False
    with tracer.span("evaluate") as span:
        for processed, dewey in enumerate(candidates):
            if budget is not None and budget.checkpoint(
                    "prob", processed, len(candidates)):
                halted = True
                break
            if budget is not None and not budget.admit_node(
                    len(nodes), len(candidates)):
                halted = True
                break
            if dist is None:
                probability = 1.0
            else:
                tail = sum(share for mask, share in dist[dewey].items()
                           if _popcount(mask) >= need)
                probability = tables.existence(dewey) * tail
            if probability < threshold:
                continue
            mask = union[dewey]
            matched = tuple(kw for bit, kw in enumerate(keywords)
                            if mask >> bit & 1)
            nodes.append(RankedNode(
                dewey=dewey, score=probability,
                distinct_keywords=_popcount(mask),
                matched_keywords=matched, is_lce=False,
                estimated_keywords=_popcount(mask),
                probability=probability))
        span.add("emitted", len(nodes))
    return nodes, halted


def probabilistic_search(index: GKSIndex, query: Query,
                         tables: ProbTables, *, threshold: float = 0.0,
                         budget: SearchBudget | None = None,
                         tracer=None,
                         registry: MetricsRegistry | None = None
                         ) -> GKSResponse:
    """Run one probabilistic-mode query and return the ranked response.

    *tables* are the corpus's p-document tables
    (:func:`repro.semantics.pdoc.compile_tables`); empty tables make the
    corpus fully deterministic — every candidate gets probability 1.
    Their keys are global Dewey ids, so sharded indexes are evaluated
    shard by shard against the one table (documents live whole in one
    shard, so per-shard results merge by concatenation) under the
    shared *budget*.
    """
    if tracer is None:
        tracer = NOOP_TRACER
    if registry is None:
        registry = global_registry()
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(
            f"probability threshold {threshold!r} outside [0, 1]")
    clock = tracer.clock
    effective = query.with_s(query.effective_s)
    if budget is not None:
        budget.start()

    counters = {"postings": 0, "candidates": 0}
    nodes: list[RankedNode] = []
    with tracer.span("prob_search", query=" ".join(effective.keywords),
                     s=effective.s, threshold=threshold) as root:
        started = clock()
        units = units_of(index)
        unit_tracer = tracer if len(units) > 1 else NOOP_TRACER
        for shard_id, unit in units:
            with unit_tracer.span("shard", shard=shard_id):
                part, halted = _evaluate_index(
                    unit, effective, tables, threshold, budget, tracer,
                    counters)
            nodes.extend(part)
            if halted:
                break
        nodes.sort(key=lambda node: (-node.score, node.dewey))
        finished = clock()
        root.set(mode="probabilistic", emitted=len(nodes))

    seconds = finished - started
    registry.counter(
        "gks_semantics_searches_total",
        help="Searches served by the repro.semantics subsystem."
    ).inc(labels={"mode": "probabilistic"})
    registry.counter(
        "gks_semantics_prob_candidates_total",
        help="Candidate nodes evaluated by probabilistic search."
    ).inc(counters["candidates"])
    registry.histogram(
        "gks_semantics_seconds",
        help="Wall time of semantics-mode searches."
    ).observe(seconds, labels={"mode": "probabilistic"})

    return respond(effective, nodes, budget, root,
                   semantics=SemanticsInfo(mode="probabilistic",
                                           threshold=threshold),
                   total_seconds=seconds, rank_seconds=seconds,
                   postings_scanned=counters["postings"],
                   mode="probabilistic",
                   semantics_candidates=counters["candidates"])
