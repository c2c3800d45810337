"""Probabilistic keyword search over p-documents (exact, budget-aware).

A node's answer is ``P(n exists) × P(subtree(n) holds ≥ min(s,|Q|)
query keywords | n exists)`` over PrXML's possible worlds, kept when
``≥ threshold``, by descending probability then document order.  Each
unit's merged list ``SL`` (:func:`repro.core.merge.merged_list`) is
folded in one document-order stack pass: a node's keyword-subset
distribution is final when it pops, and it folds into its parent's at
once (DESIGN.md §5.10).  Empty tables build no distribution.  ``max_sl``
does not apply: a list cut inside a document would change probabilities.
"""

from __future__ import annotations

from repro.core.budget import SearchBudget
from repro.core.merge import merged_list
from repro.core.query import Query
from repro.core.results import (GKSResponse, RankedNode, SemanticsInfo,
                                respond)
from repro.core.search import units_of
from repro.index.builder import GKSIndex
from repro.index.postings import MergedList
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.trace import NOOP_TRACER
from repro.semantics.pdoc import ProbTables

#: keyword-subset bitmask → probability
Dist = dict[int, float]

# an open node: [id, subtree end, level, own mask, union mask, existence,
# dist and MUX mixture (None until a child folds in), MUX weight]
_ID, _END, _LEVEL, _OWN, _UNION, _EXIST, _DIST, _MIX, _WEIGHT = range(9)


def _convolve(left: Dist, right: Dist) -> Dist:
    if left == {0: 1.0}:
        return dict(right)
    out: Dist = {}
    for m1, p1 in left.items():
        for m2, p2 in right.items():
            key = m1 | m2
            out[key] = out.get(key, 0.0) + p1 * p2
    return out


def _scaled_into(target: Dist, dist: Dist, prob: float) -> Dist:
    for mask, share in dist.items():
        target[mask] = target.get(mask, 0.0) + prob * share
    return target


def _fold(sl: MergedList, need: int, packed) -> tuple[int, list]:
    """One stack pass over *sl* under *packed*, the tables' ``(kinds,
    edge_p)`` by packed id (``None``: a deterministic corpus).  Returns
    the distinct ids and the candidates ``(id, union mask,
    probability)`` in document order."""
    layout, shift = sl.layout, sl.keyword_bits
    masks, shifts, low = layout.masks, layout.shifts, (1 << shift) - 1
    kinds, edge_p = packed if packed is not None else ({}, {})
    stack: list[list] = []
    candidates: list[tuple[int, int, float]] = []
    distinct = 0

    def pop() -> None:
        frame = stack.pop()
        node, union = frame[_ID], frame[_UNION]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[_UNION] |= union
        if packed is None:
            if union.bit_count() >= need:
                candidates.append((node, union, 1.0))
            return
        dist = frame[_DIST] or {frame[_OWN]: 1.0}
        if frame[_MIX] is not None:
            leftover = 1.0 - frame[_WEIGHT]
            if leftover > 0.0:
                frame[_MIX][0] = frame[_MIX].get(0, 0.0) + leftover
            dist = _convolve(dist, frame[_MIX])
        if union.bit_count() >= need:
            tail = sum(share for mask, share in dist.items()
                       if mask.bit_count() >= need)
            candidates.append((node, union, frame[_EXIST] * tail))
        if parent is None:
            return
        prob = edge_p.get(node)
        if prob is not None and kinds.get(parent[_ID]) == "MUX":
            # one exclusive choice: Σ wᵢ·distᵢ, plus (1-Σw)·δ∅ at its pop
            parent[_WEIGHT] += prob
            parent[_MIX] = _scaled_into(parent[_MIX] or {}, dist, prob)
            return
        if prob is not None and prob < 1.0:  # (1-p)·δ∅ + p·dist
            dist = _scaled_into({0: 1.0 - prob}, dist, prob)
        parent[_DIST] = _convolve(parent[_DIST] or {parent[_OWN]: 1.0},
                                  dist)

    for entry in sl:
        node, bit = entry >> shift, 1 << (entry & low)
        if stack and stack[-1][_ID] == node:
            stack[-1][_OWN] |= bit
            stack[-1][_UNION] |= bit
            continue
        while stack and node >= stack[-1][_END]:
            pop()
        distinct += 1
        first = stack[-1][_LEVEL] + 1 if stack else 0
        for level in range(first, layout.depth(node) + 1):
            ancestor = node & masks[level]
            exist = stack[-1][_EXIST] if stack else 1.0
            if ancestor in edge_p:
                exist *= edge_p[ancestor]
            stack.append([ancestor, ancestor + (1 << shifts[level]), level,
                          0, 0, exist, None, None, 0.0])
        stack[-1][_OWN] = stack[-1][_UNION] = bit
    while stack:
        pop()
    candidates.sort()
    return distinct, candidates


def _evaluate(unit: GKSIndex, query: Query, tables: ProbTables,
              threshold: float, budget: SearchBudget | None, tracer,
              nodes: list[RankedNode]) -> tuple[int, int, bool]:
    """Append one unit's answer to *nodes*, the answer so far (the
    budget's ``max_nodes`` caps it whole); returns ``(distinct ids,
    candidates, tripped)``."""
    with tracer.span("merge") as span:
        sl = merged_list(unit, query, tracer=tracer)
        span.add("sl", len(sl))
    with tracer.span("fold") as span:
        distinct, candidates = _fold(
            sl, query.s, tables.packed(sl.layout) if tables else None)
        span.add("candidates", len(candidates))
    if budget is not None and budget.checkpoint("merge", distinct, distinct):
        return distinct, 0, True
    total, unpack, halted = len(candidates), sl.layout.unpack, False
    before = len(nodes)
    with tracer.span("evaluate") as span:
        for processed, (node, union, probability) in enumerate(candidates):
            halted = budget is not None and (
                budget.checkpoint("prob", processed, total)
                or not budget.admit_node(len(nodes), total))
            if halted:
                break
            if probability < threshold:
                continue
            matched = tuple(keyword for bit, keyword
                            in enumerate(query.keywords) if union >> bit & 1)
            nodes.append(RankedNode(
                dewey=unpack(node), score=probability,
                distinct_keywords=len(matched), matched_keywords=matched,
                is_lce=False, estimated_keywords=len(matched),
                probability=probability))
        span.add("emitted", len(nodes) - before)
    return distinct, total, halted


def probabilistic_search(index: GKSIndex, query: Query,
                         tables: ProbTables, *, threshold: float = 0.0,
                         budget: SearchBudget | None = None, tracer=None,
                         registry: MetricsRegistry | None = None
                         ) -> GKSResponse:
    """One probabilistic query over *tables*
    (:func:`repro.semantics.pdoc.compile_tables`).  Their keys are global
    Dewey ids and a document lives in one unit, so the units' answers,
    evaluated under the shared *budget*, concatenate."""
    tracer = NOOP_TRACER if tracer is None else tracer
    registry = global_registry() if registry is None else registry
    effective = query.with_s(query.effective_s)
    if budget is not None:
        budget.start()
    postings = evaluated = 0
    nodes: list[RankedNode] = []
    with tracer.span("prob_search", query=" ".join(effective.keywords),
                     s=effective.s, threshold=threshold) as root:
        started = tracer.clock()
        units = units_of(index)
        unit_tracer = tracer if len(units) > 1 else NOOP_TRACER
        for shard_id, unit in units:
            with unit_tracer.span("shard", shard=shard_id):
                distinct, candidates, halted = _evaluate(
                    unit, effective, tables, threshold, budget, tracer,
                    nodes)
            postings += distinct
            evaluated += candidates
            if halted:
                break
        nodes.sort(key=lambda node: (-node.score, node.dewey))
        seconds = tracer.clock() - started
        root.set(mode="probabilistic", emitted=len(nodes))

    mode = {"mode": "probabilistic"}
    registry.counter("gks_semantics_searches_total", help="Searches served "
                     "by the repro.semantics subsystem.").inc(labels=mode)
    registry.counter("gks_semantics_prob_candidates_total", help="Candidate "
                     "nodes evaluated by probabilistic search.").inc(evaluated)
    registry.histogram("gks_semantics_seconds", help="Wall time of "
                       "semantics-mode searches.").observe(seconds,
                                                           labels=mode)
    return respond(effective, nodes, budget, root,
                   semantics=SemanticsInfo(mode="probabilistic",
                                           threshold=threshold),
                   total_seconds=seconds, rank_seconds=seconds,
                   postings_scanned=postings, mode="probabilistic",
                   semantics_candidates=evaluated)
