"""Scatter-gather query execution over a :class:`ShardedIndex`.

The scatter phase runs merge → LCP → LCE *per shard*; the gather phase
re-assembles the per-shard candidate sets into the exact global
candidate order and runs the ranking stage once, routing every rank
computation to the shard that owns the node's document.  The combined
:class:`~repro.core.results.GKSResponse` is identical — node for node,
score for score, including every budget-degradation path — to what the
monolithic pipeline returns, because:

* a shard's SL is the restriction of the global SL to its documents,
  and consecutive same-document SL entries are the same in both (Dewey
  tuples between two doc-``d`` ids all start with ``d``);
* every non-empty LCP block lies inside one document (a cross-document
  block has an empty common prefix and is skipped), so the per-shard
  LCP lists partition the global one with identical counters;
* LCE discovery only ever relates an LCP entry to entity *ancestors*,
  which share its document — and entries of document ``d`` all precede
  entries of later documents in creation order, so per-shard creation
  order is the restriction of the global creation order;
* ranking flows potential inside one subtree — one document, one shard.

The gather step therefore reconstructs the global candidate iteration
order (LCE nodes in creation order, then fallback nodes in Dewey
order), applies the *parent* budget's ``recovery_k`` / ``max_nodes``
admission exactly as :func:`repro.core.search.search` would, and sorts
by the same total ranking key.

Budget semantics: ``deadline`` is policed per shard by child budgets
(:meth:`SearchBudget.subbudget`) sharing the parent's clock **and start
time**, so every child's :meth:`SearchBudget.remaining_s` reads the same
headroom the monolithic pipeline would see — all deadline arithmetic
lives in the budget, none here; ``max_sl`` is applied globally across
the shard SLs (the kept prefix is the same document-order prefix the
monolithic cap keeps); ``max_nodes`` caps the single global rank loop.
The first trip — a shard's or the global admission's — becomes the
combined response's degradation report.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.budget import DegradationReport, SearchBudget
from repro.core.lce import LCEResult, discover_lce
from repro.core.lcp import compute_lcp_list
from repro.core.merge import merged_list
from repro.core.query import Query
from repro.core.ranking import rank_node
from repro.core.results import GKSResponse, RankedNode, SearchProfile
from repro.core.search import Ranker
from repro.core.topk import _bound_key, _heap_key, distinct_keyword_count
from repro.index.postings import MergedEntry
from repro.index.sharding import Shard, ShardedIndex
from repro.obs.metrics import global_registry
from repro.obs.stats import QueryStats
from repro.obs.trace import NOOP_TRACER, NullTracer, Tracer
from repro.xmltree.dewey import Dewey

_STAGE_ORDER = {"merge": 0, "lcp": 1, "lce": 2, "rank": 3}


@dataclass(frozen=True)
class _Candidate:
    """One gathered response candidate with its global creation rank.

    ``section`` 0 = surviving LCE node, 1 = appended fallback node; the
    monolithic candidate list is all of section 0 (creation order) then
    all of section 1 (Dewey order), so sorting by
    ``(section, doc_id, position)`` — positions being shard-local and
    each document owned by one shard — reproduces it exactly.
    """

    section: int
    doc_id: int
    position: int
    dewey: Dewey
    shard_id: int
    is_lce: bool
    estimate: int


class _ShardRun:
    """Everything the scatter phase produced for one shard."""

    def __init__(self, shard: Shard, sl: list[MergedEntry],
                 budget: SearchBudget | None) -> None:
        self.shard = shard
        self.sl = sl
        self.budget = budget
        self.lcp_entries = 0
        self.lce: LCEResult | None = None
        self.fallback: dict[Dewey, int] = {}


def _shard_label(shard: Shard) -> dict[str, str]:
    return {"shard": str(shard.shard_id)}


def _scatter(index: ShardedIndex, query: Query,
             budget: SearchBudget | None, tracer, clock,
             span_name: str) -> tuple[list[_ShardRun], float]:
    """Run merge (with global SL admission) + LCP + LCE on every shard.

    Returns the per-shard runs and the clock reading taken right after
    the merge phase (the profile's merge/LCP boundary).
    """
    registry = global_registry()
    searches = registry.counter(
        "gks_shard_searches_total",
        help="Per-shard scatter pipeline executions.")
    shard_seconds = registry.histogram(
        "gks_shard_search_seconds",
        help="Wall time of one shard's scatter pipeline.")
    postings_scanned = registry.counter(
        "gks_shard_postings_scanned_total",
        help="SL entries processed per shard (after global admission).")

    runs: list[_ShardRun] = []
    with tracer.span("merge") as span:
        for shard in index.shards:
            child = budget.subbudget() if budget is not None else None
            with tracer.span("shard_merge", shard=shard.shard_id):
                sl = merged_list(shard.index, query, budget=child)
            runs.append(_ShardRun(shard, sl, child))
        total_sl = _admit_global_sl(runs, budget)
        span.add("sl_entries", total_sl)
    after_merge = clock()

    for run in runs:
        shard_started = clock()
        with tracer.span(span_name, shard=run.shard.shard_id) as span:
            with tracer.span("lcp") as stage:
                lcp = compute_lcp_list(run.sl, query.s, budget=run.budget)
                stage.add("entries", len(lcp))
            with tracer.span("lce") as stage:
                run.lce = discover_lce(lcp, run.sl, run.shard.index,
                                       budget=run.budget)
                stage.add("nodes", len(run.lce.lce))
            run.lcp_entries = len(lcp)
            run.fallback = run.lce.fallback_candidates()
            span.set(sl_entries=len(run.sl), lcp_entries=len(lcp),
                     lce_nodes=len(run.lce.lce))
        labels = _shard_label(run.shard)
        searches.inc(labels=labels)
        shard_seconds.observe(clock() - shard_started, labels=labels)
        postings_scanned.inc(len(run.sl), labels=labels)

    if budget is not None:
        budget.adopt(_first_child_report(runs))
    return runs, after_merge


def _admit_global_sl(runs: list[_ShardRun],
                     budget: SearchBudget | None) -> int:
    """Apply the parent ``max_sl`` cap *across* shards.

    The monolithic cap keeps the first ``max_sl`` entries of the global
    SL in document order; the same prefix is recovered here by k-way
    merging the (sorted, disjoint) shard SLs, and each shard keeps its
    part of that prefix.  Trips the parent budget exactly like
    :meth:`SearchBudget.admit_sl`.  Returns the total kept SL size.
    """
    total = sum(len(run.sl) for run in runs)
    if budget is None or budget.max_sl is None or total <= budget.max_sl:
        return total
    kept: list[int] = [0] * len(runs)
    tagged = [[(entry, position) for entry in run.sl]
              for position, run in enumerate(runs)]
    merged = heapq.merge(*tagged)
    for _ in range(budget.max_sl):
        _, position = next(merged)
        kept[position] += 1
    for run, keep in zip(runs, kept):
        run.sl = run.sl[:keep]
    budget.trip("merge", "max_sl", budget.max_sl, total)
    return budget.max_sl


def _first_child_report(runs: list[_ShardRun]) -> DegradationReport | None:
    """The earliest-stage shard trip (ties: lowest shard id)."""
    reports = [run.budget.report for run in runs
               if run.budget is not None and run.budget.report is not None]
    if not reports:
        return None
    return min(reports,
               key=lambda report: _STAGE_ORDER.get(report.stage, 9))


def _gather_candidates(runs: list[_ShardRun]) -> list[_Candidate]:
    """Per-shard response candidates in the global creation order."""
    candidates: list[_Candidate] = []
    for run in runs:
        assert run.lce is not None
        deweys = run.lce.response_deweys()
        lce_count = len(run.lce.lce)
        for position, dewey in enumerate(deweys):
            in_lce = position < lce_count
            estimate = (run.lce.lce[dewey].estimated_keywords if in_lce
                        else run.fallback.get(dewey, 0))
            candidates.append(_Candidate(
                section=0 if in_lce else 1, doc_id=dewey[0],
                position=position, dewey=dewey,
                shard_id=run.shard.shard_id, is_lce=in_lce,
                estimate=estimate))
    candidates.sort(key=lambda c: (c.section, c.doc_id, c.position))
    return candidates


def _ranked_node(index: ShardedIndex, query: Query, ranker: Ranker,
                 candidate: _Candidate) -> RankedNode:
    shard = index.shards[candidate.shard_id]
    breakdown = ranker(shard.index, query, candidate.dewey)
    return RankedNode(
        dewey=candidate.dewey, score=breakdown.score,
        distinct_keywords=breakdown.distinct_keywords,
        matched_keywords=breakdown.matched_keywords,
        is_lce=candidate.is_lce,
        estimated_keywords=(candidate.estimate if candidate.is_lce
                            else (candidate.estimate or query.s)),
        breakdown=breakdown)


def _response(query: Query, nodes: list[RankedNode], runs: list[_ShardRun],
              budget: SearchBudget | None,
              timings: tuple[float, float, float, float]) -> GKSResponse:
    started, after_merge, after_lce, finished = timings
    sl_total = sum(len(run.sl) for run in runs)
    lcp_total = sum(run.lcp_entries for run in runs)
    lce_total = sum(len(run.lce.lce) for run in runs
                    if run.lce is not None)
    tripped = budget is not None and budget.tripped
    profile = SearchProfile(merged_list_size=sl_total,
                            lcp_entries=lcp_total,
                            lce_nodes=lce_total,
                            seconds=finished - started,
                            merge_seconds=after_merge - started,
                            lcp_seconds=0.0,
                            lce_seconds=after_lce - after_merge,
                            rank_seconds=finished - after_lce)
    stats = QueryStats(total_seconds=profile.seconds,
                       merge_seconds=profile.merge_seconds,
                       lcp_seconds=profile.lcp_seconds,
                       lce_seconds=profile.lce_seconds,
                       rank_seconds=profile.rank_seconds,
                       postings_scanned=sl_total,
                       lcp_entries=lcp_total,
                       lce_nodes=lce_total,
                       nodes_emitted=len(nodes),
                       budget_trips=1 if tripped else 0,
                       trip_stage=budget.report.stage if tripped else None,
                       trip_reason=budget.report.reason if tripped else None,
                       degraded=tripped)
    return GKSResponse(query=query, nodes=tuple(nodes), profile=profile,
                       degraded=tripped,
                       degradation=budget.report if tripped else None,
                       stats=stats)


def sharded_search(index: ShardedIndex, query: Query,
                   ranker: Ranker = rank_node,
                   budget: SearchBudget | None = None,
                   tracer: Tracer | NullTracer | None = None
                   ) -> GKSResponse:
    """Scatter-gather counterpart of :func:`repro.core.search.search`.

    Returns a response identical to running the monolithic pipeline on
    the unsharded index, for every budget configuration (see the module
    docstring for why).
    """
    if tracer is None:
        tracer = NOOP_TRACER
    clock = tracer.clock
    effective = query.with_s(query.effective_s)
    if budget is not None:
        budget.start()

    with tracer.span("search", query=" ".join(effective.keywords),
                     s=effective.s, shards=index.num_shards) as root:
        started = clock()
        runs, after_merge = _scatter(index, effective, budget, tracer,
                                     clock, span_name="shard")
        after_lce = clock()
        with tracer.span("rank") as span:
            candidates = _gather_candidates(runs)
            pre_tripped = budget is not None and budget.tripped
            if pre_tripped:
                candidates = candidates[:budget.recovery_k]
            nodes: list[RankedNode] = []
            total = len(candidates)
            for candidate in candidates:
                if (budget is not None and not pre_tripped
                        and not budget.admit_node(len(nodes), total)):
                    break
                nodes.append(_ranked_node(index, effective, ranker,
                                          candidate))
            nodes.sort(key=RankedNode.sort_key)
            span.add("ranked", len(nodes))
        finished = clock()
        if budget is not None and budget.tripped:
            root.set(degraded=True, trip_stage=budget.report.stage,
                     trip_reason=budget.report.reason)

    return _response(effective, nodes, runs, budget,
                     (started, after_merge, after_lce, finished))


def sharded_top_k(index: ShardedIndex, query: Query, k: int,
                  ranker: Ranker = rank_node,
                  budget: SearchBudget | None = None,
                  tracer: Tracer | NullTracer | None = None
                  ) -> GKSResponse:
    """Scatter-gather counterpart of :func:`repro.core.topk.search_top_k`.

    Per-shard candidate discovery followed by one global bound-ordered
    ranking loop: candidates from all shards are processed in decreasing
    ``P²`` bound and ranking stops as soon as the current k-th best
    cannot be displaced by the next candidate or any after it —
    identical early-termination (and identical result) to the
    monolithic top-k.
    """
    from repro.errors import ConfigError

    if k < 1:
        raise ConfigError(f"k must be positive: {k}")
    if tracer is None:
        tracer = NOOP_TRACER
    clock = tracer.clock
    effective = query.with_s(query.effective_s)
    if budget is not None:
        budget.start()

    with tracer.span("search_top_k", query=" ".join(effective.keywords),
                     s=effective.s, k=k, shards=index.num_shards) as root:
        started = clock()
        runs, after_merge = _scatter(index, effective, budget, tracer,
                                     clock, span_name="shard")
        after_lce = clock()

        candidates = _gather_candidates(runs)
        pre_tripped = budget is not None and budget.tripped
        if pre_tripped:
            candidates = candidates[:budget.recovery_k]

        with tracer.span("rank") as rank_span:
            bounded = sorted(
                ((distinct_keyword_count(index.shards[c.shard_id].index,
                                         effective, c.dewey), c)
                 for c in candidates),
                key=lambda pair: (-(pair[0] ** 2), pair[1].dewey))

            best: list[tuple[tuple, int, RankedNode]] = []
            ranked_count = 0
            for sequence, (count, candidate) in enumerate(bounded):
                if (len(best) >= k and best[0][2].sort_key()
                        <= _bound_key(count, candidate.dewey)):
                    break
                if (budget is not None and not pre_tripped
                        and budget.checkpoint("rank", sequence,
                                              len(bounded))):
                    break
                node = _ranked_node(index, effective, ranker, candidate)
                ranked_count += 1
                entry = (_heap_key(node), sequence, node)
                if len(best) < k:
                    heapq.heappush(best, entry)
                elif entry[0] > best[0][0]:
                    heapq.heapreplace(best, entry)
            rank_span.add("ranked", ranked_count)
            rank_span.add("skipped", len(bounded) - ranked_count)

        nodes = sorted((node for _, _, node in best),
                       key=RankedNode.sort_key)
        finished = clock()
        if budget is not None and budget.tripped:
            root.set(degraded=True, trip_stage=budget.report.stage,
                     trip_reason=budget.report.reason)

    return _response(effective, nodes, runs, budget,
                     (started, after_merge, after_lce, finished))
