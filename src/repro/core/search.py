"""The GKS search pipeline (paper §4, Fig. 6 ``GKSNodes``).

``search`` strings the pieces together:

1. merge the query keywords' posting lists into ``SL`` (§4.1),
2. sweep ``SL`` with the ``s``-unique sliding window into the LCP list,
3. map LCP entries to LCE nodes with witness maintenance (§4.2),
4. assemble ``RQ(s)`` = surviving LCE nodes + unmapped LCP nodes,
5. rank every response node with the potential-flow model (§5).

Total cost is O(d·|SL|·log n) for steps 1–4 (the paper's bound) plus the
ranking pass.  Distinct keyword counts reported per node are *exact* —
recounted over posting-list subtree ranges — while the paper's
``s + counter − 1`` estimate is preserved in
:attr:`RankedNode.estimated_keywords` (ablation bench A1 compares them).
"""

from __future__ import annotations

from typing import Callable

from repro.core.budget import SearchBudget
from repro.core.lce import LCEResult, discover_lce
from repro.core.lcp import compute_lcp_list
from repro.core.merge import merged_list
from repro.core.query import Query
from repro.core.ranking import RankBreakdown, rank_node
from repro.core.results import GKSResponse, RankedNode, SearchProfile
from repro.index.builder import GKSIndex
from repro.obs.stats import QueryStats
from repro.obs.trace import NOOP_TRACER, NullTracer, Tracer
from repro.xmltree.dewey import Dewey

Ranker = Callable[[GKSIndex, Query, Dewey], RankBreakdown]


def search(index: GKSIndex, query: Query,
           ranker: Ranker = rank_node,
           budget: SearchBudget | None = None,
           tracer: Tracer | NullTracer | None = None) -> GKSResponse:
    """Run one GKS query against an index and return the ranked response.

    With a :class:`SearchBudget` every stage runs under cooperative
    checkpoints.  When the budget trips mid-pipeline, downstream stages
    operate on whatever was discovered so far and ranking falls back to a
    bounded top-k of the already-discovered nodes — the response comes
    back ``degraded=True`` with a
    :class:`~repro.core.budget.DegradationReport` instead of raising.

    Stage timings are read from the *tracer*'s clock (injectable; the
    default no-op tracer records no spans but still times stages for the
    response's :class:`~repro.obs.stats.QueryStats`).  Pass a real
    :class:`~repro.obs.trace.Tracer` to additionally capture the nested
    span tree ``gks search --trace`` renders.
    """
    if tracer is None:
        tracer = NOOP_TRACER
    clock = tracer.clock
    effective = query.with_s(query.effective_s)
    if budget is not None:
        budget.start()

    with tracer.span("search", query=" ".join(effective.keywords),
                     s=effective.s) as root:
        started = clock()
        with tracer.span("merge") as span:
            sl = merged_list(index, effective, budget=budget)
            span.add("sl_entries", len(sl))
        after_merge = clock()
        with tracer.span("lcp") as span:
            lcp = compute_lcp_list(sl, effective.s, budget=budget)
            span.add("entries", len(lcp))
        after_lcp = clock()
        with tracer.span("lce") as span:
            lce = discover_lce(lcp, sl, index, budget=budget)
            span.add("nodes", len(lce.lce))
        after_lce = clock()
        with tracer.span("rank") as span:
            nodes = rank_response(index, effective, lce, ranker,
                                  budget=budget)
            span.add("ranked", len(nodes))
        finished = clock()
        tripped = budget is not None and budget.tripped
        if tripped:
            root.set(degraded=True, trip_stage=budget.report.stage,
                     trip_reason=budget.report.reason)

    profile = SearchProfile(merged_list_size=len(sl),
                            lcp_entries=len(lcp),
                            lce_nodes=len(lce.lce),
                            seconds=finished - started,
                            merge_seconds=after_merge - started,
                            lcp_seconds=after_lcp - after_merge,
                            lce_seconds=after_lce - after_lcp,
                            rank_seconds=finished - after_lce)
    stats = QueryStats(total_seconds=profile.seconds,
                       merge_seconds=profile.merge_seconds,
                       lcp_seconds=profile.lcp_seconds,
                       lce_seconds=profile.lce_seconds,
                       rank_seconds=profile.rank_seconds,
                       postings_scanned=len(sl),
                       lcp_entries=len(lcp),
                       lce_nodes=len(lce.lce),
                       nodes_emitted=len(nodes),
                       budget_trips=1 if tripped else 0,
                       trip_stage=budget.report.stage if tripped else None,
                       trip_reason=budget.report.reason if tripped else None,
                       degraded=tripped)
    return GKSResponse(query=effective, nodes=tuple(nodes), profile=profile,
                       degraded=tripped,
                       degradation=budget.report if tripped else None,
                       stats=stats)


def rank_response(index: GKSIndex, query: Query, lce: LCEResult,
                  ranker: Ranker,
                  budget: SearchBudget | None = None) -> list[RankedNode]:
    """Rank the response node set of an already-run LCE stage.

    Public because scatter-gather execution reuses it per shard: rank a
    shard's own LCE result against the shard's index, then merge the
    per-shard rankings (see :mod:`repro.core.scatter`).
    """
    lce_nodes = lce.lce
    fallback = lce.fallback_candidates()
    deweys = lce.response_deweys()
    pre_tripped = budget is not None and budget.tripped
    if pre_tripped:
        # An earlier stage tripped: salvage a bounded top-k of what was
        # discovered.  response_deweys() lists the LCE nodes first, so
        # the cap favours entity results (§4.2 semantics).  The recovery
        # ranking itself is bounded by recovery_k, not the (already
        # spent) deadline.
        deweys = deweys[:budget.recovery_k]
    ranked: list[RankedNode] = []
    total = len(deweys)
    for dewey in deweys:
        if (budget is not None and not pre_tripped
                and not budget.admit_node(len(ranked), total)):
            break
        breakdown = ranker(index, query, dewey)
        info = lce_nodes.get(dewey)
        ranked.append(RankedNode(
            dewey=dewey,
            score=breakdown.score,
            distinct_keywords=breakdown.distinct_keywords,
            matched_keywords=breakdown.matched_keywords,
            is_lce=info is not None,
            estimated_keywords=(info.estimated_keywords if info is not None
                                else fallback.get(dewey, query.s)),
            breakdown=breakdown))
    ranked.sort(key=RankedNode.sort_key)
    return ranked
