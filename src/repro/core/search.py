"""The GKS search pipeline (paper §4, Fig. 6 ``GKSNodes``) — one driver.

:func:`run_pipeline` is the only place the stages are strung together,
for every entry point and every index layout:

1. **discover** — per document-disjoint *unit* (:func:`units_of`: the
   shards of a sharded index, otherwise the index itself): merge the
   query keywords' posting lists into ``SL`` (§4.1), sweep it with the
   ``s``-unique sliding window into the LCP list, map LCP entries to LCE
   nodes with witness maintenance (§4.2);
2. **candidates** — ``RQ(s)`` = surviving LCE nodes + unmapped LCP
   nodes, in the creation order a single index over all the documents
   would produce;
3. **rank** — :func:`rank_all`, the one ranking loop, scores every
   admitted candidate with the potential-flow model (§5) against the
   unit owning its document; top-k (:mod:`repro.core.topk`) is the head
   of this ranking;
4. **respond** — :func:`repro.core.results.respond` with per-stage
   seconds summed over the units.

Total cost is O(d·|SL|·log n) for steps 1–2 (the paper's bound) plus the
ranking pass.  Distinct keyword counts reported per node are *exact* —
recounted over posting-list subtree ranges — while the paper's
``s + counter − 1`` estimate is preserved in
:attr:`RankedNode.estimated_keywords` (ablation bench A1 compares them).

Budget semantics: one unit runs under the caller's budget itself.
Several units each get a child (:meth:`SearchBudget.subbudget`) sharing
the parent's clock **and start time**, so every child reads the headroom
a single pipeline would — all deadline arithmetic lives in the budget,
none here; ``max_sl`` is applied globally across the unit SLs (the kept
prefix is the same document-order prefix); ``max_nodes`` caps the one
global ranking loop, for full and top-k search alike.  The first trip —
a unit's or the global admission's — becomes the response's degradation
report.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from operator import attrgetter
from typing import Callable

from repro.core.budget import SearchBudget
from repro.core.lce import LCEResult, discover_lce
from repro.core.lcp import compute_lcp_list
from repro.core.merge import merged_list
from repro.core.query import Query
from repro.core.ranking import RankBreakdown, flow_scorer, rank_node
from repro.core.results import GKSResponse, RankedNode, respond
from repro.index.builder import GKSIndex
from repro.index.postings import merge_sorted_runs
from repro.index.sharding import ShardedIndex
from repro.obs.trace import NOOP_TRACER, NullTracer, Tracer

#: ``ranker(unit index, query, packed id)``: ids are packed under the
#: unit's :attr:`~repro.index.builder.GKSIndex.layout`
Ranker = Callable[[GKSIndex, Query, int], RankBreakdown]

_STAGE_ORDER = {"merge": 0, "lcp": 1, "lce": 2, "rank": 3}


def units_of(index) -> list[tuple[int, GKSIndex]]:
    """``(label, unit)`` per document-disjoint unit a query runs over.

    The one layout test on the query path: everything downstream only
    asks whether there is more than one unit.
    """
    if isinstance(index, ShardedIndex):
        return [(shard.shard_id, shard.index) for shard in index.shards]
    return [(0, index)]


class _Unit:
    """One unit's trip through discovery, and what ranking needs of it."""

    __slots__ = ("label", "index", "budget", "sl", "lcp_entries", "lce",
                 "lce_nodes", "fallback", "lcp_seconds", "lce_seconds",
                 "bound")

    def __init__(self, label: int, index: GKSIndex,
                 budget: SearchBudget | None) -> None:
        self.label = label
        self.index = index
        self.budget = budget
        self.bound = None

    def found(self, lce: LCEResult) -> None:
        self.lce = lce
        self.lce_nodes = lce.lce
        self.fallback = lce.fallback_candidates()

    def bind(self, query: Query, ranker: Ranker) -> tuple:
        """What the ranking loop reads of this unit, bound once: packed id
        → ``(score, evidence)`` (the flow kernel, or any other *ranker*
        adapted), the LCE and fallback ``get``, the layout, ``unpack``."""
        if self.bound is None:
            index = self.index
            if ranker is rank_node:
                score = flow_scorer(index, query)
            else:
                def score(dewey: int) -> tuple[float, RankBreakdown]:
                    breakdown = ranker(index, query, dewey)
                    return breakdown.score, breakdown
            self.bound = (score, self.lce_nodes.get, self.fallback.get,
                          index.layout, index.layout.unpack)
        return self.bound


#: a response candidate (packed id) with the unit that owns its document
Candidate = tuple[int, _Unit]


def search(index: GKSIndex, query: Query,
           ranker: Ranker = rank_node,
           budget: SearchBudget | None = None,
           tracer: Tracer | NullTracer | None = None) -> GKSResponse:
    """Run one GKS query against an index and return the ranked response.

    With a :class:`SearchBudget` every stage runs under cooperative
    checkpoints.  When the budget trips mid-pipeline, downstream stages
    operate on whatever was discovered so far and ranking falls back to
    the first ``recovery_k`` already-discovered nodes — the response comes
    back ``degraded=True`` with a
    :class:`~repro.core.budget.DegradationReport` instead of raising.

    Stage timings are read from the *tracer*'s clock (injectable; the
    default no-op tracer records no spans but still times stages for the
    response's :class:`~repro.obs.stats.QueryStats`).  Pass a real
    :class:`~repro.obs.trace.Tracer` to additionally capture the nested
    span tree ``gks search --trace`` renders.
    """
    return run_pipeline(index, query, ranker, budget, tracer, "search")


def run_pipeline(index, query: Query, ranker: Ranker,
                 budget: SearchBudget | None,
                 tracer: Tracer | NullTracer | None,
                 root_name: str, **attributes) -> GKSResponse:
    """Discover per unit, order the candidates, rank them all, respond;
    *attributes* are stamped on the root span."""
    if tracer is None:
        tracer = NOOP_TRACER
    clock = tracer.clock
    effective = query.with_s(query.effective_s)
    if budget is not None:
        budget.start()
    layout = units_of(index)
    many = len(layout) > 1
    if many:
        attributes["shards"] = len(layout)
    units = [_Unit(label, unit, budget.subbudget()
                   if many and budget is not None else budget)
             for label, unit in layout]

    with tracer.span(root_name, query=" ".join(effective.keywords),
                     s=effective.s, **attributes) as root:
        started = clock()
        after_merge, discovered = _discover(units, effective, budget,
                                            tracer, clock)
        with tracer.span("rank") as span:
            candidates, polled = _candidates(units, budget)
            nodes = rank_all(effective, ranker, candidates, polled, span)
        finished = clock()
    return respond(
        effective, nodes, budget, root,
        total_seconds=finished - started,
        merge_seconds=after_merge - started,
        lcp_seconds=sum(unit.lcp_seconds for unit in units),
        lce_seconds=sum(unit.lce_seconds for unit in units),
        rank_seconds=finished - discovered,
        postings_scanned=sum(len(unit.sl) for unit in units),
        lcp_entries=sum(unit.lcp_entries for unit in units),
        lce_nodes=sum(len(unit.lce_nodes) for unit in units),
        units=tuple((unit.label, unit.lcp_seconds + unit.lce_seconds,
                     len(unit.sl)) for unit in units) if many else ())


def _discover(units: list[_Unit], query: Query,
              budget: SearchBudget | None, tracer,
              clock) -> tuple[float, float]:
    """``merge → lcp → lce`` on every unit.

    All SLs are merged before any LCP sweep because the ``max_sl`` cap is
    global.  Returns the clock readings after the merge phase and at the
    end; each unit keeps its own LCP and LCE seconds, read off one chain
    of readings so the stage seconds add up to the wall time.
    """
    many = len(units) > 1
    # the per-unit wrapper spans exist only where there are units to tell
    # apart: a plain index keeps the flat merge/lcp/lce/rank tree
    unit_tracer = tracer if many else NOOP_TRACER
    with tracer.span("merge") as span:
        for unit in units:
            with unit_tracer.span("shard_merge", shard=unit.label):
                unit.sl = merged_list(unit.index, query, budget=unit.budget,
                                      tracer=tracer)
        span.add("sl_entries", _admit_global_sl(units, budget))
    mark = after_merge = clock()
    for unit in units:
        with unit_tracer.span("shard", shard=unit.label) as unit_span:
            with tracer.span("lcp") as span:
                lcp = compute_lcp_list(unit.sl, query.s, budget=unit.budget)
                span.add("entries", len(lcp))
            after_lcp = clock()
            with tracer.span("lce") as span:
                unit.found(discover_lce(lcp, unit.sl, unit.index,
                                        budget=unit.budget))
                span.add("nodes", len(unit.lce_nodes))
            unit.lcp_entries = len(lcp)
            unit_span.set(sl_entries=len(unit.sl), lcp_entries=len(lcp),
                          lce_nodes=len(unit.lce_nodes))
        unit.lcp_seconds = after_lcp - mark
        mark = clock()
        unit.lce_seconds = mark - after_lcp
    if many and budget is not None:
        # the earliest-stage unit trip (ties: first unit) is the query's
        budget.adopt(min(
            (unit.budget.report for unit in units
             if unit.budget.report is not None),
            key=lambda report: _STAGE_ORDER.get(report.stage, 9),
            default=None))
    return after_merge, mark


def _admit_global_sl(units: list[_Unit],
                     budget: SearchBudget | None) -> int:
    """Apply the parent ``max_sl`` cap *across* units; returns the total
    kept SL size.

    A single unit already applied it in :func:`merged_list`.  For
    several, a single pipeline would keep the first ``max_sl`` entries of
    the global SL in document order; the same prefix is recovered here
    by merging the (sorted, disjoint) unit SLs, and each unit keeps its
    part of that prefix.  Trips the parent budget exactly like
    :meth:`SearchBudget.admit_sl`.
    """
    total = sum(len(unit.sl) for unit in units)
    if (len(units) == 1 or budget is None or budget.max_sl is None
            or total <= budget.max_sl):
        return total
    # entries of different units differ (other documents), so the last
    # kept entry splits every unit's SL exactly
    last = merge_sorted_runs(unit.sl for unit in units)[budget.max_sl - 1]
    for unit in units:
        del unit.sl[bisect_right(unit.sl, last):]
    budget.trip("merge", "max_sl", budget.max_sl, total)
    return budget.max_sl


def _candidates(units: list[_Unit], budget: SearchBudget | None
                ) -> tuple[list[Candidate], SearchBudget | None]:
    """The response candidates in global creation order — every unit's
    LCE nodes, then every unit's fallback nodes, the units interleaved
    by a stable sort on the document number (``docs/ALGORITHMS.md`` §3.4
    has the argument) — and the budget the ranking loop still has to poll.
    """
    entities: list[Candidate] = []
    others: list[Candidate] = []
    for unit in units:
        deweys = unit.lce.response_deweys(unit.fallback)
        split = len(unit.lce_nodes)
        entities += zip(deweys[:split], repeat(unit))
        others += zip(deweys[split:], repeat(unit))
    if len(units) > 1:
        # the units share one layout: the document is the id's top bits
        shift = units[0].index.layout.inner_bits

        def document(candidate: Candidate) -> int:
            return candidate[0] >> shift

        entities.sort(key=document)
        others.sort(key=document)
    candidates = entities + others
    if budget is not None and budget.tripped:
        # An earlier stage tripped: salvage a bounded top-k of what was
        # discovered.  LCE nodes come first, so the cap favours entity
        # results (§4.2 semantics).  The recovery ranking itself is
        # bounded by recovery_k, not the (already spent) deadline — there
        # is nothing left to poll.
        return candidates[:budget.recovery_k], None
    return candidates, budget


def rank_all(query: Query, ranker: Ranker, candidates: list[Candidate],
             budget: SearchBudget | None, span) -> list[RankedNode]:
    """Rank every admitted candidate, each against the unit that owns its
    document, and sort by :meth:`RankedNode.sort_key`.  A node's id is
    unpacked here, once, for its :class:`RankedNode`."""
    ranked: list[RankedNode] = []
    packed: list[int] = []
    total = len(candidates)
    s = query.s
    build = RankedNode._build
    current = None
    for dewey, unit in candidates:
        if budget is not None and not budget.admit_node(len(ranked), total):
            break
        if unit is not current:
            current = unit
            score_of, lce_info, fallback_estimate, layout, unpack = (
                unit.bind(query, ranker))
        score, evidence = score_of(dewey)
        info = lce_info(dewey)
        packed.append(dewey)
        ranked.append(build(
            unpack(dewey), score, evidence, info is not None,
            info.estimated_keywords if info is not None
            else fallback_estimate(dewey, s), dewey, layout))
    # sort_key's order as two C-level sorts: document order (the packed
    # ids' order), then a stable descending (score, coverage)
    ranked = list(map(ranked.__getitem__,
                      sorted(range(len(ranked)), key=packed.__getitem__)))
    ranked.sort(key=attrgetter("score", "distinct_keywords"), reverse=True)
    span.add("ranked", len(ranked))
    return ranked


def rank_response(index: GKSIndex, query: Query, lce: LCEResult,
                  ranker: Ranker,
                  budget: SearchBudget | None = None) -> list[RankedNode]:
    """Rank the response node set of an already-run LCE stage.

    Public for callers that drive the stages themselves (the benchmark's
    stage-by-stage replay): candidates + :func:`rank_all` on one unit.
    """
    unit = _Unit(0, index, budget)
    unit.found(lce)
    return rank_all(query, ranker, *_candidates([unit], budget),
                    NOOP_TRACER.span("rank"))
