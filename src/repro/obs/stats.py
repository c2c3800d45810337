"""Per-query statistics and the slow-query ring buffer.

A :class:`QueryStats` record rides on every
:class:`~repro.core.results.GKSResponse`: the merge→lcp→lce→rank stage
durations (measured by the pipeline's injectable tracer clock), the work
counters the §4.2 complexity bound is stated in (postings scanned, LCP
entries, LCE nodes, response nodes emitted), and the serving context
(cache hit, budget trips, degraded flag).  The evaluation harness and the
stage-breakdown bench consume this record instead of re-timing searches.

:class:`SlowQueryLog` keeps the most recent above-threshold queries in a
bounded ring buffer so a long-running ``gks serve`` process can be
asked "what was slow lately?" without unbounded memory.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, replace
from repro.errors import ConfigError


@dataclass(frozen=True)
class QueryStats:
    """Everything measured about one query's trip through the pipeline.

    The one record of what a query cost (Figs 8–10): the stage timings
    decompose the total — merge (building ``SL``), LCP (the sliding
    window), LCE (entity mapping + witnesses) and ranking — and the
    counters are what the §4.2 bound is stated in.
    """

    total_seconds: float = 0.0
    merge_seconds: float = 0.0
    lcp_seconds: float = 0.0
    lce_seconds: float = 0.0
    rank_seconds: float = 0.0
    postings_scanned: int = 0   # |SL|: merged posting entries processed
    lcp_entries: int = 0
    lce_nodes: int = 0
    nodes_emitted: int = 0      # response nodes returned to the caller
    cache_hit: bool = False
    #: the budget stage and limit that tripped; None when not degraded
    trip_stage: str | None = None
    trip_reason: str | None = None
    #: Correlation id minted at serving admission (None for direct
    #: engine calls); joins this record to the HTTP response header,
    #: span trees and the slow-query log.
    request_id: str | None = None
    #: Query semantics mode ("strict" | "probabilistic").
    #: Non-strict values surface in to_dict()/render(); the strict
    #: default is omitted so pre-semantics wire shapes are unchanged.
    mode: str = "strict"
    #: Candidate nodes the probabilistic search evaluated.
    semantics_candidates: int = 0
    #: ``(shard id, lcp + lce seconds, SL entries)`` per unit when the
    #: query ran over several; what the engine files under ``gks_shard_*``
    units: tuple[tuple[int, float, int], ...] = ()

    @property
    def degraded(self) -> bool:
        return self.trip_stage is not None

    @property
    def budget_trips(self) -> int:
        return int(self.degraded)

    def stage_breakdown(self) -> dict[str, float]:
        return {
            "merge": self.merge_seconds,
            "lcp": self.lcp_seconds,
            "lce": self.lce_seconds,
            "rank": self.rank_seconds,
        }

    def stage_sum(self) -> float:
        return sum(self.stage_breakdown().values())

    def as_cache_hit(self) -> "QueryStats":
        """A copy marking this response as served from the LRU cache."""
        return replace(self, cache_hit=True)

    def with_request_id(self, request_id: str) -> "QueryStats":
        """A copy stamped with the serving-side correlation id."""
        return replace(self, request_id=request_id)

    def to_dict(self) -> dict:
        payload = {
            "total_seconds": self.total_seconds,
            "stages": self.stage_breakdown(),
            "postings_scanned": self.postings_scanned,
            "lcp_entries": self.lcp_entries,
            "lce_nodes": self.lce_nodes,
            "nodes_emitted": self.nodes_emitted,
            "cache_hit": self.cache_hit,
            "budget_trips": self.budget_trips,
            "trip_stage": self.trip_stage,
            "trip_reason": self.trip_reason,
            "degraded": self.degraded,
            "request_id": self.request_id,
        }
        # Non-strict keys appear only when set: strict-mode payloads
        # stay byte-identical to their pre-semantics shape.
        if self.mode != "strict":
            payload["mode"] = self.mode
            payload["semantics_candidates"] = self.semantics_candidates
        return payload

    def render(self) -> str:
        stages = "  ".join(
            f"{name}={seconds * 1000:.2f}ms"
            for name, seconds in self.stage_breakdown().items())
        flags = []
        if self.mode != "strict":
            flags.append(f"mode={self.mode}")
        if self.cache_hit:
            flags.append("cache-hit")
        if self.degraded:
            flags.append(f"degraded@{self.trip_stage}:{self.trip_reason}")
        tail = f"  [{', '.join(flags)}]" if flags else ""
        return (f"total={self.total_seconds * 1000:.2f}ms  {stages}  "
                f"|SL|={self.postings_scanned} lcp={self.lcp_entries} "
                f"lce={self.lce_nodes} out={self.nodes_emitted}{tail}")


@dataclass(frozen=True)
class SlowQuery:
    """One slow-query log entry."""

    query_text: str
    s: int
    stats: QueryStats
    unix_time: float

    @property
    def request_id(self) -> str | None:
        """The serving-side correlation id, when the query carried one."""
        return self.stats.request_id

    def render(self) -> str:
        rid = f"  rid={self.request_id}" if self.request_id else ""
        return (f"{self.stats.total_seconds * 1000:8.2f} ms  "
                f"s={self.s}  {self.query_text}{rid}")


class SlowQueryLog:
    """Bounded ring buffer of the most recent above-threshold queries."""

    def __init__(self, threshold_s: float = 0.5, capacity: int = 128,
                 wall_clock=None) -> None:
        if threshold_s < 0:
            raise ConfigError(f"threshold_s must be >= 0: {threshold_s}")
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1: {capacity}")
        self.threshold_s = threshold_s
        self._entries: deque[SlowQuery] = deque(maxlen=capacity)
        self._wall_clock = wall_clock if wall_clock is not None else time.time
        self.total_observed = 0     # every query seen, slow or not

    def observe(self, query_text: str, s: int,
                stats: QueryStats) -> SlowQuery | None:
        """Record *stats* if slow; returns the entry when one was filed."""
        self.total_observed += 1
        if stats.total_seconds < self.threshold_s:
            return None
        entry = SlowQuery(query_text=query_text, s=s, stats=stats,
                          unix_time=self._wall_clock())
        self._entries.append(entry)
        return entry

    def entries(self) -> list[SlowQuery]:
        """Oldest-first list of the retained slow queries."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        return self._entries.maxlen or 0

    def clear(self) -> None:
        self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SlowQueryLog {len(self)}/{self.capacity} "
                f"threshold={self.threshold_s}s>")
