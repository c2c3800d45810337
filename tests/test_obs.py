"""Tests for the observability subsystem (``repro.obs``).

Covers span nesting and ordering (including under budget-degraded
searches), deterministic FakeClock-driven durations, the no-op tracer's
overhead guarantees, metrics registry semantics with a Prometheus
exposition golden test, QueryStats population, the slow-query ring
buffer, and engine cache accounting.
"""

from __future__ import annotations

import time

import pytest

from repro.core.budget import SearchBudget
from repro.core.config import EngineConfig, Texts
from repro.core.engine import GKSEngine
from repro.core.query import Query
from repro.core.scatter import sharded_search
from repro.core.search import search
from repro.core.topk import search_top_k
from repro.datasets.registry import load_dataset
from repro.errors import StorageError
from repro.index.builder import build_index
from repro.index.sharding import build_sharded_index
from repro.obs.metrics import (MetricsRegistry, escape_label_value,
                               global_registry)
from repro.obs.stats import QueryStats, SlowQueryLog
from repro.obs.trace import (NOOP_TRACER, NullTracer, Tracer,
                             render_span_tree)
from repro.testing.faults import FakeClock
from repro.text.analyzer import Analyzer

pytestmark = pytest.mark.obs


@pytest.fixture
def engine():
    return GKSEngine(load_dataset("figure2a"),
                     metrics=MetricsRegistry())


@pytest.fixture
def index():
    return build_index(load_dataset("figure2a"))


# ----------------------------------------------------------------------
# Tracer and spans
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_and_ordering(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("first"):
                pass
            with tracer.span("second") as span:
                span.add("units", 3)
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert [child.name for child in root.children] == ["first",
                                                           "second"]
        assert root.children[1].counters == {"units": 3}

    def test_fake_clock_durations_are_deterministic(self):
        clock = FakeClock(auto_advance=1.0)
        tracer = Tracer(clock=clock)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        a = tracer.roots[0]
        b = a.children[0]
        # clock ticks: a-enter=0, b-enter=1, b-exit=2, a-exit=3
        assert b.duration_s == 1.0
        assert a.duration_s == 3.0

    def test_search_spans_nest_under_root(self, index):
        tracer = Tracer()
        search(index, Query.of(["karen", "mike"], s=2), tracer=tracer)
        root = tracer.roots[0]
        assert root.name == "search"
        assert [child.name for child in root.children] == \
            ["merge", "lcp", "lce", "rank"]
        assert root.find("merge").counters["sl_entries"] > 0

    def test_stage_durations_sum_to_at_most_total(self, index):
        sharded = build_sharded_index(load_dataset("plays"), shards=2)
        for run, target, keywords in (
                (search, index, ["karen", "mike"]),
                (sharded_search, sharded, ["king", "lear"])):
            # a ticking clock (whole seconds: float sums stay exact)
            tracer = Tracer(clock=FakeClock(auto_advance=1.0))
            stats = run(target, Query.of(keywords), tracer=tracer).stats
            root = tracer.roots[0]
            child_sum = sum(child.duration_s for child in root.children)
            assert 0 < child_sum <= root.duration_s
            # every layout reports four real stages that fit the total
            assert min(stats.stage_breakdown().values()) > 0
            assert stats.stage_sum() <= stats.total_seconds

    def test_degraded_search_still_emits_ordered_spans(self, index):
        # an always-expired deadline trips the very first checkpoint
        tracer = Tracer()
        budget = SearchBudget(deadline_s=0.5,
                              clock=FakeClock(auto_advance=1.0))
        response = search(index, Query.of(["karen", "mike"]),
                          budget=budget, tracer=tracer)
        assert response.degraded
        root = tracer.roots[0]
        assert [child.name for child in root.children] == \
            ["merge", "lcp", "lce", "rank"]
        assert root.attributes["degraded"] is True
        assert root.attributes["trip_stage"] == "merge"
        assert root.attributes["trip_reason"] == "deadline"

    def test_render_span_tree(self):
        tracer = Tracer(clock=FakeClock(auto_advance=0.001))
        with tracer.span("search", s=1):
            with tracer.span("merge") as span:
                span.add("sl_entries", 7)
        text = render_span_tree(tracer.roots[0])
        lines = text.splitlines()
        assert lines[0].startswith("search")
        assert "s=1" in lines[0]
        assert lines[1].startswith("`- merge")
        assert "sl_entries=7" in lines[1]
        assert "ms" in lines[1]


class TestNoopTracer:
    def test_null_span_is_a_singleton(self):
        assert NOOP_TRACER.span("a") is NOOP_TRACER.span("b")
        assert not NOOP_TRACER.enabled
        assert NOOP_TRACER.roots == ()

    def test_null_span_operations_are_inert(self):
        with NOOP_TRACER.span("x") as span:
            span.set(key="value").add("counter", 5)
        assert span.duration_s == 0.0
        assert NOOP_TRACER.current is None

    def test_noop_overhead_guard(self):
        """The disabled path must cost ~nothing per span."""
        iterations = 20_000
        started = time.perf_counter()
        for _ in range(iterations):
            with NOOP_TRACER.span("stage") as span:
                span.add("units", 1)
        per_span = (time.perf_counter() - started) / iterations
        assert per_span < 5e-5  # 50 µs: orders of magnitude of slack

    def test_untraced_search_records_no_spans(self, index):
        tracer = NullTracer()
        response = search(index, Query.of(["karen"]), tracer=tracer)
        assert tracer.roots == ()
        assert response.stats.total_seconds >= 0


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("requests_total").inc()
        registry.counter("requests_total").inc(2)
        registry.gauge("depth").set(7)
        registry.histogram("latency", buckets=(1.0, 2.0)).observe(1.5)
        assert registry.counter("requests_total").value() == 3
        assert registry.gauge("depth").value() == 7
        assert registry.histogram("latency").count() == 1
        assert registry.histogram("latency").sum() == 1.5

    def test_labelled_counters_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("trips_total")
        counter.inc(labels={"stage": "merge"})
        counter.inc(2, labels={"stage": "rank"})
        assert counter.value(labels={"stage": "merge"}) == 1
        assert counter.value(labels={"stage": "rank"}) == 2
        assert counter.total() == 3

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_counter_cannot_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_snapshot_is_json_able(self):
        import json

        registry = MetricsRegistry()
        registry.counter("a_total", help="help text").inc()
        registry.histogram("b_seconds", buckets=(0.1,)).observe(0.05)
        parsed = json.loads(json.dumps(registry.snapshot()))
        assert parsed["a_total"]["values"][""] == 1
        assert parsed["b_seconds"]["values"][""]["count"] == 1

    def test_prometheus_exposition_golden(self):
        registry = MetricsRegistry()
        registry.counter("gks_searches_total",
                         help="Queries served.").inc(3)
        registry.counter("gks_budget_trips_total").inc(
            labels={"stage": "merge", "reason": "deadline"})
        registry.gauge("gks_index_documents").set(2)
        histogram = registry.histogram("gks_search_seconds",
                                       buckets=(0.1, 0.5))
        histogram.observe(0.05)
        histogram.observe(0.25)
        histogram.observe(9.0)
        expected = "\n".join([
            "# TYPE gks_budget_trips_total counter",
            'gks_budget_trips_total{reason="deadline",stage="merge"} 1',
            "# TYPE gks_index_documents gauge",
            "gks_index_documents 2",
            "# TYPE gks_search_seconds histogram",
            'gks_search_seconds_bucket{le="0.1"} 1',
            'gks_search_seconds_bucket{le="0.5"} 2',
            'gks_search_seconds_bucket{le="+Inf"} 3',
            "gks_search_seconds_sum 9.3",
            "gks_search_seconds_count 3",
            "# HELP gks_searches_total Queries served.",
            "# TYPE gks_searches_total counter",
            "gks_searches_total 3",
        ]) + "\n"
        assert registry.render_prometheus() == expected


class TestLabelEscaping:
    @pytest.mark.parametrize("raw, escaped", [
        ('plain', 'plain'),
        ('back\\slash', 'back\\\\slash'),
        ('quo"te', 'quo\\"te'),
        ('new\nline', 'new\\nline'),
        ('all\\"\n', 'all\\\\\\"\\n'),
    ])
    def test_escape_and_inverse(self, raw, escaped):
        assert escape_label_value(raw) == escaped

    def test_exposition_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("evil_total").inc(
            labels={"q": 'say "hi"\\now\nplease'})
        text = registry.render_prometheus()
        line = next(l for l in text.splitlines()
                    if l.startswith("evil_total"))
        assert '\\"hi\\"' in line
        assert "\\\\now" in line
        assert "\\n" in line
        assert "\n" not in line.replace("\\n", "")

    def test_help_text_escapes_backslash_and_newline(self):
        registry = MetricsRegistry()
        registry.gauge("g", help="line one\nc:\\temp")
        text = registry.render_prometheus()
        help_line = next(l for l in text.splitlines()
                         if l.startswith("# HELP"))
        assert help_line == "# HELP g line one\\nc:\\\\temp"


# ----------------------------------------------------------------------
# QueryStats on every response
# ----------------------------------------------------------------------
class TestQueryStats:
    def test_search_populates_stats(self, index):
        response = search(index, Query.of(["karen", "mike"], s=2))
        stats = response.stats
        assert stats.postings_scanned == len(index.postings("karen")) + \
            len(index.postings("mike"))
        assert stats.nodes_emitted == len(response)
        assert stats.total_seconds > 0
        assert 0 < stats.stage_sum() <= stats.total_seconds * 1.001
        assert not stats.cache_hit and not stats.degraded

    def test_topk_populates_stats(self, index):
        response = search_top_k(index, Query.of(["karen"]), k=2)
        assert response.stats.nodes_emitted == len(response)
        assert response.stats.total_seconds > 0

    def test_degraded_stats_name_the_trip(self, index):
        budget = SearchBudget(deadline_s=0.5,
                              clock=FakeClock(auto_advance=1.0))
        stats = search(index, Query.of(["karen"]), budget=budget).stats
        assert stats.degraded
        assert stats.budget_trips == 1
        assert stats.trip_stage == "merge"
        assert stats.trip_reason == "deadline"

    @pytest.mark.parametrize("config, query, mode, max_sl", [
        ({}, "karen mike", None, None),
        ({"shards": 2}, "karen mike", None, None),
        ({}, "karen mike", None, 3),
        ({"shards": 2}, "karen mike", None, 3),
        ({"mode": "probabilistic"}, "karen mike", "probabilistic", None),
    ], ids=["mono", "sharded", "degraded", "sharded-degraded",
            "probabilistic"])
    def test_one_account_per_answer(self, config, query, mode, max_sl):
        """Whether an answer is degraded is one fact, read off the budget
        once; a sharded answer's per-unit |SL| adds up to its own."""
        engine = GKSEngine(load_dataset("figure2a"),
                           config=EngineConfig(**config),
                           metrics=MetricsRegistry())
        budget = SearchBudget(max_sl=max_sl) if max_sl else None
        response = engine.search(query, s=2, mode=mode, budget=budget)
        stats = response.stats
        report = budget.report if budget is not None else None
        assert response.degraded == (max_sl is not None)
        assert response.degraded == (response.degradation is not None) \
            == stats.degraded == bool(stats.budget_trips)
        assert response.degradation is report
        assert (stats.trip_stage, stats.trip_reason) == (
            (report.stage, report.reason) if report else (None, None))
        assert stats.nodes_emitted == len(response)
        if engine.config.shards > 1:
            assert len(stats.units) == 2
            assert sum(sl for _, _, sl in stats.units) == \
                stats.postings_scanned
        else:
            assert stats.units == ()

    def test_cache_hit_flag(self, engine):
        first = engine.search("karen mike", s=1)
        second = engine.search("karen mike", s=1)
        assert not first.stats.cache_hit
        assert second.stats.cache_hit
        # the cached object itself must stay pristine for later hits
        assert engine.search("karen mike", s=1).stats.cache_hit

    def test_stats_to_dict(self):
        stats = QueryStats(total_seconds=1.0, merge_seconds=0.5,
                           postings_scanned=4)
        as_dict = stats.to_dict()
        assert as_dict["stages"]["merge"] == 0.5
        assert as_dict["postings_scanned"] == 4


# ----------------------------------------------------------------------
# Engine accounting: cache, metrics, traces, slow log
# ----------------------------------------------------------------------
class TestEngineObservability:
    def test_cache_info_counts_hits_misses(self, engine):
        engine.search("karen", s=1)
        engine.search("karen", s=1)
        engine.search("mike", s=1)
        info = engine.cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 2
        assert info["size"] == 2

    def test_eviction_accounting(self):
        engine = GKSEngine(load_dataset("figure2a"),
                           config=EngineConfig(cache_size=2),
                           metrics=MetricsRegistry())
        for text in ("karen", "mike", "zoe"):
            engine.search(text, s=1)
        info = engine.cache_info()
        assert info["evictions"] == 1
        assert info["size"] == 2
        assert info["capacity"] == 2
        registry = engine.metrics_registry
        assert registry.counter("gks_cache_evictions_total").value() == 1
        assert registry.counter("gks_cache_misses_total").value() == 3

    def test_lru_eviction_drops_least_recent(self):
        engine = GKSEngine(load_dataset("figure2a"),
                           config=EngineConfig(cache_size=2),
                           metrics=MetricsRegistry())
        engine.search("karen", s=1)
        engine.search("mike", s=1)
        engine.search("karen", s=1)   # refresh karen: mike is now LRU
        engine.search("zoe", s=1)     # evicts mike
        engine.search("karen", s=1)
        info = engine.cache_info()
        assert info["hits"] == 2
        assert info["evictions"] == 1

    def test_search_metrics_recorded(self, engine):
        engine.search("karen mike", s=1)
        registry = engine.metrics_registry
        assert registry.counter("gks_searches_total").value() == 1
        assert registry.histogram("gks_search_seconds").count() == 1
        assert registry.histogram("gks_search_stage_seconds").count(
            labels={"stage": "merge"}) == 1
        assert registry.counter(
            "gks_search_postings_scanned_total").value() > 0

    def test_degraded_search_counted(self, engine):
        budget = SearchBudget(deadline_s=0.5,
                              clock=FakeClock(auto_advance=1.0))
        engine.search("karen", budget=budget)
        assert engine.metrics_registry.counter(
            "gks_search_degraded_total").value() == 1

    def test_budget_trip_metric_in_global_registry(self, index):
        counter = global_registry().counter("gks_budget_trips_total")
        before = counter.value(labels={"stage": "merge",
                                       "reason": "deadline"})
        budget = SearchBudget(deadline_s=0.5,
                              clock=FakeClock(auto_advance=1.0))
        search(index, Query.of(["karen"]), budget=budget)
        after = counter.value(labels={"stage": "merge",
                                      "reason": "deadline"})
        assert after == before + 1

    def test_recent_traces_ring(self, engine):
        for _ in range(2):
            engine.search("karen", s=1, use_cache=False,
                          tracer=Tracer())
        engine.search("mike", s=1, use_cache=False)  # untraced
        traces = engine.recent_traces()
        assert len(traces) == 2
        assert all(span.name == "search" for span in traces)

    def test_engine_metrics_snapshot(self, engine):
        engine.search("karen", s=1)
        snapshot = engine.metrics()
        assert "gks_searches_total" in snapshot
        assert snapshot["gks_searches_total"]["values"][""] == 1


    def test_shard_metrics_land_on_the_engine_registry(self):
        series = ("gks_shard_searches_total", "gks_shard_search_seconds",
                  "gks_shard_postings_scanned_total")
        global_before = {name: global_registry().snapshot().get(name)
                         for name in series}
        engine = GKSEngine(load_dataset("plays"), metrics=MetricsRegistry(),
                           config=EngineConfig(shards=2))
        engine.search("king lear")
        engine.search_top_k("hamlet", k=2)
        snapshot = engine.metrics()
        for name in series:
            assert set(snapshot[name]["values"]) == \
                {'{shard="0"}', '{shard="1"}'}
        assert engine.metrics_registry.counter(series[0]).value(
            labels={"shard": "0"}) == 2
        # the private registry is the only one written to ...
        assert {name: global_registry().snapshot().get(name)
                for name in series} == global_before
        # ... and the driver itself needs no engine (or registry) at all
        assert len(sharded_search(engine.index, Query.of(["king"])))


class TestIngestObservability:
    """``open`` and ``add_document`` explain where ingest time went."""

    @staticmethod
    def _book(n: int) -> str:
        return (f"<book><title>alpha entry {n}</title>"
                f"<author>karen</author></book>")

    @staticmethod
    def _coverage(root) -> float:
        return sum(child.duration_s
                   for child in root.children) / root.duration_s

    def test_parse_and_build_children_cover_the_root(self):
        # A ticking clock charges 1 per reading; on top of that, time
        # passes where ingest work is done: pulling a document from the
        # source (parse) and analysing a text — in the open's build,
        # which streams the texts, and in the parse of an add, which
        # streams its unit.  Work that moved out of the children would
        # show as uncovered root time.
        clock = FakeClock(auto_advance=1.0)

        class Busy(Analyzer):
            def analyze(self, text):
                clock.advance(50.0)
                return super().analyze(text)

        def source():
            for n in range(4):
                clock.advance(50.0)
                yield self._book(n)

        parsed = global_registry().histogram("gks_ingest_parse_seconds")
        before = parsed.count()
        tracer = Tracer(clock=clock)
        engine = GKSEngine.open(source(), EngineConfig(analyzer=Busy()),
                                tracer=tracer)
        root = tracer.roots[-1]
        assert root.name == "open"
        assert [child.name for child in root.children] == ["parse", "build"]
        assert root.find("parse").attributes == {
            "documents": 4, "checked": 0, "parsed": 0}
        stats = engine.index.stats
        assert root.find("build").attributes == {
            "streamed": 4,
            "nodes": stats.total_nodes, "tokens": stats.total_keywords,
            "postings": engine.index.inverted.total_postings}
        assert stats.total_nodes == 12
        assert self._coverage(root) >= 0.9
        assert engine.recent_traces()[-1] is root
        assert parsed.count() == before + 4

        info = engine.add_document(self._book(4), tracer=tracer)
        root = tracer.roots[-1]
        assert root.name == "add_document"
        assert root.attributes == {"doc_id": info["doc_id"]}
        assert [child.name for child in root.children] == \
            ["parse", "build", "recompose"]
        assert root.find("build").attributes["nodes"] == 3
        assert self._coverage(root) >= 0.9
        assert engine.recent_traces()[-1] is root
        assert parsed.count() == before + 5

    def test_every_document_entering_a_repository_is_counted_once(
            self, tmp_path):
        # every way in — an open, an add, and a store recovery that
        # re-parses the base corpus, a flushed document's sidecar and the
        # WAL tail — times each parse once and counts its document and
        # bytes once
        registry = global_registry()
        documents = registry.counter("gks_ingest_documents_total")
        ingested = registry.counter("gks_ingest_bytes_total")
        parsed = registry.histogram("gks_ingest_parse_seconds")

        def readings():
            return documents.value(), ingested.value(), parsed.count()

        def grown(before):
            return tuple(now - then for now, then in zip(readings(), before))

        texts = [self._book(n) for n in range(3)]
        size = sum(len(text) for text in texts)
        before = readings()
        engine = GKSEngine.open(Texts(texts[:2]))
        engine.add_document(texts[2])
        assert grown(before) == (3, size, 3)

        engine = GKSEngine.open(Texts(texts[:1]),
                                store_path=tmp_path / "store")
        engine.add_document(texts[1])
        engine.flush()
        engine.add_document(texts[2])  # left in the WAL tail
        engine.close()
        before = readings()
        GKSEngine.open(Texts(texts[:1]),
                       store_path=tmp_path / "store").close()
        assert grown(before) == (3, size, 3)

    def test_a_document_the_wal_refuses_is_parsed_but_not_counted(
            self, tmp_path, monkeypatch):
        registry = global_registry()
        documents = registry.counter("gks_ingest_documents_total")
        ingested = registry.counter("gks_ingest_bytes_total")
        parsed = registry.histogram("gks_ingest_parse_seconds")
        engine = GKSEngine.open(Texts([self._book(0)]),
                                store_path=tmp_path / "store")

        def refuse(*args):
            raise StorageError("disk full", diagnosis="unwritable")

        monkeypatch.setattr(engine._writes.store, "append", refuse)
        before = documents.value(), ingested.value(), parsed.count()
        with pytest.raises(StorageError):
            engine.add_document(self._book(1))
        assert (documents.value(), ingested.value(), parsed.count()) == \
            (before[0], before[1], before[2] + 1)
        assert len(engine.repository) == 1
        engine.close()

    def test_durable_open_nests_its_build_under_store(self, tmp_path):
        tracer = Tracer()
        engine = GKSEngine.open([self._book(0)], tracer=tracer,
                                store_path=tmp_path / "store")
        try:
            root = tracer.roots[-1]
            assert [child.name for child in root.children] == \
                ["parse", "store"]
            assert root.find("store").find("build").attributes["nodes"] == 3
            engine.add_document(self._book(1), tracer=tracer)
            assert [child.name for child in tracer.roots[-1].children] == \
                ["parse", "wal", "build", "recompose"]
        finally:
            engine.close()


class TestSlowQueryLog:
    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_s=0.5, capacity=4)
        assert log.observe("fast", 1, QueryStats(total_seconds=0.1)) \
            is None
        entry = log.observe("slow", 1, QueryStats(total_seconds=0.9))
        assert entry is not None
        assert len(log) == 1
        assert log.total_observed == 2
        assert log.entries()[0].query_text == "slow"

    def test_ring_buffer_caps_memory(self):
        log = SlowQueryLog(threshold_s=0.0, capacity=3)
        for position in range(10):
            log.observe(f"q{position}", 1,
                        QueryStats(total_seconds=1.0))
        assert len(log) == 3
        assert [entry.query_text for entry in log.entries()] == \
            ["q7", "q8", "q9"]

    def test_engine_files_slow_queries(self):
        engine = GKSEngine(load_dataset("figure2a"),
                           metrics=MetricsRegistry(),
                           slow_query_threshold_s=0.5)
        # a fake tracer clock makes the measured pipeline time huge
        engine.search("karen", s=1, use_cache=False,
                      tracer=Tracer(clock=FakeClock(auto_advance=0.2)))
        slow = engine.slow_queries()
        assert len(slow) == 1
        assert slow[0].stats.total_seconds > 0.5

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            SlowQueryLog(threshold_s=-1)
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)
