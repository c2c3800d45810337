"""The GKS system facade (paper Fig. 3).

One :class:`GKSEngine` owns the three modules of the architecture diagram —
Indexing Engine, Search Engine, Search Analysis Engine — behind a small
API::

    engine = GKSEngine.open([xml_text])
    response = engine.search('"Peter Buneman" "Wenfei Fan"', s=1)
    for node in response.top(5):
        print(node.score, engine.snippet(node.dewey))
    for insight in engine.insights(response):
        print(insight.render())
    for refinement in engine.refine(response):
        print(refinement.keywords)
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

from repro.core.budget import SearchBudget
from repro.core.config import (EngineConfig, SearchOptions, SearchRequest,
                               resolve_request)
from repro.core.insights import (InsightReport, discover_insights,
                                 discover_recursive)
from repro.core.query import Query
from repro.core.refinement import Refinement, suggest
from repro.core.ranking import rank_node
from repro.core.results import GKSResponse, RankedNode
from repro.core.search import Ranker, search
from repro.core.durable import (WritePath, build_facts, build_index,
                                open_durable, read_source)
from repro.errors import ConfigError, SearchTimeout, ValidationError
from repro.index.builder import GKSIndex
from repro.index.composite import CompositeIndex
from repro.index.sharding import ShardedIndex
from repro.obs.locks import new_lock, new_rlock
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.stats import SlowQuery, SlowQueryLog
from repro.obs.trace import NullTracer, Span, Tracer
from repro.xmltree.dewey import Dewey, format_dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.repository import Repository, Source
from repro.xmltree.serialize import serialize_node

#: Recent query traces an engine keeps for inspection.
TRACE_CAPACITY = 32


class GKSEngine:
    """Generic Keyword Search over one XML repository."""

    def __init__(self, repository: Repository,
                 index: GKSIndex | CompositeIndex | None = None,
                 metrics: MetricsRegistry | None = None,
                 slow_query_threshold_s: float = 0.5,
                 config: EngineConfig | None = None, *,
                 _writes: WritePath | None = None) -> None:
        if config is None:
            config = EngineConfig()
        if _writes is not None:
            # open() hands over a write path it opened (a store's)
            index = _writes.compose()
        elif index is not None:
            # the write path routes new documents by the layout the
            # index was built with, whatever the config record says
            layout = ((index.num_shards, index.strategy)
                      if isinstance(index, ShardedIndex)
                      else (1, config.shard_strategy))
            if layout != (config.shards, config.shard_strategy):
                config = config.replace(shards=layout[0],
                                        shard_strategy=layout[1])
        elif config.store_path is not None:
            # only open() recovers or attaches a store; an engine built
            # here would silently persist nothing
            raise ConfigError(
                "EngineConfig.store_path takes effect only through "
                "GKSEngine.open(source, config)")
        self.config = config
        self.repository = repository
        self.analyzer = config.analyzer
        # Observability: the shared metrics registry (process-global by
        # default), the slow-query ring buffer, and the recent-trace ring.
        self.metrics_registry = (metrics if metrics is not None
                                 else global_registry())
        self.slow_log = SlowQueryLog(threshold_s=slow_query_threshold_s)
        self._recent_traces: deque[Span] = deque(maxlen=TRACE_CAPACITY)
        # Per-shard series exist only on engines that scatter-gather;
        # looked up once, fed from each response's per-unit stats.
        self._shard_metrics = None
        if config.shards > 1:
            registry = self.metrics_registry
            self._shard_metrics = (
                registry.counter(
                    "gks_shard_searches_total",
                    help="Per-shard discovery pipeline executions."),
                registry.histogram(
                    "gks_shard_search_seconds",
                    help="Wall time of one shard's lcp + lce stages."),
                registry.counter(
                    "gks_shard_postings_scanned_total",
                    help="SL entries processed per shard (after global "
                         "admission)."))
        if index is None:
            index = build_index(repository, config)
        self.index = index
        # LRU response cache — the system's one result cache; keyed by
        # (keywords, s, ranker); responses are immutable so sharing them
        # is safe.  Every event that can change an answer (add_document,
        # a flush/compact recompose; a hot swap replaces the engine and
        # its cache with it) clears it and bumps ``_generation``, and a
        # response computed on an older generation is not stored — so an
        # entry is never stale, and a wall-clock expiry on top could only
        # evict answers that are still right.  That is why no layer above
        # keeps a time-bounded copy.  The lock makes the pop/evict/insert
        # sequences atomic — the serving layer runs searches from a
        # worker thread pool, and two threads evicting the same oldest
        # key would otherwise race into a KeyError.
        self._cache_size = max(0, config.cache_size)
        self._response_cache: dict = {}
        self._cache_lock = new_lock("engine.cache")  # guards: _response_cache
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0
        # The write path (repro.core.durable.WritePath): the store, the
        # per-shard run chains, the memtable and the Dewey layout.  The
        # RLock serializes mutations — an add_document that crosses the
        # memtable threshold flushes inside the same hold.
        # guards: index, _generation, _writes
        self._mutation_lock = new_rlock("engine.mutation")
        self._generation = 0
        self._writes = (_writes if _writes is not None
                        else WritePath.over(index, repository, config))
        # What probabilistic mode derives from the corpus, per derivation:
        # (generation, value), and its parts by doc id (_corpus_derived)
        self._derived: dict = {}
        self._derived_parts: dict = {}

    # ------------------------------------------------------------------
    # Construction conveniences
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, source, config: EngineConfig | None = None, *,
             tracer: Tracer | None = None, **overrides) -> "GKSEngine":
        """The one engine factory: open *source* under *config*.

        *source* may be a :class:`Repository`, one XML text, one corpus
        path, or an iterable of texts/paths — strings whose first
        non-blank character is ``<`` are treated as XML text, everything
        else as a path; wrap the iterable in
        :class:`~repro.core.config.Texts` or
        :class:`~repro.core.config.Paths` to skip the sniffing.
        Keyword *overrides* are applied to the config
        (``GKSEngine.open(src, shards=4)``).

        With ``config.store_path`` set, the engine opens a durable
        segmented store there: an empty directory is initialised
        from a fresh build, an existing one is *recovered* — segments
        verified, appended documents checked, the WAL tail re-applied
        — and ``add_document`` becomes crash-safe (write-ahead logged,
        flushed to immutable segments, compacted per shard).  A
        corrupted or incompatible store raises
        :class:`~repro.errors.StorageError` rather than rebuilding: the
        store holds documents the source corpus does not, so silently
        starting over would be data loss.  A saved index file is opened
        as ``GKSEngine(repository, index=load_index(path))``.

        No tree is built to open: search reads only the index.  When
        the open builds, each source text is scanned once, by the
        element stream that indexes it — the well-formedness check, so
        a document failing part-way under ``skip_document`` is taken
        back out and quarantined; while the store manifest exists the
        texts are only checked.  Each document keeps its text
        and builds its tree on the first read of ``.root``; ``salvage``
        sources are parsed into trees.

        The open is traced: an ``open`` root span (on *tracer* when
        given, and retained in :meth:`recent_traces`) with a ``parse``
        child around reading the source (``documents`` read, how many of
        them ``checked`` or ``parsed``) and a ``build`` child — carrying ``streamed`` (the
        documents indexed from their text), ``nodes``, ``tokens`` and
        ``postings`` — around indexing it; a durable open nests its
        build — or, recovering, ``manifest``, ``texts``, ``segments``
        and ``wal_tail`` — under a ``store`` child.
        """
        if config is None:
            config = EngineConfig()
        if overrides:
            config = config.replace(**overrides)
        if tracer is None:
            tracer = Tracer()
        with tracer.span("open") as root:
            with tracer.span("parse") as span:
                repository, sources = read_source(source, config)
                if sources is None:
                    checked = sum(not doc.parsed for doc in repository)
                    span.set(documents=len(repository), checked=checked,
                             parsed=len(repository) - checked)
                else:  # read only: the build streams them
                    span.set(documents=len(sources), checked=0, parsed=0)
            engine = cls._open(repository, config, tracer, sources)
        engine._recent_traces.append(root)
        return engine

    @classmethod
    def _open(cls, repository: Repository, config: EngineConfig,
              tracer: Tracer, sources: list[Source] | None
              ) -> "GKSEngine":
        def build(repository: Repository, config: EngineConfig):
            with tracer.span("build") as span:
                index = build_index(repository, config, sources)
                span.set(streamed=sum(not document.parsed
                                      for document in repository),
                         **build_facts(index))
            return index

        if config.store_path is not None:
            with tracer.span("store"):
                return cls(repository, config=config,
                           _writes=open_durable(repository, config, build,
                                                tracer))

        return cls(repository, index=build(repository, config),
                   config=config)

    # ------------------------------------------------------------------
    # Search Engine
    # ------------------------------------------------------------------
    def parse_query(self, raw: str, s: int = 1) -> Query:
        return Query.parse(raw, s=s, analyzer=self.analyzer)

    def search(self, query: str | Query, s: int | None = None, *,
               k: int | None = None,
               ranker: Ranker | None = None,
               use_cache: bool | None = None,
               budget: SearchBudget | None = None,
               strict_deadline: bool | None = None,
               options: SearchOptions | None = None,
               mode: str | None = None,
               threshold: float | None = None,
               tracer: Tracer | NullTracer | None = None,
               request_id: str | None = None) -> GKSResponse:
        """Run a keyword query; ``s`` defaults to ``config.s``.

        Tuning parameters beyond ``s`` are keyword-only; unset ones fall
        back first to *options* (a frozen
        :class:`~repro.core.config.SearchOptions` — the same record the
        broker and HTTP surface accept), then to the engine's
        :class:`EngineConfig` — the precedence
        :func:`~repro.core.config.resolve_request` implements for every
        layer.  With a ``k`` (here or in *options*) the response is the
        :meth:`~GKSResponse.head` of the full ranking, as
        :meth:`search_top_k` returns.  Full responses are LRU-cached per
        (keywords, s, ranker) and a top-k request is served the head of
        the cached one; pass ``use_cache=False`` to force a fresh run
        (timing harnesses do).

        A :class:`SearchBudget` bounds the query's cost; an exhausted
        budget yields a partial response flagged ``degraded=True``.  With
        ``strict_deadline=True`` a deadline trip raises
        :class:`SearchTimeout` instead (resource-cap trips — ``max_sl``,
        ``max_nodes`` — still degrade gracefully).  ``options.deadline_s``
        becomes a budget that keeps ``config.budget``'s resource caps.
        Budgeted responses bypass the cache in both directions: a
        partial answer must never be served to an unbudgeted caller, nor
        vice versa.

        Pass a :class:`~repro.obs.trace.Tracer` to capture the query's
        span tree (also retained in :meth:`recent_traces`); every search,
        traced or not, records into the engine's metrics registry and
        slow-query log and returns a response with populated
        :class:`~repro.obs.stats.QueryStats`.

        ``request_id`` is the serving-side correlation id (minted at
        :class:`~repro.serve.core.ServerCore` admission): when given it
        is stamped on the response's :class:`QueryStats`, the slow-query
        log entry and the root span, so one id joins the HTTP envelope,
        the span tree and the diagnostics for the same query.

        ``mode`` selects the query semantics (``repro.semantics``):
        ``"strict"`` is the classic pipeline, ``"probabilistic"``
        evaluates p-document probabilities (filtered by ``threshold``).
        Probabilistic responses never touch the LRU cache, so strict
        output stays byte-identical.
        """
        return self._run(
            resolve_request(self.config, query, options, s=s, k=k,
                            ranker=ranker, use_cache=use_cache,
                            budget=budget, strict_deadline=strict_deadline,
                            mode=mode, threshold=threshold),
            tracer, request_id)

    def _run(self, request: SearchRequest,
             tracer: Tracer | NullTracer | None,
             request_id: str | None) -> GKSResponse:
        """The one request path behind :meth:`search` and
        :meth:`search_top_k`: the full answer (mode dispatch, cache,
        pipeline), its :meth:`~GKSResponse.head` when the request has a
        ``k``, bookkeeping."""
        if request.mode == "strict":
            response = self._strict_answer(request, tracer)
        else:
            response = self._semantic_search(request, tracer)
        if request.k is not None:
            response = response.head(request.k)
        if response.stats.cache_hit:
            tracer = None  # a hit ran no pipeline: no span of its own
        return self._finish(response, request, tracer, request_id)

    def _strict_answer(self, request: SearchRequest,
                       tracer: Tracer | NullTracer | None) -> GKSResponse:
        """The full strict answer, from the LRU or from a pipeline run
        that fills it.  The cache holds full answers only, so a top-k
        request is served the head of a cached one."""
        query, ranker, budget = request.query, request.ranker, request.budget
        use_cache = request.use_cache and budget is None
        # Keyed on the ranker object itself (not id(): ids are recycled
        # after GC, which can silently serve another ranker's response).
        cache_key = (query.keywords, query.effective_s, ranker)
        if use_cache:
            with self._cache_lock:
                cached = self._response_cache.pop(cache_key, None)
                if cached is not None:
                    # re-insert to refresh recency: true LRU, not FIFO
                    self._response_cache[cache_key] = cached
                    self._count_cache("hits")
                else:
                    self._count_cache("misses")
            if cached is not None:
                return replace(cached, stats=cached.stats.as_cache_hit())
        # One read of the index reference: a concurrent add_document
        # swaps in a new immutable snapshot, and this search must run
        # wholly on whichever snapshot it captured.
        index = self.index
        generation = self._generation
        response = search(index, query, ranker=ranker, budget=budget,
                          tracer=tracer)
        # the generation guard keeps a response computed on a pre-swap
        # snapshot from re-entering the cache after invalidation
        if use_cache and self._cache_size and generation == self._generation:
            with self._cache_lock:
                if (cache_key not in self._response_cache
                        and len(self._response_cache) >= self._cache_size):
                    # drop the least recently used entry (dict preserves
                    # insertion order; hits re-insert at the end)
                    oldest = next(iter(self._response_cache))
                    del self._response_cache[oldest]
                    self._count_cache("evictions")
                self._response_cache[cache_key] = response
        return response

    def _finish(self, response: GKSResponse, request: SearchRequest,
                tracer: Tracer | NullTracer | None,
                request_id: str | None) -> GKSResponse:
        """Stamp, record, and — under ``strict_deadline`` — turn a
        deadline-degraded response into :class:`SearchTimeout`."""
        response = self._stamp_request_id(response, request_id, tracer)
        self._record_search(response, tracer=tracer)
        if (request.strict_deadline and response.degraded
                and response.degradation.reason == "deadline"):
            raise SearchTimeout(
                f"query {request.query} exceeded its deadline: "
                f"{response.degradation.render()}",
                report=response.degradation)
        return response

    def _corpus_derived(self, derive):
        """``derive(repository, parts)`` for the current serving
        generation, computed at most once per generation.  *parts* (doc
        id → that document's part) outlives generations, so each
        document is read once per derivation however the corpus grows."""
        cached = self._derived.get(derive)
        generation = self._generation
        if cached is not None and cached[0] == generation:
            return cached[1]
        value = derive(self.repository,
                       self._derived_parts.setdefault(derive, {}))
        self._derived[derive] = (generation, value)
        return value

    def _semantic_search(self, request: SearchRequest,
                         tracer: Tracer | NullTracer | None) -> GKSResponse:
        """The full answer of a probabilistic query, via
        ``repro.semantics``.

        Deferred import: semantics sits beside core in the layer DAG but
        this facade must not pay for it on the strict path.  These
        responses bypass the LRU cache entirely (in both directions).
        """
        from repro.semantics import compile_tables, probabilistic_search

        # the snapshot first: each of its documents is already in the
        # repository the tables are compiled from
        index = self.index
        return probabilistic_search(
            index, request.query, self._corpus_derived(compile_tables),
            threshold=request.threshold, budget=request.budget,
            tracer=tracer, registry=self.metrics_registry)

    def search_top_k(self, query: str | Query, k: int | None = None,
                     s: int | None = None, *,
                     ranker: Ranker | None = None,
                     budget: SearchBudget | None = None,
                     strict_deadline: bool | None = None,
                     options: SearchOptions | None = None,
                     mode: str | None = None,
                     threshold: float | None = None,
                     tracer: Tracer | NullTracer | None = None,
                     request_id: str | None = None
                     ) -> GKSResponse:
        """The ``k`` best nodes: the head of :meth:`search`'s ranking.

        Tuning parameters beyond ``s`` are keyword-only; unset ones fall
        back first to *options*, then to the engine's
        :class:`EngineConfig`.  ``k`` may come positionally or from
        ``options.k``; omitting both is a
        :class:`~repro.errors.ValidationError`.  Budgets,
        ``strict_deadline``, modes, tracing, ``request_id`` and the cache
        behave as in :meth:`search`.
        """
        request = resolve_request(
            self.config, query, options, s=s, k=k, ranker=ranker,
            budget=budget, strict_deadline=strict_deadline, mode=mode,
            threshold=threshold)
        if request.k is None:
            raise ValidationError(
                "search_top_k needs k — positionally or via "
                "SearchOptions(k=...)")
        return self._run(request, tracer, request_id)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _count_cache(self, event: str) -> None:
        if event == "hits":
            self._cache_hits += 1
        elif event == "misses":
            self._cache_misses += 1
        else:
            self._cache_evictions += 1
        self.metrics_registry.counter(
            f"gks_cache_{event}_total",
            help=f"Engine response-cache {event}.").inc()

    @staticmethod
    def _stamp_request_id(response: GKSResponse, request_id: str | None,
                          tracer: Tracer | NullTracer | None
                          ) -> GKSResponse:
        """Stamp the serving correlation id on stats and the root span."""
        if request_id is None:
            return response
        if tracer is not None and tracer.enabled and tracer.roots:
            tracer.roots[-1].set(request_id=request_id)
        return replace(response,
                       stats=response.stats.with_request_id(request_id))

    def _record_search(self, response: GKSResponse,
                       tracer: Tracer | NullTracer | None) -> None:
        """File one served response with metrics, slow log and traces."""
        stats = response.stats
        registry = self.metrics_registry
        registry.counter("gks_searches_total",
                         help="Queries served by the engine.").inc()
        if stats.cache_hit:
            return  # cached: no pipeline ran, nothing more to measure
        registry.histogram(
            "gks_search_seconds",
            help="End-to-end search pipeline latency."
        ).observe(stats.total_seconds)
        for stage, seconds in stats.stage_breakdown().items():
            registry.histogram(
                "gks_search_stage_seconds",
                help="Per-stage search pipeline latency."
            ).observe(seconds, labels={"stage": stage})
        registry.counter(
            "gks_search_postings_scanned_total",
            help="Merged posting-list entries (|SL|) processed."
        ).inc(stats.postings_scanned)
        registry.counter(
            "gks_search_nodes_emitted_total",
            help="Response nodes returned to callers."
        ).inc(stats.nodes_emitted)
        if stats.degraded:
            registry.counter(
                "gks_search_degraded_total",
                help="Responses degraded by an exhausted budget.").inc()
        if self._shard_metrics is not None:
            searches, seconds, postings = self._shard_metrics
            for shard_id, unit_seconds, sl_entries in stats.units:
                labels = {"shard": str(shard_id)}
                searches.inc(labels=labels)
                seconds.observe(unit_seconds, labels=labels)
                postings.inc(sl_entries, labels=labels)
        self.slow_log.observe(str(response.query), response.query.s, stats)
        if tracer is not None and tracer.enabled and tracer.roots:
            self._recent_traces.append(tracer.roots[-1])

    def metrics(self) -> dict:
        """JSON-able snapshot of the engine's metrics registry."""
        return self.metrics_registry.snapshot()

    def recent_traces(self) -> list[Span]:
        """Root spans of the most recent traced searches, oldest first."""
        return list(self._recent_traces)

    def slow_queries(self) -> list[SlowQuery]:
        """The retained slow-query log entries, oldest first."""
        return self.slow_log.entries()

    def cache_info(self) -> dict:
        """Hit/miss/eviction accounting of the response LRU cache."""
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "evictions": self._cache_evictions,
            "size": len(self._response_cache),
            "capacity": self._cache_size,
        }

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(self, config=None, **overrides):
        """A started :class:`repro.serve.ServerCore` wrapping this engine.

        ``config`` is a :class:`repro.serve.ServeConfig` (defaults used
        when omitted); keyword ``overrides`` are applied on top via
        ``ServeConfig.replace``.  Deferred import: serve sits *above*
        core in the layer DAG, so this plug-point must not import it at
        module scope.
        """
        from repro.serve import ServeConfig, ServerCore

        if config is None:
            config = ServeConfig()
        if overrides:
            config = config.replace(**overrides)
        return ServerCore(self, config)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotonic counter bumped on every serving-index publication."""
        return self._generation

    def add_document(self, text: str, name: str | None = None, *,
                     tracer: Tracer | None = None) -> dict:
        """Append one XML document to the repository and the index.

        The text is streamed into a one-document unit first
        (:meth:`~repro.core.durable.WritePath.stream`; the scan is the
        well-formedness check, so a malformed document never reaches the
        log), appended to the fsync'd write-ahead log when the engine
        has a store (``config.store_path``; the write is crash-safe from
        there), admitted to the memtable
        (:meth:`~repro.core.durable.WritePath.admit`, the step WAL
        recovery shares) and published in a new immutable serving
        snapshot, so in-flight searches finish on the one they captured.
        The document keeps its text; its tree is built on first read.
        Crossing ``memtable_docs`` pending documents flushes inside the
        same mutation hold, and a shard whose newest size tier then
        holds ``compact_segments`` runs merges that tier (not its whole
        chain: a heavier base stays on disk as it is).

        The response cache is cleared — the repository has grown, so any
        cached response may be stale — and the returned info dict
        (``doc_id``, ``name``, ``generation``, ``pending``, ``flushed``,
        plus ``lsn`` and ``"durable": True`` with a store) names the
        serving generation the document became visible in.

        Traced like :meth:`open`: an ``add_document`` root span (on
        *tracer* when given, retained in :meth:`recent_traces`) with
        ``parse`` (the stream into the unit), ``wal`` (durable engines),
        ``build`` (finishing the unit) and ``recompose`` children; a
        flush it triggers is its own root.
        """
        if tracer is None:
            tracer = Tracer()
        with self._mutation_lock:
            return self._add_locked(text, name, tracer)

    def _add_locked(self, text: str, name: str | None,
                    tracer: Tracer) -> dict:  # holds: _mutation_lock
        writes = self._writes
        with tracer.span("add_document") as root:
            # Stream *before* the WAL append: a malformed document must
            # fail the caller, never poison the log that recovery replays.
            with tracer.span("parse"):
                document, builder = writes.stream(text, name)
            info = {"doc_id": document.doc_id, "name": document.name}
            lsn = None
            if writes.store is not None:
                with tracer.span("wal"):
                    lsn = writes.store.append(document.doc_id,
                                              document.name, text)
                info.update(lsn=lsn, durable=True)
            # With a store the write is durable from here; apply it to
            # memory.
            try:
                with tracer.span("build") as span:
                    pending = writes.admit(document, text, builder, lsn)
                    span.set(**build_facts(pending.unit))
                with tracer.span("recompose"):
                    self._recompose()
            finally:
                # the repository grows first: even when indexing failed,
                # cached responses may be stale
                with self._cache_lock:
                    self._response_cache.clear()
            root.set(doc_id=document.doc_id)
        self._recent_traces.append(root)
        flushed = writes.flush_due()
        if flushed:
            self._flush_locked()
        info.update(generation=self._generation,
                    pending=len(writes.pending), flushed=flushed)
        return info

    def flush(self) -> dict:
        """Flush the memtable to an immutable on-disk segment.

        No-op (``{"flushed": 0, ...}``) when nothing is pending.  After
        the flush, any shard whose newest size tier holds
        ``config.compact_segments`` runs has that tier compacted
        (:meth:`~repro.core.durable.WritePath.tiers`).  Raises
        :class:`~repro.errors.StorageError` on a non-durable engine.
        """
        with self._mutation_lock:
            writes = self._writes
            writes.require_store("flush")
            count = len(writes.pending)
            if count:
                self._flush_locked()
            return {"flushed": count, "generation": self._generation,
                    **writes.store_generation()}

    def compact(self) -> dict:
        """Merge multi-run shards down to one segment each — every
        chain whole, whatever its size tiers.

        Returns the shards compacted (possibly none).  Raises
        :class:`~repro.errors.StorageError` on a non-durable engine.
        """
        with self._mutation_lock:
            self._writes.require_store("compact")
            compacted = self._merge_locked("compact")
            return {"compacted_shards": sorted(compacted),
                    "generation": self._generation,
                    **self._writes.store_generation()}

    def close(self) -> None:
        """Release the store's file handles (durable engines only)."""
        with self._mutation_lock:
            self._writes.close()

    def _flush_locked(self) -> None:
        """Merge the memtable into one run per shard, then, per shard
        whose newest size tier holds ``compact_segments`` runs, merge
        that tier (:meth:`~repro.core.durable.WritePath.tiers`); caller
        holds the mutation lock.  With a store the runs are persisted
        (and the WAL checkpointed) before memory changes."""
        self._merge_locked("flush")
        tiers = self._writes.tiers()
        if tiers:
            self._merge_locked("compact", tiers)

    def _merge_locked(self, operation: str,
                      starts: dict[int, int] | None = None) -> set[int]:
        """One flush or compaction by the write path
        (:meth:`~repro.core.durable.WritePath.merge`), published through
        :meth:`_recompose`; its ``flush``/``compact`` root span — the
        ``segments`` child holds ``merge``, then per segment ``encode``
        and ``write``, then ``texts`` and ``commit`` — is retained in
        :meth:`recent_traces` and timed into ``gks_store_flush_seconds``
        / ``gks_store_compaction_seconds``, so the write path is as
        observable through ``/metrics`` as the query path."""
        root, shards = self._writes.merge(operation, self._recompose,
                                          self.metrics_registry, starts)
        if root is not None:
            self._recent_traces.append(root)
        return shards

    def _recompose(self) -> None:  # holds: _mutation_lock
        """Publish a fresh immutable serving snapshot (caller holds the
        mutation lock).  In-flight searches finish on the snapshot they
        captured; the generation bump keeps their responses out of the
        cache."""
        self.index = self._writes.compose()
        self._generation += 1
        self.metrics_registry.gauge(
            "gks_memtable_pending",
            help="Documents in the memtable awaiting a flush."
        ).set(len(self._writes.pending))
        self.metrics_registry.gauge(
            "gks_engine_generation",
            help="Serving-snapshot generation of the engine."
        ).set(self._generation)
        with self._cache_lock:
            self._response_cache.clear()

    # ------------------------------------------------------------------
    # Search Analysis Engine
    # ------------------------------------------------------------------
    def insights(self, response: GKSResponse, top: int = 10) -> InsightReport:
        """DI of a response (Def 2.3.1, §6.2)."""
        return discover_insights(self.repository, response, top=top,
                                 analyzer=self.analyzer)

    def recursive_insights(self, response: GKSResponse, rounds: int = 1,
                           top: int = 10,
                           seed_keywords: int = 5) -> list[InsightReport]:
        """Recursive DI (§2.3): one report per recursion round."""
        return discover_recursive(self.repository, self.index, response,
                                  rounds=rounds, top=top,
                                  seed_keywords=seed_keywords,
                                  analyzer=self.analyzer)

    def refine(self, response: GKSResponse,
               insights: InsightReport | None = None,
               top: int = 5) -> list[Refinement]:
        """Query-refinement suggestions (§6.1); computes DI when needed."""
        if insights is None:
            insights = self.insights(response, top=top)
        return suggest(response, insights, top=top)

    # ------------------------------------------------------------------
    # Result rendering
    # ------------------------------------------------------------------
    def node_at(self, dewey: Dewey) -> XMLNode | None:
        return self.repository.node_at(dewey)

    def snippet(self, node: Dewey | RankedNode, indent: int = 2,
                max_depth: int | None = None) -> str:
        """The "well-constructed XML chunk" for one result (§1.2)."""
        dewey = node.dewey if isinstance(node, RankedNode) else node
        element = self.repository.node_at(dewey)
        if element is None:
            return f"<!-- missing node {format_dewey(dewey)} -->"
        if max_depth is None:
            return serialize_node(element, indent=indent)
        base = len(dewey)
        return serialize_node(
            element, indent=indent,
            keep=lambda child: len(child.dewey) - base <= max_depth)

    def response_chunk(self, node: RankedNode, indent: int = 2) -> str:
        """The Fig. 2(b)-style pruned chunk: context attributes plus the
        paths to the matched keyword occurrences only."""
        from repro.core.chunks import response_chunk

        query = Query.of(list(node.matched_keywords) or ["?"])
        return response_chunk(self.repository, self.index, query, node,
                              indent=indent)

    def explain(self, node: RankedNode) -> str:
        """Render the potential-flow account behind a node's rank (§5)."""
        from repro.core.explain import explain_rank

        breakdown, probability = node.breakdown, None
        if breakdown is None:
            probability = node.score  # a probabilistic node's rank
            breakdown = rank_node(self.index, Query.of(
                list(node.matched_keywords) or ["?"]),
                self.index.layout.pack(node.dewey))
        return replace(explain_rank(self.index, breakdown,
                                    repository=self.repository),
                       probability=probability).render()

    def describe(self, node: RankedNode) -> str:
        """One-line human summary of a result row."""
        labels = self.repository.tag_path(node.dewey)
        tag = labels[-1] if labels is not None else "?"
        keywords = ", ".join(node.matched_keywords)
        return (f"<{tag}> {node.dewey_text}  score={node.score:.3f}  "
                f"keywords[{node.distinct_keywords}]={{{keywords}}}")
