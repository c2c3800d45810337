"""The transport-agnostic request broker: :class:`ServerCore`.

Every front end (the JSON-over-HTTP server in :mod:`repro.serve.http`,
the load generator in :mod:`repro.serve.loadgen`, embedding callers via
:meth:`GKSEngine.serve`) talks to one :class:`ServerCore`, which owns the
serving-side concerns the engine deliberately does not:

* **Bounded admission.**  Requests wait in a queue of at most
  ``queue_capacity``; anything beyond is rejected *synchronously* with
  :class:`~repro.errors.Overloaded` before a single byte of engine work
  — shedding is the cheapest query the server answers.
* **Deadlines.**  A request's deadline becomes an *admission budget*
  armed at arrival; the engine call receives
  ``admission.subbudget(rebase=True)``, whose deadline is the admission
  budget's :meth:`~repro.core.budget.SearchBudget.remaining_s` — so time
  spent waiting in the queue counts against the request, and a request
  that waited out its whole deadline is failed with
  :class:`~repro.errors.SearchTimeout` without touching the engine.
* **Singleflight coalescing.**  N concurrent identical requests
  (same keywords, ``s``, ranker and ``k``) share one engine search:
  followers attach to the leader's future.  Only requests that name no
  deadline and no engine-side knob participate — budgeted responses are
  request-specific (their degraded shape depends on the budget),
  mirroring the engine LRU's rule that budgeted responses bypass the
  cache.  The in-flight table sits here, apart from the one result
  cache (the engine LRU), because a follower must attach at admission,
  before it takes a queue slot or a worker, which a cache reached only
  from a worker cannot do.
* **Graceful drain.**  :meth:`drain` sheds new arrivals (reason
  ``"draining"``) while letting queued work finish; :meth:`close` then
  stops the workers.

Equivalence contract: a request with no deadline is executed as
``engine.search(query, ranker=..., budget=None, options=...)`` with the
caller's own options record — the same call a direct caller makes — so
a served response (cold cache, no coalesce hit) is node-for-node
identical to the direct one, including every budget-degraded path of
the engine's own ``config.budget``.  Finished answers are repeated from
the engine LRU alone; the broker keeps none.

Thread-safety: one lock guards the queue accounting, the in-flight
table and every exact-count metric increment, so
``gks_serve_shed_total`` accounts for *every* rejection with no
read-modify-write races.  The lock is never held across an engine call
(checked statically by lint rule ``C001``), its protected fields are
declared with the ``# guards:`` annotation rule ``C002`` enforces, and
it is built with :func:`repro.obs.locks.new_lock` so an installed
:class:`~repro.obs.locks.LockMonitor` sees every acquisition.
"""

from __future__ import annotations

import itertools
import queue
import threading
import uuid
from concurrent.futures import Future
from typing import Callable, NamedTuple

from repro.core.budget import SearchBudget
from repro.core.config import (SearchOptions, SearchRequest,
                               resolve_request)
from repro.core.query import Query
from repro.core.results import GKSResponse
from repro.errors import Overloaded, SearchTimeout
from repro.obs.locks import new_lock
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.trace import DEFAULT_CLOCK, Tracer
from repro.serve.config import ServeConfig

_SENTINEL = object()  # wakes one worker for shutdown


def _default_id_source() -> Callable[[], str]:
    """Process-unique request ids: random broker prefix + sequence.

    The prefix distinguishes brokers (and restarts of the same one) in
    merged logs; the counter makes ids cheap, ordered and collision-free
    within a broker.  Tests needing deterministic ids inject their own
    source.
    """
    prefix = uuid.uuid4().hex[:8]
    counter = itertools.count(1)

    def mint() -> str:
        return f"req-{prefix}-{next(counter):06d}"

    return mint


class _Request(NamedTuple):
    """One admitted request travelling from submit to finish."""

    resolved: SearchRequest
    options: SearchOptions | None  # the caller's record, as it came
    key: tuple
    admission: SearchBudget | None
    arrived_s: float
    request_id: str
    future: Future


class ServerCore:
    """A worker-pool request broker over one :class:`GKSEngine`.

    Parameters
    ----------
    engine:
        The :class:`~repro.core.engine.GKSEngine` to serve.
    config:
        :class:`~repro.serve.config.ServeConfig`; defaults when omitted.
    registry:
        Metrics registry for the ``gks_serve_*`` family; the process
        :func:`~repro.obs.metrics.global_registry` by default.  Tests
        asserting exact counts pass their own.
    clock:
        Monotonic time source (arrival stamps, latency, admission
        budgets); injectable for deterministic tests.

    Use as a context manager, or call :meth:`close` when done::

        with ServerCore(engine, ServeConfig(workers=2)) as core:
            response = core.search("xml keyword")
    """

    def __init__(self, engine, config: ServeConfig | None = None, *,
                 registry: MetricsRegistry | None = None,
                 clock: Callable[[], float] | None = None,
                 id_source: Callable[[], str] | None = None) -> None:
        self._engine = engine
        self.config = config if config is not None else ServeConfig()
        self.registry = registry if registry is not None else global_registry()
        self._clock = clock if clock is not None else DEFAULT_CLOCK
        if id_source is None:
            id_source = _default_id_source()
        self._id_source = id_source

        # guards: _queued, _running, _draining, _closed, _inflight,
        # guards: _swaps
        self._lock = new_lock("serve.core")
        self._queue: queue.Queue = queue.Queue()
        self._queued = 0          # waiting for a worker (capacity bound)
        self._running = 0         # dequeued, executing in the engine
        self._draining = False
        self._closed = False
        self._inflight: dict[tuple, _Request] = {}
        self._swaps = 0           # engine hot swaps performed

        reg = self.registry
        self._m_requests = reg.counter(
            "gks_serve_requests_total",
            help="Served requests by final outcome.")
        self._m_shed = reg.counter(
            "gks_serve_shed_total",
            help="Requests rejected by admission control, by reason.")
        self._m_coalesced = reg.counter(
            "gks_serve_coalesced_total",
            help="Requests that joined an identical in-flight search.")
        self._m_timeouts = reg.counter(
            "gks_serve_timeouts_total",
            help="Requests whose deadline expired while queued.")
        self._m_queue_depth = reg.gauge(
            "gks_serve_queue_depth",
            help="Requests currently waiting for a worker.")
        self._m_inflight = reg.gauge(
            "gks_serve_inflight",
            help="Requests currently executing in the engine.")
        self._m_latency = reg.histogram(
            "gks_serve_latency_seconds",
            help="Arrival-to-completion latency of accepted requests.")
        self._m_mutations = reg.counter(
            "gks_serve_mutations_total",
            help="Engine mutations made through the serving layer.")
        self._m_swaps = reg.counter(
            "gks_serve_engine_swaps_total",
            help="Atomic engine hot swaps performed.")
        self._m_swap_seconds = reg.histogram(
            "gks_serve_swap_seconds",
            help="Wall time of atomic engine hot swaps.")

        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"gks-serve-{n}", daemon=True)
            for n in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def mint_request_id(self) -> str:
        """A fresh correlation id from the broker's id source.

        Front ends that want the id *before* admission (to return it on
        shed/parse-error responses too) mint here and pass it to
        :meth:`submit`; otherwise :meth:`submit` mints one itself.
        """
        return self._id_source()

    def submit(self, query: str | Query, s: int | None = None, *,
               k: int | None = None,
               ranker=None,
               deadline_s: float | None = None,
               options: SearchOptions | None = None,
               request_id: str | None = None) -> Future:
        """Admit one request; returns a future for its response.

        Raises :class:`~repro.errors.Overloaded` synchronously when the
        request is shed (queue full, broker draining, or no deadline
        budget left) — by contract *before* any engine work.  Query
        parse errors also raise synchronously.  Engine-side failures
        (including ``SearchTimeout`` for a deadline that expired in the
        queue) surface through the future.

        *options* is the shared frozen
        :class:`~repro.core.config.SearchOptions` record.  It is
        resolved by :func:`~repro.core.config.resolve_request` (explicit
        parameter > option field > ``ServeConfig.deadline_s`` / engine
        config) and handed to the engine call as it came.  A request
        that names a deadline or an engine-side knob (``use_cache``,
        ``strict_deadline``, ``mode``, ``threshold``) is excluded from
        coalescing — its response is request-specific.

        Every admitted request carries a correlation id (*request_id*,
        minted from the broker's id source when the caller brings none);
        the response's :class:`~repro.obs.stats.QueryStats` comes back
        stamped with it — engine cache hits included, which the engine
        restamps with *this* request's id.  Coalesced followers are the
        one exception: they share the leader's future and therefore its
        id.
        """
        resolved = resolve_request(
            self.engine.config, query, options, s=s, k=k, ranker=ranker,
            deadline_s=deadline_s,
            default_deadline_s=self.config.deadline_s, clock=self._clock)
        arrived = self._clock()
        query, deadline_s = resolved.query, resolved.deadline_s
        key = (query.keywords, query.effective_s, resolved.ranker,
               resolved.k)
        coalesce = resolved.shareable and self.config.coalesce
        admission = None
        if deadline_s is not None:
            admission = resolved.budget
            # arm at the arrival stamp already taken: a second clock
            # read here would skew injected FakeClock timelines
            admission._started = arrived
        if request_id is None:
            request_id = self._id_source()

        with self._lock:
            if self._draining or self._closed:
                self._count_shed("draining")
                raise Overloaded("server is draining; not accepting "
                                 "requests", reason="draining")
            if deadline_s is not None and deadline_s <= 0:
                self._count_shed("deadline")
                raise Overloaded(
                    f"request arrived with no deadline budget left "
                    f"({deadline_s}s)", reason="deadline")
            if coalesce:
                leader = self._inflight.get(key)
                if leader is not None:
                    self._m_coalesced.inc()
                    self._m_requests.inc(labels={"outcome": "coalesced"})
                    return leader.future
            if self._queued >= self.config.queue_capacity:
                self._count_shed("queue-full")
                raise Overloaded(
                    f"admission queue full "
                    f"({self._queued}/{self.config.queue_capacity})",
                    reason="queue-full",
                    retry_after_s=deadline_s)
            request = _Request(resolved, options, key, admission, arrived,
                               request_id, Future())
            if coalesce:
                self._inflight[key] = request
            self._queued += 1
            self._m_queue_depth.set(self._queued)
        self._queue.put(request)
        return request.future

    def search(self, query: str | Query, s: int | None = None, *,
               k: int | None = None,
               ranker=None,
               deadline_s: float | None = None,
               options: SearchOptions | None = None,
               request_id: str | None = None) -> GKSResponse:
        """Blocking convenience over :meth:`submit`."""
        return self.submit(query, s, k=k, ranker=ranker,
                           deadline_s=deadline_s, options=options,
                           request_id=request_id).result()

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            request = self._queue.get()
            if request is _SENTINEL:
                self._queue.task_done()
                return
            with self._lock:
                self._queued -= 1
                self._running += 1
                self._m_queue_depth.set(self._queued)
                self._m_inflight.set(self._running)
            try:
                self._execute(request)
            finally:
                self._queue.task_done()

    def _execute(self, request: _Request) -> None:
        try:
            admission = request.admission
            if admission is not None and admission.remaining_s() == 0.0:
                raise SearchTimeout(
                    f"request waited out its {admission.deadline_s}s "
                    f"deadline in the admission queue")
            budget = (admission.subbudget(rebase=True)
                      if admission is not None else None)
            waited = self._clock() - request.arrived_s
            tracer = Tracer(clock=self._clock) if self.config.trace else None
            # s, k and the ranker go explicitly — the broker's own
            # arguments already won over the options record at submit
            resolved = request.resolved
            response = self.engine.search(
                resolved.query, resolved.query.s, k=resolved.k,
                ranker=resolved.ranker, budget=budget,
                options=request.options, tracer=tracer,
                request_id=request.request_id)
            if tracer is not None and tracer.roots:
                # stamp serve-side context on the search's root span so
                # the span tree alone answers "how long did it queue?"
                tracer.roots[-1].set(queue_wait_s=waited)
        except Exception as exc:  # worker threads must never die
            self._finish(request, error=exc)
        else:
            self._finish(request, response=response)

    def _finish(self, request: _Request, response: GKSResponse | None = None,
                error: Exception | None = None) -> None:
        finished = self._clock()
        with self._lock:
            self._running -= 1
            self._m_inflight.set(self._running)
            # remove from the in-flight table BEFORE resolving the
            # future: a duplicate arriving after resolution must start a
            # fresh search, not join a finished one
            if self._inflight.get(request.key) is request:
                del self._inflight[request.key]
            self._m_latency.observe(finished - request.arrived_s)
            if error is None:
                self._m_requests.inc(labels={"outcome": "ok"})
            elif isinstance(error, SearchTimeout):
                self._m_timeouts.inc()
                self._m_requests.inc(labels={"outcome": "timeout"})
            else:
                self._m_requests.inc(labels={"outcome": "error"})
        if error is None:
            request.future.set_result(response)
        else:
            request.future.set_exception(error)

    # ------------------------------------------------------------------
    # Mutation & hot swap
    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The engine currently serving searches (swappable at runtime)."""
        return self._engine

    @property
    def generation(self) -> int:
        """How many engine hot swaps this broker has performed.

        Corpus changes are fenced by the *engine's* generation (see
        :attr:`GKSEngine.generation`), the one fence result caching
        needs; this counter only orders swaps.
        """
        with self._lock:
            return self._swaps

    def swap_engine(self, engine) -> int:
        """Atomically publish *engine* as the serving snapshot.

        In-flight requests finish on the engine they dispatched against;
        everything admitted after this call runs on the new one.  The
        coalescing table is cleared (a follower must not join a leader
        bound to the retired engine); cached answers need no
        invalidation — they live in the retired engine's LRU and leave
        with it.  Returns the new swap count.
        """
        started = self._clock()
        with self._lock:
            self._engine = engine
            self._inflight.clear()
            self._swaps += 1
            self._m_swaps.inc()
            self._m_swap_seconds.observe(self._clock() - started)
            return self._swaps

    def add_document(self, text: str, name: str | None = None) -> dict:
        """Append one document through the serving layer.

        Sheds with :class:`~repro.errors.Overloaded` while draining.
        The engine call runs outside the broker lock (searches keep
        flowing during the mutation).  The engine publishes the new
        snapshot and clears its result cache before this returns, so a
        search admitted afterwards can never observe the pre-mutation
        corpus.
        """
        with self._lock:
            if self._draining or self._closed:
                self._count_shed("draining")
                raise Overloaded("server is draining; not accepting "
                                 "mutations", reason="draining")
        return self._mutate(self._engine.add_document, text, name=name)

    def flush(self) -> dict:
        """Flush the engine's memtable to a durable segment."""
        return self._mutate(self._engine.flush)

    def compact(self) -> dict:
        """Compact the engine's multi-run shards."""
        return self._mutate(self._engine.compact)

    def _mutate(self, operation, *args, **kwargs) -> dict:
        info = operation(*args, **kwargs)
        with self._lock:
            self._m_mutations.inc()
        return info

    def _count_shed(self, reason: str) -> None:
        self._m_shed.inc(labels={"reason": reason})
        self._m_requests.inc(labels={"outcome": "shed"})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def stats(self) -> dict:
        """JSON-able accounting snapshot of the broker."""
        with self._lock:
            return {
                "queued": self._queued,
                "running": self._running,
                "inflight_keys": len(self._inflight),
                "generation": self._swaps,
                "draining": self._draining,
                "workers": self.config.workers,
                "queue_capacity": self.config.queue_capacity,
                "ok": self._m_requests.value({"outcome": "ok"}),
                "shed": self._m_shed.total(),
                "coalesced": self._m_coalesced.total(),
                "timeouts": self._m_timeouts.total(),
                "errors": self._m_requests.value({"outcome": "error"}),
            }

    def healthz(self) -> dict:
        """The ``/healthz`` payload."""
        with self._lock:
            status = "draining" if (self._draining or self._closed) else "ok"
            return {"status": status, "queued": self._queued,
                    "running": self._running,
                    "workers": self.config.workers}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Stop admitting; block until every queued request finishes.

        New submissions are shed with ``Overloaded(reason="draining")``
        the moment this is called; already-admitted requests run to
        completion.  Idempotent.
        """
        with self._lock:
            self._draining = True
        self._queue.join()

    def close(self) -> None:
        """Drain, then stop the worker threads.  Idempotent."""
        self.drain()
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        for worker in self._workers:
            worker.join()

    def __enter__(self) -> "ServerCore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
