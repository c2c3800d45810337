"""Concurrent query serving over a :class:`~repro.core.engine.GKSEngine`.

The serving subsystem in three parts, each importable from here:

* :class:`ServerCore` (:mod:`repro.serve.core`) — the transport-agnostic
  request broker: worker pool, bounded admission with typed load
  shedding, per-request deadlines, singleflight coalescing, graceful
  drain.
* :func:`serve_http` (:mod:`repro.serve.http`) — the stdlib JSON/HTTP
  front end (``/search``, ``/documents``, ``/admin/flush``,
  ``/admin/compact``, ``/healthz``, ``/metrics``) wired up as
  ``gks serve``.
* :class:`LoadGenerator` (:mod:`repro.serve.loadgen`) — open/closed-loop
  load generation with deterministic arrival schedules and bounded
  :class:`RetryPolicy` backoff for 429 sheds, driving
  ``benchmarks/bench_serving.py``.

The broker also fronts the engine's durable mutation path:
:meth:`ServerCore.add_document` WAL-appends through the engine,
:meth:`ServerCore.swap_engine` atomically publishes a new engine
snapshot (in-flight searches finish on the old one).  Repeated answers
come from the engine's own LRU, which every mutation invalidates under
the engine's generation fence — the broker caches nothing.

Quickstart::

    from repro import GKSEngine, Texts
    from repro.serve import ServeConfig, ServerCore

    engine = GKSEngine.open(Texts(corpus))
    with ServerCore(engine, ServeConfig(workers=4)) as core:
        response = core.search("keyword query", deadline_s=0.2)
"""

from repro.serve.config import ServeConfig
from repro.serve.core import ServerCore
from repro.serve.http import ServeHTTPServer, serve_http
from repro.serve.loadgen import (LoadGenerator, LoadReport, LoadRequest,
                                 OpenLoopSchedule, RequestOutcome,
                                 RetryPolicy, percentile)

__all__ = [
    "LoadGenerator", "LoadReport", "LoadRequest", "OpenLoopSchedule",
    "RequestOutcome", "RetryPolicy", "ServeConfig", "ServeHTTPServer",
    "ServerCore", "percentile", "serve_http",
]
