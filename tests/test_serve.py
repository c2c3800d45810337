"""The serving subsystem: broker semantics, HTTP front end, loadgen.

Concurrency here is deterministic, not sleepy: engine executions are
blocked on events (``GateEngine``), slowness is virtual
(:class:`~repro.testing.faults.SlowEngine` with a
:class:`~repro.testing.faults.FakeClock` sleeper), and deadlines advance
by ``fake.advance`` — no test in this file waits on wall-clock time.
"""

from __future__ import annotations

import json
import random
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import SearchBudget
from repro.core.config import EngineConfig, SearchOptions, Texts
from repro.core.engine import GKSEngine
from repro.errors import ConfigError, Overloaded, QueryError, SearchTimeout
from repro.obs.metrics import MetricsRegistry
from repro.obs.stats import QueryStats, SlowQuery
from repro.serve import (LoadGenerator, OpenLoopSchedule, ServeConfig,
                         ServeHTTPServer, ServerCore, percentile,
                         serve_http)
from repro.testing import BurstyArrivals, FakeClock
from repro.xmltree.repository import Repository

pytestmark = pytest.mark.serve

WORDS = ["apple", "banana", "cherry", "date", "elder", "fig"]


def _corpus(documents: int = 6, items: int = 4, seed: int = 7) -> list[str]:
    rng = random.Random(seed)
    docs = []
    for _ in range(documents):
        parts = []
        for _ in range(items):
            first, second, third = rng.sample(WORDS, 3)
            parts.append(f"<item><name>{first} {second}</name>"
                         f"<tag>{third}</tag></item>")
        docs.append(f"<doc>{''.join(parts)}</doc>")
    return docs


def _engine(shards: int = 1, **config_kwargs) -> GKSEngine:
    config = EngineConfig(shards=shards, **config_kwargs)
    return GKSEngine.open(Texts(_corpus()), config=config)


class GateEngine:
    """Blocks every search on an event — deterministic concurrency."""

    def __init__(self, engine) -> None:
        self._engine = engine
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def _gate(self) -> None:
        with self._lock:
            self.calls += 1
        self.entered.release()
        assert self.release.wait(timeout=10), "gate never released"

    def search(self, *args, **kwargs):
        self._gate()
        return self._engine.search(*args, **kwargs)

    def search_top_k(self, *args, **kwargs):
        self._gate()
        return self._engine.search_top_k(*args, **kwargs)


# ---------------------------------------------------------------------------
# SearchBudget.remaining_s / subbudget(rebase=True)
# ---------------------------------------------------------------------------
class TestRemainingS:
    def test_none_without_deadline(self):
        assert SearchBudget().remaining_s() is None

    def test_counts_down_and_clamps(self):
        fake = FakeClock()
        budget = SearchBudget(deadline_s=2.0, clock=fake).start()
        fake.advance(0.5)
        assert budget.remaining_s() == pytest.approx(1.5)
        fake.advance(5.0)
        assert budget.remaining_s() == 0.0

    def test_unstarted_budget_has_full_deadline(self):
        budget = SearchBudget(deadline_s=3.0, clock=FakeClock())
        assert budget.remaining_s() == pytest.approx(3.0)

    def test_report_carries_remaining(self):
        fake = FakeClock()
        budget = SearchBudget(deadline_s=1.0, clock=fake).start()
        fake.advance(2.0)
        assert budget.checkpoint("merge", 1)
        assert budget.report.elapsed_s == pytest.approx(2.0)
        assert budget.report.remaining_s == 0.0

    def test_resource_trip_reports_headroom(self):
        fake = FakeClock()
        budget = SearchBudget(deadline_s=10.0, max_sl=2, clock=fake).start()
        kept = budget.admit_sl([1, 2, 3])
        assert kept == [1, 2]
        assert budget.report.reason == "max_sl"
        assert budget.report.remaining_s == pytest.approx(10.0)

    def test_trip_without_deadline_reports_none(self):
        budget = SearchBudget(max_sl=1, clock=FakeClock()).start()
        budget.admit_sl([1, 2])
        assert budget.report.remaining_s is None


class TestRebasedSubbudget:
    def test_rebase_deadline_is_parent_remaining(self):
        fake = FakeClock()
        parent = SearchBudget(deadline_s=2.0, clock=fake).start()
        fake.advance(0.75)
        child = parent.subbudget(rebase=True)
        assert child.deadline_s == pytest.approx(1.25)

    def test_rebase_copies_caps_and_arms_fresh(self):
        fake = FakeClock()
        parent = SearchBudget(deadline_s=4.0, max_sl=9, max_nodes=3,
                              clock=fake).start()
        fake.advance(1.0)
        child = parent.subbudget(rebase=True).start()
        assert (child.max_sl, child.max_nodes) == (9, 3)
        fake.advance(0.5)
        assert child.elapsed() == pytest.approx(0.5)
        assert child.remaining_s() == pytest.approx(2.5)

    def test_default_subbudget_shares_start_and_drops_caps(self):
        fake = FakeClock()
        parent = SearchBudget(deadline_s=2.0, max_sl=9, clock=fake).start()
        fake.advance(1.5)
        child = parent.subbudget()
        assert child.max_sl is None
        assert child.elapsed() == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# Equivalence: served == direct, across shard counts
# ---------------------------------------------------------------------------
def _assert_equivalent(served, direct):
    assert served.nodes == direct.nodes
    assert served.degraded == direct.degraded
    if direct.degradation is None:
        assert served.degradation is None
    else:
        assert served.degradation.stage == direct.degradation.stage
        assert served.degradation.reason == direct.degradation.reason
        assert (served.degradation.processed
                == direct.degradation.processed)
    for counter in ("postings_scanned", "lcp_entries", "lce_nodes",
                    "nodes_emitted", "cache_hit", "degraded"):
        assert (getattr(served.stats, counter)
                == getattr(direct.stats, counter)), counter


@pytest.mark.parametrize("shards", [1, 2, 4])
class TestEquivalence:
    def test_cold_cache_responses_identical(self, shards):
        served_engine = _engine(shards=shards)
        direct_engine = _engine(shards=shards)
        queries = ["apple banana", "cherry", "banana cherry fig",
                   "date elder"]
        with ServerCore(served_engine,
                        registry=MetricsRegistry()) as core:
            for text in queries:
                _assert_equivalent(core.search(text),
                                   direct_engine.search(text))

    def test_engine_budget_degraded_paths_identical(self, shards):
        served_engine = _engine(
            shards=shards, budget=SearchBudget(max_sl=2, max_nodes=1))
        direct_engine = _engine(
            shards=shards, budget=SearchBudget(max_sl=2, max_nodes=1))
        with ServerCore(served_engine, ServeConfig(workers=1),
                        registry=MetricsRegistry()) as core:
            served = core.search("apple banana cherry")
            direct = direct_engine.search("apple banana cherry")
        assert served.degraded and direct.degraded
        _assert_equivalent(served, direct)

    def test_top_k_identical(self, shards):
        served_engine = _engine(shards=shards)
        direct_engine = _engine(shards=shards)
        with ServerCore(served_engine,
                        registry=MetricsRegistry()) as core:
            served = core.search("apple banana", k=2)
            direct = direct_engine.search_top_k("apple banana", k=2)
        _assert_equivalent(served, direct)


@pytest.mark.parametrize("surface", ["engine", "broker"])
@pytest.mark.parametrize("case", ["k", "deadline_caps"])
def test_search_options_mean_the_same_at_engine_and_broker(surface, case):
    # one resolver: the same record gives the same answer at both layers
    if case == "k":
        engine, options = _engine(), SearchOptions(k=3)
    else:
        engine = _engine(budget=SearchBudget(max_nodes=5))
        options = SearchOptions(deadline_s=10.0)
    if surface == "engine":
        response = engine.search("apple", options=options)
    else:
        with ServerCore(engine, registry=MetricsRegistry()) as core:
            response = core.search("apple", options=options)
    if case == "k":
        assert len(response.nodes) == 3
        # uncached: top-k shares the LRU, so a repeat on this engine hits
        _assert_equivalent(response,
                           engine.search("apple", k=3, use_cache=False))
    else:
        # asking for a deadline must not lift the operator's cap
        assert len(response.nodes) == 5 and response.degraded
        assert response.degradation.reason == "max_nodes"


@settings(max_examples=20, deadline=None)
@given(keywords=st.lists(st.sampled_from(WORDS), min_size=1, max_size=4,
                         unique=True),
       s=st.integers(min_value=1, max_value=3))
def test_equivalence_property(keywords, s, served_cores, direct_engines):
    text = " ".join(keywords)
    for shards in (1, 2, 4):
        served = served_cores[shards].search(text, s)
        direct = direct_engines[shards].search(text, s=s)
        _assert_equivalent(served, direct)


@pytest.fixture(scope="module")
def direct_engines():
    return {shards: _engine(shards=shards) for shards in (1, 2, 4)}


@pytest.fixture(scope="module")
def served_cores():
    cores = {shards: ServerCore(_engine(shards=shards),
                                registry=MetricsRegistry())
             for shards in (1, 2, 4)}
    yield cores
    for core in cores.values():
        core.close()


# ---------------------------------------------------------------------------
# Singleflight coalescing
# ---------------------------------------------------------------------------
class TestCoalescing:
    def test_duplicates_share_one_search(self):
        registry = MetricsRegistry()
        gate = GateEngine(_engine())
        with ServerCore(gate, ServeConfig(workers=2),
                        registry=registry) as core:
            leader = core.submit("apple banana")
            assert gate.entered.acquire(timeout=10)
            followers = [core.submit("apple banana") for _ in range(3)]
            assert all(f is leader for f in followers)
            gate.release.set()
            response = leader.result(timeout=10)
        assert gate.calls == 1
        assert registry.counter("gks_serve_coalesced_total").total() == 3
        assert registry.counter("gks_serve_requests_total").value(
            {"outcome": "coalesced"}) == 3
        assert len(response.nodes) > 0

    def test_different_queries_do_not_coalesce(self):
        gate = GateEngine(_engine())
        with ServerCore(gate, ServeConfig(workers=2),
                        registry=MetricsRegistry()) as core:
            first = core.submit("apple banana")
            assert gate.entered.acquire(timeout=10)
            second = core.submit("cherry")
            assert second is not first
            gate.release.set()
            first.result(timeout=10)
            second.result(timeout=10)
        assert gate.calls == 2

    def test_completion_ends_the_flight(self):
        gate = GateEngine(_engine())
        gate.release.set()  # no blocking: searches run straight through
        with ServerCore(gate, ServeConfig(workers=1),
                        registry=MetricsRegistry()) as core:
            core.search("apple banana")
            core.search("apple banana")
        # second submission found no in-flight leader (the first had
        # finished) — it ran its own search (an engine LRU hit, but an
        # engine call nonetheless)
        assert gate.calls == 2

    def test_coalesce_disabled(self):
        gate = GateEngine(_engine())
        registry = MetricsRegistry()
        with ServerCore(gate, ServeConfig(workers=2, coalesce=False),
                        registry=registry) as core:
            first = core.submit("apple banana")
            assert gate.entered.acquire(timeout=10)
            second = core.submit("apple banana")
            assert second is not first
            gate.release.set()
            first.result(timeout=10)
            second.result(timeout=10)
        assert gate.calls == 2
        assert registry.counter("gks_serve_coalesced_total").total() == 0

    def test_deadlined_requests_do_not_coalesce(self):
        # budgeted responses are request-specific; they must not share
        gate = GateEngine(_engine())
        with ServerCore(gate, ServeConfig(workers=2),
                        registry=MetricsRegistry()) as core:
            first = core.submit("apple banana", deadline_s=30.0)
            assert gate.entered.acquire(timeout=10)
            second = core.submit("apple banana", deadline_s=30.0)
            assert second is not first
            gate.release.set()
            first.result(timeout=10)
            second.result(timeout=10)
        assert gate.calls == 2


# ---------------------------------------------------------------------------
# Admission control and load shedding
# ---------------------------------------------------------------------------
class TestShedding:
    def test_queue_full_sheds_before_engine_work(self):
        registry = MetricsRegistry()
        gate = GateEngine(_engine())
        config = ServeConfig(workers=1, queue_capacity=2, coalesce=False)
        with ServerCore(gate, config, registry=registry) as core:
            running = core.submit("apple")
            assert gate.entered.acquire(timeout=10)  # worker busy
            queued = [core.submit("banana"), core.submit("cherry")]
            calls_before = gate.calls
            for _ in range(3):
                with pytest.raises(Overloaded) as caught:
                    core.submit("date")
                assert caught.value.reason == "queue-full"
            assert gate.calls == calls_before  # shed did no engine work
            gate.release.set()
            running.result(timeout=10)
            for future in queued:
                future.result(timeout=10)
        assert registry.counter("gks_serve_shed_total").value(
            {"reason": "queue-full"}) == 3
        assert registry.counter("gks_serve_shed_total").total() == 3
        assert registry.counter("gks_serve_requests_total").value(
            {"outcome": "shed"}) == 3

    def test_expired_deadline_shed_at_admission(self):
        registry = MetricsRegistry()
        with ServerCore(_engine(), registry=registry) as core:
            with pytest.raises(Overloaded) as caught:
                core.submit("apple", deadline_s=0.0)
            assert caught.value.reason == "deadline"
            with pytest.raises(Overloaded):  # overdue, not misconfigured
                core.submit("apple", deadline_s=-1.0)
        assert registry.counter("gks_serve_shed_total").value(
            {"reason": "deadline"}) == 2

    def test_draining_sheds_new_arrivals(self):
        registry = MetricsRegistry()
        core = ServerCore(_engine(), registry=registry)
        accepted = core.search("apple banana")
        core.drain()
        with pytest.raises(Overloaded) as caught:
            core.submit("apple banana")
        assert caught.value.reason == "draining"
        assert registry.counter("gks_serve_shed_total").value(
            {"reason": "draining"}) == 1
        core.close()  # idempotent with drain already done
        assert len(accepted.nodes) > 0

    def test_queued_deadline_expiry_times_out_without_engine_work(self):
        fake = FakeClock()
        registry = MetricsRegistry()
        gate = GateEngine(_engine())
        config = ServeConfig(workers=1, queue_capacity=8, coalesce=False)
        with ServerCore(gate, config, registry=registry,
                        clock=fake) as core:
            running = core.submit("apple")
            assert gate.entered.acquire(timeout=10)
            doomed = core.submit("banana", deadline_s=0.5)
            fake.advance(1.0)  # its whole deadline passes in the queue
            calls_before = gate.calls
            gate.release.set()
            running.result(timeout=10)
            with pytest.raises(SearchTimeout):
                doomed.result(timeout=10)
            assert gate.calls == calls_before  # never reached the engine
        assert registry.counter("gks_serve_timeouts_total").total() == 1
        assert registry.counter("gks_serve_requests_total").value(
            {"outcome": "timeout"}) == 1

    def test_queue_wait_rebases_the_engine_deadline(self):
        fake = FakeClock()
        engine = _engine()
        captured = {}
        original = engine.search

        def spy(*args, **kwargs):
            captured["budget"] = kwargs.get("budget")
            return original(*args, **kwargs)

        engine.search = spy  # type: ignore[method-assign]
        gate = GateEngine(engine)
        config = ServeConfig(workers=1, queue_capacity=8, coalesce=False)
        with ServerCore(gate, config, registry=MetricsRegistry(),
                        clock=fake) as core:
            running = core.submit("apple")
            assert gate.entered.acquire(timeout=10)
            waiting = core.submit("banana", deadline_s=2.0)
            fake.advance(0.5)  # spends half a second queued
            gate.release.set()
            running.result(timeout=10)
            waiting.result(timeout=10)
        budget = captured["budget"]
        assert budget is not None
        assert budget.deadline_s == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# One result cache: the engine LRU (the broker keeps none)
# ---------------------------------------------------------------------------
class TestOneResultCache:
    def test_deadlined_requests_bypass_the_engine_cache(self):
        engine = _engine()
        fake = FakeClock()
        with ServerCore(engine, ServeConfig(workers=1),
                        registry=MetricsRegistry(), clock=fake) as core:
            core.search("apple banana", deadline_s=50.0)
            core.search("apple banana", deadline_s=50.0)
            # budgeted: never stored, never hit
            info = engine.cache_info()
            assert (info["hits"], info["misses"], info["size"]) == (0, 0, 0)
            core.search("apple banana")
            core.search("apple banana")   # the repeat is an LRU hit
            info = engine.cache_info()
            assert (info["hits"], info["misses"], info["size"]) == (1, 1, 1)


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_close_is_idempotent_and_submissions_fail_after(self):
        core = ServerCore(_engine(), registry=MetricsRegistry())
        core.close()
        core.close()
        with pytest.raises(Overloaded):
            core.submit("apple")

    def test_drain_completes_queued_work(self):
        gate = GateEngine(_engine())
        config = ServeConfig(workers=1, queue_capacity=8, coalesce=False)
        core = ServerCore(gate, config, registry=MetricsRegistry())
        first = core.submit("apple")
        assert gate.entered.acquire(timeout=10)
        second = core.submit("banana")
        drained = threading.Event()

        def drain() -> None:
            core.drain()
            drained.set()

        thread = threading.Thread(target=drain, daemon=True)
        thread.start()
        assert not drained.wait(timeout=0.2)  # blocked on queued work
        gate.release.set()
        assert drained.wait(timeout=10)
        assert first.result(timeout=1).nodes is not None
        assert second.result(timeout=1).nodes is not None
        core.close()

    def test_healthz_reflects_drain(self):
        core = ServerCore(_engine(), registry=MetricsRegistry())
        assert core.healthz()["status"] == "ok"
        core.drain()
        assert core.healthz()["status"] == "draining"
        core.close()

    def test_query_errors_raise_synchronously(self):
        with ServerCore(_engine(), registry=MetricsRegistry()) as core:
            with pytest.raises(QueryError):
                core.submit("")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ServeConfig(workers=0)
        with pytest.raises(ConfigError):
            ServeConfig(queue_capacity=0)
        with pytest.raises(ConfigError):
            ServeConfig(deadline_s=-1.0)
        with pytest.raises(ConfigError):
            ServeConfig().replace(no_such_knob=1)
        assert ServeConfig().replace(workers=2).workers == 2

    def test_engine_serve_hook(self):
        engine = _engine()
        core = engine.serve(workers=2)
        try:
            assert isinstance(core, ServerCore)
            assert core.config.workers == 2
            assert core.engine is engine
        finally:
            core.close()


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------
@pytest.fixture()
def http_server():
    engine = _engine()
    core = ServerCore(engine, ServeConfig(workers=2),
                      registry=MetricsRegistry())
    server = serve_http(core)
    # a short poll keeps shutdown() (one poll interval) off the clock:
    # this fixture is torn down once per parametrised wire case
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    port = server.server_address[1]
    yield f"http://127.0.0.1:{port}", core
    server.shutdown()
    server.server_close()
    core.close()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.load(response)


class TestHTTP:
    def test_search_matches_direct_engine(self, http_server):
        base, core = http_server
        status, payload = _get(f"{base}/search?q=apple+banana")
        assert status == 200
        direct = _engine().search("apple banana")
        assert len(payload["nodes"]) == len(direct.nodes)
        assert payload["serve"]["degraded"] is False
        assert payload["query"]["keywords"] == \
            list(direct.query.keywords)

    def test_post_body_search(self, http_server):
        base, _ = http_server
        body = json.dumps({"q": "cherry", "k": 1}).encode()
        request = urllib.request.Request(
            f"{base}/search", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10) as response:
            payload = json.load(response)
        assert response.status == 200
        assert len(payload["nodes"]) <= 1

    def test_healthz_and_metrics(self, http_server):
        base, _ = http_server
        status, payload = _get(f"{base}/healthz")
        assert status == 200 and payload["status"] == "ok"
        _get(f"{base}/search?q=apple")
        with urllib.request.urlopen(f"{base}/metrics",
                                    timeout=10) as response:
            text = response.read().decode()
        assert "gks_serve_requests_total" in text
        assert 'outcome="ok"' in text

    def test_missing_query_is_400(self, http_server):
        base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as caught:
            _get(f"{base}/search")
        assert caught.value.code == 400

    @pytest.mark.parametrize("route, body", [
        pytest.param("/search", {"q": 5}, id="q-int"),
        pytest.param("/search", {"q": "apple", "s": None}, id="s-null"),
        pytest.param("/search", {"q": "apple", "deadline_ms": None},
                     id="deadline-null"),
        pytest.param("/search", {"q": "apple", "deadline_ms": "nan"},
                     id="deadline-nan"),
        pytest.param("/search", {"q": "apple", "s": 1.9}, id="s-float"),
        pytest.param("/search", {"q": "apple", "k": True}, id="k-bool"),
        pytest.param("/search",
                     {"q": "apple", "options": {"use_cache": "maybe"}},
                     id="flag-word"),
        pytest.param("/search", {"q": "apple", "no_such_option": 1},
                     id="unknown-option"),
        pytest.param("/documents", {"text": 5}, id="text-int"),
        pytest.param("/documents",
                     {"text": "<doc>fine</doc>", "name": 5}, id="name-int"),
    ])
    def test_wrong_wire_types_are_400(self, http_server, route, body):
        # never a traceback and a dropped connection: a typed JSON error
        base, _ = http_server
        request = urllib.request.Request(
            f"{base}{route}", data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        assert caught.value.code == 400
        assert json.load(caught.value)["type"] == "ValidationError"
        if route == "/search":
            assert caught.value.headers["X-Request-Id"]

    def test_unexpected_exception_is_a_500_response(self, http_server):
        base, core = http_server

        def boom(*args, **kwargs):
            raise RuntimeError("not a GKSError")

        core.search = boom
        with pytest.raises(urllib.error.HTTPError) as caught:
            _get(f"{base}/search?q=apple")
        assert caught.value.code == 500
        assert json.load(caught.value)["type"] == "InternalError"
        assert caught.value.headers["X-Request-Id"]

    def test_unknown_route_is_404(self, http_server):
        base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as caught:
            _get(f"{base}/nope")
        assert caught.value.code == 404

    def test_overload_maps_to_429(self):
        engine = _engine()
        gate = GateEngine(engine)
        config = ServeConfig(workers=1, queue_capacity=1, coalesce=False)
        core = ServerCore(gate, config, registry=MetricsRegistry())
        server = serve_http(core)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            results: list = []

            def fetch(query: str) -> None:
                try:
                    results.append(_get(f"{base}/search?q={query}")[0])
                except urllib.error.HTTPError as error:
                    results.append(error.code)

            first = threading.Thread(target=fetch, args=("apple",),
                                     daemon=True)
            first.start()
            assert gate.entered.acquire(timeout=10)  # worker occupied
            second = threading.Thread(target=fetch, args=("banana",),
                                      daemon=True)
            second.start()
            # wait until the second request is queued, then overflow
            deadline = threading.Event()
            for _ in range(100):
                if core.stats()["queued"] >= 1:
                    break
                deadline.wait(0.05)
            assert core.stats()["queued"] >= 1
            with pytest.raises(urllib.error.HTTPError) as caught:
                _get(f"{base}/search?q=cherry")
            assert caught.value.code == 429
            assert json.load(caught.value)["reason"] == "queue-full"
            gate.release.set()
            first.join(timeout=10)
            second.join(timeout=10)
            assert results.count(200) == 2
        finally:
            gate.release.set()
            server.shutdown()
            server.server_close()
            core.close()

    def test_strict_deadline_top_k_is_504(self):
        # the engine's own budget trips inside the pipeline (an always
        # expired fake deadline), so this is the engine's strict raise,
        # not the admission queue's
        engine = _engine(budget=SearchBudget(
            deadline_s=0.5, clock=FakeClock(auto_advance=1.0)))
        core = ServerCore(engine, ServeConfig(workers=1),
                          registry=MetricsRegistry())
        server = serve_http(core)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        body = json.dumps({"q": "apple", "k": 2,
                           "options": {"strict_deadline": True}}).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.server_address[1]}/search",
            data=body, headers={"Content-Type": "application/json"})
        try:
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=10)
            assert caught.value.code == 504
            assert caught.value.headers["X-Request-Id"]
        finally:
            server.shutdown()
            server.server_close()
            core.close()

    def test_server_carries_the_broker(self, http_server):
        _, core = http_server
        server = serve_http(core)
        try:
            assert isinstance(server, ServeHTTPServer)
            assert server.core is core
        finally:
            server.server_close()


# ---------------------------------------------------------------------------
# Wire fuzzer: garbage in, a typed JSON answer out — always
# ---------------------------------------------------------------------------
FUZZ_VALUES = [None, True, -1, 1.5, "nan", [], {}, "x" * 65536]
FUZZ_BODIES = {
    "/search": {"q": "apple banana", "s": 2, "k": 3, "deadline_ms": 5000,
                "options": {"use_cache": False}},
    "/documents": {"text": "<doc><item>zeta</item></doc>",
                   "name": "fuzz.xml"},
}


def _fuzz_request(rng: random.Random) -> tuple[str, str, dict, bytes]:
    """One seeded hostile exchange: (method, path, headers, body)."""
    route = rng.choice(sorted(FUZZ_BODIES))
    body = json.dumps(FUZZ_BODIES[route]).encode()
    kind = rng.choice(["field", "field", "bytes", "length", "route"])
    if kind == "field":
        mutated = dict(FUZZ_BODIES[route])
        mutated[rng.choice(sorted(mutated))] = rng.choice(FUZZ_VALUES)
        body = json.dumps(mutated).encode()
    elif kind == "bytes":
        if rng.random() < 0.5:
            body = body[:rng.randrange(1, len(body))]
        else:
            garbled = bytearray(body)
            for _ in range(rng.randint(1, 4)):
                garbled[rng.randrange(len(garbled))] = rng.randrange(256)
            body = bytes(garbled)
    elif kind == "length":
        # no body follows: the server must refuse before reading any
        return "POST", route, {
            "Content-Length": rng.choice(["abc", "-5", "1e3", ""])}, b""
    else:
        method = rng.choice(["GET", "POST"])
        return method, rng.choice(["/", "/searchx", "/admin", "/%00"]), \
            {}, b""
    return "POST", route, {"Content-Length": str(len(body))}, body


def test_wire_fuzzer_always_gets_a_typed_json_answer(http_server,
                                                     monkeypatch):
    import http.client

    base, core = http_server
    server_errors: list = []
    # what the stdlib calls when an exception escapes a handler
    monkeypatch.setattr(
        ServeHTTPServer, "handle_error",
        lambda self, request, address: server_errors.append(address))
    rng = random.Random(20261001)
    port = int(base.rsplit(":", 1)[1])
    seen: dict[int, int] = {}
    for _ in range(200):
        method, path, headers, body = _fuzz_request(rng)
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=10)
        try:
            connection.putrequest(method, path)
            for name, value in headers.items():
                connection.putheader(name, value)
            connection.endheaders(body or None)
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status in (200, 400, 404, 429, 504), \
            (method, path, headers, body[:80], payload)
        assert isinstance(payload, dict)
        if response.status != 200:
            assert payload["type"]
        if path == "/search":
            assert response.getheader("X-Request-Id")
        seen[response.status] = seen.get(response.status, 0) + 1
    assert not server_errors
    assert seen.get(400, 0) > 50 and seen.get(200, 0) > 5 \
        and seen.get(404, 0) > 5, seen
    # the broker is still healthy after the barrage
    assert core.healthz()["status"] == "ok"
    assert core.search("apple").nodes


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------
class TestLoadgen:
    def test_uniform_schedule_spacing(self):
        schedule = OpenLoopSchedule.uniform(10.0, 5, ["a", "b"])
        offsets = [request.at_s for request in schedule.requests]
        assert offsets == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])
        queries = [request.query for request in schedule.requests]
        assert queries == ["a", "b", "a", "b", "a"]

    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 95) == 40.0
        assert percentile(values, 0) == 10.0
        assert percentile([], 99) == 0.0

    def test_open_loop_accounts_every_request(self):
        core = ServerCore(_engine(), ServeConfig(workers=2),
                          registry=MetricsRegistry())
        generator = LoadGenerator(core)
        schedule = OpenLoopSchedule.uniform(
            2000.0, 12, ["apple banana", "cherry", "date"])
        try:
            report = generator.run_open(schedule)
        finally:
            core.close()
        assert report.submitted == 12
        assert report.completed + report.shed + report.timeouts \
            + report.errors == 12
        assert report.completed > 0
        stats = report.to_dict()
        assert stats["latency_s"]["p50"] <= stats["latency_s"]["p99"]

    def test_open_loop_sheds_under_overload(self):
        registry = MetricsRegistry()
        gate = GateEngine(_engine())
        gate.release.set()
        config = ServeConfig(workers=1, queue_capacity=1, coalesce=False)
        core = ServerCore(gate, config, registry=registry)
        generator = LoadGenerator(core)
        # 200 near-simultaneous arrivals against one worker and a
        # one-slot queue: most must shed
        schedule = OpenLoopSchedule.uniform(
            1_000_000.0, 200, ["apple banana", "cherry", "banana fig"])
        try:
            report = generator.run_open(schedule)
        finally:
            core.close()
        assert report.shed > 0
        assert report.completed >= 1
        shed_metric = registry.counter("gks_serve_shed_total").total()
        assert shed_metric == report.shed

    def test_closed_loop_totals(self):
        core = ServerCore(_engine(), ServeConfig(workers=2),
                          registry=MetricsRegistry())
        generator = LoadGenerator(core)
        try:
            report = generator.run_closed(
                ["apple banana", "cherry"], concurrency=3, iterations=4)
        finally:
            core.close()
        assert report.submitted == 12
        assert report.completed == 12
        assert report.mode == "closed"
        assert report.throughput_rps > 0

    def test_bursty_arrivals_deterministic(self):
        first = BurstyArrivals(bursts=3, burst_size=4, gap_s=0.1,
                               jitter_s=0.01, seed=5).offsets()
        second = BurstyArrivals(bursts=3, burst_size=4, gap_s=0.1,
                                jitter_s=0.01, seed=5).offsets()
        assert first == second
        assert len(first) == 12
        assert first == sorted(first)

    def test_bursty_arrivals_drive_a_schedule(self):
        offsets = BurstyArrivals(bursts=2, burst_size=3,
                                 gap_s=0.05).offsets()
        from repro.serve import LoadRequest

        schedule = OpenLoopSchedule(tuple(
            LoadRequest(at_s=offset, query="apple banana")
            for offset in offsets))
        assert schedule.duration_s == pytest.approx(offsets[-1])
        assert len(schedule.requests) == 6


# ---------------------------------------------------------------------------
# Request-id correlation: HTTP header, stats, span tree and slow-query log
# ---------------------------------------------------------------------------
LIBRARY = ("<library><book><title>xml search</title>"
           "<author>ada byron</author></book>"
           "<book><title>graph theory</title>"
           "<author>paul erdos</author></book></library>")


def _library_engine(**kwargs) -> GKSEngine:
    repository = Repository()
    repository.parse(LIBRARY, name="corpus.xml")
    return GKSEngine(repository, metrics=MetricsRegistry(), **kwargs)


class TestRequestIdCorrelation:
    def _core(self, **engine_kwargs):
        engine = _library_engine(**engine_kwargs)
        core = ServerCore(
            engine, ServeConfig(workers=2, trace=True),
            registry=engine.metrics_registry,
            id_source=iter(f"rid-{n}" for n in range(100)).__next__)
        return engine, core

    def test_minted_id_lands_on_stats_span_and_slow_log(self):
        engine, core = self._core(slow_query_threshold_s=0.0)
        with core:
            response = core.search("xml ada")
        assert response.stats.request_id == "rid-0"
        root = engine.recent_traces()[-1]
        assert root.attributes["request_id"] == "rid-0"
        assert "queue_wait_s" in root.attributes
        slow = engine.slow_queries()[-1]
        assert slow.request_id == "rid-0"
        assert "rid=rid-0" in slow.render()

    def test_caller_supplied_id_wins(self):
        _, core = self._core()
        with core:
            response = core.search("xml", request_id="mine-42")
        assert response.stats.request_id == "mine-42"

    def test_served_repeat_is_an_lru_hit_with_the_new_request_id(self):
        engine, core = self._core()
        with core:
            first = core.search("xml")
            second = core.search("xml")
        assert first.stats.request_id == "rid-0"
        assert second.stats.request_id == "rid-1"
        assert second.stats.cache_hit and not first.stats.cache_hit
        # the hit shares the first answer's nodes; only the stats differ
        assert second.nodes is first.nodes
        assert engine.cache_info()["hits"] == 1

    def test_engine_lru_hit_restamps_too(self):
        engine = _library_engine()
        cold = engine.search("xml", request_id="a")
        warm = engine.search("xml", request_id="b")
        assert cold.stats.request_id == "a"
        assert warm.stats.request_id == "b" and warm.stats.cache_hit

    def test_stats_dict_and_render_carry_the_id(self):
        stats = QueryStats(total_seconds=1.0, request_id="r-9")
        assert stats.to_dict()["request_id"] == "r-9"
        entry = SlowQuery(query_text="q", s=1, stats=stats, unix_time=0.0)
        assert entry.render().endswith("rid=r-9")

    def test_direct_engine_calls_have_no_id(self):
        assert _library_engine().search("xml").stats.request_id is None


@pytest.fixture()
def traced_http_server():
    engine = _library_engine(slow_query_threshold_s=0.0)
    core = ServerCore(engine, ServeConfig(workers=2, trace=True),
                      registry=engine.metrics_registry)
    server = serve_http(core)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    port = server.server_address[1]
    yield f"http://127.0.0.1:{port}", engine
    server.shutdown()
    server.server_close()
    core.close()


class TestHTTPCorrelation:
    """One id joins the HTTP response, the span tree and the slow-query
    log for the same query."""

    def test_response_header_spans_and_slow_log_share_one_id(
            self, traced_http_server):
        base, engine = traced_http_server
        with urllib.request.urlopen(f"{base}/search?q=xml+ada",
                                    timeout=10) as response:
            rid = response.headers["X-Request-Id"]
            payload = json.load(response)
        assert rid
        assert payload["serve"]["request_id"] == rid
        root = engine.recent_traces()[-1]
        assert root.attributes["request_id"] == rid
        assert engine.slow_queries()[-1].request_id == rid

    def test_client_header_is_respected_end_to_end(
            self, traced_http_server):
        base, engine = traced_http_server
        request = urllib.request.Request(
            f"{base}/search?q=graph",
            headers={"X-Request-Id": "client-7"})
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["X-Request-Id"] == "client-7"
            payload = json.load(response)
        assert payload["serve"]["request_id"] == "client-7"
        assert engine.slow_queries()[-1].request_id == "client-7"

    @pytest.mark.parametrize("client_id", ["abc\r\n evil=1", "a" * 65],
                             ids=["folded", "65-chars"])
    def test_malformed_client_id_is_replaced_by_a_minted_one(
            self, traced_http_server, client_id):
        base, engine = traced_http_server
        request = urllib.request.Request(
            f"{base}/search?q=graph",
            headers={"X-Request-Id": client_id})
        with urllib.request.urlopen(request, timeout=10) as response:
            rid = response.headers["X-Request-Id"]
            payload = json.load(response)
        assert rid.startswith("req-")
        assert payload["serve"]["request_id"] == rid
        line = engine.slow_queries()[-1].render()
        assert line.endswith(f"rid={rid}")
        assert "\r" not in line and "\n" not in line

    def test_error_responses_still_carry_the_header(
            self, traced_http_server):
        base, _ = traced_http_server
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(f"{base}/search", timeout=10)
        assert caught.value.code == 400
        assert caught.value.headers["X-Request-Id"]


class TestLoadgenShedClassification:
    def test_async_overloaded_counts_as_shed(self):
        from concurrent.futures import Future

        class ShedCore:
            def submit(self, query, s=None, *, k=None, ranker=None,
                       deadline_s=None, request_id=None):
                future: Future = Future()
                future.set_exception(
                    Overloaded("late 429", reason="queue-full"))
                return future

        generator = LoadGenerator(ShedCore())
        report = generator.run_closed(["q"], concurrency=1, iterations=2)
        assert report.shed == 2
        assert report.errors == 0
        assert report.outcomes[0].error == "queue-full"
