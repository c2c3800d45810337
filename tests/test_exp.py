"""Experiment-matrix harness: spec expansion, scrape round-trip,
delta semantics, the regression gate, the end-to-end runner, and the
request-id correlation contract (HTTP header ↔ stats ↔ span tree ↔
slow-query log)."""

from __future__ import annotations

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.engine import GKSEngine
from repro.errors import (ConfigError, GKSError, Overloaded, QueryError,
                          SearchTimeout, ValidationError)
from repro.exp import (ExperimentSpec, HTTPSearchClient, compare_aggregates,
                       metrics_delta, parse_prometheus, run_experiment,
                       write_aggregate)
from repro.exp.httpclient import _map_http_error
from repro.obs.metrics import (MetricsRegistry, escape_label_value,
                               global_registry, unescape_label_value)
from repro.obs.stats import QueryStats, SlowQuery
from repro.serve import LoadGenerator, ServeConfig, ServerCore, serve_http
from repro.xmltree.repository import Repository

pytestmark = pytest.mark.exp

CORPUS = ("<library><book><title>xml search</title>"
          "<author>ada byron</author></book>"
          "<book><title>graph theory</title>"
          "<author>paul erdos</author></book></library>")


def _repository() -> Repository:
    repository = Repository()
    repository.parse(CORPUS, name="corpus.xml")
    return repository


def _engine(**kwargs) -> GKSEngine:
    return GKSEngine(_repository(), **kwargs)


# ---------------------------------------------------------------------------
# Spec expansion
# ---------------------------------------------------------------------------
class TestSpecExpansion:
    def _spec(self, **overrides) -> ExperimentSpec:
        raw = {
            "name": "t",
            "base": {"load": {"queries": ["xml"]}},
            "factors": {"engine.shards": [1, 2],
                        "load.concurrency": [2, 4, 8]},
            **overrides,
        }
        return ExperimentSpec.from_dict(raw)

    def test_product_times_repetitions(self):
        spec = self._spec(repetitions=2)
        runs = spec.expand()
        assert len(runs) == 2 * 3 * 2 == spec.run_count

    def test_expansion_is_deterministic(self):
        first = [run.run_id for run in self._spec().expand()]
        second = [run.run_id for run in self._spec().expand()]
        assert first == second
        assert len(set(first)) == len(first)

    def test_levels_land_at_their_dotted_paths(self):
        runs = self._spec().expand()
        assert runs[0].params["engine"]["shards"] == 1
        assert runs[0].params["load"]["concurrency"] == 2
        assert runs[-1].params["engine"]["shards"] == 2
        assert runs[-1].params["load"]["concurrency"] == 8
        # the base tree rides along untouched
        assert runs[0].params["load"]["queries"] == ["xml"]

    def test_runs_do_not_share_params_trees(self):
        runs = self._spec().expand()
        runs[0].params["load"]["queries"].append("mutated")
        assert runs[1].params["load"]["queries"] == ["xml"]

    def test_dict_levels_bundle_overrides(self):
        spec = ExperimentSpec.from_dict({
            "name": "t", "base": {},
            "factors": {"shape": [
                {"id": "open", "load.mode": "open", "load.rate_rps": 10},
                {"id": "closed", "load.mode": "closed"},
            ]},
        })
        runs = spec.expand()
        assert [dict(run.factors)["shape"] for run in runs] \
            == ["open", "closed"]
        assert runs[0].params["load"]["rate_rps"] == 10

    def test_factor_labels_appear_in_run_ids(self):
        runs = self._spec().expand()
        assert "engine.shards=1" in runs[0].run_id
        assert runs[0].run_id.endswith("__r0")

    @pytest.mark.parametrize("raw, fragment", [
        ({"base": {}}, "name"),
        ({"name": "t", "mode": "warp"}, "mode"),
        ({"name": "t", "repetitions": 0}, "repetitions"),
        ({"name": "t", "bogus_key": 1}, "unknown"),
        ({"name": "t", "factors": {"f": []}}, "non-empty"),
        ({"name": "t", "factors": {"f": [1, 1]}}, "duplicate"),
    ])
    def test_invalid_specs_raise(self, raw, fragment):
        with pytest.raises(ConfigError, match=fragment):
            ExperimentSpec.from_dict(raw)

    def test_toml_and_json_load_identically(self, tmp_path):
        json_path = tmp_path / "spec.json"
        json_path.write_text(json.dumps({
            "name": "t", "repetitions": 2,
            "factors": {"engine.shards": [1, 2]}}))
        toml_path = tmp_path / "spec.toml"
        toml_path.write_text(
            'name = "t"\nrepetitions = 2\n\n[factors]\n'
            '"engine.shards" = [1, 2]\n')
        from_json = ExperimentSpec.load(json_path)
        from_toml = ExperimentSpec.load(toml_path)
        assert [run.run_id for run in from_json.expand()] \
            == [run.run_id for run in from_toml.expand()]


# ---------------------------------------------------------------------------
# Prometheus escaping (regression tests) and scrape round-trip
# ---------------------------------------------------------------------------
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
        assert unescape_label_value(escaped) == raw

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


class TestScrapeRoundTrip:
    def _registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        requests = registry.counter("req_total", help="Requests seen.")
        requests.inc(3, labels={"outcome": "ok"})
        requests.inc(1, labels={"outcome": "error"})
        registry.gauge("depth", help="Queue depth.").set(7)
        latency = registry.histogram("lat_seconds",
                                     buckets=(0.1, 1.0))
        latency.observe(0.05)
        latency.observe(0.5)
        latency.observe(5.0)
        return registry

    def test_round_trip_values_and_types(self):
        parsed = parse_prometheus(self._registry().render_prometheus())
        assert parsed.types["req_total"] == "counter"
        assert parsed.types["lat_seconds"] == "histogram"
        assert parsed.value("req_total", {"outcome": "ok"}) == 3
        assert parsed.value("req_total", {"outcome": "error"}) == 1
        assert parsed.value("depth") == 7
        assert parsed.help["req_total"] == "Requests seen."

    def test_histogram_buckets_are_cumulative(self):
        parsed = parse_prometheus(self._registry().render_prometheus())
        assert parsed.value("lat_seconds_bucket", {"le": "0.1"}) == 1
        assert parsed.value("lat_seconds_bucket", {"le": "1"}) == 2
        assert parsed.value("lat_seconds_bucket", {"le": "+Inf"}) == 3
        assert parsed.value("lat_seconds_count") == 3
        assert parsed.value("lat_seconds_sum") == pytest.approx(5.55)
        assert parsed.family_of("lat_seconds_bucket") == "lat_seconds"

    def test_escaped_label_values_round_trip(self):
        registry = MetricsRegistry()
        nasty = 'a="b",c\\d\ne'
        registry.counter("c_total").inc(labels={"q": nasty})
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed.value("c_total", {"q": nasty}) == 1

    def test_malformed_lines_raise(self):
        with pytest.raises(ValidationError):
            parse_prometheus("what even is this line")
        with pytest.raises(ValidationError):
            parse_prometheus('m{unterminated="oops 1')


class TestMetricsDelta:
    def test_counters_subtract_gauges_take_after(self):
        before_reg = MetricsRegistry()
        before_reg.counter("c_total").inc(5)
        before_reg.gauge("g").set(100)
        after_reg = MetricsRegistry()
        after_reg.counter("c_total").inc(9)
        after_reg.gauge("g").set(2)
        after_reg.counter("fresh_total").inc(4)
        before = parse_prometheus(before_reg.render_prometheus())
        after = parse_prometheus(after_reg.render_prometheus())
        delta = metrics_delta(before, after)
        assert delta["c_total"]["series"][""] == 4
        assert delta["g"]["series"][""] == 2          # state, not diff
        assert delta["fresh_total"]["series"][""] == 4  # absent = from 0
        assert delta["g"]["type"] == "gauge"

    def test_unmoved_series_are_dropped(self):
        registry = MetricsRegistry()
        registry.counter("same_total").inc(3)
        snapshot = parse_prometheus(registry.render_prometheus())
        assert metrics_delta(snapshot, snapshot) == {}


# ---------------------------------------------------------------------------
# The regression gate
# ---------------------------------------------------------------------------
def _aggregate(**row_overrides) -> dict:
    row = {"run_id": "000__r0", "completed": 20, "errors": 0,
           "shed": 0, "timeouts": 0, "submitted": 20,
           "throughput_rps": 100.0, **row_overrides}
    return {"experiment": "t", "rows": [row]}


class TestCompare:
    def test_identical_aggregates_pass(self):
        assert compare_aggregates(_aggregate(), _aggregate()) == []

    def test_exact_field_drift_is_a_violation(self):
        violations = compare_aggregates(_aggregate(completed=19),
                                        _aggregate())
        assert [v.field for v in violations] == ["completed"]
        assert "expected 20, got 19" in violations[0].render()

    def test_relative_tolerance_pass_and_fail(self):
        baseline = _aggregate()
        baseline["tolerances"] = {"exact": [],
                                  "relative": {"throughput_rps": 0.5}}
        ok = compare_aggregates(_aggregate(throughput_rps=60.0), baseline)
        assert ok == []
        bad = compare_aggregates(_aggregate(throughput_rps=10.0), baseline)
        assert [v.kind for v in bad] == ["relative"]

    def test_missing_and_extra_runs_are_violations(self):
        current = _aggregate()
        current["rows"][0] = dict(current["rows"][0], run_id="999__r0")
        kinds = sorted(v.kind for v in
                       compare_aggregates(current, _aggregate()))
        assert kinds == ["extra", "missing"]

    def test_baseline_without_a_field_skips_it(self):
        baseline = _aggregate()
        del baseline["rows"][0]["timeouts"]
        assert compare_aggregates(_aggregate(timeouts=9), baseline) == []

    def test_tolerances_argument_overrides_baseline(self):
        baseline = _aggregate()
        baseline["tolerances"] = {"exact": ["completed"]}
        violations = compare_aggregates(
            _aggregate(errors=5), baseline,
            tolerances={"exact": ["errors"]})
        assert [v.field for v in violations] == ["errors"]


# ---------------------------------------------------------------------------
# End-to-end runner (in-process mode)
# ---------------------------------------------------------------------------
class TestRunnerEndToEnd:
    SPEC = {
        "name": "e2e",
        "mode": "inproc",
        "base": {
            "dataset": {"name": "figure2a"},
            "engine": {"shards": 1},
            "serve": {"workers": 2, "queue_capacity": 16},
            "load": {"mode": "closed", "concurrency": 2, "iterations": 3,
                     "queries": ["XML Author"], "s": 1},
        },
        "factors": {"engine.shards": [1, 2]},
    }

    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("exp")
        spec = ExperimentSpec.from_dict(self.SPEC)
        results = run_experiment(spec, out, log=None)
        assert len(results) == 2
        return out

    def test_artifact_directories_are_complete(self, out_dir):
        run_dirs = sorted((out_dir / "runs").iterdir())
        assert len(run_dirs) == 2
        for run_dir in run_dirs:
            for artifact in ("run.json", "report.json", "sample.json",
                             "metrics_before.prom", "metrics_after.prom",
                             "metrics_delta.json"):
                assert (run_dir / artifact).exists(), artifact

    def test_delta_counts_exactly_the_declared_load(self, out_dir):
        for run_dir in sorted((out_dir / "runs").iterdir()):
            delta = json.loads(
                (run_dir / "metrics_delta.json").read_text())
            served = sum(
                delta["gks_serve_requests_total"]["series"].values())
            report = json.loads((run_dir / "report.json").read_text())
            assert served == report["submitted"] == 6
            assert report["completed"] == 6

    def test_probe_sample_is_correlated(self, out_dir):
        for run_dir in sorted((out_dir / "runs").iterdir()):
            sample = json.loads((run_dir / "sample.json").read_text())
            assert sample["request_id"]
            assert sample["stats"]["request_id"] == sample["request_id"]

    def test_aggregate_tables_and_self_compare(self, out_dir):
        aggregate = write_aggregate(out_dir)
        assert (out_dir / "aggregate.csv").exists()
        assert (out_dir / "aggregate.md").exists()
        assert len(aggregate["rows"]) == 2
        assert compare_aggregates(aggregate, aggregate) == []
        regressed = json.loads(json.dumps(aggregate))
        regressed["rows"][1]["completed"] -= 1
        assert compare_aggregates(regressed, aggregate) != []


# ---------------------------------------------------------------------------
# Request-id correlation
# ---------------------------------------------------------------------------
class TestRequestIdCorrelation:
    def _core(self, **engine_kwargs):
        engine = _engine(metrics=MetricsRegistry(), **engine_kwargs)
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
        engine = _engine(metrics=MetricsRegistry())
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
        engine = _engine(metrics=MetricsRegistry())
        assert engine.search("xml").stats.request_id is None


@pytest.fixture()
def traced_http_server():
    engine = _engine(metrics=MetricsRegistry(),
                     slow_query_threshold_s=0.0)
    core = ServerCore(engine, ServeConfig(workers=2, trace=True),
                      registry=engine.metrics_registry)
    server = serve_http(core)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    yield f"http://127.0.0.1:{port}", engine
    server.shutdown()
    server.server_close()
    core.close()


class TestHTTPCorrelation:
    """The PR's acceptance contract: one id joins the HTTP response,
    the span tree and the slow-query log for the same query."""

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

    def test_error_responses_still_carry_the_header(
            self, traced_http_server):
        base, _ = traced_http_server
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(f"{base}/search", timeout=10)
        assert caught.value.code == 400
        assert caught.value.headers["X-Request-Id"]

    def test_httpclient_search_and_400_mapping(self, traced_http_server):
        base, _ = traced_http_server
        with HTTPSearchClient(base, pool=2) as client:
            payload = client.search("xml", 1, request_id="hc-1")
            assert payload["serve"]["request_id"] == "hc-1"
            assert client.healthz()["status"] == "ok"
            assert "gks_serve_requests_total" in client.metrics_text()
            with pytest.raises(GKSError):
                client.search("")  # empty query -> 400


# ---------------------------------------------------------------------------
# HTTP client error mapping & loadgen shed classification
# ---------------------------------------------------------------------------
def _http_error(code: int, body: dict,
                headers: dict | None = None) -> urllib.error.HTTPError:
    message = io.BytesIO(json.dumps(body).encode())
    import email.message

    header_obj = email.message.Message()
    for name, value in (headers or {}).items():
        header_obj[name] = value
    return urllib.error.HTTPError("http://x/search", code, "nope",
                                  header_obj, message)


class TestHTTPErrorMapping:
    def test_429_maps_to_overloaded_with_hint(self):
        error = _map_http_error(_http_error(
            429, {"error": "full", "reason": "queue-full"},
            {"Retry-After": "0.25"}))
        assert isinstance(error, Overloaded)
        assert error.reason == "queue-full"
        assert error.retry_after_s == pytest.approx(0.25)

    def test_504_maps_to_search_timeout(self):
        assert isinstance(
            _map_http_error(_http_error(504, {"error": "slow"})),
            SearchTimeout)

    def test_400_maps_to_query_error(self):
        assert isinstance(
            _map_http_error(_http_error(400, {"error": "bad"})),
            QueryError)

    def test_unknown_code_maps_to_gks_error(self):
        error = _map_http_error(_http_error(500, {"error": "boom"}))
        assert isinstance(error, GKSError)
        assert "boom" in str(error)


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


# ---------------------------------------------------------------------------
# Durability-path metrics
# ---------------------------------------------------------------------------
@pytest.mark.durability
class TestDurabilityMetrics:
    def test_wal_flush_and_store_metrics_reach_the_exposition(
            self, tmp_path):
        registry = global_registry()
        appends = registry.counter("gks_wal_appends_total")
        fsyncs = registry.histogram("gks_wal_fsync_seconds")
        flushed = registry.counter("gks_store_flushed_documents_total")
        appends_0 = appends.total()
        fsyncs_0 = fsyncs.count()
        flushed_0 = flushed.value()

        engine = GKSEngine.open(CORPUS, store_path=tmp_path / "store")
        engine.add_document("<doc><x>fresh words here</x></doc>",
                            name="extra.xml")
        assert appends.total() == appends_0 + 1
        assert fsyncs.count() >= fsyncs_0 + 1
        assert registry.gauge("gks_store_documents").value() >= 1

        engine.flush()
        assert flushed.value() == flushed_0 + 1
        own = engine.metrics_registry
        assert own.histogram("gks_store_flush_seconds").count() >= 1
        assert own.gauge("gks_memtable_pending").value() == 0
        assert own.gauge("gks_engine_generation").value() >= 1
        # the flush span is retained for trace inspection
        assert any(span.name == "flush"
                   for span in engine.recent_traces())
        # and everything renders into the text exposition
        text = registry.render_prometheus()
        assert "gks_wal_append_seconds" in text
        assert "gks_wal_appended_bytes_total" in text
        parsed = parse_prometheus(text)
        assert parsed.value("gks_wal_appends_total") >= 1

    def test_swap_engine_records_duration(self):
        registry = MetricsRegistry()
        engine = _engine(metrics=registry)
        with ServerCore(engine, ServeConfig(workers=1),
                        registry=registry) as core:
            core.swap_engine(_engine(metrics=registry))
            histogram = registry.histogram("gks_serve_swap_seconds")
            assert histogram.count() == 1
