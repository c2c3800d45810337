"""Workload ``serve_http``: a real ``gks serve`` process behind HTTP.

One client, one request at a time (closed loop): a Zipf(1.0) deck of
requests over a pool four times the engine's LRU, alternating
full-result and ``k=10``; the same stream goes to a fresh server
several times.  Wire parsing, admission and worker hand-off,
scatter-gather over two shards, the response cache and JSON
serialisation all sit on the path; ``query_inproc`` has none of them.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from urllib.parse import urlencode

from repro.api import EngineConfig, GKSEngine, Texts
from repro.core.export import response_to_dict
from repro.core.scatter import sharded_search
from repro.serve import ServeConfig, ServerCore, serve_http

import common
import inputs
import layers as L
import oracle

SHARDS = 2
SERVE_WORKERS = 2
#: fresh servers (each answering the whole request stream) at the
#: reference run length
REPS = 3


def make_inputs(seed: int, scale: inputs.Scale):
    corpus = inputs.mirror_corpus(seed, "serve", scale.serve_sites,
                                  scale.serve_records, scale.vocabulary)
    pool = inputs.query_pool(corpus, scale.serve_pool)
    return corpus, pool


def requests_for(pool, scale: inputs.Scale):
    """The fixed request stream: ``(spec, top_k)`` per position."""
    return [(pool[inputs.rank_to_pool(rank, len(pool))], top_k)
            for rank, top_k in inputs.zipf_deal(len(pool),
                                                scale.serve_requests)]


class Client:
    """One request at a time against ``127.0.0.1:port``."""

    def __init__(self, port: int) -> None:
        self.port = port

    def get(self, path: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=60)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def search(self, spec, top_k: bool) -> tuple[int, bytes]:
        params = {"q": spec.text, "s": spec.s}
        if top_k:
            params["k"] = common.TOP_K
        return self.get("/search?" + urlencode(params))

    def counters(self) -> dict[str, float]:
        """``/metrics`` summed per metric name (labels folded)."""
        totals: dict[str, float] = {}
        for line in self.get("/metrics")[1].decode().splitlines():
            if line and not line.startswith("#"):
                name = line.split("{")[0].split()[0]
                totals[name] = totals.get(name, 0.0) + float(line.split()[-1])
        return totals


class Server:
    """One ``python -m repro serve`` subprocess over files on disk."""

    def __init__(self, corpus, directory) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.files = []
        for name, text in zip(corpus.names, corpus.texts):
            path = directory / f"{name}.xml"
            path.write_text(text, encoding="utf-8")
            self.files.append(str(path))
        self.process = None
        self.client = Client(0)

    def boot(self) -> None:
        """Start the server; returns once it says "listening"."""
        env = dict(os.environ, PYTHONPATH=str(common.REPO / "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--shards", str(SHARDS), "--serve-workers", str(SERVE_WORKERS),
             *self.files],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        for line in self.process.stdout:
            if "listening on" in line:
                self.client.port = int(line.split("http://")[1].split()[0]
                                       .rsplit(":", 1)[1])
                return
        raise RuntimeError("gks serve exited before listening "
                           f"(code {self.process.wait()})")

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.process = None


def check_reference(corpus, answers, scale, checker):
    """A sample of the served answers against a monolithic in-memory
    engine over the same documents, which is itself checked for
    soundness; returns that engine."""
    reference = GKSEngine.open(Texts(corpus.texts),
                               EngineConfig(cache_size=0))
    specs = oracle.sample([spec for spec, top_k in answers if not top_k],
                          scale.sample)
    for spec in specs:
        expected = common.answer(reference.search(spec.text, s=spec.s).nodes)
        checker.expect(answers[spec, False] == expected,
                       f"{common.query_key(spec, False)}: served answer "
                       "differs from the monolithic engine's")
        if (spec, True) in answers:
            checker.expect(
                answers[spec, True] == expected[:common.TOP_K],
                f"{common.query_key(spec, True)}: served top-k is not the "
                "head of the monolithic engine's ranking")
    oracle.check_sound(reference.repository, reference.analyzer, specs,
                       lambda spec: answers[spec, False], checker)
    return reference


def run(seed: int, scale: inputs.Scale, seconds: float,
        checker: common.Checker) -> dict:
    corpus, pool = make_inputs(seed, scale)
    stream = requests_for(pool, scale)
    directory = common.OUT_DIR / f"serve-{os.getpid()}"
    server = Server(corpus, directory)
    meter = common.Meter()
    reps = []
    rss = 0.0
    answers: dict[tuple, tuple] = {}
    try:
        # every repetition boots a fresh server, so the response cache
        # meets the same stream in the same state
        for _ in range(common.repetitions(REPS, seconds)):
            server.stop()
            meter.time("setup", server.boot, long=True)
            status, _body = meter.time("first", server.client.search,
                                       pool[0], True)
            checker.expect(status == 200, f"first request: HTTP {status}")
            for spec, top_k in stream:
                status, body = meter.time("topk" if top_k else "full",
                                          server.client.search, spec, top_k)
                if status != 200:
                    checker.fail(f"{common.query_key(spec, top_k)}: "
                                 f"HTTP {status}")
                elif (spec, top_k) not in answers:
                    nodes = json.loads(body)["nodes"]
                    answers[spec, top_k] = common.answer(nodes)
                    checker.answered(common.query_key(spec, top_k), nodes)
            rss = max(rss, common.child_vm_hwm_mb(server.process.pid))
            rep = meter.take()
            rep["cold"] = [rep["setup"][0] + rep["first"][0]]
            reps.append(rep)
    finally:
        server.stop()
        shutil.rmtree(directory, ignore_errors=True)
    checker.ops(len(reps) * len(stream))
    reference = check_reference(corpus, answers, scale, checker)
    return dict(common.end_to_end(reps, rss, queries=("full", "topk"),
                                  topks=("topk",), ops=("full", "topk")),
                corpus={"documents": len(corpus.texts),
                        "nodes": reference.repository.total_nodes,
                        "xml_bytes": corpus.xml_bytes})


def trace(seed: int, scale: inputs.Scale, seconds: float,
          checker: common.Checker) -> dict:
    """Per-layer pass.  Counts (cache, shed, coalesced, bytes out) come
    from one repetition of the real subprocess; times come from the
    same request taken at four depths — HTTP client, ``ServerCore.search``,
    ``engine.search``, ``response_to_dict`` + ``json.dumps`` — against an
    in-process ``serve_http`` server with the cache off, and subtracted."""
    corpus, pool = make_inputs(seed, scale)
    layers = L.zero_layers()
    spans = common.Spans()

    # the real server: set-up layers and exact counts
    stream = requests_for(pool, scale)
    directory = common.OUT_DIR / f"serve-{os.getpid()}"
    server = Server(corpus, directory)
    bytes_out = 0
    try:
        spans.new_op()
        with spans.span("setup") as root:
            server.boot()
        L.build_layers(spans, root, corpus, SHARDS, layers)
        for spec, top_k in stream:
            status, body = server.client.search(spec, top_k)
            if not checker.expect(status == 200,
                                  f"{common.query_key(spec, top_k)}: HTTP {status}"):
                continue
            bytes_out += len(body)
        counters = server.client.counters()
    finally:
        server.stop()
        shutil.rmtree(directory, ignore_errors=True)
    hits = counters.get("gks_cache_hits_total", 0.0)
    misses = counters.get("gks_cache_misses_total", 0.0)
    layers["core.engine.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    layers["core.engine.cache_evictions"] = counters.get(
        "gks_cache_evictions_total", 0.0)
    layers["serve.core.shed"] = counters.get("gks_serve_shed_total", 0.0)
    layers["serve.core.coalesced"] = counters.get(
        "gks_serve_coalesced_total", 0.0)
    layers["serve.http.bytes_out"] = float(bytes_out)

    # the same stack in this process, cache off, one request at 4 depths
    engine = GKSEngine.open(Texts(corpus.texts),
                            EngineConfig(shards=SHARDS, cache_size=0))
    core = ServerCore(engine, ServeConfig(workers=SERVE_WORKERS))
    httpd = serve_http(core, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    local = Client(httpd.server_address[1])
    totals = L.PipelineTotals()
    wire, dispatch, engine_self, scatter, serialize, sizes = ([] for _ in
                                                              range(6))
    parse_s = []
    shards_hit = 0
    overhead = L.Overhead(spans)
    try:
        specs = oracle.sample(pool, common.scaled(64, seconds))
        for spec in specs:
            (status, body), root = overhead.both(
                "http.request", lambda: local.search(spec, False))
            served = json.loads(body)["nodes"]

            response, core_s = L.timed(core.search, spec.text, spec.s)
            in_core = spans.add("serve.core", core_s, root)
            payload, export_s = L.timed(
                lambda: json.dumps(response_to_dict(
                    response, repository=engine.repository)))
            spans.add("core.export", export_s, root)
            _, engine_s = L.timed(engine.search, spec.text, s=spec.s,
                                  use_cache=False)
            in_engine = spans.add("core.engine", engine_s, in_core)
            query, parse = L.timed(engine.parse_query, spec.text, s=spec.s)
            spans.add("core.engine.parse_query", parse, in_engine)
            _, scatter_s = L.timed(sharded_search, engine.index, query)
            in_scatter = spans.add("core.scatter", scatter_s, in_engine)
            assembled, shards_s, hit = totals.replay_shards(
                spans, in_scatter, engine.index, query)
            shards_hit += hit
            checker.expect(
                common.answer(assembled) == common.answer(served)
                == common.answer(response.nodes),
                f"{spec.text}: per-shard stage replay, ServerCore.search "
                "and the HTTP answer differ")
            wire.append(root.seconds - core_s - export_s)
            dispatch.append(core_s - engine_s)
            engine_self.append(engine_s - scatter_s - parse)
            scatter.append(scatter_s - shards_s)
            serialize.append(export_s)
            parse_s.append(parse)
            sizes.append(len(payload))
    finally:
        httpd.shutdown()
        thread.join(timeout=20)
        httpd.server_close()
        core.close()
    totals.into(layers)
    layers["serve.http.wire_ms"] = common.ms(common.median(wire))
    layers["serve.core.dispatch_ms"] = common.ms(common.median(dispatch))
    layers["core.engine.overhead_ms"] = common.ms(common.median(engine_self))
    layers["core.engine.parse_query_ms"] = common.ms(common.median(parse_s))
    layers["core.scatter.overhead_ms"] = common.ms(common.median(scatter))
    layers["core.scatter.shards_hit"] = float(shards_hit)
    layers["core.export.serialize_ms"] = common.ms(common.median(serialize))
    layers["core.export.bytes_per_response"] = common.median(sizes)
    layers["trace.coverage"] = spans.coverage()
    layers["trace.overhead"] = overhead.ratio
    checker.ops(len(stream) + len(specs))
    spans.write("serve_http", seed, scale.label)
    return {"metrics": layers,
            "corpus": {"documents": len(corpus.texts),
                       "nodes": engine.repository.total_nodes,
                       "xml_bytes": corpus.xml_bytes}}
