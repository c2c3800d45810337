"""Execute an expanded run table and persist one artifact dir per run.

For every :class:`~repro.exp.spec.RunSpec` the runner:

1. boots the system under test — either an in-process
   :class:`~repro.serve.core.ServerCore` over a fresh
   :class:`~repro.core.engine.GKSEngine` (``mode: "inproc"``), or a real
   ``gks serve`` subprocess reached over HTTP (``mode: "http"``);
2. scrapes the metrics exposition *before* the load (text format, the
   same bytes a Prometheus would collect);
3. drives the declared workload through the deterministic
   :class:`~repro.serve.loadgen.LoadGenerator` (closed or open loop);
4. scrapes *after*, computes the per-run
   :func:`~repro.exp.scrape.metrics_delta`;
5. runs one *probe query* with a minted request id and captures the
   correlated evidence (response stats, slow-log entry, span tree) —
   the end-to-end correlation artifact;
6. writes everything under ``<out>/runs/<run_id>/``.

Both modes scrape through the same parser, so an in-process smoke table
and a full HTTP matrix produce byte-compatible artifacts.
"""

from __future__ import annotations

import json
import os
import platform
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError, GKSError
from repro.exp.httpclient import HTTPSearchClient
from repro.exp.scrape import metrics_delta, parse_prometheus
from repro.exp.spec import ExperimentSpec, RunSpec, get_path
from repro.serve.loadgen import LoadGenerator, LoadReport, OpenLoopSchedule

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


@dataclass(frozen=True)
class RunResult:
    """One executed run: its report, metrics delta and artifact home."""

    run: RunSpec
    report: LoadReport
    delta: dict
    sample: dict
    artifact_dir: Path

    def summary(self) -> dict:
        return {
            "run_id": self.run.run_id,
            "factors": dict(self.run.factors),
            "repetition": self.run.repetition,
            **self.report.to_dict(),
        }


def _resolve_queries(load: dict) -> list[str]:
    """The query mix: explicit strings, or a ``table6[:dataset]`` ref."""
    queries = load.get("queries")
    if isinstance(queries, str):
        if queries == "table6" or queries.startswith("table6:"):
            from repro.eval.workload import TABLE6, for_dataset

            if ":" in queries:
                picked = for_dataset(queries.split(":", 1)[1])
            else:
                picked = list(TABLE6)
            if not picked:
                raise ConfigError(f"no workload queries match {queries!r}")
            return [query.text for query in picked]
        return [queries]
    if not isinstance(queries, list) or not queries:
        raise ConfigError("load.queries must be a non-empty list of "
                          "query strings (or a table6[:dataset] ref)")
    return [str(query) for query in queries]


def _drive_load(target, load: dict) -> LoadReport:
    """Run the declared workload against *target* (broker or client)."""
    generator = LoadGenerator(target)
    queries = _resolve_queries(load)
    kwargs = {}
    if "s" in load:
        kwargs["s"] = int(load["s"])
    if "k" in load:
        kwargs["k"] = int(load["k"])
    if load.get("deadline_ms") is not None:
        kwargs["deadline_s"] = float(load["deadline_ms"]) / 1000.0
    mode = load.get("mode", "closed")
    if mode == "closed":
        return generator.run_closed(
            queries,
            concurrency=int(load.get("concurrency", 4)),
            iterations=int(load.get("iterations", 5)),
            **kwargs)
    if mode == "open":
        arrival = load.get("arrival", "uniform")
        rate = float(load.get("rate_rps", 50.0))
        count = int(load.get("count", 100))
        if arrival == "poisson":
            schedule = OpenLoopSchedule.poisson(
                rate, count, queries, seed=int(load.get("seed", 0)),
                **kwargs)
        elif arrival == "uniform":
            schedule = OpenLoopSchedule.uniform(rate, count, queries,
                                                **kwargs)
        else:
            raise ConfigError(f"load.arrival must be uniform or poisson, "
                              f"got {arrival!r}")
        return generator.run_open(schedule)
    raise ConfigError(f"load.mode must be closed or open, got {mode!r}")


def _environment_stamp(spec: ExperimentSpec) -> dict:
    return {
        "experiment": spec.name,
        "mode": spec.mode,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "unix_time": time.time(),
    }


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


class ExperimentRunner:
    """Expand a spec and execute every run, persisting artifacts."""

    def __init__(self, spec: ExperimentSpec, out_dir: str | Path,
                 log=print) -> None:
        self.spec = spec
        self.out_dir = Path(out_dir)
        self._log = log if log is not None else (lambda *_: None)
        self._corpus_cache: dict[tuple, list[str]] = {}

    # ------------------------------------------------------------------
    def run(self) -> list[RunResult]:
        runs = self.spec.expand()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(self.out_dir / "spec.json", self.spec.to_dict())
        _write_json(self.out_dir / "env.json",
                    _environment_stamp(self.spec))
        results = []
        for position, run in enumerate(runs, start=1):
            self._log(f"[{position}/{len(runs)}] {run.run_id}")
            results.append(self.run_one(run))
        return results

    def run_one(self, run: RunSpec) -> RunResult:
        artifact_dir = self.out_dir / "runs" / run.run_id
        artifact_dir.mkdir(parents=True, exist_ok=True)
        if self.spec.mode == "http":
            report, before, after, sample = self._run_http(run,
                                                           artifact_dir)
        else:
            report, before, after, sample = self._run_inproc(run)
        delta = metrics_delta(before["parsed"], after["parsed"])
        _write_json(artifact_dir / "run.json", run.to_dict())
        _write_json(artifact_dir / "report.json", report.to_dict())
        (artifact_dir / "metrics_before.prom").write_text(
            before["text"], encoding="utf-8")
        (artifact_dir / "metrics_after.prom").write_text(
            after["text"], encoding="utf-8")
        _write_json(artifact_dir / "metrics_delta.json", delta)
        _write_json(artifact_dir / "sample.json", sample)
        return RunResult(run=run, report=report, delta=delta,
                         sample=sample, artifact_dir=artifact_dir)

    # ------------------------------------------------------------------
    # In-process mode
    # ------------------------------------------------------------------
    def _run_inproc(self, run: RunSpec):
        from repro.core.config import EngineConfig
        from repro.core.engine import GKSEngine
        from repro.datasets.registry import load_dataset
        from repro.obs.metrics import MetricsRegistry
        from repro.serve.config import ServeConfig
        from repro.serve.core import ServerCore

        params = run.params
        registry = MetricsRegistry()
        repository = load_dataset(
            str(get_path(params, "dataset.name", "figure2a")),
            scale=int(get_path(params, "dataset.scale", 1)),
            seed=int(get_path(params, "dataset.seed", 0)))
        engine = GKSEngine(
            repository, metrics=registry,
            config=EngineConfig(
                shards=int(get_path(params, "engine.shards", 1)),
                cache_size=int(get_path(params, "engine.cache_size", 64))))
        serve = params.get("serve", {})
        config = ServeConfig(
            workers=int(serve.get("workers", 4)),
            queue_capacity=int(serve.get("queue_capacity", 64)),
            deadline_s=(float(serve["deadline_ms"]) / 1000.0
                        if serve.get("deadline_ms") is not None else None),
            coalesce=bool(serve.get("coalesce", True)),
            trace=bool(serve.get("trace", True)))
        with ServerCore(engine, config, registry=registry) as core:
            before = _scrape_registry(registry)
            report = _drive_load(core, params.get("load", {}))
            # after-scrape precedes the probe so the delta covers
            # exactly the declared load, nothing else
            after = _scrape_registry(registry)
            sample = self._probe_inproc(core, engine, params)
        return report, before, after, sample

    def _probe_inproc(self, core, engine, params: dict) -> dict:
        """One correlated query: id in stats, slow log and span tree."""
        from repro.obs.trace import render_span_tree

        query = _resolve_queries(params.get("load", {}))[0]
        s = int(get_path(params, "load.s", 1))
        rid = core.mint_request_id()
        response = core.search(query, s, request_id=rid)
        sample = {
            "query": query,
            "request_id": rid,
            "stats": response.stats.to_dict(),
        }
        slow = [entry.render() for entry in engine.slow_queries()
                if entry.request_id == rid]
        if slow:
            sample["slow_log"] = slow
        traces = engine.recent_traces()
        for span in reversed(traces):
            if span.attributes.get("request_id") == rid:
                sample["span_tree"] = render_span_tree(span)
                break
        return sample

    # ------------------------------------------------------------------
    # Subprocess (HTTP) mode
    # ------------------------------------------------------------------
    def _corpus_files(self, params: dict) -> list[str]:
        """Materialise the dataset as XML files (cached per identity)."""
        from repro.datasets.registry import load_dataset
        from repro.xmltree.serialize import serialize_document

        name = str(get_path(params, "dataset.name", "figure2a"))
        scale = int(get_path(params, "dataset.scale", 1))
        seed = int(get_path(params, "dataset.seed", 0))
        key = (name, scale, seed)
        if key in self._corpus_cache:
            return self._corpus_cache[key]
        corpus_dir = self.out_dir / "corpus" / f"{name}-x{scale}-s{seed}"
        corpus_dir.mkdir(parents=True, exist_ok=True)
        files = []
        repository = load_dataset(name, scale=scale, seed=seed)
        for document in repository:
            path = corpus_dir / f"{name}_{document.doc_id}.xml"
            path.write_text(serialize_document(document, indent=2),
                            encoding="utf-8")
            files.append(str(path))
        self._corpus_cache[key] = files
        return files

    def _run_http(self, run: RunSpec, artifact_dir: Path):
        params = run.params
        files = self._corpus_files(params)
        serve = params.get("serve", {})
        command = [sys.executable, "-m", "repro", "serve", *files,
                   "--host", "127.0.0.1", "--port", "0",
                   "--serve-workers", str(serve.get("workers", 4)),
                   "--queue-capacity", str(serve.get("queue_capacity", 64)),
                   "--shards", str(get_path(params, "engine.shards", 1))]
        if serve.get("deadline_ms") is not None:
            command += ["--deadline-ms", str(serve["deadline_ms"])]
        if not serve.get("coalesce", True):
            command += ["--no-coalesce"]
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        try:
            base_url = self._await_listening(process)
            with HTTPSearchClient(base_url, pool=int(
                    get_path(params, "load.concurrency", 8))) as client:
                before = _scrape_client(client)
                report = _drive_load(client, params.get("load", {}))
                after = _scrape_client(client)
                sample = self._probe_http(client, params)
        finally:
            tail = self._stop_server(process)
            (artifact_dir / "server.log").write_text(tail,
                                                     encoding="utf-8")
        return report, before, after, sample

    def _await_listening(self, process, timeout_s: float = 30.0) -> str:
        """Block until the server prints its listening line."""
        deadline = time.monotonic() + timeout_s
        while True:
            if process.poll() is not None:
                output = process.stdout.read() if process.stdout else ""
                raise GKSError(f"gks serve exited before listening "
                               f"(code {process.returncode}): {output}")
            line = process.stdout.readline()
            match = _LISTENING.search(line)
            if match:
                host, port = match.group(1), match.group(2)
                return f"http://{host}:{port}"
            if time.monotonic() > deadline:
                raise GKSError("gks serve did not print its listening "
                               "line within the boot timeout")

    def _probe_http(self, client: HTTPSearchClient, params: dict) -> dict:
        query = _resolve_queries(params.get("load", {}))[0]
        s = int(get_path(params, "load.s", 1))
        rid = f"probe-{os.getpid()}"
        payload = client.search(query, s, request_id=rid)
        return {
            "query": query,
            "request_id": rid,
            "serve": payload.get("serve", {}),
        }

    def _stop_server(self, process) -> str:
        """SIGTERM → drain → collect the process's output tail."""
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            output, _ = process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            output, _ = process.communicate()
        return output or ""


def _scrape_registry(registry) -> dict:
    text = registry.render_prometheus()
    return {"text": text, "parsed": parse_prometheus(text)}


def _scrape_client(client: HTTPSearchClient) -> dict:
    text = client.metrics_text()
    return {"text": text, "parsed": parse_prometheus(text)}


def run_experiment(spec: ExperimentSpec, out_dir: str | Path,
                   log=print) -> list[RunResult]:
    """Convenience: expand *spec*, run every run, return the results."""
    return ExperimentRunner(spec, out_dir, log=log).run()
