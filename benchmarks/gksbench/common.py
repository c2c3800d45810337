"""Shared pieces: the metric catalogue, statistics, spans, checks.

The catalogue below is the single list of metric names; ``BENCHMARK.json``
repeats it (``test_gksbench.py`` asserts they agree) because the file is
what the driver reads.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT_DIR = HERE / "out"
GOLDEN_DIR = HERE / "golden"

#: ``--seconds`` the workloads' op counts are sized for
REFERENCE_SECONDS = 15
TOP_K = 10

WORKLOADS = {
    "query_inproc": "monolithic in-memory engine, cache off: only the "
                    "merge/lcp/lce/rank pipeline works, so a hot-path "
                    "change shows here and nowhere else",
    "serve_http": "a gks serve subprocess, 2 shards, Zipf requests over 4x "
                  "the LRU: wire, admission, scatter-gather, cache and JSON "
                  "carry the load; cold-pipeline gains are diluted",
    "cold_open": "load a persisted index (raw, varint-dag) then answer: "
                 "what a one-shot user of a saved index pays; codec and storage "
                 "work, serving and the write path do none",
    "ingest_mixed": "durable 2-shard store fed documents beside reads: "
                    "WAL, flush, compaction, stacked reads and crash "
                    "recovery; the only workload a write-path change moves",
}

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.2),
    ("query_p95_ms", "ms", "lower", 0.2),
    ("topk_p50_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("cold_answer_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

# name, unit, better.  A layer a workload does not exercise reports 0.
PER_LAYER = (
    ("xmltree.parser.parse_s", "s", "lower"),
    ("xmltree.parser.mb_per_s", "MB/s", "higher"),
    ("text.analyzer.analyze_s", "s", "lower"),
    ("text.analyzer.tokens", "count", "lower"),
    ("index.builder.build_s", "s", "lower"),
    ("index.builder.nodes_per_s", "1/s", "higher"),
    ("index.builder.postings", "count", "lower"),
    ("index.builder.unit_build_ms", "ms", "lower"),
    ("index.sharding.build_s", "s", "lower"),
    ("index.sharding.skew", "ratio", "lower"),
    ("index.storage.save_s.raw", "s", "lower"),
    ("index.storage.save_s.dag", "s", "lower"),
    ("index.storage.load_ms.raw", "ms", "lower"),
    ("index.storage.load_ms.dag", "ms", "lower"),
    ("index.codec.first_query_ms.raw", "ms", "lower"),
    ("index.codec.first_query_ms.dag", "ms", "lower"),
    ("index.codec.warm_query_ms.raw", "ms", "lower"),
    ("index.codec.warm_query_ms.dag", "ms", "lower"),
    ("index.codec.bytes.raw", "bytes", "lower"),
    ("index.codec.bytes.dag", "bytes", "lower"),
    ("index.codec.bytes_per_user_byte.dag", "ratio", "lower"),
    ("core.merge.self_ms", "ms", "lower"),
    ("core.merge.sl_entries", "count", "lower"),
    ("core.lcp.self_ms", "ms", "lower"),
    ("core.lcp.entries", "count", "lower"),
    ("core.lce.self_ms", "ms", "lower"),
    ("core.lce.nodes", "count", "lower"),
    ("core.ranking.self_ms", "ms", "lower"),
    ("core.ranking.nodes_ranked", "count", "lower"),
    ("core.ranking.us_per_node", "us", "lower"),
    ("core.topk.self_ms", "ms", "lower"),
    ("core.topk.ranked_share", "ratio", "lower"),
    ("core.topk.candidates", "count", "lower"),
    ("core.scatter.overhead_ms", "ms", "lower"),
    ("core.scatter.shards_hit", "count", "lower"),
    ("core.engine.overhead_ms", "ms", "lower"),
    ("core.engine.parse_query_ms", "ms", "lower"),
    ("core.engine.cache_hit_ratio", "ratio", "higher"),
    ("core.engine.cache_evictions", "count", "lower"),
    ("core.engine.add_p50_ms", "ms", "lower"),
    ("core.engine.add_stall_ms", "ms", "lower"),
    ("core.engine.add_docs_per_s", "1/s", "higher"),
    ("core.export.serialize_ms", "ms", "lower"),
    ("core.export.bytes_per_response", "bytes", "lower"),
    ("serve.core.dispatch_ms", "ms", "lower"),
    ("serve.core.shed", "count", "lower"),
    ("serve.core.coalesced", "count", "lower"),
    ("serve.http.wire_ms", "ms", "lower"),
    ("serve.http.bytes_out", "bytes", "lower"),
    ("index.wal.append_ms", "ms", "lower"),
    ("index.wal.bytes", "bytes", "lower"),
    ("index.segments.flush_ms", "ms", "lower"),
    ("index.segments.flushes", "count", "lower"),
    ("index.segments.compact_ms", "ms", "lower"),
    ("index.segments.compactions", "count", "lower"),
    ("index.segments.bytes_written_per_user_byte", "ratio", "lower"),
    ("index.segments.store_bytes_per_user_byte", "ratio", "lower"),
    ("core.durable.recover_s", "s", "lower"),
    ("core.durable.replayed_docs", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "higher"),
)

#: layer metrics in these units are exact: they must repeat run to run
#: (byte sizes only nearly do: saved indexes and response bodies carry
#: build and stage timings as text)
COUNT_UNITS = ("count",)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values, share: float, half_width: float) -> float:
    """The mean of the order statistics from rank ``share - half_width``
    to ``share + half_width``.  A sequence of distinct queries has few
    values near any one rank and wide gaps between them; one order
    statistic jumps from gap to gap with the seed, the local mean does
    not."""
    ordered = sorted(values)
    low = int((share - half_width) * len(ordered))
    high = int((share + half_width) * len(ordered))
    window = ordered[low:max(high, low + 1)]
    return float(sum(window) / len(window))


def p50(values) -> float:
    return quantile(values, 0.50, 0.10)


def p95(values) -> float:
    return quantile(values, 0.95, 0.025)


def ms(seconds: float) -> float:
    return seconds * 1000.0


def end_to_end(reps: list[dict], rss: float, *, queries, topks, ops,
               cold=("cold",)) -> dict:
    """The end-to-end metrics of one pass.  *reps* holds, per
    repetition of the workload's fixed sequence, ``Meter.take()``'s
    ``{kind: [reference seconds per call]}``; the keyword arguments name
    the kinds each metric is taken over.  A latency is first the median
    over the repetitions of one position of the sequence, then a
    quantile over the positions; the printed sample count is
    positions x repetitions."""
    def over(*kinds):
        return [median(column) for kind in kinds
                for column in zip(*(rep[kind] for rep in reps))]

    query_s, topk_s, op_s, cold_s = (over(*kinds) for kinds in
                                     (queries, topks, ops, cold))
    metrics = {
        "setup_s": (median(over("setup")), 1),
        "query_p50_ms": (ms(p50(query_s)), len(query_s)),
        "query_p95_ms": (ms(p95(query_s)), len(query_s)),
        "topk_p50_ms": (ms(p50(topk_s)), len(topk_s)),
        "ops_per_s": (len(op_s) / sum(op_s), len(op_s)),
        "cold_answer_p50_ms": (ms(median(cold_s)), len(cold_s)),
    }
    return {"metrics": dict({name: value
                             for name, (value, _) in metrics.items()},
                            peak_rss_mb=rss),
            "samples": dict({name: f"{count}x{len(reps)}"
                             for name, (_, count) in metrics.items()},
                            peak_rss_mb="1")}


def peak_rss_mb() -> float:
    """This process's high-water resident set (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_vm_hwm_mb(pid: int) -> float:
    """``VmHWM`` of another process, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def scaled(count: int, seconds: float) -> int:
    """*count* at the reference length, scaled to ``--seconds``."""
    return max(1, round(count * seconds / REFERENCE_SECONDS))


def repetitions(count: int, seconds: float) -> int:
    """How often a workload repeats its fixed sequence (on a fresh
    set-up each time): *count* at the reference length, never under 2."""
    return max(2, scaled(count, seconds))


# ----------------------------------------------------------------------
# timing at reference speed
# ----------------------------------------------------------------------
#: what one ``_kernel()`` takes on the box the benchmark was written on
#: (2 vCPUs of a shared host, Python 3.11), in its usual state
REFERENCE_KERNEL_S = 0.0004
#: kernel runs on each side of a call that set its speed factor
WINDOW = 8

_LEFT = [(0, i % 7, i // 7, i % 3) for i in range(0, 300, 2)]
_RIGHT = [(0, i % 7, i // 7, i % 5) for i in range(1, 300, 2)]


def _kernel() -> None:
    """~0.4 ms of the kind of work the program does: dict updates,
    a merge of sorted Dewey-like tuples with common-prefix lengths,
    small objects scored, grouped and sorted."""
    counts: dict[int, int] = {}
    for i in range(1000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    merged = list(heapq.merge(sorted(_LEFT), sorted(_RIGHT)))
    previous = merged[0]
    for current in merged[1:]:
        shared = 0
        for a, b in zip(previous, current):
            if a != b:
                break
            shared += 1
        counts[shared] = counts.get(shared, 0) + 1
        previous = current
    nodes = [[(0, i, i % 5), 0.0] for i in range(150)]
    groups: dict[tuple, list] = {}
    for node in nodes:
        groups.setdefault(node[0][:2], []).append(node)
        node[1] = sum(node[0]) / (1 + len(node[0]))
    nodes.sort(key=lambda node: (-node[1], node[0]))


#: the interpreter's collection thresholds, and the same with automatic
#: full collections out of reach (see ``Meter``)
_GC_POLICY = gc.get_threshold()
_YOUNG_ONLY = (_GC_POLICY[0], _GC_POLICY[1], 1 << 30)


class Meter:
    """Times calls in *reference seconds*: the wall seconds of a call
    times the speed of this machine, relative to the reference box,
    while it ran.

    The benchmark runs on a few cores of a shared host whose speed moves
    by 20-40 % from one second to the next, for all Python code alike
    (CPU time moves with wall time; it is the neighbours, not the
    scheduler).  A small fixed kernel is therefore run before every
    timed call, and every ``PERIOD`` seconds *during* a long one (from
    a timer signal; the time the kernel took is taken off the call's).
    A kernel run measures the speed at that moment:
    ``REFERENCE_KERNEL_S`` over what it took.  A call's speed is the
    mean over the runs from ``WINDOW`` before it to ``WINDOW`` after it
    (the work done in a call is the integral of the speed; a run that
    the scheduler held up counts as a speed near 0, not as an outlier).
    The kernel is the benchmark's own code and the same on both sides of
    any comparison, so a change to the program cannot move it.  Use from
    the main thread only.

    From construction on, automatic *full* garbage collections are off
    in this process (young ones stay on), except inside long calls.  A
    full collection walks the whole index — ~50 ms on the protein
    corpus, every tenth young collection, 12 in a pass of 288 queries —
    and falls on whichever call crosses an allocation count: the same
    calls in every repetition, other calls after a one-line change to
    the program.  Left on, they *are* the p95 (4 % of the calls carry
    one) and move it by 20 % for no reason.  Long calls (set-up, load,
    recovery) run under the interpreter's own policy, and the workloads
    collect before each of them.
    """

    #: seconds between kernel runs inside a long call
    PERIOD = 0.02

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self._calls: dict[str, list[tuple[float, int, int]]] = {}
        gc.set_threshold(*_YOUNG_ONLY)

    def tick(self, count: int = 1) -> None:
        for _ in range(count):
            begin = time.perf_counter()
            _kernel()
            self.ticks.append(time.perf_counter() - begin)

    def time(self, kind: str, call, *args, long: bool = False, **kwargs):
        """Run ``call(*args, **kwargs)`` as one timed call of *kind*.
        A *long* call (a set-up, a load) has no short neighbours whose
        kernel runs would do: it gets a full window on either side and
        the timer inside."""
        self.tick(WINDOW if long else 1)
        first = len(self.ticks)
        if long:
            gc.set_threshold(*_GC_POLICY)
            signal.signal(signal.SIGALRM, lambda *_: self.tick())
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        begin = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - begin
            if long:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
                gc.set_threshold(*_YOUNG_ONLY)
        inside = sum(self.ticks[first:])
        self._calls.setdefault(kind, []).append(
            (elapsed - inside, first, len(self.ticks)))
        if long:
            self.tick(WINDOW)
        return result

    def take(self) -> dict[str, list[float]]:
        """Close a repetition: ``{kind: [reference seconds per call, in
        call order]}`` of the calls since the last ``take()``."""
        self.tick(WINDOW)
        speeds = [REFERENCE_KERNEL_S / tick for tick in self.ticks]
        taken = {kind: [elapsed * statistics.fmean(
                            speeds[max(0, first - WINDOW):last + WINDOW])
                        for elapsed, first, last in calls]
                 for kind, calls in self._calls.items()}
        self._calls = {}
        return taken


# ----------------------------------------------------------------------
# spans (the benchmark's own; nothing inside the program is touched)
# ----------------------------------------------------------------------
@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """In-memory span log: name, start, end, parent, one id per op."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = 0

    def new_op(self) -> int:
        self._op += 1
        return self._op

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, self._op, parent,
                      time.perf_counter())
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, seconds: float, parent: Span) -> Span:
        """A child measured on its own (a stage replayed outside its
        parent's call) and filed under *parent*."""
        record = Span(len(self.spans), name, parent.op, parent.id,
                      parent.start, parent.start + seconds)
        self.spans.append(record)
        return record

    def self_seconds(self) -> list[float]:
        """Per span, its duration minus the part its children cover."""
        children = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                children[record.parent] += record.seconds
        return [max(0.0, record.seconds - covered)
                for record, covered in zip(self.spans, children)]

    def coverage(self) -> float:
        """Sum of layer self times over the end-to-end wall: the spans
        without a parent are the end-to-end calls, everything below
        them a layer.  ``loop.op`` spans only measure the cost of
        tracing and are left out."""
        wall = layer = 0.0
        for record, own in zip(self.spans, self.self_seconds()):
            if record.name == "loop.op":
                continue
            if record.parent is None:
                wall += record.seconds
            else:
                layer += own
        return layer / wall if wall else 0.0

    def write(self, workload: str, seed: int, scale_label: str) -> Path:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload}.json"
        origin = self.spans[0].start if self.spans else 0.0
        payload = dict(workload=workload, seed=seed, scale=scale_label,
                       spans=[
            {"id": r.id, "name": r.name, "op": r.op, "parent": r.parent,
             "start_us": round((r.start - origin) * 1e6, 1),
             "end_us": round((r.end - origin) * 1e6, 1)}
            for r in self.spans])
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def query_key(spec, top_k: bool) -> str:
    """Names one distinct (query, s, k) in golden files and messages."""
    return f"{spec.text}|s={spec.s}|k={TOP_K if top_k else 'all'}"


def dewey_text(dewey) -> str:
    return dewey if isinstance(dewey, str) else ".".join(map(str, dewey))


def answer(nodes) -> tuple[tuple[str, float], ...]:
    """The ordered ``(dewey, round(score, 6))`` list of a response —
    from ``RankedNode`` objects or from the served JSON's ``nodes``."""
    if nodes and isinstance(nodes[0], dict):
        return tuple((dewey_text(n["dewey"]), round(n["score"], 6))
                     for n in nodes)
    return tuple((dewey_text(n.dewey), round(n.score, 6)) for n in nodes)


def digest(nodes) -> str:
    text = ";".join(f"{dewey}:{score:.6f}" for dewey, score in answer(nodes))
    return f"{len(nodes)}:{hashlib.sha1(text.encode()).hexdigest()[:16]}"


@dataclass
class Checker:
    """Counts what was attempted and what failed, and holds the golden
    digests of this (workload, seed, scale) when a file is committed."""

    workload: str
    seed: int
    scale_label: str
    golden_dir: Path = GOLDEN_DIR
    record: bool = False
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    golden: dict[str, str] | None = None
    seen: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        path = self.golden_path()
        if path.exists() and not self.record:
            self.golden = json.loads(path.read_text(encoding="utf-8"))

    def golden_path(self) -> Path:
        suffix = "" if self.scale_label == "full" else f"-{self.scale_label}"
        return self.golden_dir / f"{self.workload}-seed{self.seed}{suffix}.json"

    def ops(self, count: int) -> None:
        """*count* operations completed without an error."""
        self.attempted += count

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)

    def expect(self, ok: bool, message: str) -> bool:
        if ok:
            self.attempted += 1
        else:
            self.fail(message)
        return ok

    def answered(self, key: str, nodes) -> None:
        """One distinct (state, query, k), checked against the golden
        digest the first time it is answered."""
        if key in self.seen:
            return
        value = self.seen[key] = digest(nodes)
        if self.golden is not None and key in self.golden:
            self.expect(self.golden[key] == value,
                        f"{key}: digest {value} differs from golden "
                        f"{self.golden[key]}")

    def write_golden(self) -> Path:
        self.golden_dir.mkdir(exist_ok=True)
        path = self.golden_path()
        path.write_text(json.dumps(self.seen, indent=0, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path
