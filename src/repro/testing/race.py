"""Schedule-perturbing race harness: shake out atomicity violations.

The :class:`RaceHarness` drives a set of operations from several
threads while shrinking the interpreter's thread switch interval, so
context switches land *between* the bytecodes of check-then-act windows
instead of politely at call boundaries.  Determinism is the same
seeded-randomness discipline as :mod:`repro.testing.faults`: each
thread's operation sequence comes from its own ``random.Random(seed +
thread)``, so a failing schedule replays from the same seed (the OS
still chooses the interleaving, which is the point — the harness makes
bad interleavings *likely*, invariant checks make them *visible*).

Companion injectors, in the :class:`SlowEngine` delegating style:

* :class:`PreemptingEngine` — wraps an engine, yielding the GIL before
  and after every delegated call (``sys.setswitchinterval`` alone cannot
  force a switch inside C-implemented dict ops; an explicit ``sleep(0)``
  at the call boundary can).
* :class:`RacyCache` — a deliberately unsynchronized bounded cache with
  a seeded check-then-act window (the ``gap`` hook runs between the
  membership check and the insert).  The harness must catch it; the
  fixture is the positive control proving the harness can see races.
* :class:`LockOrderInversion` — two locks taken in opposite orders by
  two methods; driving each method once from its own thread records the
  ``a -> b`` and ``b -> a`` edges the
  :class:`~repro.obs.locks.LockMonitor` cycle detector must report.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ValidationError
from repro.obs.locks import LockMonitor, new_lock


@dataclass
class RaceReport:
    """What one :meth:`RaceHarness.run` observed."""

    rounds: int = 0
    operations: int = 0
    exceptions: list = field(default_factory=list)   # (op index, repr)
    violations: list = field(default_factory=list)   # invariant messages

    @property
    def ok(self) -> bool:
        return not self.exceptions and not self.violations

    def render(self) -> str:
        if self.ok:
            return (f"race harness: {self.operations} operations over "
                    f"{self.rounds} rounds, no findings")
        lines = [f"race harness: {len(self.exceptions)} exception(s), "
                 f"{len(self.violations)} invariant violation(s) in "
                 f"{self.operations} operations / {self.rounds} rounds"]
        lines.extend(f"  exception in op[{index}]: {text}"
                     for index, text in self.exceptions)
        lines.extend(f"  violation: {text}" for text in self.violations)
        return "\n".join(lines)


class RaceHarness:
    """Run *operations* concurrently under an aggressive scheduler.

    Parameters
    ----------
    threads:
        Concurrent drivers per round.
    rounds:
        Independent rounds; each round resets (via the ``reset`` hook),
        runs every thread to completion, then checks invariants.
    iterations:
        Operations each thread performs per round (chosen by its seeded
        PRNG from the operation list).
    switch_interval:
        ``sys.setswitchinterval`` value in force while driving (restored
        afterwards).  The default 1e-5 makes the interpreter consider a
        thread switch roughly every hundred bytecodes.
    seed:
        Base seed; thread *t* in round *r* uses ``seed + 1000*r + t``.
    """

    def __init__(self, threads: int = 4, rounds: int = 5,
                 iterations: int = 50, switch_interval: float = 1e-5,
                 seed: int = 0) -> None:
        if threads < 2:
            raise ValidationError(
                f"a race needs >= 2 threads: {threads}")
        if rounds < 1 or iterations < 1:
            raise ValidationError(
                f"rounds and iterations must be >= 1: "
                f"{rounds}, {iterations}")
        self.threads = threads
        self.rounds = rounds
        self.iterations = iterations
        self.switch_interval = switch_interval
        self.seed = seed

    def run(self, operations: Sequence[Callable[[random.Random], object]],
            check: Callable[[], Sequence[str] | str | None] | None = None,
            reset: Callable[[], None] | None = None) -> RaceReport:
        """Drive *operations*; collect exceptions and invariant breaks.

        Each operation is called with the driving thread's PRNG (for
        seeded argument choice).  *check* runs after every round's
        threads have joined and returns violation message(s) or a
        false-y value; *reset* runs before each round.
        """
        if not operations:
            raise ValidationError("operations must be non-empty")
        report = RaceReport()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(self.switch_interval)
        try:
            for round_no in range(self.rounds):
                if reset is not None:
                    reset()
                self._run_round(operations, round_no, report)
                if check is not None:
                    found = check()
                    if found:
                        if isinstance(found, str):
                            found = [found]
                        report.violations.extend(found)
                report.rounds += 1
        finally:
            sys.setswitchinterval(previous)
        return report

    def _run_round(self, operations, round_no: int,
                   report: RaceReport) -> None:
        barrier = threading.Barrier(self.threads)
        failures: list = []
        failures_lock = threading.Lock()
        counter = [0]

        def drive(thread_no: int) -> None:
            rng = random.Random(self.seed + 1000 * round_no + thread_no)
            barrier.wait()  # aligned start maximizes overlap
            for _ in range(self.iterations):
                index = rng.randrange(len(operations))
                try:
                    operations[index](rng)
                except Exception as exc:  # collected, not fatal
                    with failures_lock:
                        failures.append((index, repr(exc)))
                with failures_lock:
                    counter[0] += 1

        threads = [threading.Thread(target=drive, args=(n,), daemon=True,
                                    name=f"race-{round_no}-{n}")
                   for n in range(self.threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report.exceptions.extend(failures)
        report.operations += counter[0]


def preemption_gap(seconds: float = 0.0005) -> None:
    """Yield the GIL long enough for another runnable thread to enter.

    ``time.sleep`` releases the GIL even for tiny durations — this is
    the seeded "scheduler pause" injected into check-then-act windows.
    """
    time.sleep(seconds)


class PreemptingEngine:
    """Delegating engine wrapper that yields the GIL around every call.

    Same shape as :class:`repro.testing.faults.SlowEngine` but the delay
    is a scheduling yield, not simulated latency: it widens the windows
    between an engine call and the caller's next shared-state touch, so
    races in the *calling* layer (broker accounting, cache population)
    surface under the harness.
    """

    def __init__(self, engine, gap_s: float = 0.0002) -> None:
        self._engine = engine
        self._gap_s = gap_s
        self.calls = 0

    def __getattr__(self, name: str):
        value = getattr(self._engine, name)
        if not callable(value):
            return value

        def preempting(*args, **kwargs):
            self.calls += 1
            preemption_gap(self._gap_s)
            try:
                return value(*args, **kwargs)
            finally:
                preemption_gap(self._gap_s)

        return preempting


class RacyCache:
    """A bounded cache with a seeded check-then-act race (fixture).

    ``get_or_compute`` checks membership, *then* computes and inserts —
    with no lock and a deliberate preemption gap between the check and
    the act.  Two threads asking for the same absent key both compute:
    ``computes`` exceeding ``len(seen_keys)`` is the lost-update
    signature the race harness must flag.  The eviction path has the
    same window, so ``len(cache) > capacity`` is a second observable.
    """

    def __init__(self, capacity: int = 8, gap_s: float = 0.0005) -> None:
        self.capacity = capacity
        self.data: dict = {}
        self.computes = 0
        self.seen_keys: set = set()
        self._gap_s = gap_s

    def get_or_compute(self, key) -> object:
        value = self.data.get(key)
        if value is not None:
            return value
        preemption_gap(self._gap_s)      # the check-then-act window
        self.computes += 1
        self.seen_keys.add(key)
        if len(self.data) >= self.capacity:
            oldest = next(iter(self.data), None)
            preemption_gap(self._gap_s)  # widen the eviction race too
            if oldest is not None:
                self.data.pop(oldest, None)
        value = ("value", key)
        self.data[key] = value
        return value

    def violations(self) -> list[str]:
        found = []
        if self.computes > len(self.seen_keys):
            found.append(
                f"check-then-act: {self.computes} computes for "
                f"{len(self.seen_keys)} distinct keys (duplicate work "
                f"means two threads raced through the membership check)")
        if len(self.data) > self.capacity:
            found.append(
                f"capacity breach: {len(self.data)} entries > capacity "
                f"{self.capacity}")
        return found


class LockOrderInversion:
    """Two locks, two methods, opposite acquisition orders (fixture).

    ``forward`` takes ``a`` then ``b``; ``backward`` takes ``b`` then
    ``a``.  Driving each once from separate threads *sequentially*
    (never overlapping — the fixture must not actually deadlock the
    test suite) records both ordering edges, which the
    :class:`~repro.obs.locks.LockMonitor` must report as a cycle with
    both witness stacks.
    """

    def __init__(self, monitor: LockMonitor) -> None:
        self.lock_a = new_lock("fixture.a", monitor=monitor)
        self.lock_b = new_lock("fixture.b", monitor=monitor)

    def forward(self) -> None:
        with self.lock_a:
            with self.lock_b:
                pass

    def backward(self) -> None:
        with self.lock_b:
            with self.lock_a:
                pass

    def record_both_orders(self) -> None:
        """Run forward then backward on separate threads, sequentially."""
        for method in (self.forward, self.backward):
            thread = threading.Thread(target=method, daemon=True)
            thread.start()
            thread.join()


# ----------------------------------------------------------------------
# Scripted workloads (shared by ``gks race`` and the concurrency suite)
# ----------------------------------------------------------------------
def _feeder(target) -> Callable[[random.Random], None]:
    """An operation that feeds *target* (an engine or a broker) one
    fresh document per call; ``feeder.count`` is how many it fed."""
    lock = threading.Lock()

    def feed(rng: random.Random) -> None:
        with lock:
            feed.count += 1
            serial = feed.count
        target.add_document(
            f"<doc><body>race payload {serial}</body></doc>",
            name=f"race-{serial}.xml")

    feed.count = 0
    return feed


def drive_cache_workload(engine, queries: Sequence[str],
                         harness: RaceHarness) -> RaceReport:
    """Hammer the engine LRU probe/store/evict path concurrently.

    Mixed cached searches (probe + re-insert), uncached searches and
    documents fed beside them (every add publishes a new snapshot and
    clears the cache); the invariant check is the cache accounting the
    engine itself exposes (size within capacity, non-negative counters).
    """
    def search_cached(rng: random.Random) -> None:
        engine.search(rng.choice(list(queries)))

    def search_uncached(rng: random.Random) -> None:
        engine.search(rng.choice(list(queries)), use_cache=False)

    def check() -> list[str]:
        info = engine.cache_info()
        found = []
        if info["capacity"] and info["size"] > info["capacity"]:
            found.append(f"engine LRU over capacity: {info['size']} > "
                         f"{info['capacity']}")
        if min(info["hits"], info["misses"], info["evictions"]) < 0:
            found.append(f"negative cache counter: {info}")
        return found

    return harness.run([search_cached, search_cached, search_uncached,
                        _feeder(engine)], check=check)


def drive_swap_workload(core, engines: Sequence[object],
                        harness: RaceHarness,
                        queries: Sequence[str]) -> RaceReport:
    """Hot-swap engines under concurrent search traffic while the
    published engine is being fed.

    Every search must complete (on whichever snapshot it captured) and
    the broker's accounting must return to rest between rounds.
    """
    def search(rng: random.Random) -> None:
        core.search(rng.choice(list(queries)))

    def swap(rng: random.Random) -> None:
        core.swap_engine(rng.choice(list(engines)))

    def check() -> list[str]:
        snapshot = core.stats()
        found = []
        if snapshot["queued"] != 0 or snapshot["running"] != 0:
            found.append(
                f"broker accounting did not return to rest: "
                f"queued={snapshot['queued']} "
                f"running={snapshot['running']}")
        return found

    return harness.run([search, search, search, swap, _feeder(core)],
                       check=check)


def drive_durable_workload(engine, harness: RaceHarness,
                           queries: Sequence[str]) -> RaceReport:
    """Concurrent add_document / flush / search on a durable engine.

    The invariant ties the memtable to the log: every acknowledged
    append is either pending or flushed, and the repository never loses
    a document.
    """
    add = _feeder(engine)

    def flush(rng: random.Random) -> None:
        engine.flush()

    def search(rng: random.Random) -> None:
        engine.search(rng.choice(list(queries)))

    def check() -> list[str]:
        found = []
        expected = add.count
        actual = len(engine.repository) - check.baseline
        if actual != expected:
            found.append(
                f"durable corpus lost writes: {expected} acknowledged "
                f"appends, {actual} documents beyond the baseline")
        return found

    check.baseline = len(engine.repository)
    return harness.run([add, search, search, flush], check=check)
