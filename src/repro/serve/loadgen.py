"""Open- and closed-loop load generation against a :class:`ServerCore`.

The distinction matters (Schroeder et al., "Open Versus Closed"): a
*closed* loop — N workers, each waiting for its response before sending
the next — can never overload the server, because offered load shrinks
as latency grows.  An *open* loop submits on a fixed arrival schedule
regardless of completions, which is how real traffic behaves and the
only way to exercise admission control: when arrival rate exceeds
capacity the queue fills and the broker must shed.

Both modes produce a :class:`LoadReport` with per-request outcomes,
latency percentiles (p50/p95/p99) and shed/coalesce/timeout counts.
Determinism: the arrival schedule is precomputed (uniform spacing),
and both the clock and the sleeper are injectable, so tests replay identical
schedules with a :class:`~repro.testing.faults.FakeClock` and no real
sleeping.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import GKSError, Overloaded, SearchTimeout, \
    ValidationError
from repro.obs.locks import new_lock
from repro.obs.trace import DEFAULT_CLOCK
from repro.serve.core import ServerCore


@dataclass(frozen=True)
class LoadRequest:
    """One scheduled arrival: when, and what to ask."""

    at_s: float
    query: str
    s: int | None = None
    k: int | None = None
    deadline_s: float | None = None


@dataclass(frozen=True)
class RequestOutcome:
    """What happened to one scheduled request.

    ``outcome`` is ``"ok"``, ``"shed"``, ``"timeout"`` or ``"error"``;
    ``latency_s`` is arrival-to-completion for accepted requests and
    0.0 for synchronous sheds.  ``attempts`` counts submissions
    including retries after 429 sheds (1 = accepted first try).
    """

    request: LoadRequest
    outcome: str
    latency_s: float = 0.0
    error: str = ""
    attempts: int = 1


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for :class:`Overloaded` sheds.

    A shed request is resubmitted up to ``attempts`` times total.  The
    wait before attempt *n+1* is the server's ``Retry-After`` hint when
    ``honor_retry_after`` is set and the shed carried one, otherwise
    ``backoff_s * multiplier**(n-1)`` (exponential).  Sleeps go through
    the generator's injectable sleeper, so tests retry in virtual time.
    """

    attempts: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0
    honor_retry_after: bool = True

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValidationError(f"attempts must be >= 1: {self.attempts}")
        if self.backoff_s < 0:
            raise ValidationError(
                f"backoff_s must be >= 0: {self.backoff_s}")
        if self.multiplier < 1.0:
            raise ValidationError(
                f"multiplier must be >= 1.0: {self.multiplier}")

    def delay_s(self, attempt: int, retry_after_s: float | None) -> float:
        """Seconds to wait after failed *attempt* (1-based)."""
        if self.honor_retry_after and retry_after_s is not None:
            return retry_after_s
        return self.backoff_s * self.multiplier ** (attempt - 1)


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (nearest-rank) of *values*; 0.0 when empty.

    ``q`` is in [0, 100].  Nearest-rank keeps the statistic an actual
    observed latency — no interpolation inventing values nobody saw.
    """
    if not 0 <= q <= 100:
        raise ValidationError(f"percentile q must be in [0, 100]: {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class LoadReport:
    """Aggregate results of one load-generation run."""

    outcomes: tuple[RequestOutcome, ...]
    duration_s: float
    mode: str = "open"

    @property
    def submitted(self) -> int:
        return len(self.outcomes)

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.outcome == "ok")

    @property
    def shed(self) -> int:
        return sum(1 for o in self.outcomes if o.outcome == "shed")

    @property
    def timeouts(self) -> int:
        return sum(1 for o in self.outcomes if o.outcome == "timeout")

    @property
    def errors(self) -> int:
        return sum(1 for o in self.outcomes if o.outcome == "error")

    @property
    def retries(self) -> int:
        """Resubmissions beyond each request's first attempt."""
        return sum(o.attempts - 1 for o in self.outcomes)

    @property
    def throughput_rps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s

    def latencies(self) -> list[float]:
        """Latencies of completed requests only, in submission order."""
        return [o.latency_s for o in self.outcomes if o.outcome == "ok"]

    def latency_percentiles(self) -> dict[str, float]:
        observed = self.latencies()
        return {"p50": percentile(observed, 50),
                "p95": percentile(observed, 95),
                "p99": percentile(observed, 99)}

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "duration_s": self.duration_s,
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "retries": self.retries,
            "throughput_rps": self.throughput_rps,
            "latency_s": self.latency_percentiles(),
        }

    def render(self) -> str:
        pct = self.latency_percentiles()
        return (f"{self.mode}-loop: {self.completed}/{self.submitted} ok, "
                f"{self.shed} shed, {self.timeouts} timeout, "
                f"{self.errors} error, {self.retries} retries | "
                f"{self.throughput_rps:.1f} rps | "
                f"p50 {pct['p50'] * 1000:.1f}ms "
                f"p95 {pct['p95'] * 1000:.1f}ms "
                f"p99 {pct['p99'] * 1000:.1f}ms")


@dataclass(frozen=True)
class OpenLoopSchedule:
    """A deterministic, precomputed arrival schedule."""

    requests: tuple[LoadRequest, ...] = ()

    @classmethod
    def uniform(cls, rate_rps: float, count: int, queries: Sequence[str],
                **request_kwargs) -> "OpenLoopSchedule":
        """*count* arrivals at exactly ``1/rate_rps`` spacing.

        Queries are taken round-robin from *queries*; extra keyword
        arguments (``s``, ``k``, ``deadline_s``) apply to every request.
        """
        if rate_rps <= 0:
            raise ValidationError(f"rate_rps must be > 0: {rate_rps}")
        if count < 1:
            raise ValidationError(f"count must be >= 1: {count}")
        if not queries:
            raise ValidationError("queries must be non-empty")
        gap = 1.0 / rate_rps
        return cls(tuple(
            LoadRequest(at_s=i * gap, query=queries[i % len(queries)],
                        **request_kwargs)
            for i in range(count)))

    @property
    def duration_s(self) -> float:
        return self.requests[-1].at_s if self.requests else 0.0


class LoadGenerator:
    """Drives a :class:`ServerCore` in open- or closed-loop mode.

    The clock and sleeper are injectable: benchmarks use the real ones,
    deterministic tests pass a :class:`~repro.testing.faults.FakeClock`
    and ``sleeper=fake.advance`` so "waiting" advances virtual time
    instantly.
    """

    def __init__(self, core: ServerCore,
                 clock: Callable[[], float] | None = None,
                 sleeper: Callable[[float], None] | None = None,
                 retry: RetryPolicy | None = None) -> None:
        self.core = core
        self._clock = clock if clock is not None else DEFAULT_CLOCK
        if sleeper is None:
            import time

            sleeper = time.sleep
        self._sleep = sleeper
        self._retry = retry

    def _submit_with_retry(self, request: LoadRequest
                           ) -> tuple[object | None, int, str]:
        """Submit *request*, retrying sheds per the retry policy.

        Returns ``(future, attempts, "")`` on admission or
        ``(None, attempts, shed_reason)`` once the attempts are spent.
        Backoff sleeps run inline through the injected sleeper — an open
        loop's later arrivals shift accordingly, exactly as a real
        retrying client would shift them.
        """
        max_attempts = self._retry.attempts if self._retry else 1
        attempt = 0
        while True:
            attempt += 1
            try:
                future = self.core.submit(
                    request.query, request.s, k=request.k,
                    deadline_s=request.deadline_s)
            except Overloaded as exc:
                if attempt >= max_attempts:
                    return None, attempt, exc.reason
                self._sleep(self._retry.delay_s(attempt, exc.retry_after_s))
            else:
                return future, attempt, ""

    # ------------------------------------------------------------------
    def run_open(self, schedule: OpenLoopSchedule) -> LoadReport:
        """Submit on the schedule regardless of completions.

        Sheds are recorded synchronously.  Accepted requests stamp their
        completion time from a done-callback (on the resolving worker's
        thread) so the recorded latency is submit-to-completion, not
        submit-to-whenever-the-generator-got-around-to-gathering.
        """
        started = self._clock()
        completions: dict[int, float] = {}
        stamp_lock = new_lock("loadgen.stamp")  # guards: completions

        def stamp(future) -> None:
            now = self._clock()
            with stamp_lock:
                completions[id(future)] = now

        slots: list = []  # RequestOutcome (shed) | (request, future, t0)
        for request in schedule.requests:
            now = self._clock()
            delay = request.at_s - (now - started)
            if delay > 0:
                self._sleep(delay)
            submitted_at = self._clock()
            future, attempts, shed_reason = self._submit_with_retry(request)
            if future is None:
                slots.append(RequestOutcome(
                    request, "shed", error=shed_reason, attempts=attempts))
            else:
                future.add_done_callback(stamp)
                slots.append((request, future, submitted_at, attempts))
        resolved = []
        for slot in slots:
            if isinstance(slot, RequestOutcome):
                resolved.append(slot)
                continue
            request, future, submitted_at, attempts = slot
            outcome = self._gather(request, future, attempts=attempts)
            if outcome.outcome == "ok":
                with stamp_lock:
                    completed_at = completions[id(future)]
                outcome = RequestOutcome(
                    request, "ok", latency_s=completed_at - submitted_at,
                    attempts=attempts)
            resolved.append(outcome)
        finished = self._clock()
        return LoadReport(outcomes=tuple(resolved),
                          duration_s=finished - started, mode="open")

    def run_closed(self, queries: Sequence[str], concurrency: int,
                   iterations: int, **request_kwargs) -> LoadReport:
        """N workers, each issuing *iterations* blocking searches."""
        if concurrency < 1:
            raise ValidationError(
                f"concurrency must be >= 1: {concurrency}")
        if iterations < 1:
            raise ValidationError(f"iterations must be >= 1: {iterations}")
        if not queries:
            raise ValidationError("queries must be non-empty")
        per_worker: list[list[RequestOutcome]] = \
            [[] for _ in range(concurrency)]

        def loop(worker: int) -> None:
            for i in range(iterations):
                query = queries[(worker + i) % len(queries)]
                request = LoadRequest(at_s=0.0, query=query,
                                      **request_kwargs)
                t0 = self._clock()
                future, attempts, shed_reason = \
                    self._submit_with_retry(request)
                if future is None:
                    per_worker[worker].append(RequestOutcome(
                        request, "shed", error=shed_reason,
                        attempts=attempts))
                    continue
                per_worker[worker].append(
                    self._gather(request, future, started_s=t0,
                                 attempts=attempts))

        started = self._clock()
        threads = [threading.Thread(target=loop, args=(n,), daemon=True)
                   for n in range(concurrency)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        finished = self._clock()
        flattened = [outcome for worker in per_worker for outcome in worker]
        return LoadReport(outcomes=tuple(flattened),
                          duration_s=finished - started, mode="closed")

    # ------------------------------------------------------------------
    def _gather(self, request: LoadRequest, future,
                started_s: float | None = None,
                attempts: int = 1) -> RequestOutcome:
        try:
            future.result()
        except SearchTimeout as exc:
            return RequestOutcome(request, "timeout", error=str(exc),
                                  attempts=attempts)
        except Overloaded as exc:
            # an async shed (e.g. an HTTP client surfacing a 429 through
            # its future) is still a shed, not a generic error
            return RequestOutcome(request, "shed", error=exc.reason,
                                  attempts=attempts)
        except GKSError as exc:
            return RequestOutcome(request, "error", error=str(exc),
                                  attempts=attempts)
        latency = (self._clock() - started_s) if started_s is not None \
            else 0.0
        return RequestOutcome(request, "ok", latency_s=latency,
                              attempts=attempts)
