"""Cooperative search budgets with graceful degradation.

The paper bounds serving cost at O(d·|SL|·log n) (§4.2), but ``|SL|`` is
data-dependent: a pathological query over a large corpus can make the merge
list — and every downstream stage — arbitrarily big.  A production endpoint
needs a way to bound a single query's cost without killing the request.

:class:`SearchBudget` is threaded through the pipeline
(``merged_list`` → ``compute_lcp_list`` → ``discover_lce`` → ranking) as
*cooperative checkpoints*: each stage polls the budget inside its hot loop
and stops early when the budget trips.  The pipeline then degrades
gracefully — it keeps whatever was discovered so far, ranks a bounded
top-k of it, and returns a partial :class:`~repro.core.results.GKSResponse`
flagged ``degraded=True`` with a :class:`DegradationReport` naming the
stage that tripped and how much of it was processed.  Nothing raises
unless the caller opts into ``strict_deadline=True`` at the engine level.

The clock is injectable so deadline tests never sleep (see
:class:`repro.testing.faults.FakeClock`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError
from repro.obs.metrics import global_registry
from repro.obs.trace import DEFAULT_CLOCK


@dataclass(frozen=True)
class DegradationReport:
    """What tripped, where, and how far the pipeline got.

    Attributes
    ----------
    stage:
        Pipeline stage that exhausted the budget: ``"merge"``, ``"lcp"``,
        ``"lce"`` or ``"rank"``.
    reason:
        Which limit tripped: ``"deadline"``, ``"max_sl"`` or
        ``"max_nodes"``.
    processed:
        Units of work the stage completed before stopping (merge: SL
        entries kept; lcp: SL positions swept; lce: LCP entries mapped;
        rank: nodes ranked).
    total:
        Units the stage would have processed unbudgeted, when known.
    elapsed_s:
        Seconds elapsed (by the budget's clock) when the trip happened.
    remaining_s:
        Deadline headroom left at the trip
        (:meth:`SearchBudget.remaining_s`); ``None`` when the budget has
        no deadline.  A ``max_sl``/``max_nodes`` trip with plenty of
        ``remaining_s`` tells the serving layer the query was
        resource-bound, not time-bound.
    """

    stage: str
    reason: str
    processed: int
    total: int | None = None
    elapsed_s: float = 0.0
    remaining_s: float | None = None

    def render(self) -> str:
        of_total = f"/{self.total}" if self.total is not None else ""
        return (f"degraded at stage {self.stage!r} ({self.reason}): "
                f"processed {self.processed}{of_total} units "
                f"in {self.elapsed_s * 1000:.1f} ms")


class SearchBudget:
    """A per-query resource envelope with cooperative checkpoints.

    Parameters
    ----------
    deadline_s:
        Wall-clock allowance for the whole pipeline; ``None`` = unlimited.
    max_sl:
        Cap on the merged list ``SL`` — the §4.1 structure every later
        stage is linear in.  A longer merge result is truncated (prefix
        kept: Dewey order is document order, so the prefix is a coherent
        leading slice of the corpus).
    max_nodes:
        Cap on the number of response nodes ranked.
    clock:
        Monotonic time source; injectable for deterministic tests.
    recovery_k:
        After an early-stage trip, at most this many already-discovered
        nodes are still ranked so the caller gets a useful partial answer.
    """

    def __init__(self, deadline_s: float | None = None,
                 max_sl: int | None = None,
                 max_nodes: int | None = None,
                 clock: Callable[[], float] | None = None,
                 recovery_k: int = 50) -> None:
        if deadline_s is not None and deadline_s < 0:
            raise ConfigError(f"deadline_s must be >= 0: {deadline_s}")
        if max_sl is not None and max_sl < 1:
            raise ConfigError(f"max_sl must be >= 1: {max_sl}")
        if max_nodes is not None and max_nodes < 1:
            raise ConfigError(f"max_nodes must be >= 1: {max_nodes}")
        self.deadline_s = deadline_s
        self.max_sl = max_sl
        self.max_nodes = max_nodes
        self.recovery_k = recovery_k
        self._clock = clock if clock is not None else DEFAULT_CLOCK
        self._started: float | None = None
        self.report: DegradationReport | None = None

    # ------------------------------------------------------------------
    def start(self) -> "SearchBudget":
        """Arm the budget for one query; resets any previous trip."""
        self.report = None
        self._started = self._clock()
        return self

    @property
    def tripped(self) -> bool:
        return self.report is not None

    def elapsed(self) -> float:
        if self._started is None:
            return 0.0
        return self._clock() - self._started

    def remaining_s(self) -> float | None:
        """Deadline headroom: ``deadline_s - elapsed()``, clamped at 0.

        ``None`` when the budget has no deadline.  This is the one place
        deadline arithmetic lives — serve admission polls it to shed
        already-expired requests before any engine work, rebased
        children derive their deadlines from it (via
        :meth:`subbudget`), and every :class:`DegradationReport` carries
        the value observed at its trip.
        """
        if self.deadline_s is None:
            return None
        return max(0.0, self.deadline_s - self.elapsed())

    def subbudget(self, *, rebase: bool = False) -> "SearchBudget":
        """A child budget policing this budget's deadline.

        With ``rebase=False`` (what the search driver hands each unit of
        a multi-unit index) the child shares this budget's clock *and*
        start time: each unit polls the **same** wall-clock deadline a
        single pipeline would — a query that would have timed out
        unsharded times out sharded at the same instant.  ``max_sl`` and
        ``max_nodes`` are deliberately *not* copied: the SL cap is
        applied globally across units, and ranking runs on the parent
        budget (see :mod:`repro.core.search`), so per-unit children only
        police the shared deadline.

        With ``rebase=True`` the child's deadline is this budget's
        :meth:`remaining_s` and it arms fresh at its own
        :meth:`start` — the shape the serving layer needs: an admission
        budget starts at arrival, and the engine call receives a rebased
        child whose deadline already has the queue wait subtracted, so
        ``engine.search``'s own ``start()`` cannot erase time the
        request spent waiting.  Resource caps *are* copied here (nothing
        downstream applies them globally).
        """
        if rebase:
            return SearchBudget(deadline_s=self.remaining_s(),
                                max_sl=self.max_sl,
                                max_nodes=self.max_nodes,
                                clock=self._clock,
                                recovery_k=self.recovery_k)
        child = SearchBudget(deadline_s=self.deadline_s,
                             clock=self._clock,
                             recovery_k=self.recovery_k)
        child._started = self._started
        return child

    def adopt(self, report: DegradationReport | None) -> None:
        """Adopt a child budget's trip as this budget's own (first wins).

        Unlike :meth:`trip` this does *not* re-record the trip metric:
        the child already counted it when it tripped.
        """
        if report is not None and self.report is None:
            self.report = report

    def trip(self, stage: str, reason: str, processed: int,
             total: int | None = None) -> None:
        """Record a degradation and count it (first trip wins).

        The checkpoints below call this; so does the search driver when
        the *global* SL admission cuts across units — the multi-unit
        counterpart of :meth:`admit_sl` — so the combined response
        reports degradation exactly like a single pipeline.
        """
        if self.report is None:  # first trip wins: it names the stage
            # one clock read for both fields: a second elapsed() call
            # would advance injected FakeClocks and skew deterministic
            # deadline tests
            elapsed = self.elapsed()
            remaining = (None if self.deadline_s is None
                         else max(0.0, self.deadline_s - elapsed))
            self.report = DegradationReport(
                stage=stage, reason=reason, processed=processed,
                total=total, elapsed_s=elapsed, remaining_s=remaining)
            global_registry().counter(
                "gks_budget_trips_total",
                help="Search budget checkpoint trips by stage and reason."
            ).inc(labels={"stage": stage, "reason": reason})

    # ------------------------------------------------------------------
    # Cooperative checkpoints (called from the pipeline's hot loops)
    # ------------------------------------------------------------------
    def checkpoint(self, stage: str, processed: int,
                   total: int | None = None) -> bool:
        """Poll the deadline; returns ``True`` when the stage must stop.

        Resource trips (``max_sl``, ``max_nodes``) shrink the work but do
        not halt the pipeline — later stages keep running over the
        truncated input.  Only a deadline trip is terminal for every
        subsequent checkpoint.
        """
        if self.report is not None and self.report.reason == "deadline":
            return True
        if self._started is None:
            self._started = self._clock()
        if (self.deadline_s is not None
                and self.elapsed() > self.deadline_s):
            self.trip(stage, "deadline", processed, total)
            return True
        return False

    def admit_sl(self, sl: list) -> list:
        """Apply the ``max_sl`` cap to a freshly merged list.

        Returns the list, truncated in place (it keeps its type); trips
        the budget when it had to cut.
        """
        if self.max_sl is not None and len(sl) > self.max_sl:
            self.trip("merge", "max_sl", self.max_sl, len(sl))
            del sl[self.max_sl:]
        return sl

    def admit_node(self, ranked_so_far: int,
                   total: int | None = None) -> bool:
        """``True`` while one more response node may be ranked."""
        if self.max_nodes is not None and ranked_so_far >= self.max_nodes:
            self.trip("rank", "max_nodes", ranked_so_far, total)
            return False
        return not self.checkpoint("rank", ranked_so_far, total)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SearchBudget(deadline_s={self.deadline_s}, "
                f"max_sl={self.max_sl}, max_nodes={self.max_nodes}, "
                f"tripped={self.tripped})")
