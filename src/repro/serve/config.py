"""Serving configuration (the :class:`ServeConfig` API).

The serving layer mirrors :class:`repro.core.config.EngineConfig`'s
shape: one frozen, validated record of every tuning knob, with a
``replace`` that rejects typo'd field names at call time instead of
silently ignoring them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import checked_replace
from repro.errors import ConfigError


@dataclass(frozen=True)
class ServeConfig:
    """Every serving tuning knob in one frozen, validated record.

    Attributes
    ----------
    workers:
        Worker threads executing searches off the admission queue.
    queue_capacity:
        Bound on requests waiting for a worker.  Admission beyond it is
        load-shed with :class:`~repro.errors.Overloaded` — the broker
        never buffers unbounded backlog.
    deadline_s:
        Default per-request deadline applied when a request brings none;
        ``None`` leaves deadline-less requests unbudgeted (they then use
        the engine's own ``config.budget``, exactly like a direct call).
    coalesce:
        Whether identical in-flight requests share one engine search
        (singleflight).  Disable for timing harnesses that need every
        submission to do real work.  Finished answers are repeated by
        the engine's LRU (``EngineConfig.cache_size``) — the broker
        keeps no result cache of its own.
    trace:
        Capture a per-request span tree for every served search (the
        engine retains them in :meth:`GKSEngine.recent_traces`).
    """

    workers: int = 4
    queue_capacity: int = 64
    deadline_s: float | None = None
    coalesce: bool = True
    trace: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1: {self.workers}")
        if self.queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1: {self.queue_capacity}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError(
                f"deadline_s must be > 0: {self.deadline_s}")

    def replace(self, **overrides) -> "ServeConfig":
        """A copy with *overrides* applied (re-validated)."""
        return checked_replace(self, overrides)
