"""A process-wide registry of counters, gauges and histograms.

Zero dependencies: metric state is plain dicts keyed by a canonical
(sorted) label tuple, and exposition is either a JSON-able snapshot
(:meth:`MetricsRegistry.snapshot`) or Prometheus text format
(:meth:`MetricsRegistry.render_prometheus`), so a scrape endpoint or a
``--metrics-json`` dump need nothing beyond the standard library.

Every subsystem (ingestion, index build/storage, search, cache, budget)
records into :func:`global_registry` by default; tests that assert exact
values pass their own :class:`MetricsRegistry` or call
:meth:`MetricsRegistry.reset`.
"""

from __future__ import annotations

from repro.errors import ConfigError, ValidationError

#: Histogram bucket upper bounds for second-valued durations.
DEFAULT_SECONDS_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                           0.25, 0.5, 1.0, 2.5, 5.0)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str] | None) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(key), str(value))
                        for key, value in labels.items()))


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double-quote and newline are the three characters the
    format requires escaping (in that order — escaping the escapes
    first keeps the mapping reversible).
    """
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    """HELP lines escape backslash and newline (not double-quote)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    body = ",".join(f'{name}="{escape_label_value(value)}"'
                    for name, value in key)
    return "{" + body + "}"


class Counter:
    """A monotonically increasing count, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1,
            labels: dict[str, str] | None = None) -> None:
        if amount < 0:
            raise ValidationError(f"counter {self.name} cannot decrease: "
                             f"{amount}")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, labels: dict[str, str] | None = None) -> float:
        return self._values.get(_label_key(labels), 0)

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self._values.values())

    def snapshot(self) -> dict:
        return {"type": self.kind, "help": self.help,
                "values": {_format_labels(key) or "": value
                           for key, value in sorted(self._values.items())}}

    def render_prometheus(self) -> list[str]:
        lines = _header(self)
        for key, value in sorted(self._values.items()):
            lines.append(f"{self.name}{_format_labels(key)} {_number(value)}")
        if not self._values:
            lines.append(f"{self.name} 0")
        return lines


class Gauge:
    """A value that can go up and down (sizes, capacities, timestamps)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, labels: dict[str, str] | None = None) -> None:
        self._values[_label_key(labels)] = value

    def inc(self, amount: float = 1,
            labels: dict[str, str] | None = None) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1,
            labels: dict[str, str] | None = None) -> None:
        self.inc(-amount, labels=labels)

    def value(self, labels: dict[str, str] | None = None) -> float:
        return self._values.get(_label_key(labels), 0)

    def snapshot(self) -> dict:
        return {"type": self.kind, "help": self.help,
                "values": {_format_labels(key) or "": value
                           for key, value in sorted(self._values.items())}}

    def render_prometheus(self) -> list[str]:
        lines = _header(self)
        for key, value in sorted(self._values.items()):
            lines.append(f"{self.name}{_format_labels(key)} {_number(value)}")
        if not self._values:
            lines.append(f"{self.name} 0")
        return lines


class Histogram:
    """A bucketed distribution with cumulative Prometheus semantics."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS
                 ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ConfigError(f"histogram {name} buckets must be a sorted "
                             f"non-empty sequence: {buckets}")
        self.name = name
        self.help = help
        self.buckets = tuple(buckets)
        self._series: dict[LabelKey, dict] = {}

    def _slot(self, key: LabelKey) -> dict:
        slot = self._series.get(key)
        if slot is None:
            slot = {"counts": [0] * len(self.buckets), "sum": 0.0,
                    "count": 0}
            self._series[key] = slot
        return slot

    def observe(self, value: float,
                labels: dict[str, str] | None = None) -> None:
        slot = self._slot(_label_key(labels))
        slot["sum"] += value
        slot["count"] += 1
        # per-bucket (non-cumulative) counts; exposition cumulates
        for position, upper in enumerate(self.buckets):
            if value <= upper:
                slot["counts"][position] += 1
                break

    def count(self, labels: dict[str, str] | None = None) -> int:
        slot = self._series.get(_label_key(labels))
        return slot["count"] if slot else 0

    def sum(self, labels: dict[str, str] | None = None) -> float:
        slot = self._series.get(_label_key(labels))
        return slot["sum"] if slot else 0.0

    def snapshot(self) -> dict:
        values = {}
        for key, slot in sorted(self._series.items()):
            values[_format_labels(key) or ""] = {
                "count": slot["count"],
                "sum": slot["sum"],
                "buckets": {str(upper): count for upper, count
                            in zip(self.buckets, slot["counts"])},
            }
        return {"type": self.kind, "help": self.help, "values": values}

    def render_prometheus(self) -> list[str]:
        lines = _header(self)
        for key, slot in sorted(self._series.items()):
            cumulative = 0
            for upper, count in zip(self.buckets, slot["counts"]):
                cumulative += count
                label = _label_key(dict(key) | {"le": _number(upper)})
                lines.append(f"{self.name}_bucket{_format_labels(label)} "
                             f"{cumulative}")
            label = _label_key(dict(key) | {"le": "+Inf"})
            lines.append(f"{self.name}_bucket{_format_labels(label)} "
                         f"{slot['count']}")
            lines.append(f"{self.name}_sum{_format_labels(key)} "
                         f"{_number(slot['sum'])}")
            lines.append(f"{self.name}_count{_format_labels(key)} "
                         f"{slot['count']}")
        return lines


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Named metrics, created on first use, exposed as JSON or text.

    ``counter``/``gauge``/``histogram`` are idempotent getters: asking a
    second time returns the same object; asking for an existing name with
    a different metric kind raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get(self, name: str, kind: type, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ConfigError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {kind.kind}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help=help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS
                  ) -> Histogram:
        return self._get(name, Histogram, help=help, buckets=buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self):
        return iter(self._metrics.values())

    # -- exposition -----------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able {metric name: {type, help, values}} mapping."""
        return {name: metric.snapshot()
                for name, metric in sorted(self._metrics.items())}

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: list[str] = []
        for _, metric in sorted(self._metrics.items()):
            lines.extend(metric.render_prometheus())
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Forget every metric (test isolation)."""
        self._metrics.clear()


def _header(metric: Metric) -> list[str]:
    lines = []
    if metric.help:
        lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
    lines.append(f"# TYPE {metric.name} {metric.kind}")
    return lines


def _number(value: float) -> str:
    """Render ints without a trailing ``.0`` (Prometheus style)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry every subsystem records into."""
    return _GLOBAL
