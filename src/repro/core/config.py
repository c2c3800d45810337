"""Unified engine configuration (the `EngineConfig` API).

:class:`EngineConfig` is the one frozen record of every tuning knob —
analysis, search defaults, caching, budgeting, ingestion recovery,
sharding and index persistence — and :meth:`GKSEngine.open` is the one
factory that consumes it::

    from repro import EngineConfig, GKSEngine

    config = EngineConfig(s=2, shards=4, store_path="corpus.store")
    engine = GKSEngine.open(["a.xml", "b.xml"], config=config)

``open`` accepts a :class:`~repro.xmltree.repository.Repository`, a
single XML text or corpus path, or an iterable of either; wrap the
iterable in :class:`Texts` / :class:`Paths` to skip sniffing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

from repro.core.budget import SearchBudget
from repro.core.query import Query
from repro.errors import ConfigError, ValidationError
from repro.text.analyzer import DEFAULT_ANALYZER, Analyzer
from repro.xmltree.parser import RecoveryPolicy


class Texts(tuple):
    """Marks an iterable of raw XML strings for :meth:`GKSEngine.open`."""

    def __new__(cls, items=()):
        return super().__new__(cls, tuple(items))


class Paths(tuple):
    """Marks an iterable of corpus file paths for :meth:`GKSEngine.open`."""

    def __new__(cls, items=()):
        return super().__new__(cls, tuple(items))


def checked_replace(record, overrides: dict):
    """A copy of the frozen config *record* with *overrides* applied
    (re-validated by its ``__post_init__``); a name that is not one of
    its fields raises :class:`ConfigError` instead of being ignored."""
    unknown = set(overrides) - {f.name for f in fields(record)}
    if unknown:
        raise ConfigError(f"unknown {type(record).__name__} field(s): "
                          f"{sorted(unknown)}")
    return replace(record, **overrides)


def _default_ranker() -> Callable:
    from repro.core.ranking import rank_node

    return rank_node


#: Query semantics modes (the ``repro.semantics`` subsystem): strict
#: ``min(s,|Q|)`` containment, or probabilistic p-document evaluation.
MODES = ("strict", "probabilistic")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ConfigError(
            f"unknown query mode {mode!r}; expected one of {MODES}")


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(
            f"probability threshold must be in [0, 1]: {threshold}")


_WIRE_FLAGS = {True: True, "true": True, "1": True,
               False: False, "false": False, "0": False}

#: What a wire value may be: kind -> (accepted types, parser).  Values
#: arrive JSON-typed (a request body) or as strings (a query string), so
#: each kind admits the type itself or its string spelling and nothing
#: else — ``1.9`` is not an integer, ``"yes"`` is not a flag, JSON
#: ``null`` / lists / objects are never a value.  ``bool`` is an ``int``
#: to Python but not on the wire: only a flag may be one.
_WIRE_KINDS = {
    "an integer": ((int, str), int),
    "a number": ((int, float, str), float),
    "true or false": ((bool, str), _WIRE_FLAGS.__getitem__),
    "a string": ((str,), str),
}

#: Wire name -> kind (the dataclass fields plus ``deadline_ms``).
_WIRE_FIELDS = {
    "s": "an integer",
    "k": "an integer",
    "use_cache": "true or false",
    "strict_deadline": "true or false",
    "deadline_s": "a number",
    "deadline_ms": "a number",
    "mode": "a string",
    "threshold": "a number",
}


def _wire_value(name: str, value):
    kind = _WIRE_FIELDS[name]
    types, parse = _WIRE_KINDS[kind]
    if isinstance(value, types) and (
            not isinstance(value, bool) or kind == "true or false"):
        try:
            return parse(value)
        except (ValueError, OverflowError, KeyError):
            pass
    # the value is echoed bounded: it may be a hostile 64 KB string
    raise ValidationError(
        f"search option {name!r} must be {kind}: {value!r:.40}")


@dataclass(frozen=True)
class SearchOptions:
    """Per-request tuning knobs, one frozen record for every surface.

    ``GKSEngine.search`` / ``search_top_k``, ``ServerCore.submit`` and
    the HTTP envelope all accept the same record and hand it, untouched,
    to :func:`resolve_request` — the one place its fields are read — so
    a request's tuning means the same thing at the wire, the broker and
    the engine.  Every field is optional; ``None`` means "use the
    caller's default" (an explicit keyword argument beats the option,
    the option beats the engine / broker configuration).

    Attributes
    ----------
    s:
        Search threshold (``RQ(s)``).
    k:
        Top-k truncation; ``None`` returns the full result.
    use_cache:
        Whether the engine response cache may serve / store this query.
    strict_deadline:
        Raise :class:`~repro.errors.SearchTimeout` on a deadline trip
        instead of returning a degraded partial response.
    deadline_s:
        Wall-clock allowance for the request, in seconds (finite).  The
        budget built from it keeps the operator's ``max_sl`` /
        ``max_nodes`` caps from ``EngineConfig.budget``.
    mode:
        Query semantics for this request: ``"strict"`` or
        ``"probabilistic"``; ``None`` uses the engine's
        ``EngineConfig.mode``.  Any engine serves every mode: the first
        probabilistic request of a serving generation compiles the
        corpus's probability tables.
    threshold:
        Probabilistic-mode result filter: only nodes whose
        possible-worlds probability is ≥ this value are returned.
    """

    s: int | None = None
    k: int | None = None
    use_cache: bool | None = None
    strict_deadline: bool | None = None
    deadline_s: float | None = None
    mode: str | None = None
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.s is not None and self.s < 1:
            raise ConfigError(f"s must be >= 1: {self.s}")
        if self.k is not None and self.k < 1:
            raise ConfigError(f"k must be >= 1: {self.k}")
        # written as a chain so NaN (which fails every comparison) and
        # infinity are rejected along with negatives
        if (self.deadline_s is not None
                and not 0 <= self.deadline_s < math.inf):
            raise ConfigError(
                f"deadline_s must be finite and >= 0: {self.deadline_s}")
        if self.mode is not None:
            _check_mode(self.mode)
        if self.threshold is not None:
            _check_threshold(self.threshold)

    @classmethod
    def from_mapping(cls, raw: dict) -> "SearchOptions":
        """Build options from a wire mapping — the one site where wire
        values are validated.

        Accepts the dataclass field names plus ``deadline_ms`` (the wire
        spelling, which wins over ``deadline_s``).  Values are checked,
        not coerced (see ``_WIRE_KINDS``); unknown keys, wrongly typed
        and out-of-range values raise
        :class:`~repro.errors.ValidationError`, so a typo'd option is a
        client error, not a silently ignored one.
        """
        if not isinstance(raw, dict):
            raise ValidationError("options must be a JSON object")
        unknown = set(raw) - set(_WIRE_FIELDS)
        if unknown:
            raise ValidationError(
                f"unknown search option(s): {sorted(unknown)}")
        values = {name: _wire_value(name, value)
                  for name, value in raw.items()}
        if "deadline_ms" in values:
            values["deadline_s"] = values.pop("deadline_ms") / 1000.0
        try:
            return cls(**values)
        except ConfigError as exc:
            raise ValidationError(str(exc)) from exc

    def replace(self, **overrides) -> "SearchOptions":
        """A copy with *overrides* applied (re-validated)."""
        return checked_replace(self, overrides)


@dataclass(frozen=True)
class EngineConfig:
    """Every engine tuning knob in one frozen, validated record.

    Attributes
    ----------
    analyzer:
        Text-normalisation pipeline shared by indexing and querying.
    s:
        Default search threshold (``RQ(s)``) when a query names none.
    ranker:
        Default ranking function for :meth:`GKSEngine.search`.
    index_tags:
        Whether element names are indexed alongside text keywords.
    cache_size:
        Capacity of the LRU response cache (0 disables it).
    budget:
        Default :class:`~repro.core.budget.SearchBudget` applied to
        every search that does not bring its own (budgeted responses
        bypass the cache).
    recovery:
        Ingestion :class:`~repro.xmltree.parser.RecoveryPolicy` for
        text/path sources.
    shards:
        Number of document shards; 1 keeps the classic monolithic
        index, >1 builds a :class:`~repro.index.sharding.ShardedIndex`
        served scatter-gather.
    shard_strategy:
        ``"round_robin"`` (by document number) or ``"hash"`` (by
        document name).
    store_path:
        Optional segmented-store directory.  When set, the engine's
        write path becomes durable there: every
        ``add_document`` is write-ahead logged before it is applied, the
        memtable flushes to immutable segments, and ``open`` recovers
        the exact index after a crash at any byte offset.
    memtable_docs:
        Memtable flush threshold — once this many added documents are
        pending, their one-document units are merged into one run per
        shard (written as a new on-disk segment when ``store_path`` is
        set; governs store-less engines too).
    compact_segments:
        Auto-compaction threshold — after a flush, any shard whose
        newest *size tier* holds this many runs has that tier merged
        into one run (replacing those segments on disk when
        ``store_path`` is set).  The tier is the newest two runs of the
        shard's chain, grown backwards while the next older run has no
        more nodes than the tier holds, so a heavy base or earlier
        merge is not rewritten until the newer runs outweigh it.
        An explicit ``GKSEngine.compact()`` still merges every chain
        down to one run.
    codec:
        On-disk representation of the index files written under this
        config — the segments of a ``store_path`` store and a
        ``gks index -o`` file: ``"raw"`` (the JSON envelope formats,
        eager loading) or ``"varint-dag"`` (the binary codec —
        delta+varint posting blocks, DAG-shared subtrees, lazy
        mmap-backed loading).  Either codec opens files written by the
        other and a store may hold segments of both; the codec only
        selects what *new* saves write.
    mode:
        Default query semantics (``repro.semantics``): ``"strict"``
        (the classic pipeline) or ``"probabilistic"`` (p-document
        evaluation — the ``p:`` annotations are compiled into
        probability tables from the corpus, not stored in the index).
        Per-request ``SearchOptions.mode`` overrides it; it
        changes nothing that is built or saved.
    threshold:
        Default probabilistic-mode probability filter in [0, 1].
    """

    analyzer: Analyzer = DEFAULT_ANALYZER
    s: int = 1
    ranker: Callable = field(default_factory=_default_ranker)
    index_tags: bool = True
    cache_size: int = 64
    budget: SearchBudget | None = None
    recovery: RecoveryPolicy | str = RecoveryPolicy.STRICT
    shards: int = 1
    shard_strategy: str = "round_robin"
    store_path: str | Path | None = None
    memtable_docs: int = 64
    compact_segments: int = 4
    codec: str = "raw"
    mode: str = "strict"
    threshold: float = 0.0

    def __post_init__(self) -> None:
        from repro.index.sharding import PARTITION_STRATEGIES

        if self.s < 1:
            raise ConfigError(f"s must be >= 1: {self.s}")
        if self.cache_size < 0:
            raise ConfigError(
                f"cache_size must be >= 0: {self.cache_size}")
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1: {self.shards}")
        if self.shard_strategy not in PARTITION_STRATEGIES:
            raise ConfigError(
                f"unknown shard strategy {self.shard_strategy!r}; "
                f"expected one of {PARTITION_STRATEGIES}")
        if not callable(self.ranker):
            raise ConfigError(f"ranker must be callable: {self.ranker!r}")
        if self.memtable_docs < 1:
            raise ConfigError(
                f"memtable_docs must be >= 1: {self.memtable_docs}")
        if self.compact_segments < 2:
            raise ConfigError(
                f"compact_segments must be >= 2: {self.compact_segments}")
        from repro.index.codec import CODEC_NAMES

        if self.codec not in CODEC_NAMES:
            raise ConfigError(
                f"unknown codec {self.codec!r}; "
                f"expected one of {CODEC_NAMES}")
        _check_mode(self.mode)
        _check_threshold(self.threshold)
        # normalise early so a typo'd policy fails at config time, not
        # at first ingest
        object.__setattr__(self, "recovery",
                           _coerce_policy(self.recovery))

    def replace(self, **overrides) -> "EngineConfig":
        """A copy with *overrides* applied (re-validated)."""
        return checked_replace(self, overrides)


class SearchRequest(NamedTuple):
    """One search request after :func:`resolve_request`: nothing left to
    default, nothing left to look up in a :class:`SearchOptions`."""

    query: Query
    k: int | None
    ranker: Callable
    use_cache: bool
    strict_deadline: bool
    #: the budget the pipeline runs under (``None`` = unbounded)
    budget: SearchBudget | None
    #: the request's own deadline, ``None`` when ``budget`` is the
    #: caller's or the operator's — what the broker arms at admission
    deadline_s: float | None
    mode: str
    threshold: float
    #: the request names no budget, deadline or engine-side knob, so its
    #: response depends on ``(keywords, s, ranker, k)`` alone and
    #: identical requests may share one
    shareable: bool


def resolve_request(config: EngineConfig, query: str | Query,
                    options: SearchOptions | None = None, *,
                    s: int | None = None,
                    k: int | None = None,
                    ranker: Callable | None = None,
                    use_cache: bool | None = None,
                    strict_deadline: bool | None = None,
                    budget: SearchBudget | None = None,
                    deadline_s: float | None = None,
                    mode: str | None = None,
                    threshold: float | None = None,
                    default_deadline_s: float | None = None,
                    clock: Callable[[], float] | None = None
                    ) -> SearchRequest:
    """Resolve one search request against *config* — once, here.

    The precedence rule, for every field: **explicit argument >
    ``options`` field > configuration** (*default_deadline_s*, the
    broker's ``ServeConfig.deadline_s``, then the engine's *config*).
    ``GKSEngine.search`` / ``search_top_k`` and ``ServerCore.submit``
    all call this function and read no :class:`SearchOptions` field
    themselves, so a record means the same thing at every layer.

    A deadline becomes a :class:`SearchBudget` here and nowhere else
    (on *clock* when the broker brings its own), and that budget keeps
    the operator's ``max_sl`` / ``max_nodes`` caps from
    ``config.budget``: asking for a deadline must not lift a resource
    cap.  An explicit *budget* wins over any deadline.
    """
    if options is not None:
        if s is None:
            s = options.s
        if k is None:
            k = options.k
        if use_cache is None:
            use_cache = options.use_cache
        if strict_deadline is None:
            strict_deadline = options.strict_deadline
        if deadline_s is None:
            deadline_s = options.deadline_s
        if mode is None:
            mode = options.mode
        if threshold is None:
            threshold = options.threshold
    if mode is not None:
        _check_mode(mode)
    if threshold is not None:
        _check_threshold(threshold)
    if deadline_s is None:
        deadline_s = default_deadline_s
    shareable = (budget is None and deadline_s is None
                 and use_cache is None and strict_deadline is None
                 and mode is None and threshold is None)
    if budget is not None:
        deadline_s = None
    elif deadline_s is not None:
        caps = config.budget
        # a deadline already in the past (the broker sheds those) is a
        # spent budget, not a configuration error
        budget = SearchBudget(
            deadline_s=max(0.0, deadline_s),
            max_sl=caps.max_sl if caps is not None else None,
            max_nodes=caps.max_nodes if caps is not None else None,
            clock=clock)
    else:
        budget = config.budget
    if isinstance(query, str):
        query = Query.parse(query, s=s if s is not None else config.s,
                            analyzer=config.analyzer)
    elif s is not None:
        query = query.with_s(s)
    return SearchRequest(
        query=query, k=k,
        ranker=ranker if ranker is not None else config.ranker,
        use_cache=use_cache if use_cache is not None else True,
        strict_deadline=bool(strict_deadline),
        budget=budget, deadline_s=deadline_s,
        mode=mode if mode is not None else config.mode,
        threshold=threshold if threshold is not None else config.threshold,
        shareable=shareable)


def _coerce_policy(policy: RecoveryPolicy | str) -> RecoveryPolicy:
    try:
        return RecoveryPolicy.coerce(policy)
    except Exception as exc:
        raise ConfigError(
            f"invalid recovery policy {policy!r}: {exc}") from exc
