"""Result types returned by the GKS search engine."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.budget import DegradationReport, SearchBudget
from repro.core.query import Query
from repro.core.ranking import RankBreakdown
from repro.errors import ConfigError
from repro.obs.stats import QueryStats
from repro.xmltree.dewey import Dewey, format_dewey


@dataclass(frozen=True)
class SemanticsInfo:
    """Provenance for a non-strict query mode (``repro.semantics``).

    Attached to :class:`GKSResponse` only when the request ran in
    probabilistic mode — strict responses carry ``None`` so their wire
    shape is unchanged.
    """

    mode: str
    threshold: float | None = None

    def to_dict(self) -> dict:
        payload: dict = {"mode": self.mode}
        if self.threshold is not None:
            payload["threshold"] = self.threshold
        return payload


@dataclass(frozen=True)
class RankedNode:
    """One node of the GKS response ``RQ(s)``, ranked.

    ``probability`` is populated only in probabilistic mode (the
    possible-worlds marginal that the node exists and its subtree meets
    the ``min(s, |Q|)`` bar).  It defaults to ``None`` so strict-mode
    responses are byte-identical to their pre-semantics shape.
    """

    dewey: Dewey
    score: float
    distinct_keywords: int
    matched_keywords: tuple[str, ...]
    is_lce: bool
    estimated_keywords: int
    breakdown: RankBreakdown = field(repr=False, compare=False, default=None)
    probability: float | None = None

    @property
    def dewey_text(self) -> str:
        return format_dewey(self.dewey)

    def sort_key(self) -> tuple:
        """Descending score, then coverage, then document order."""
        return (-self.score, -self.distinct_keywords, self.dewey)

    @staticmethod
    def _build(dewey, score, evidence, is_lce, estimated_keywords, packed,
               layout) -> "RankedNode":
        """A strict-mode node without a frozen ``__setattr__`` per field;
        *evidence* is the flow kernel's terminals (``breakdown`` is built
        from them on first read) or another ranker's record."""
        node = object.__new__(RankedNode)
        fields = node.__dict__
        fields["dewey"] = dewey
        fields["score"] = score
        if type(evidence) is dict:
            fields["distinct_keywords"] = len(evidence)
            fields["matched_keywords"] = tuple(evidence)
            fields["_terminals"] = (packed, evidence, layout)
        else:
            fields["distinct_keywords"] = evidence.initial_potential
            fields["matched_keywords"] = evidence.matched_keywords
            fields["breakdown"] = evidence
        fields["is_lce"] = is_lce
        fields["estimated_keywords"] = estimated_keywords
        return node


class _KeptTerminals:
    """``RankedNode.breakdown`` built from the kept terminals on first
    read (only ``explain`` reads it), then found in the instance dict."""

    def __get__(self, node, owner=None):
        if node is None:
            return None  # the field's default, read off the class
        fields = node.__dict__
        packed, terminals, layout = fields["_terminals"]
        return fields.setdefault("breakdown", RankBreakdown.packed(
            packed, node.score, node.distinct_keywords, terminals, layout))


RankedNode.breakdown = _KeptTerminals()


@dataclass(frozen=True)
class GKSResponse:
    """Ranked GKS response for one query; built only by :func:`respond`.

    ``nodes`` is the full ranked list ``RQ(s)``; ``lce_nodes`` is the
    subset ``EQ`` of entity (LCE) nodes the DI analysis runs on.

    ``stats`` is the :class:`~repro.obs.stats.QueryStats` record of what
    the query cost: stage durations, work counters and serving context
    (cache hit, budget trip).

    ``degradation`` is set when the response was produced under an
    exhausted :class:`~repro.core.budget.SearchBudget`: ``nodes`` then
    holds the best-effort partial answer and the report says which
    pipeline stage tripped and how much of it completed.
    """

    query: Query
    nodes: tuple[RankedNode, ...]
    stats: QueryStats
    degradation: DegradationReport | None = None
    semantics: SemanticsInfo | None = None

    @property
    def degraded(self) -> bool:
        return self.degradation is not None

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __getitem__(self, position: int) -> RankedNode:
        return self.nodes[position]

    @property
    def lce_nodes(self) -> tuple[RankedNode, ...]:
        """``EQ ⊆ RQ(s)``: the LCE nodes in the response (Def 2.3.1)."""
        return tuple(node for node in self.nodes if node.is_lce)

    @property
    def deweys(self) -> list[Dewey]:
        return [node.dewey for node in self.nodes]

    def top(self, count: int) -> tuple[RankedNode, ...]:
        if count < 1:
            raise ConfigError(f"count must be positive: {count}")
        return self.nodes[:count]

    def head(self, k: int) -> "GKSResponse":
        """The top-k answer: this response cut to its ``k`` best nodes.

        The one place a response is truncated by ``k``;
        ``stats.nodes_emitted`` counts the nodes kept.
        """
        if k < 1:
            raise ConfigError(f"k must be positive: {k}")
        nodes = self.nodes[:k]
        return replace(self, nodes=nodes,
                       stats=replace(self.stats, nodes_emitted=len(nodes)))

    def max_distinct_keywords(self) -> int:
        """Table 7's "Max keywords in a GKS node" column."""
        if not self.nodes:
            return 0
        return max(node.distinct_keywords for node in self.nodes)

    def nodes_with_max_keywords(self) -> tuple[RankedNode, ...]:
        """The "true XML nodes" of the §7.3 rank-score metric."""
        best = self.max_distinct_keywords()
        return tuple(node for node in self.nodes
                     if node.distinct_keywords == best)


def respond(query: Query, nodes, budget: SearchBudget | None, root, *,
            semantics: SemanticsInfo | None = None,
            **measured) -> GKSResponse:
    """The one way every query mode answers.

    *measured* are the :class:`QueryStats` fields the caller timed and
    counted; ``nodes_emitted`` is ``len(nodes)``.  The budget's report is
    read once: a trip is stamped on the *root* span, fills the stats'
    trip fields and becomes the response's ``degradation``.
    """
    report = budget.report if budget is not None else None
    if report is not None:
        root.set(degraded=True, trip_stage=report.stage,
                 trip_reason=report.reason)
        measured.update(trip_stage=report.stage, trip_reason=report.reason)
    nodes = tuple(nodes)
    return GKSResponse(query=query, nodes=nodes,
                       stats=QueryStats(nodes_emitted=len(nodes),
                                        **measured),
                       degradation=report, semantics=semantics)
