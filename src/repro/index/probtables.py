"""Per-node path-probability tables for p-documents (PrXML IND/MUX).

A *p-document* marks some ordinary XML elements as **distributional
nodes** via the ``p:`` attribute convention (``p:type="IND"`` or
``p:type="MUX"``); a child carrying ``p:p="0.4"`` exists in a random
instance with that probability (IND: independently of its siblings;
MUX: the siblings form one mutually-exclusive choice whose weights are
normalised to sum at most 1).  Everything the probabilistic evaluator
needs at query time compresses into two maps keyed by Dewey id:

* ``kinds``  — distributional node → ``"IND"`` | ``"MUX"``,
* ``edge_p`` — uncertain child → its (normalised) edge probability.

:class:`ProbTables` is that pair as a frozen, JSON-serialisable value —
compiled once at index time (see :mod:`repro.semantics.pdoc`) and
persisted alongside the postings by both the raw envelope and the binary
binary codec.  It lives in the index layer so the storage/codec modules
can serialise it without importing upward into ``repro.semantics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ValidationError
from repro.xmltree.dewey import Dewey, format_dewey, parse_dewey

#: The two PrXML distributional node kinds this model supports.
DIST_KINDS = ("IND", "MUX")


@dataclass(frozen=True)
class ProbTables:
    """Compiled p-document probability tables for one corpus (or shard).

    ``kinds`` maps each distributional node's Dewey id to its kind;
    ``edge_p`` maps each uncertain child's Dewey id to the probability
    that it exists given its parent exists (for MUX children: the
    normalised choice weight).  Every other edge is certain.
    """

    kinds: dict[Dewey, str] = field(default_factory=dict)
    edge_p: dict[Dewey, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for dewey, kind in self.kinds.items():
            if kind not in DIST_KINDS:
                raise ValidationError(
                    f"unknown distributional kind {kind!r} at "
                    f"{format_dewey(dewey)} (expected one of {DIST_KINDS})")
        for dewey, prob in self.edge_p.items():
            if not 0.0 <= prob <= 1.0:
                raise ValidationError(
                    f"edge probability {prob!r} at {format_dewey(dewey)} "
                    "outside [0, 1]")

    def __bool__(self) -> bool:
        return bool(self.kinds) or bool(self.edge_p)

    # -- queries --------------------------------------------------------
    def existence(self, dewey: Dewey) -> float:
        """P(node exists) = product of uncertain edges on its root path."""
        prob = 1.0
        for depth in range(2, len(dewey) + 1):
            edge = self.edge_p.get(dewey[:depth])
            if edge is not None:
                prob *= edge
        return prob

    def mux_siblings(self, parent: Dewey) -> list[Dewey]:
        """The participating children of a MUX node, in document order."""
        if self.kinds.get(parent) != "MUX":
            return []
        width = len(parent) + 1
        return sorted(d for d in self.edge_p
                      if len(d) == width and d[:-1] == parent)

    def restrict(self, doc_ids: frozenset[int] | set[int]) -> "ProbTables":
        """The tables restricted to documents in *doc_ids* (per-shard)."""
        return ProbTables(
            kinds={d: k for d, k in self.kinds.items() if d[0] in doc_ids},
            edge_p={d: p for d, p in self.edge_p.items()
                    if d[0] in doc_ids})

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "kinds": {format_dewey(d): kind
                      for d, kind in sorted(self.kinds.items())},
            "edge_p": {format_dewey(d): prob
                       for d, prob in sorted(self.edge_p.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProbTables":
        if not isinstance(payload, dict):
            raise ValidationError(
                f"probability tables must be a mapping, got "
                f"{type(payload).__name__}")
        try:
            kinds = {parse_dewey(text): str(kind)
                     for text, kind in payload.get("kinds", {}).items()}
            edge_p = {parse_dewey(text): float(prob)
                      for text, prob in payload.get("edge_p", {}).items()}
        except (TypeError, ValueError, AttributeError) as exc:
            raise ValidationError(
                f"malformed probability tables: {exc}") from exc
        return cls(kinds=kinds, edge_p=edge_p)


def merge_tables(parts: "list[ProbTables]") -> ProbTables:
    """Union disjoint per-shard tables back into one corpus-wide table."""
    kinds: dict[Dewey, str] = {}
    edge_p: dict[Dewey, float] = {}
    for part in parts:
        kinds.update(part.kinds)
        edge_p.update(part.edge_p)
    return ProbTables(kinds=kinds, edge_p=edge_p)
