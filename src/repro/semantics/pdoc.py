"""p-documents: the ``p:`` attribute convention → :class:`ProbTables`.

A p-document is ordinary XML whose elements may carry two reserved
attributes:

* ``p:type="IND"`` or ``p:type="MUX"`` marks the element as a
  *distributional node*;
* ``p:p="0.4"`` on a **child** of a distributional node makes that
  child uncertain — under IND it exists independently with that
  probability, under MUX the annotated siblings form one mutually
  exclusive choice whose weights are normalised to sum at most 1 (a
  weight surplus is scaled away; any deficit is the probability that
  *no* alternative is chosen).

Children without ``p:p`` (including the attribute markers themselves)
are certain.  Note the repo's default parser materialises XML
attributes as child *elements* (``attributes_as_children=True``), so
extraction looks for attribute-children tagged ``p:type`` / ``p:p``
first and falls back to ``xml_attributes`` for trees built with
``attributes_as_children=False``.  The marker elements are indexed like
any other attribute-child; that is cosmetic (the brute-force oracles
see the same trees) and documented in DESIGN.md §5.10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DeweyError, ValidationError
from repro.xmltree.dewey import Dewey, DeweyLayout, format_dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.repository import Repository

#: Reserved attribute names of the p-document convention.
TYPE_ATTR = "p:type"
PROB_ATTR = "p:p"

#: The two PrXML distributional node kinds this model supports.
DIST_KINDS = ("IND", "MUX")


@dataclass(frozen=True)
class ProbTables:
    """A corpus's compiled p-document probability tables; they belong to
    the corpus, and no index file stores them.

    ``kinds`` maps each distributional node's Dewey id to its kind;
    ``edge_p`` maps each uncertain child's Dewey id to the probability
    that it exists given its parent exists (for MUX children: the
    normalised choice weight).  Every other edge is certain.  Keys are
    global Dewey ids, so one table serves every shard of the corpus;
    :func:`extract_pdoc` validates every value.
    """

    kinds: dict[Dewey, str] = field(default_factory=dict)
    edge_p: dict[Dewey, float] = field(default_factory=dict)
    _packed: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __bool__(self) -> bool:
        return bool(self.kinds) or bool(self.edge_p)

    def packed(self, layout: DeweyLayout
               ) -> tuple[dict[int, str], dict[int, float]]:
        """``(kinds, edge_p)`` keyed by packed id under *layout*, built
        once per layout and table.  A node that does not fit *layout*
        holds no indexed node, so a search under it never reaches one."""
        view = self._packed.get(layout)
        if view is None:  # two racing searches build equal views
            view = self._packed[layout] = (_repack(self.kinds, layout),
                                           _repack(self.edge_p, layout))
        return view

    def mux_siblings(self, parent: Dewey) -> list[Dewey]:
        """The participating children of a MUX node, in document order."""
        if self.kinds.get(parent) != "MUX":
            return []
        width = len(parent) + 1
        return sorted(d for d in self.edge_p
                      if len(d) == width and d[:-1] == parent)


def _repack(table: dict, layout: DeweyLayout) -> dict:
    packed = {}
    for dewey, value in table.items():
        try:
            packed[layout.pack(dewey)] = value
        except DeweyError:
            continue
    return packed


def merge_tables(parts: "list[ProbTables]") -> ProbTables:
    """Union disjoint per-document tables into one corpus-wide table."""
    kinds: dict[Dewey, str] = {}
    edge_p: dict[Dewey, float] = {}
    for part in parts:
        kinds.update(part.kinds)
        edge_p.update(part.edge_p)
    return ProbTables(kinds=kinds, edge_p=edge_p)


def _marker(node: XMLNode, name: str) -> str | None:
    """The value of reserved attribute *name* on *node*, if present."""
    for child in node.children:
        if child.tag == name and child.has_text:
            return child.text
    value = node.xml_attributes.get(name)
    return value if isinstance(value, str) else None


def _dist_kind(node: XMLNode) -> str | None:
    raw = _marker(node, TYPE_ATTR)
    if raw is None:
        return None
    kind = raw.strip().upper()
    if kind not in DIST_KINDS:
        raise ValidationError(
            f"{TYPE_ATTR}={raw!r} at {format_dewey(node.dewey)}: expected "
            f"one of {DIST_KINDS}")
    return kind


def _edge_prob(node: XMLNode) -> float | None:
    raw = _marker(node, PROB_ATTR)
    if raw is None:
        return None
    try:
        prob = float(raw.strip())
    except ValueError as exc:
        raise ValidationError(
            f"{PROB_ATTR}={raw!r} at {format_dewey(node.dewey)} is not a "
            "number") from exc
    if not 0.0 <= prob <= 1.0:
        raise ValidationError(
            f"{PROB_ATTR}={prob!r} at {format_dewey(node.dewey)} outside "
            "[0, 1]")
    return prob


def extract_pdoc(root: XMLNode) -> ProbTables:
    """Compile one document's ``p:`` annotations into probability tables.

    Raises :class:`~repro.errors.ValidationError` on a malformed
    annotation (unknown kind, non-numeric or out-of-range probability).
    A ``p:p`` on a child whose parent carries no ``p:type`` is ignored:
    the convention requires the distributional kind to be explicit.
    """
    kinds: dict[tuple, str] = {}
    edge_p: dict[tuple, float] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        kind = _dist_kind(node)
        if kind is None:
            continue
        kinds[node.dewey] = kind
        weighted = [(child, prob) for child in node.children
                    for prob in [_edge_prob(child)] if prob is not None]
        if kind == "MUX":
            total = sum(prob for _, prob in weighted)
            scale = 1.0 / total if total > 1.0 else 1.0
            for child, prob in weighted:
                edge_p[child.dewey] = prob * scale
        else:
            for child, prob in weighted:
                edge_p[child.dewey] = prob
    return ProbTables(kinds=kinds, edge_p=edge_p)


def compile_tables(repository: Repository,
                   memo: dict | None = None) -> ProbTables:
    """Extract and union the p-document tables of every document.

    *memo* (doc id → :func:`extract_pdoc`) keeps each document's tables
    across calls, so a grown corpus extracts only its new documents.
    """
    memo = {} if memo is None else memo
    parts = []
    for document in repository:
        part = memo.get(document.doc_id)
        if part is None:
            part = memo[document.doc_id] = extract_pdoc(document.root)
        parts.append(part)
    return merge_tables(parts)
