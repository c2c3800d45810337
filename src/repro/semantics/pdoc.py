"""p-document extraction: the ``p:`` attribute convention → ProbTables.

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

from repro.errors import ValidationError
from repro.index.builder import GKSIndex
from repro.index.composite import CompositeIndex
from repro.index.probtables import DIST_KINDS, ProbTables, merge_tables
from repro.index.sharding import Shard, ShardedIndex
from repro.xmltree.dewey import format_dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.repository import Repository

#: Reserved attribute names of the p-document convention.
TYPE_ATTR = "p:type"
PROB_ATTR = "p:p"


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


def compile_tables(repository: Repository) -> ProbTables:
    """Extract and union the p-document tables of every document."""
    return merge_tables([extract_pdoc(document.root)
                         for document in repository])


def has_prob_tables(index: "GKSIndex | CompositeIndex") -> bool:
    """True when *index* (or any of its shards) carries non-empty tables."""
    return bool(tables_of(index))


def tables_of(index: "GKSIndex | CompositeIndex") -> ProbTables:
    """The index's probability tables, merged across shards (empty when
    the index carries none)."""
    if isinstance(index, ShardedIndex):
        return merge_tables([shard.index.probabilities
                             for shard in index.shards
                             if isinstance(shard.index.probabilities,
                                           ProbTables)])
    if isinstance(index.probabilities, ProbTables):
        return index.probabilities
    return ProbTables()


def attach_tables(index: "GKSIndex | CompositeIndex",
                  repository: Repository) -> "GKSIndex | CompositeIndex":
    """Return *index* with probability tables compiled from *repository*.

    Monolithic indexes (plain or composite) get the corpus-wide table;
    sharded indexes get each shard's restriction (documents live whole
    in one shard, so the per-shard tables partition the corpus table
    exactly).
    """
    tables = compile_tables(repository)
    if isinstance(index, ShardedIndex):
        shards = tuple(
            Shard(shard_id=shard.shard_id, doc_ids=shard.doc_ids,
                  index=shard.index.with_probabilities(
                      tables.restrict(set(shard.doc_ids))))
            for shard in index.shards)
        return ShardedIndex(shards, index.strategy, index.document_names,
                            analyzer=index.analyzer,
                            corpus_crc32=index.corpus_crc32)
    return index.with_probabilities(tables)
