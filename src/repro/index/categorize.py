"""GKS node categorization model (paper §2.2, Defs 2.1.1–2.1.4).

Every element node is placed in one of four categories based purely on the
structure of its own subtree (instance level — no schema needed):

* **Attribute node (AN)** — the element's only content is its text value and
  it has no same-label sibling.  "The parent node of an attribute node is
  considered the lowest ancestor for keyword(s) in its value."
* **Repeating node (RN)** — the element has at least one sibling with the
  same label (``u*``).  An element that directly contains its value *and*
  has same-label siblings is an RN, not an AN (the ``<Student>`` rule).
* **Entity node (EN)** — the lowest common ancestor of a set of attribute
  nodes and multiple instances of a repeating node, where the attribute
  nodes do not occur inside any of those repeating nodes.
* **Connecting node (CN)** — everything else.

A node can be both EN and RN (``<Course>`` in Fig. 2(a)); the category field
carries the *primary* category and :attr:`CategoryRecord.is_repeating`
preserves the RN flag, mirroring the paper's "its entry is present in both
the hash tables".

Entity-node rule, operationally (see DESIGN.md §2): ``v`` is an EN iff it has

1. a *qualifying attribute* — an AN descendant reachable from ``v`` without
   crossing a repeating node, and
2. a repeating group whose LCA ``w`` (the parent of the group) satisfies
   ``LCA(attribute, w) == v``: either ``w == v`` (the group are ``v``'s own
   children) or the attribute and the group live under different children
   of ``v``.

This reproduces all of the paper's examples: ``<Area>`` (attr ``Name``,
groups under connecting ``<Courses>``) is EN; ``<Courses>`` is CN (no
attribute); a single-author DBLP ``<article>`` is CN (§7.2).

The classifier runs in a single pass over the element stream (XML
arrives pre-order).  A node's RN status depends on *later* same-label
siblings, so each closed element leaves a summary tuple on a shared
``pending`` list, and :func:`close_element` — the one rule — classifies
and files the children when their parent closes (docs/ALGORITHMS.md
§2).  The index builder files them into its hash tables;
:func:`categorize_tree` into :class:`CategoryRecord` objects.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import replay_tree


class NodeCategory(str, Enum):
    """Primary category of an XML element (Defs 2.1.1–2.1.4)."""

    ATTRIBUTE = "AN"
    REPEATING = "RN"
    ENTITY = "EN"
    CONNECTING = "CN"


@dataclass(frozen=True, slots=True)
class CategoryRecord:
    """Categorization result for one element node."""

    dewey: Dewey
    tag: str
    category: NodeCategory
    is_repeating: bool
    child_count: int

    @property
    def is_entity(self) -> bool:
        return self.category is NodeCategory.ENTITY


# A closed element's summary flags.
_ENTITY, _ATTRIBUTE_SHAPE, _QUALIFYING, _GROUP = 1, 2, 4, 8
#: the flags of a leaf with text: attribute-shaped, and a qualifying
#: attribute for its ancestors (a leaf without text has none)
LEAF_WITH_TEXT = _ATTRIBUTE_SHAPE | _QUALIFYING

#: category codes :func:`close_element` files, indexing this tuple
AN, RN, EN, CN = range(4)
CATEGORIES = (NodeCategory.ATTRIBUTE, NodeCategory.REPEATING,
              NodeCategory.ENTITY, NodeCategory.CONNECTING)

#: ``file(tag, dewey, child_count, category_code, is_repeating)``
File = Callable[[str, Dewey, int, int, bool], None]


def close_element(pending: list, mark: int, tag: str, dewey: Dewey,
                  has_text: bool, file: File) -> None:
    """Close one element of the stream; ``pending[mark:]`` holds its
    children's summaries in document order.

    The children's sibling counts are now complete, so each is
    classified and handed to *file*; they are replaced on *pending* by
    the element's own summary.  Entity rule (module docstring): a
    qualifying attribute and a repeating group whose LCA with it is this
    element.
    """
    count = len(pending) - mark
    if not count:  # a leaf: nothing to file, nothing to relate
        pending.append((tag, dewey, 0, LEAF_WITH_TEXT if has_text else 0))
        return
    children = pending[mark:]
    del pending[mark:]
    repeats: set | tuple = ()
    if count > 1:
        tags = [child[0] for child in children]
        if len(set(tags)) < count:
            repeats = {child_tag for child_tag, seen in Counter(tags).items()
                       if seen > 1}
    # Children holding a qualifying attribute / a repeating group: how
    # many, and one of each.  A group and an attribute under *different*
    # children exist unless both counts are 1 and name the same child.
    attr_children = group_children = 0
    attr_child = group_child = -1
    own_group = False
    for ordinal, (child_tag, child, child_count, flags) in \
            enumerate(children):
        repeated = child_tag in repeats
        if flags & _ENTITY:
            file(child_tag, child, child_count, EN, repeated)
        elif repeated:
            file(child_tag, child, child_count, RN, True)
        elif flags & _ATTRIBUTE_SHAPE:
            file(child_tag, child, child_count, AN, False)
        else:
            file(child_tag, child, child_count, CN, False)
        if repeated:
            own_group = True
        elif flags & _QUALIFYING:
            # Attributes propagate upward through non-repeating children
            # only: an AN inside a repeating node describes that
            # repetition, not the ancestor's context.
            attr_children += 1
            attr_child = ordinal
        if repeated or flags & _GROUP:
            group_children += 1
            group_child = ordinal
    flags = 0
    if attr_children:
        flags = _QUALIFYING
        if own_group or (group_children and (
                attr_children > 1 or group_children > 1
                or attr_child != group_child)):
            flags |= _ENTITY
    if group_children:
        flags |= _GROUP
    pending.append((tag, dewey, count, flags))


def close_root(pending: list, file: File) -> None:
    """File the root, the stream's last summary; it has no siblings."""
    tag, dewey, child_count, flags = pending.pop()
    category = (EN if flags & _ENTITY
                else AN if flags & _ATTRIBUTE_SHAPE else CN)
    file(tag, dewey, child_count, category, False)


def categorize_tree(root: XMLNode) -> dict[Dewey, CategoryRecord]:
    """Categorize every element of a materialised tree: the tree is
    replayed as the element stream through :func:`close_element`, so
    there is exactly one categorization semantics in the library."""
    records: dict[Dewey, CategoryRecord] = {}
    pending: list = []
    marks: list[int] = []

    def file(tag, dewey, child_count, category, repeated):
        records[dewey] = CategoryRecord(dewey, tag, CATEGORIES[category],
                                        repeated, child_count)

    def start(dewey, tag):
        marks.append(len(pending))

    def end(dewey, tag, text):
        close_element(pending, marks.pop(), tag, dewey,
                      bool(text and not text.isspace()), file)

    replay_tree(root, start, end)
    close_root(pending, file)
    return records

