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

The classifier runs in a single pass in document order (XML arrives
pre-order).  A subtlety: a node's RN status depends on *later* same-label
siblings, so a node's record is only emitted once its parent closes — still
one pass, with O(depth · fan-out) buffered state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode


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


class _Frame:
    """Per-element state while streaming in document order.

    While the element is open the frame collects its children; once it
    closes, the same object carries the element's summary (the last five
    slots) on its parent's ``pending`` list until the parent closes and
    the sibling counts that decide RN status are complete.
    """

    __slots__ = ("dewey", "tag", "child_tags", "has_text", "pending",
                 "is_entity", "is_attribute_shape", "has_qualifying_attr",
                 "has_group", "child_count")

    def __init__(self, dewey: Dewey, tag: str, has_text: bool) -> None:
        self.dewey = dewey
        self.tag = tag
        self.child_tags: dict[str, int] = {}
        self.has_text = has_text
        self.pending: list[_Frame] = []

    def finalize(self, repeated: bool) -> CategoryRecord:
        if self.is_entity:
            category = NodeCategory.ENTITY
        elif repeated:
            category = NodeCategory.REPEATING
        elif self.is_attribute_shape:
            category = NodeCategory.ATTRIBUTE
        else:
            category = NodeCategory.CONNECTING
        return CategoryRecord(self.dewey, self.tag, category, repeated,
                              self.child_count)


class StreamingCategorizer:
    """Single-pass categorizer fed with start/text/end callbacks.

    Call :meth:`start` when an element opens, :meth:`text` for character
    data (or pass ``has_text`` to :meth:`start` when it is known up
    front), :meth:`end` when it closes.  :meth:`end` returns the records
    it could finalize: the closed element's *children* (their sibling
    counts are now complete), plus — when the root closes — the root
    itself.
    """

    def __init__(self) -> None:
        self._stack: list[_Frame] = []

    @property
    def depth(self) -> int:
        return len(self._stack)

    def start(self, dewey: Dewey, tag: str, has_text: bool = False) -> None:
        if self._stack:
            child_tags = self._stack[-1].child_tags
            child_tags[tag] = child_tags.get(tag, 0) + 1
        self._stack.append(_Frame(dewey, tag, has_text))

    def text(self, content: str) -> None:
        if self._stack and content.strip():
            self._stack[-1].has_text = True

    def end(self) -> list[CategoryRecord]:
        frame = self._stack.pop()
        records = _close_frame(frame)
        if self._stack:
            self._stack[-1].pending.append(frame)
        else:
            records.append(frame.finalize(repeated=False))
        return records


def _close_frame(frame: _Frame) -> list[CategoryRecord]:
    """Finalize the closed frame's children; summarise the frame itself."""
    children = frame.pending
    frame.child_count = len(children)
    if not children:  # a leaf: nothing to finalize, nothing to relate
        frame.is_attribute_shape = frame.has_qualifying_attr = frame.has_text
        frame.is_entity = frame.has_group = False
        return []
    child_tags = frame.child_tags
    # Children holding a qualifying attribute / a repeating group: how
    # many, and one of each.  A group and an attribute under *different*
    # children exist unless both counts are 1 and name the same child.
    attr_children = group_children = 0
    attr_child = group_child = -1
    own_group = False
    records: list[CategoryRecord] = []
    for ordinal, child in enumerate(children):
        repeated = child_tags[child.tag] >= 2
        records.append(child.finalize(repeated))
        if repeated:
            own_group = True
        elif child.has_qualifying_attr:
            # Attributes propagate upward through non-repeating children
            # only: an AN inside a repeating node describes that repetition,
            # not the ancestor's context.
            attr_children += 1
            attr_child = ordinal
        if repeated or child.has_group:
            group_children += 1
            group_child = ordinal
    frame.is_attribute_shape = False
    frame.has_qualifying_attr = attr_children > 0
    frame.has_group = group_children > 0
    frame.is_entity = attr_children > 0 and (
        own_group or (group_children > 0 and (
            attr_children > 1 or group_children > 1
            or attr_child != group_child)))
    frame.pending = frame.child_tags = None  # the summary needs neither
    return records


def categorize_tree(root: XMLNode) -> dict[Dewey, CategoryRecord]:
    """Categorize every element of a materialised tree.

    Drives the same :class:`StreamingCategorizer` over the tree, so there
    is exactly one categorization semantics in the library.  Uses an
    explicit stack — document depth is not limited by Python's recursion
    limit.
    """
    categorizer = StreamingCategorizer()
    records: dict[Dewey, CategoryRecord] = {}
    stack: list[XMLNode | None] = [root]  # None closes the open element
    while stack:
        node = stack.pop()
        if node is None:
            for record in categorizer.end():
                records[record.dewey] = record
            continue
        categorizer.start(node.dewey, node.tag, node.has_text)
        stack.append(None)
        stack.extend(reversed(node.children))
    return records


def iter_categories(root: XMLNode) -> Iterator[CategoryRecord]:
    """Yield category records for a tree in document order."""
    records = categorize_tree(root)
    for node in root.iter_subtree():
        yield records[node.dewey]
