"""Labeled ordered XML tree nodes (paper §2.1).

The data model follows the paper: an XML document is a rooted labeled tree
whose nodes are XML elements; an element may *directly contain* its text
value (what the paper calls a "text node": "an XML element directly
containing its value").  Text therefore lives on the element itself and does
not consume a Dewey component — exactly as in Table 3 where the keyword
``Karen`` is posted at the Dewey id of its ``<Student>`` element.

XML attributes (``<a key="v">``) are not part of the paper's model; the
parser can either keep them in :attr:`XMLNode.xml_attributes` or materialise
them as child elements (see :mod:`repro.xmltree.parser`), which is how real
datasets such as Mondial expose attribute data to keyword search.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import ValidationError
from repro.xmltree import dewey as dw
from repro.xmltree.dewey import Dewey


class XMLNode:
    """One element of a labeled ordered XML tree.

    Parameters
    ----------
    tag:
        The element label (e.g. ``"author"``).
    dewey:
        The node's Dewey id, including the document prefix.
    text:
        Direct text content of the element, or ``None``.
    xml_attributes:
        Raw XML attributes, kept for fidelity when round-tripping documents.
    """

    __slots__ = ("tag", "dewey", "text", "children", "parent",
                 "xml_attributes")

    def __init__(self, tag: str, dewey: Dewey, text: str | None = None,
                 xml_attributes: dict[str, str] | None = None) -> None:
        self.tag = tag
        self.dewey = dewey
        self.text = text
        self.children: list[XMLNode] = []
        self.parent: XMLNode | None = None
        self.xml_attributes: dict[str, str] = xml_attributes or {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_child(self, tag: str, text: str | None = None,
                  xml_attributes: dict[str, str] | None = None) -> "XMLNode":
        """Append a new child element and return it.

        The child receives the next ordinal under this node's Dewey id.
        """
        child = XMLNode(tag, dw.child_of(self.dewey, len(self.children)),
                        text=text, xml_attributes=xml_attributes)
        child.parent = self
        self.children.append(child)
        return child

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def child_count(self) -> int:
        """Number of direct element children (the ``m`` of the ranking)."""
        return len(self.children)

    @property
    def is_leaf(self) -> bool:
        """True when the element has no child elements."""
        return not self.children

    @property
    def has_text(self) -> bool:
        """True when the element directly contains a (non-blank) value."""
        return bool(self.text and self.text.strip())

    @property
    def depth(self) -> int:
        """Depth below the document root (root is 0)."""
        return dw.depth_of(self.dewey)

    def iter_subtree(self) -> Iterator["XMLNode"]:
        """Yield this node and all descendants in document (pre-) order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_ancestors(self) -> Iterator["XMLNode"]:
        """Yield strict ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def find_first(self, tag: str) -> "XMLNode | None":
        """First descendant-or-self with the given tag, in document order."""
        for node in self.iter_subtree():
            if node.tag == tag:
                return node
        return None

    def path_from(self, ancestor: "XMLNode") -> list["XMLNode"]:
        """Nodes on the path *ancestor* → … → self, both ends included.

        Raises :class:`~repro.errors.ValidationError` when *ancestor* is
        not an ancestor-or-self.
        """
        if not dw.is_ancestor_or_self(ancestor.dewey, self.dewey):
            raise ValidationError(
                f"{dw.format_dewey(ancestor.dewey)} is not an ancestor of "
                f"{dw.format_dewey(self.dewey)}")
        chain: list[XMLNode] = [self]
        node = self
        while node.dewey != ancestor.dewey:
            assert node.parent is not None
            node = node.parent
            chain.append(node)
        chain.reverse()
        return chain

    def tag_path(self) -> list[str]:
        """Element labels from the document root down to this node."""
        labels = [node.tag for node in self.iter_ancestors()]
        labels.reverse()
        labels.append(self.tag)
        return labels

    # ------------------------------------------------------------------
    # Content queries
    # ------------------------------------------------------------------
    def subtree_text(self, separator: str = " ") -> str:
        """Concatenated text of this node's subtree, in document order."""
        chunks = [node.text for node in self.iter_subtree() if node.has_text]
        return separator.join(chunk.strip() for chunk in chunks
                              if chunk is not None)

    def same_label_sibling_count(self) -> int:
        """Number of *other* children of the parent sharing this tag.

        This is the ``u*`` test of §2.1: a node with one or more same-label
        siblings is a repeating-node candidate.
        """
        if self.parent is None:
            return 0
        return sum(1 for sibling in self.parent.children
                   if sibling.tag == self.tag) - 1

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        value = f" {self.text!r}" if self.has_text else ""
        return f"<XMLNode {self.tag} {dw.format_dewey(self.dewey)}{value}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XMLNode):
            return NotImplemented
        return self.dewey == other.dewey and self.tag == other.tag

    def __hash__(self) -> int:
        return hash(self.dewey)


def build_tree(spec: Sequence, doc: int = 0) -> XMLNode:
    """Build a tree from a nested ``(tag, text?, children?)`` spec.

    The spec format is convenient for tests and toy datasets::

        build_tree(("r", [
            ("x1", [("a", "a1"), ("b", "b1")]),
        ]))

    Each item is ``(tag,)``, ``(tag, text)``, ``(tag, children)`` or
    ``(tag, text, children)``.
    """
    tag, text, children = _unpack_spec(spec)
    root = XMLNode(tag, (doc,), text=text)
    _attach_children(root, children)
    return root


def _unpack_spec(spec: Sequence) -> tuple[str, str | None, Sequence]:
    tag = spec[0]
    text: str | None = None
    children: Sequence = ()
    for part in spec[1:]:
        if isinstance(part, str):
            text = part
        else:
            children = part
    return tag, text, children


def _attach_children(parent: XMLNode, specs: Sequence) -> None:
    for spec in specs:
        tag, text, children = _unpack_spec(spec)
        child = parent.add_child(tag, text=text)
        _attach_children(child, children)
