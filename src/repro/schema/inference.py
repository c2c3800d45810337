"""Instance-driven schema inference.

The paper categorizes nodes at the *instance* level and notes: "GKS can
be easily extended to take into account the XML schema to categorize the
nodes.  This is part of our future work." (§2.2).  This module implements
that extension: it infers a schema summary from the data — one
:class:`ElementType` per distinct root-to-element *tag path* — recording
child multiplicities and content kinds, which is exactly the information
a DTD content model would supply.

The summary answers the questions the categorizer asks:

* can this element repeat under its parent?  (``max_occurs > 1``
  anywhere in the corpus)
* does it ever carry text / children?

Schema-level categorization (``repro.schema.categorize_by_schema``) then
classifies *types*, making node categories uniform across instances —
the behaviour the paper sketches for the DBLP single-author `<article>`
anomaly: instance-level GKS files such an article as a connecting node,
schema-level GKS recognises the type as an entity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.xmltree.node import XMLNode
from repro.xmltree.repository import Repository

TagPath = tuple[str, ...]


@dataclass
class ElementType:
    """Inferred summary of one element type (identified by its tag path)."""

    path: TagPath
    occurrences: int = 0
    #: per-child-tag (min, max) occurrences across all instances
    child_multiplicity: dict[str, tuple[int, int]] = field(
        default_factory=dict)
    has_text: bool = False
    max_children: int = 0

    @property
    def tag(self) -> str:
        return self.path[-1]

    def child_types(self) -> list[str]:
        return sorted(self.child_multiplicity)

    def is_repeatable_child(self, tag: str) -> bool:
        """True when *tag* occurs more than once under some instance."""
        bounds = self.child_multiplicity.get(tag)
        return bounds is not None and bounds[1] > 1

    def content_model(self) -> str:
        """A DTD-flavoured rendering, e.g. ``(author+, title, year?)``."""
        parts = []
        for tag in self.child_types():
            low, high = self.child_multiplicity[tag]
            if high > 1:
                suffix = "*" if low == 0 else "+"
            else:
                suffix = "?" if low == 0 else ""
            parts.append(f"{tag}{suffix}")
        if self.has_text:
            parts.append("#PCDATA" if not parts else "#MIXED")
        return f"({', '.join(parts)})" if parts else "EMPTY"


@dataclass
class Schema:
    """The inferred schema: tag path → element type."""

    types: dict[TagPath, ElementType] = field(default_factory=dict)

    def type_of(self, path: TagPath) -> ElementType | None:
        return self.types.get(tuple(path))

    def __len__(self) -> int:
        return len(self.types)

    def __iter__(self):
        return iter(self.types.values())

    def render(self) -> str:
        """Human-readable schema listing, one type per line."""
        lines = []
        for path in sorted(self.types):
            element_type = self.types[path]
            lines.append(f"{'/'.join(path)} -> "
                         f"{element_type.content_model()}  "
                         f"[{element_type.occurrences}x]")
        return "\n".join(lines)


def infer_schema(source: Repository | XMLNode | Iterable[XMLNode]) -> Schema:
    """Infer the schema of a repository (or of given root nodes)."""
    if isinstance(source, Repository):
        roots: Iterable[XMLNode] = (document.root for document in source)
    elif isinstance(source, XMLNode):
        roots = [source]
    else:
        roots = source

    schema = Schema()
    for root in roots:
        # explicit stack: schema inference must survive arbitrarily deep
        # documents
        stack: list[tuple[XMLNode, TagPath]] = [(root, (root.tag,))]
        while stack:
            node, path = stack.pop()
            _infer_node(node, path, schema)
            stack.extend((child, path + (child.tag,))
                         for child in node.children)
    return schema


def _infer_node(node: XMLNode, path: TagPath, schema: Schema) -> None:
    element_type = schema.types.get(path)
    if element_type is None:
        element_type = ElementType(path=path)
        schema.types[path] = element_type

    counts: dict[str, int] = {}
    for child in node.children:
        counts[child.tag] = counts.get(child.tag, 0) + 1

    if element_type.occurrences == 0:
        for tag, count in counts.items():
            element_type.child_multiplicity[tag] = (count, count)
    else:
        for tag in set(element_type.child_multiplicity) | set(counts):
            count = counts.get(tag, 0)
            low, high = element_type.child_multiplicity.get(tag,
                                                            (0, 0))
            if tag not in element_type.child_multiplicity:
                low = 0  # earlier instances lacked it entirely
            element_type.child_multiplicity[tag] = (min(low, count),
                                                    max(high, count))

    element_type.occurrences += 1
    element_type.has_text = element_type.has_text or node.has_text
    element_type.max_children = max(element_type.max_children,
                                    len(node.children))
