"""XML document wrapper: a rooted tree plus document-level metadata."""

from __future__ import annotations

from typing import Iterator

from repro.errors import ValidationError
from repro.obs.locks import new_lock
from repro.obs.metrics import global_registry
from repro.xmltree import dewey as dw
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode


class XMLDocument:
    """One XML document: a rooted labeled tree with a document number.

    The document number is the first component of every Dewey id in the tree
    (paper §2.4: "Dewey id for each node has been appended with the document
    id"), which is what lets a single index span a multi-file repository.

    A document an open or ``add_document`` read is *text-backed*
    (``root=None`` plus its *text*, proved well-formed by the scan that
    indexed or checked it): search reads only the index, so the tree is
    parsed on the first read of :attr:`root`, and the text dropped.
    """

    def __init__(self, root: XMLNode | None, name: str | None = None, *,
                 text: str | None = None, doc_id: int = 0,
                 attributes_as_children: bool = True) -> None:
        if root is None:
            self._text = text
            self._attributes_as_children = attributes_as_children
            # guards: _root, _text
            self._build_lock = new_lock("xmltree.document")
        elif len(root.dewey) != 1:
            raise ValidationError(
                f"document root must have a one-component Dewey id, got "
                f"{dw.format_dewey(root.dewey)}")
        else:
            doc_id = root.dewey[0]
        self._root = root
        #: the document number shared by every Dewey id in this tree
        self.doc_id = doc_id
        self.name = name or f"doc{doc_id}"

    @property
    def root(self) -> XMLNode:
        """The root element — of a text-backed document, parsed here on
        the first read (``gks_ingest_deferred_trees_total``)."""
        if self._root is None:
            # the parser builds XMLDocuments: a top-level import is a cycle
            from repro.xmltree.parser import parse_document

            with self._build_lock:
                if self._root is None:
                    self._root = parse_document(
                        self._text, doc_id=self.doc_id,
                        attributes_as_children=self._attributes_as_children
                    ).root
                    self._text = None
                    global_registry().counter(
                        "gks_ingest_deferred_trees_total",
                        help="Trees of text-backed documents built on "
                             "first read.").inc()
        return self._root

    @property
    def parsed(self) -> bool:
        """Whether the tree exists yet."""
        return self._root is not None

    def stream(self, start, end) -> None:
        """Feed this document's element stream to *start* / *end* (see
        :func:`repro.xmltree.parser.stream_document`): from its text
        while it has no tree, else by replaying the tree."""
        root = self._root
        if root is None:
            # .root sets the tree before it drops the text: no lock needed
            text = self._text
            if text is not None:
                from repro.xmltree.parser import stream_document

                stream_document(
                    text, start, end, doc_id=self.doc_id,
                    attributes_as_children=self._attributes_as_children)
                return
            root = self._root
        replay_tree(root, start, end)

    def tag_path(self, dewey: Dewey) -> tuple[str, ...] | None:
        """The labels from the root down to *dewey* (``None`` where
        :meth:`node_at` is), from label-path rows — each element's path
        id, and the distinct paths — filled from the element stream."""
        rows = self.__dict__.get("_rows") or self._fill_rows()
        path = rows[0].get(dewey)
        return None if path is None else rows[1][path]

    def _fill_rows(self) -> tuple[dict, list]:
        ids: dict[Dewey, int] = {}
        paths: list[tuple[str, ...]] = [()]
        interned: dict[tuple[int, str], int] = {}  # (parent path, tag)
        open_paths = [0]

        def start(dewey, tag):
            key = (open_paths[-1], tag)
            path = interned.get(key)
            if path is None:
                path = interned[key] = len(paths)
                paths.append(paths[key[0]] + (tag,))
            ids[dewey] = path
            open_paths.append(path)

        self.stream(start, lambda dewey, tag, text: open_paths.pop())
        # an atomic set-if-absent: concurrent first calls install one
        rows = self.__dict__.setdefault("_rows", (ids, paths))
        if rows[0] is ids:
            global_registry().counter(
                "gks_xmltree_tag_rows_filled_total",
                help="Documents whose label-path rows were filled from "
                     "their element stream.").inc()
        return rows

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[XMLNode]:
        return self.root.iter_subtree()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.iter_subtree())

    @property
    def depth(self) -> int:
        """Number of edges from the root to the deepest element (§4.1)."""
        return max(node.depth for node in self.root.iter_subtree())

    def node_at(self, dewey: Dewey) -> XMLNode | None:
        """Resolve a Dewey id to its node, or ``None`` when out of range.

        Resolution walks child ordinals, so it is O(depth).
        """
        if not dewey or dewey[0] != self.doc_id:
            return None
        node = self.root
        for ordinal in dewey[1:]:
            if ordinal >= len(node.children):
                return None
            node = node.children[ordinal]
        return node

    def renumber(self, doc_id: int, name: str | None = None) -> "XMLDocument":
        """Return a structural copy of this document under a new doc number.

        Used by the scalability experiment (Fig. 10), which replicates a
        corpus: replicas share structure and content but occupy disjoint
        Dewey ranges.
        """
        new_root = XMLNode(self.root.tag, (doc_id,), text=self.root.text,
                           xml_attributes=dict(self.root.xml_attributes))
        stack = [(self.root, new_root)]
        while stack:
            old, new = stack.pop()
            for child in old.children:
                copy = new.add_child(child.tag, text=child.text,
                                     xml_attributes=dict(child.xml_attributes))
                stack.append((child, copy))
        return XMLDocument(new_root, name=name or f"{self.name}*")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<XMLDocument {self.name!r} doc={self.doc_id}>"


def replay_tree(root: XMLNode, start, end) -> None:
    """Replay an existing tree as the element stream: ``start(dewey,
    tag)`` in pre-order, ``end(dewey, tag, text)`` when each element's
    subtree is done — the calls the parser makes for the same text."""
    stack: list = [root]  # a 1-tuple closes its element
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:
            node = node[0]
            end(node.dewey, node.tag, node.text)
        elif node.children:
            start(node.dewey, node.tag)
            stack.append((node,))
            stack.extend(reversed(node.children))
        else:
            start(node.dewey, node.tag)
            end(node.dewey, node.tag, node.text)
