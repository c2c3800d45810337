"""The two node hash tables of the GKS index (paper §2.4).

* ``entityHash`` keeps the Dewey ids of entity nodes,
* ``elementHash`` keeps the Dewey ids of repeating and connecting nodes.

"Both hash tables also store the number of direct children each node has.
This information is used while computing the rank of a node."  An element
that is both an entity node and a repeating node appears in both tables.

The two lookup functions of the paper are provided verbatim: ``isEntity``
and ``isElement`` return the direct-child count when the node is present and
``None`` otherwise.  An element found in *neither* table is an attribute
node — the search engine uses this to lift LCP candidates off attribute
nodes (Def 2.1.1), and the ranker uses the child counts to split potential.
"""

from __future__ import annotations

from repro.xmltree.dewey import DeweyLayout


class NodeHashes:
    """``entityHash`` + ``elementHash`` with direct-child counts, keyed
    by Dewey ids packed under :attr:`layout`."""

    def __init__(self, layout: DeweyLayout | None = None) -> None:
        self.layout = layout if layout is not None else DeweyLayout()
        self._entity: dict[int, int] = {}
        self._element: dict[int, int] = {}

    @classmethod
    def from_mappings(cls, entity: dict[int, int], element: dict[int, int],
                      layout: DeweyLayout) -> "NodeHashes":
        hashes = cls(layout)
        hashes._entity = dict(entity)
        hashes._element = dict(element)
        return hashes

    # ------------------------------------------------------------------
    # The paper's two functions
    # ------------------------------------------------------------------
    def is_entity(self, dewey: int) -> int | None:
        """Direct-child count when *dewey* is an entity node, else None."""
        return self._entity.get(dewey)

    def is_element(self, dewey: int) -> int | None:
        """Direct-child count when *dewey* is a repeating/connecting node."""
        return self._element.get(dewey)

    # ------------------------------------------------------------------
    # Derived lookups used by search and ranking
    # ------------------------------------------------------------------
    def child_count(self, dewey: int) -> int | None:
        """Direct-child count for any indexed (non-attribute) element."""
        count = self._entity.get(dewey)
        if count is None:
            count = self._element.get(dewey)
        return count

    def is_attribute(self, dewey: int) -> bool:
        """True when the element is in neither table (i.e. it is an AN).

        Only meaningful for ids that belong to real elements: unknown ids
        also return True.
        """
        return dewey not in self._entity and dewey not in self._element

    def nearest_entity(self, dewey: int) -> int | None:
        """Nearest entity ancestor-or-self of *dewey* (LCE candidate)."""
        entity = self._entity
        layout = self.layout
        masks = layout.masks
        depth = layout.level_of_bit[
            (dewey & -dewey & layout.inner_mask).bit_length()]
        for level in range(depth, -1, -1):
            ancestor = dewey & masks[level]
            if ancestor in entity:
                return ancestor
        return None

    # ------------------------------------------------------------------
    @property
    def entity_count(self) -> int:
        return len(self._entity)

    @property
    def element_count(self) -> int:
        return len(self._element)

    @property
    def entity_table(self) -> dict[int, int]:
        return dict(self._entity)

    @property
    def element_table(self) -> dict[int, int]:
        return dict(self._element)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<NodeHashes entities={len(self._entity)} "
                f"elements={len(self._element)}>")
