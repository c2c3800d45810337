"""Index statistics backing the paper's Table 4 and Table 5.

Table 4 reports index size and preparation time per corpus; Table 5 reports
how many elements fall into each node category (AN/EN/RN/CN).  The builder
fills an :class:`IndexStats` as it streams over the data, so producing the
tables costs nothing extra.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IndexStats:
    """Running counters collected while building an index."""

    documents: int = 0
    total_nodes: int = 0
    attribute_nodes: int = 0
    entity_nodes: int = 0
    repeating_nodes: int = 0
    connecting_nodes: int = 0
    text_keywords: int = 0
    tag_keywords: int = 0
    max_depth: int = 0
    build_seconds: float = 0.0
    category_by_tag: dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def category_row(self) -> dict[str, int]:
        """One Table 5 row: AN/EN/RN/CN counts plus the total."""
        return {
            "AN": self.attribute_nodes,
            "EN": self.entity_nodes,
            "RN": self.repeating_nodes,
            "CN": self.connecting_nodes,
            "total": self.total_nodes,
        }

    @property
    def total_keywords(self) -> int:
        return self.text_keywords + self.tag_keywords

    def to_dict(self) -> dict:
        """JSON-ready form for persistence."""
        return {
            "documents": self.documents,
            "total_nodes": self.total_nodes,
            "attribute_nodes": self.attribute_nodes,
            "entity_nodes": self.entity_nodes,
            "repeating_nodes": self.repeating_nodes,
            "connecting_nodes": self.connecting_nodes,
            "text_keywords": self.text_keywords,
            "tag_keywords": self.tag_keywords,
            "max_depth": self.max_depth,
            "build_seconds": self.build_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IndexStats":
        stats = cls()
        for key, value in data.items():
            if hasattr(stats, key):
                setattr(stats, key, value)
        return stats
