"""Schema-aware index construction.

Builds a :class:`GKSIndex` whose hash tables file every element under its
*type's* category rather than its instance category.  Search, ranking and
DI run unchanged on top; the observable difference is that instances of
entity types with missing elements (single-author articles) behave as
entities: they become LCE nodes instead of dissolving into their
ancestors — the fix the paper sketches for the MESSIAH-style missing
element problem (§1.1, §2.2).
"""

from __future__ import annotations

from repro.index.builder import GKSIndex, IndexBuilder
from repro.index.categorize import NodeCategory
from repro.index.hashtables import NodeHashes
from repro.schema.categorize import categorize_by_schema
from repro.schema.inference import Schema, infer_schema
from repro.text.analyzer import DEFAULT_ANALYZER, Analyzer
from repro.xmltree.repository import Repository


def build_schema_index(repository: Repository,
                       analyzer: Analyzer = DEFAULT_ANALYZER,
                       index_tags: bool = True,
                       schema: Schema | None = None) -> GKSIndex:
    """Index *repository* with schema-level node categories."""
    builder = IndexBuilder(analyzer=analyzer, index_tags=index_tags)
    builder.add_repository(repository)
    base = builder.build()

    if schema is None:
        schema = infer_schema(repository)
    type_map = categorize_by_schema(repository, schema)

    # entity types in entityHash (and elementHash too when they
    # repeat), repeating and connecting types in elementHash, attribute
    # types in neither
    entity, element = {}, {}
    for document in repository:
        for node in document.root.iter_subtree():
            assignment = type_map.get(node.dewey)
            if assignment is None:
                continue
            category = assignment.category
            packed = base.layout.pack(node.dewey)
            if category is NodeCategory.ENTITY:
                entity[packed] = node.child_count
            if (category is not NodeCategory.ATTRIBUTE
                    and (category is not NodeCategory.ENTITY
                         or assignment.is_repeating)):
                element[packed] = node.child_count

    stats = base.stats
    stats.entity_nodes = len(entity)
    return GKSIndex(inverted=base.inverted,
                    hashes=NodeHashes.from_mappings(entity, element,
                                                    base.layout),
                    stats=stats, layout=base.layout, analyzer=base.analyzer,
                    index_tags=index_tags,
                    document_names=base.document_names)
