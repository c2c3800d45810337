"""Document-partitioned index shards (§2.4 scaled up).

A shard owns a subset of the repository's documents; because every
posting and hash entry carries its document number, shards are
document-disjoint *units* in the sense of :mod:`repro.index.composite`
and the search driver (:mod:`repro.core.search`) runs discovery per
shard and ranks once globally, node-for-node and score-for-score what
a monolithic index answers.

This module provides what is shard-specific: partitioning strategies,
the :class:`ShardedIndex` layout on top of the composite, and
:class:`ShardedBuilder`, which routes each document to its shard's
builder.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigError
from repro.index.builder import GKSIndex, IndexBuilder
from repro.index.composite import CompositeIndex
from repro.text.analyzer import DEFAULT_ANALYZER, Analyzer
from repro.xmltree.dewey import DeweyLayout
from repro.xmltree.repository import Repository
from repro.xmltree.tree import XMLDocument

PARTITION_STRATEGIES = ("round_robin", "hash")


def shard_of(doc_id: int, name: str, shards: int, strategy: str) -> int:
    """The shard a document belongs to under *strategy*.

    ``round_robin`` spreads consecutive doc ids evenly; ``hash`` keys on
    the document *name* (CRC-32), keeping a document on the same shard
    across corpus versions where names are stable but positions are not.
    """
    if shards < 1:
        raise ConfigError(f"shard count must be >= 1: {shards}")
    if strategy == "round_robin":
        return doc_id % shards
    if strategy == "hash":
        return zlib.crc32(name.encode("utf-8")) % shards
    raise ConfigError(
        f"unknown shard strategy {strategy!r}; "
        f"expected one of {PARTITION_STRATEGIES}")


@dataclass(frozen=True)
class Shard:
    """One shard: which documents it owns and their private index.

    ``index`` is an ordinary :class:`GKSIndex` whose postings and hash
    keys carry **global** Dewey ids (document numbers are repository-wide
    — see :meth:`IndexBuilder.add_document_unchecked`); only its
    ``document_names``/``stats`` are local to the shard.
    """

    shard_id: int
    doc_ids: tuple[int, ...]
    index: GKSIndex


class ShardedIndex(CompositeIndex):
    """N document shards: a :class:`CompositeIndex` that knows its layout.

    The search driver (:mod:`repro.core.search`) takes the shards as its
    units; everything else talks to the inherited composite interface.  What is shard-specific lives here: the partitioning
    ``strategy`` and the :class:`Shard` records, positioned by shard id.
    """

    def __init__(self, shards: Sequence[Shard], strategy: str,
                 document_names: Sequence[str],
                 analyzer: Analyzer = DEFAULT_ANALYZER,
                 corpus_crc32: int | None = None) -> None:
        if strategy not in PARTITION_STRATEGIES:
            raise ConfigError(
                f"unknown shard strategy {strategy!r}; "
                f"expected one of {PARTITION_STRATEGIES}")
        self.shards: tuple[Shard, ...] = tuple(shards)
        if not self.shards:
            raise ConfigError("a ShardedIndex needs at least one shard")
        self.strategy = strategy
        #: as on :class:`GKSIndex`, for the whole corpus
        self.corpus_crc32 = corpus_crc32
        super().__init__([(shard.doc_ids, shard.index)
                          for shard in self.shards],
                         analyzer=analyzer, document_names=document_names)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # Introspection (CLI `gks stats --shards`)
    # ------------------------------------------------------------------
    def shard_table(self) -> list[dict]:
        """One summary row per shard for stats displays."""
        return [{
            "shard": shard.shard_id,
            "documents": len(shard.doc_ids),
            "nodes": shard.index.stats.total_nodes,
            "postings": shard.index.inverted.total_postings,
            "vocabulary": len(shard.index.inverted),
            "entities": shard.index.stats.entity_nodes,
        } for shard in self.shards]


class ShardedBuilder:
    """One :class:`IndexBuilder` per shard, fed a corpus in document
    order: each document goes to its shard's builder (:func:`shard_of`,
    decided per document), so a sharded open streams each text once."""

    def __init__(self, analyzer: Analyzer = DEFAULT_ANALYZER,
                 index_tags: bool = True, shards: int = 1,
                 strategy: str = "round_robin") -> None:
        self.analyzer = analyzer
        self.strategy = strategy
        self._builders = [IndexBuilder(analyzer=analyzer,
                                       index_tags=index_tags)
                          for _ in range(shards)]
        self._doc_ids: list[list[int]] = [[] for _ in range(shards)]
        self._names: list[str] = []

    def add_document_unchecked(self, document: XMLDocument) -> None:
        """Index *document* (global doc id) in its shard's builder."""
        shard_id = shard_of(document.doc_id, document.name,
                            len(self._builders), self.strategy)
        self._builders[shard_id].add_document_unchecked(document)
        self._doc_ids[shard_id].append(document.doc_id)
        self._names.append(document.name)

    def build(self, corpus_crc32: int | None = None) -> ShardedIndex:
        """Finish every shard, each re-packed under the union of their
        layouts where it differs (the shards of one index share one)."""
        units = [builder.build() for builder in self._builders]
        layout = DeweyLayout().union(*(unit.layout for unit in units))
        shards = [Shard(shard_id=shard_id, doc_ids=tuple(doc_ids),
                        index=unit.relaid(layout))
                  for shard_id, (unit, doc_ids) in enumerate(
                      zip(units, self._doc_ids))]
        return ShardedIndex(shards, strategy=self.strategy,
                            document_names=self._names,
                            analyzer=self.analyzer,
                            corpus_crc32=corpus_crc32)


def build_sharded_index(repository: Repository,
                        analyzer: Analyzer = DEFAULT_ANALYZER,
                        index_tags: bool = True, shards: int = 1,
                        strategy: str = "round_robin") -> ShardedIndex:
    """Index *repository* into *shards* document shards.

    The sharded counterpart of :func:`repro.index.builder.build_index`:
    each document, in order, goes to its shard's ordinary builder.
    """
    builder = ShardedBuilder(analyzer=analyzer, index_tags=index_tags,
                             shards=shards, strategy=strategy)
    for document in repository:
        builder.add_document_unchecked(document)
    return builder.build(corpus_crc32=repository.corpus_crc32)
