"""Document-partitioned index shards with parallel build (§2.4 scaled up).

The paper notes that "the XML data could be spread over multiple files"
and handles it by prefixing every Dewey id with its document number.
That same prefix is what makes *sharding* exact: a shard owns a subset
of the repository's documents, every posting and hash entry of a
document lives wholly inside its shard, and no GKS pipeline stage ever
combines information across documents —

* a merged-list entry belongs to one document;
* an LCP block (common prefix of consecutive SL entries) is empty across
  a document boundary, so every non-trivial block lies inside one
  document;
* LCE discovery walks entity ancestors of LCP nodes — ancestors share
  the document prefix;
* ranking flows potential inside ``subtree(node)`` — again one document.

Hence the union of per-shard responses, re-sorted by the global ranking
key, equals the monolithic response node-for-node and score-for-score
(:mod:`repro.core.scatter` exploits this).

This module provides the three pieces underneath that guarantee:
partitioning strategies, the :class:`ShardedIndex` facade (quacks like a
:class:`~repro.index.builder.GKSIndex`, so validation, insights and
persistence work unchanged), and :class:`ParallelIndexBuilder`, which
builds shards concurrently via ``multiprocessing`` and falls back to a
serial loop when ``workers=1``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import ConfigError, IndexError_
from repro.index.builder import GKSIndex, IndexBuilder
from repro.index.hashtables import NodeHashes
from repro.index.inverted import InvertedIndex
from repro.index.postings import merge_sorted_runs
from repro.index.statistics import IndexStats
from repro.obs.locks import new_lock
from repro.text.analyzer import DEFAULT_ANALYZER, Analyzer
from repro.xmltree.dewey import Dewey
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


def partition_documents(names: Sequence[str], shards: int,
                        strategy: str = "round_robin"
                        ) -> list[tuple[int, ...]]:
    """Assign doc ids 0..n-1 to shards; returns per-shard sorted id tuples.

    Shards may come out empty (more shards than documents, or an unlucky
    hash): an empty shard holds an empty index and contributes nothing
    to any query, which is exactly correct.
    """
    assignments: list[list[int]] = [[] for _ in range(shards)]
    for doc_id, name in enumerate(names):
        assignments[shard_of(doc_id, name, shards, strategy)].append(doc_id)
    return [tuple(ids) for ids in assignments]


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


class _RoutedHashes:
    """A :class:`NodeHashes` view over all shards, routed by document.

    Every hash key's first Dewey component is its document number, and a
    document lives in exactly one shard, so each lookup forwards to the
    owning shard's tables.  Ancestor walks stay inside one document,
    hence inside one shard.
    """

    def __init__(self, sharded: "ShardedIndex") -> None:
        self._sharded = sharded

    def _tables_for(self, dewey: Dewey) -> NodeHashes | None:
        shard = self._sharded.shard_for_document(dewey[0]) if dewey else None
        return None if shard is None else shard.index.hashes

    # -- the paper's two functions ------------------------------------
    def is_entity(self, dewey: Dewey) -> int | None:
        hashes = self._tables_for(dewey)
        return None if hashes is None else hashes.is_entity(dewey)

    def is_element(self, dewey: Dewey) -> int | None:
        hashes = self._tables_for(dewey)
        return None if hashes is None else hashes.is_element(dewey)

    # -- derived lookups ----------------------------------------------
    def child_count(self, dewey: Dewey) -> int | None:
        hashes = self._tables_for(dewey)
        return None if hashes is None else hashes.child_count(dewey)

    def is_attribute(self, dewey: Dewey) -> bool:
        hashes = self._tables_for(dewey)
        return True if hashes is None else hashes.is_attribute(dewey)

    def nearest_entity(self, dewey: Dewey) -> Dewey | None:
        hashes = self._tables_for(dewey)
        return None if hashes is None else hashes.nearest_entity(dewey)

    def entity_ancestors(self, dewey: Dewey) -> Iterator[Dewey]:
        hashes = self._tables_for(dewey)
        if hashes is not None:
            yield from hashes.entity_ancestors(dewey)

    # -- aggregates (validation, stats, persistence) -------------------
    @property
    def entity_count(self) -> int:
        return sum(shard.index.hashes.entity_count
                   for shard in self._sharded.shards)

    @property
    def element_count(self) -> int:
        return sum(shard.index.hashes.element_count
                   for shard in self._sharded.shards)

    @property
    def entity_table(self) -> dict[Dewey, int]:
        merged: dict[Dewey, int] = {}
        for shard in self._sharded.shards:
            merged.update(shard.index.hashes.entity_table)
        return merged

    @property
    def element_table(self) -> dict[Dewey, int]:
        merged: dict[Dewey, int] = {}
        for shard in self._sharded.shards:
            merged.update(shard.index.hashes.element_table)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RoutedHashes shards={len(self._sharded.shards)} "
                f"entities={self.entity_count}>")


class ShardedIndex:
    """N document shards behind the :class:`GKSIndex` interface.

    Scatter-gather search (:mod:`repro.core.scatter`) runs the pipeline
    per shard; everything else — validation, insights, snippet lookups,
    ``suggest_s`` — talks to this object exactly as it would to a
    monolithic index.  ``postings()`` answers with the k-way merge of
    the shard posting lists (cached per keyword): shards own disjoint
    document sets, so the merge is a disjoint sorted union identical to
    the monolithic posting list.
    """

    def __init__(self, shards: Sequence[Shard], strategy: str,
                 document_names: Sequence[str],
                 analyzer: Analyzer = DEFAULT_ANALYZER) -> None:
        if strategy not in PARTITION_STRATEGIES:
            raise ConfigError(
                f"unknown shard strategy {strategy!r}; "
                f"expected one of {PARTITION_STRATEGIES}")
        self.shards: tuple[Shard, ...] = tuple(shards)
        if not self.shards:
            raise ConfigError("a ShardedIndex needs at least one shard")
        self.strategy = strategy
        self.document_names: tuple[str, ...] = tuple(document_names)
        self.analyzer = analyzer
        self.hashes = _RoutedHashes(self)
        self._doc_to_shard: dict[int, int] = {
            doc_id: shard.shard_id
            for shard in self.shards for doc_id in shard.doc_ids}
        self._postings_cache: dict[str, list[Dewey]] = {}
        self._merged_inverted: InvertedIndex | None = None
        self._merged_stats: IndexStats | None = None
        # The lazily merged views are probed from the scatter-gather
        # worker pool; without the lock two threads could interleave a
        # check-then-merge and publish half-built state.
        # guards: _postings_cache, _merged_inverted, _merged_stats
        self._cache_lock = new_lock("sharding.cache")

    # ------------------------------------------------------------------
    # Shard routing
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_for_document(self, doc_id: int) -> Shard | None:
        """The shard owning *doc_id* (None for unknown documents)."""
        shard_id = self._doc_to_shard.get(doc_id)
        return None if shard_id is None else self.shards[shard_id]

    # ------------------------------------------------------------------
    # GKSIndex interface
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return max((shard.index.depth for shard in self.shards), default=0)

    def postings(self, keyword: str) -> list[Dewey]:
        """Global posting list: disjoint sorted union over shards.

        Phrase keywords intersect *within* each shard first — every word
        occurrence of one element lives in that element's document,
        hence in one shard, so the per-shard intersection union equals
        the global intersection.
        """
        with self._cache_lock:
            cached = self._postings_cache.get(keyword)
        if cached is None:
            merged = merge_sorted_runs(
                shard.index.postings(keyword) for shard in self.shards)
            with self._cache_lock:
                # setdefault publishes exactly one list per keyword even
                # when two threads merged it concurrently
                cached = self._postings_cache.setdefault(keyword, merged)
        return cached

    @property
    def inverted(self) -> InvertedIndex:
        """Merged inverted index (lazy; for validation and persistence)."""
        with self._cache_lock:
            if self._merged_inverted is None:
                merged: dict[str, list[Dewey]] = {}
                for shard in self.shards:
                    for keyword, postings in shard.index.inverted.items():
                        merged.setdefault(keyword, []).append(postings)
                index = InvertedIndex()
                index._postings = {
                    keyword: merge_sorted_runs(lists)
                    for keyword, lists in merged.items()}
                self._merged_inverted = index
            return self._merged_inverted

    @property
    def stats(self) -> IndexStats:
        """Aggregated corpus statistics over all shards."""
        with self._cache_lock:
            if self._merged_stats is None:
                total = IndexStats()
                for shard in self.shards:
                    stats = shard.index.stats
                    total.documents += stats.documents
                    total.total_nodes += stats.total_nodes
                    total.attribute_nodes += stats.attribute_nodes
                    total.entity_nodes += stats.entity_nodes
                    total.repeating_nodes += stats.repeating_nodes
                    total.connecting_nodes += stats.connecting_nodes
                    total.text_keywords += stats.text_keywords
                    total.tag_keywords += stats.tag_keywords
                    total.max_depth = max(total.max_depth, stats.max_depth)
                    total.build_seconds += stats.build_seconds
                    for tag, category in stats.category_by_tag.items():
                        total.category_by_tag.setdefault(tag, category)
                self._merged_stats = total
            return self._merged_stats

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def with_appended(self, document: XMLDocument,
                      index_tags: bool = True) -> "ShardedIndex":
        """A new sharded index covering the old corpus plus *document*.

        Routes the document to its shard under this index's strategy and
        extends that shard's structures in place (same contract as
        :func:`repro.index.incremental.append_document`: treat the input
        index as consumed).  The returned wrapper starts with fresh
        caches, so no stale merged posting list can survive the append.
        """
        expected = len(self.document_names)
        if document.doc_id != expected:
            raise IndexError_(
                f"document {document.name!r} has doc id {document.doc_id}, "
                f"expected {expected} (append-only maintenance)")
        name = document.name
        target = shard_of(document.doc_id, name, self.num_shards,
                          self.strategy)
        old = self.shards[target]
        builder = IndexBuilder(analyzer=self.analyzer, index_tags=index_tags)
        builder._names.extend(old.index.document_names)
        builder._stats = old.index.stats
        builder._inverted = old.index.inverted
        builder._hashes = old.index.hashes
        builder.add_document_unchecked(document)
        rebuilt = Shard(shard_id=target,
                        doc_ids=old.doc_ids + (document.doc_id,),
                        index=builder.build())
        shards = tuple(rebuilt if shard.shard_id == target else shard
                       for shard in self.shards)
        return ShardedIndex(shards, strategy=self.strategy,
                            document_names=self.document_names + (name,),
                            analyzer=self.analyzer)

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
            "entities": shard.index.hashes.entity_count,
        } for shard in self.shards]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShardedIndex shards={self.num_shards} "
                f"strategy={self.strategy!r} "
                f"docs={len(self.document_names)}>")


# ----------------------------------------------------------------------
# Parallel build
# ----------------------------------------------------------------------

# Fork-inherited state for repository builds: the parent parks the
# repository (and build options) here right before spawning the pool;
# forked children read it without any pickling of XML trees.
_FORK_STATE: dict = {}


def _build_shard_from_fork_state(shard_id: int) -> tuple[int, GKSIndex]:
    repository = _FORK_STATE["repository"]
    doc_ids = _FORK_STATE["partitions"][shard_id]
    builder = IndexBuilder(analyzer=_FORK_STATE["analyzer"],
                           index_tags=_FORK_STATE["index_tags"])
    for doc_id in doc_ids:
        builder.add_document_unchecked(repository[doc_id])
    return shard_id, builder.build()


def _build_shard_from_texts(shard_id: int,
                            documents: list[tuple[int, str, str]],
                            analyzer: Analyzer,
                            index_tags: bool) -> tuple[int, GKSIndex]:
    """Worker for text-based builds (start-method agnostic: args pickle)."""
    builder = IndexBuilder(analyzer=analyzer, index_tags=index_tags)
    for doc_id, name, text in documents:
        builder.add_xml(text, name=name, doc_id=doc_id)
    return shard_id, builder.build()


class ParallelIndexBuilder:
    """Builds a :class:`ShardedIndex`, one worker process per shard.

    ``workers=1`` (the default) builds every shard serially in-process —
    no multiprocessing machinery is touched.  With ``workers>1`` shards
    build concurrently in a ``fork`` process pool (repository builds
    inherit the parsed trees through fork, so nothing but the finished
    shard indexes crosses a process boundary); when the platform offers
    no ``fork`` start method the builder silently degrades to serial,
    because shipping whole XML trees through pickle would cost more than
    it saves.
    """

    def __init__(self, analyzer: Analyzer = DEFAULT_ANALYZER,
                 index_tags: bool = True, shards: int = 1,
                 workers: int = 1,
                 strategy: str = "round_robin") -> None:
        if shards < 1:
            raise ConfigError(f"shard count must be >= 1: {shards}")
        if workers < 1:
            raise ConfigError(f"worker count must be >= 1: {workers}")
        if strategy not in PARTITION_STRATEGIES:
            raise ConfigError(
                f"unknown shard strategy {strategy!r}; "
                f"expected one of {PARTITION_STRATEGIES}")
        self.analyzer = analyzer
        self.index_tags = index_tags
        self.shards = shards
        self.workers = workers
        self.strategy = strategy

    # ------------------------------------------------------------------
    def build(self, repository: Repository) -> ShardedIndex:
        """Index *repository* into shards (parallel when configured)."""
        names = [document.name for document in repository]
        partitions = partition_documents(names, self.shards, self.strategy)
        if self.workers > 1 and len(repository) > 0:
            indexes = self._run_forked(repository, partitions)
        else:
            indexes = None
        if indexes is None:
            indexes = []
            for doc_ids in partitions:
                builder = IndexBuilder(analyzer=self.analyzer,
                                       index_tags=self.index_tags)
                for doc_id in doc_ids:
                    builder.add_document_unchecked(repository[doc_id])
                indexes.append(builder.build())
        return self._assemble(indexes, partitions, names)

    def build_from_texts(self, texts: Sequence[str],
                         names: Sequence[str] | None = None) -> ShardedIndex:
        """Index raw XML texts into shards without materialising trees.

        Workers parse *and* index their shard's texts concurrently, so a
        parallel text build overlaps the dominant parsing cost — this is
        the path the sharding benchmark exercises.
        """
        resolved = [names[i] if names is not None else f"doc{i}"
                    for i in range(len(texts))]
        partitions = partition_documents(resolved, self.shards,
                                         self.strategy)
        jobs = [[(doc_id, resolved[doc_id], texts[doc_id])
                 for doc_id in doc_ids] for doc_ids in partitions]
        indexes: list[GKSIndex] | None = None
        if self.workers > 1 and texts:
            indexes = self._run_pool(jobs)
        if indexes is None:
            indexes = [_build_shard_from_texts(shard_id, job, self.analyzer,
                                               self.index_tags)[1]
                       for shard_id, job in enumerate(jobs)]
        return self._assemble(indexes, partitions, resolved)

    # ------------------------------------------------------------------
    def _pool(self, jobs: int):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platform without fork
            return None
        max_workers = max(1, min(self.workers, jobs))
        return ProcessPoolExecutor(max_workers=max_workers,
                                   mp_context=context)

    def _run_forked(self, repository: Repository,
                    partitions: list[tuple[int, ...]]
                    ) -> list[GKSIndex] | None:
        busy = [shard_id for shard_id, doc_ids in enumerate(partitions)
                if doc_ids]
        pool = self._pool(len(busy))
        if pool is None:  # pragma: no cover - platform without fork
            return None
        _FORK_STATE.update(repository=repository, partitions=partitions,
                           analyzer=self.analyzer,
                           index_tags=self.index_tags)
        try:
            with pool:
                built = dict(pool.map(_build_shard_from_fork_state, busy))
        finally:
            _FORK_STATE.clear()
        return [built[shard_id] if shard_id in built
                else IndexBuilder(analyzer=self.analyzer,
                                  index_tags=self.index_tags).build()
                for shard_id in range(len(partitions))]

    def _run_pool(self, jobs: list[list[tuple[int, str, str]]]
                  ) -> list[GKSIndex] | None:
        busy = [shard_id for shard_id, job in enumerate(jobs) if job]
        pool = self._pool(len(busy))
        if pool is None:  # pragma: no cover - platform without fork
            return None
        with pool:
            futures = [pool.submit(_build_shard_from_texts, shard_id,
                                   jobs[shard_id], self.analyzer,
                                   self.index_tags)
                       for shard_id in busy]
            built = dict(future.result() for future in futures)
        return [built[shard_id] if shard_id in built
                else IndexBuilder(analyzer=self.analyzer,
                                  index_tags=self.index_tags).build()
                for shard_id in range(len(jobs))]

    def _assemble(self, indexes: list[GKSIndex],
                  partitions: list[tuple[int, ...]],
                  names: Sequence[str]) -> ShardedIndex:
        shards = [Shard(shard_id=shard_id, doc_ids=doc_ids, index=index)
                  for shard_id, (doc_ids, index)
                  in enumerate(zip(partitions, indexes))]
        return ShardedIndex(shards, strategy=self.strategy,
                            document_names=names, analyzer=self.analyzer)


def build_sharded_index(repository: Repository,
                        analyzer: Analyzer = DEFAULT_ANALYZER,
                        index_tags: bool = True, shards: int = 1,
                        workers: int = 1,
                        strategy: str = "round_robin") -> ShardedIndex:
    """One-call convenience mirroring :func:`repro.index.builder.build_index`."""
    return ParallelIndexBuilder(analyzer=analyzer, index_tags=index_tags,
                                shards=shards, workers=workers,
                                strategy=strategy).build(repository)
