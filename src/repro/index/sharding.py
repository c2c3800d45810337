"""Document-partitioned index shards with parallel build (§2.4 scaled up).

A shard owns a subset of the repository's documents; because every
posting and hash entry carries its document number, shards are
document-disjoint *units* in the sense of :mod:`repro.index.composite`
and the search driver (:mod:`repro.core.search`) runs discovery per
shard and ranks once globally, node-for-node and score-for-score what
a monolithic index answers.

This module provides what is shard-specific: partitioning strategies,
the :class:`ShardedIndex` layout on top of the composite, and
:class:`ParallelIndexBuilder`, which builds shards concurrently via
``multiprocessing`` and falls back to a serial loop when ``workers=1``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigError
from repro.index.builder import GKSIndex, IndexBuilder
from repro.index.composite import CompositeIndex
from repro.text.analyzer import DEFAULT_ANALYZER, Analyzer
from repro.xmltree.repository import Repository

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


class ShardedIndex(CompositeIndex):
    """N document shards: a :class:`CompositeIndex` that knows its layout.

    The search driver (:mod:`repro.core.search`) takes the shards as its
    units; everything else talks to the inherited composite interface.  What is shard-specific lives here: the partitioning
    ``strategy`` and the :class:`Shard` records, positioned by shard id.
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
            "entities": shard.index.hashes.entity_count,
        } for shard in self.shards]


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
