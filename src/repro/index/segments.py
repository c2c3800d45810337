"""Segmented on-disk index layout: immutable runs + manifest + WAL.

The durable write path is LSM-shaped, which the paper's Dewey-interval
index makes exact rather than approximate: a document's postings and
hash entries all carry its document number as the first Dewey component,
so immutable per-document (and per-shard) runs merge into precisely the
index a from-scratch build would produce — disjoint sorted unions, no
tombstones, no reconciliation.

On-disk layout (one directory per store)::

    MANIFEST                   gzip JSON envelope, version 4, atomic
    wal.log                    CRC-framed write-ahead log (repro.index.wal)
    seg-g000001-s0.gksindex    one v2 index envelope per (generation, shard)
    txt-g000002.json.gz        document texts appended at each flush

The MANIFEST is the single commit point: every flush/compaction writes
its new segment files first, then publishes a manifest with a strictly
larger generation via atomic rename.  A crash in between leaves
unreferenced files, which :meth:`SegmentStore.open` deletes; a crash
after the rename but before WAL truncation leaves already-flushed
frames in the log, which recovery skips by comparing against the
manifest's ``wal_lsn``.  At no point is there a state from which the
index cannot be reconstructed node-for-node.

Serving reads go through :class:`StackedIndex`, an immutable stack of
index units (on-disk segments plus one mini-index per unflushed
document) that duck-types :class:`~repro.index.builder.GKSIndex`.
Appending produces a *new* stack sharing the old units — in-flight
searches keep the snapshot they started on, which is what makes the
serve layer's hot swap race-free.
"""

from __future__ import annotations

import gzip
import json
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.errors import StorageError, ValidationError
from repro.index.builder import GKSIndex
from repro.index.hashtables import NodeHashes
from repro.index.inverted import InvertedIndex
from repro.index.postings import merge_sorted_runs
from repro.index.sharding import ShardedIndex
from repro.index.statistics import IndexStats
from repro.index.storage import (atomic_write_json_gz, load_index,
                                 payload_crc32, save_index)
from repro.index.wal import WALFrame, WriteAheadLog, fsync_directory
from repro.obs.metrics import global_registry
from repro.text.analyzer import DEFAULT_ANALYZER, Analyzer
from repro.xmltree.dewey import Dewey

MANIFEST_NAME = "MANIFEST"
WAL_NAME = "wal.log"
MANIFEST_VERSION = 4
SEGMENT_PATTERN = re.compile(r"^seg-g(\d{6})-s(\d+)\.gksindex$")
TEXTS_PATTERN = re.compile(r"^txt-g(\d{6})\.json\.gz$")


def segment_file_name(generation: int, shard_id: int) -> str:
    return f"seg-g{generation:06d}-s{shard_id}.gksindex"


def texts_file_name(generation: int) -> str:
    return f"txt-g{generation:06d}.json.gz"


def file_crc32(path: str | Path) -> int:
    """CRC32 of a file's raw bytes (manifest-level integrity unit)."""
    try:
        return zlib.crc32(Path(path).read_bytes()) & 0xFFFFFFFF
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}",
                           diagnosis="unreadable", path=path) from exc


# ----------------------------------------------------------------------
# Merging immutable runs
# ----------------------------------------------------------------------
def merge_stats(stats_list: Sequence[IndexStats]) -> IndexStats:
    """Sum per-run :class:`IndexStats` (max depth maxes, counters add)."""
    total = IndexStats()
    for stats in stats_list:
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
    return total


def merge_indexes(indexes: Sequence[GKSIndex],
                  analyzer: Analyzer | None = None) -> GKSIndex:
    """K-way merge of indexes over disjoint document sets.

    Callers pass runs in ascending document order (runs are built
    append-only, so their doc-id ranges are disjoint and ordered); the
    merged posting lists are then the exact disjoint sorted unions a
    monolithic build over the same documents would produce.
    """
    indexes = list(indexes)
    if analyzer is None:
        analyzer = indexes[0].analyzer if indexes else DEFAULT_ANALYZER
    collected: dict[str, list] = {}
    for index in indexes:
        for keyword, postings in index.inverted.items():
            collected.setdefault(keyword, []).append(postings)
    inverted = InvertedIndex()
    inverted._postings = {keyword: merge_sorted_runs(lists)
                          for keyword, lists in collected.items()}
    entity: dict[Dewey, int] = {}
    element: dict[Dewey, int] = {}
    for index in indexes:
        entity.update(index.hashes.entity_table)
        element.update(index.hashes.element_table)
    return GKSIndex(
        inverted=inverted,
        hashes=NodeHashes.from_mappings(entity=entity, element=element),
        stats=merge_stats([index.stats for index in indexes]),
        analyzer=analyzer,
        document_names=tuple(name for index in indexes
                             for name in index.document_names))


# ----------------------------------------------------------------------
# Snapshot-safe serving facade
# ----------------------------------------------------------------------
class _StackedHashes:
    """A :class:`NodeHashes` view over a unit stack, routed by document.

    Same contract as the sharded router: every hash key's first Dewey
    component is its document number and a document lives in exactly one
    unit, so lookups forward to the owning unit's tables and ancestor
    walks never cross a unit boundary.
    """

    def __init__(self, stacked: "StackedIndex") -> None:
        self._stacked = stacked

    def _tables_for(self, dewey: Dewey) -> NodeHashes | None:
        unit = self._stacked.unit_for_document(dewey[0]) if dewey else None
        return None if unit is None else unit.hashes

    def is_entity(self, dewey: Dewey) -> int | None:
        hashes = self._tables_for(dewey)
        return None if hashes is None else hashes.is_entity(dewey)

    def is_element(self, dewey: Dewey) -> int | None:
        hashes = self._tables_for(dewey)
        return None if hashes is None else hashes.is_element(dewey)

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

    @property
    def entity_count(self) -> int:
        return sum(unit.hashes.entity_count
                   for unit in self._stacked.units)

    @property
    def element_count(self) -> int:
        return sum(unit.hashes.element_count
                   for unit in self._stacked.units)

    @property
    def entity_table(self) -> dict[Dewey, int]:
        merged: dict[Dewey, int] = {}
        for unit in self._stacked.units:
            merged.update(unit.hashes.entity_table)
        return merged

    @property
    def element_table(self) -> dict[Dewey, int]:
        merged: dict[Dewey, int] = {}
        for unit in self._stacked.units:
            merged.update(unit.hashes.element_table)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<StackedHashes units={len(self._stacked.units)} "
                f"entities={self.entity_count}>")


class StackedIndex:
    """Immutable stack of index units behind the GKSIndex interface.

    A unit is an ordinary :class:`GKSIndex` over a subset of the
    repository's documents with **global** Dewey ids — an on-disk
    segment or an in-memory mini-index of one just-added document.
    Units own disjoint document sets in ascending order, so
    ``postings()`` is a disjoint sorted union (cached per keyword),
    exactly the monolithic list.

    The stack itself is never mutated: :meth:`with_unit` returns a new
    stack sharing the old units.  A search that captured the previous
    stack keeps a consistent snapshot for its whole run — the invariant
    the serving layer's zero-downtime swap rests on.
    """

    def __init__(self, units: Sequence[GKSIndex],
                 unit_doc_ids: Sequence[Sequence[int]],
                 analyzer: Analyzer = DEFAULT_ANALYZER) -> None:
        self.units: tuple[GKSIndex, ...] = tuple(units)
        self.unit_doc_ids: tuple[tuple[int, ...], ...] = tuple(
            tuple(ids) for ids in unit_doc_ids)
        if len(self.units) != len(self.unit_doc_ids):
            raise ValidationError(
                f"{len(self.units)} units but {len(self.unit_doc_ids)} "
                f"doc-id groups")
        self.analyzer = analyzer
        self.document_names: tuple[str, ...] = tuple(
            name for unit in self.units for name in unit.document_names)
        self.hashes = _StackedHashes(self)
        self._doc_to_unit: dict[int, int] = {
            doc_id: position
            for position, ids in enumerate(self.unit_doc_ids)
            for doc_id in ids}
        self._postings_cache: dict[str, list[Dewey]] = {}
        self._merged_inverted: InvertedIndex | None = None
        self._merged_stats: IndexStats | None = None

    # -- routing --------------------------------------------------------
    def unit_for_document(self, doc_id: int) -> GKSIndex | None:
        position = self._doc_to_unit.get(doc_id)
        return None if position is None else self.units[position]

    @property
    def doc_ids(self) -> tuple[int, ...]:
        return tuple(doc_id for ids in self.unit_doc_ids for doc_id in ids)

    # -- GKSIndex interface ---------------------------------------------
    @property
    def depth(self) -> int:
        return max((unit.depth for unit in self.units), default=0)

    def postings(self, keyword: str) -> list[Dewey]:
        """Disjoint sorted union over units (phrases intersect per unit:
        all word occurrences of one element live in one document)."""
        cached = self._postings_cache.get(keyword)
        if cached is None:
            cached = merge_sorted_runs(
                unit.postings(keyword) for unit in self.units)
            self._postings_cache[keyword] = cached
        return cached

    @property
    def inverted(self) -> InvertedIndex:
        if self._merged_inverted is None:
            collected: dict[str, list] = {}
            for unit in self.units:
                for keyword, postings in unit.inverted.items():
                    collected.setdefault(keyword, []).append(postings)
            index = InvertedIndex()
            index._postings = {keyword: merge_sorted_runs(lists)
                               for keyword, lists in collected.items()}
            self._merged_inverted = index
        return self._merged_inverted

    @property
    def stats(self) -> IndexStats:
        if self._merged_stats is None:
            self._merged_stats = merge_stats(
                [unit.stats for unit in self.units])
        return self._merged_stats

    # -- snapshot append ------------------------------------------------
    def with_unit(self, unit: GKSIndex,
                  doc_ids: Sequence[int]) -> "StackedIndex":
        """A new stack with *unit* appended; this stack is untouched."""
        return StackedIndex(self.units + (unit,),
                            self.unit_doc_ids + (tuple(doc_ids),),
                            analyzer=self.analyzer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<StackedIndex units={len(self.units)} "
                f"docs={len(self.document_names)}>")


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentRecord:
    """One immutable on-disk segment: a v2 index envelope for one shard."""

    file: str
    crc32: int
    shard_id: int
    doc_ids: tuple[int, ...]
    generation: int

    def to_dict(self) -> dict:
        return {"file": self.file, "crc32": self.crc32,
                "shard_id": self.shard_id, "doc_ids": list(self.doc_ids),
                "generation": self.generation}

    @classmethod
    def from_dict(cls, raw: dict) -> "SegmentRecord":
        return cls(file=str(raw["file"]), crc32=int(raw["crc32"]),
                   shard_id=int(raw["shard_id"]),
                   doc_ids=tuple(int(i) for i in raw["doc_ids"]),
                   generation=int(raw["generation"]))


@dataclass(frozen=True)
class TextsRecord:
    """One texts sidecar: the raw XML of documents flushed past the WAL."""

    file: str
    crc32: int
    doc_ids: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"file": self.file, "crc32": self.crc32,
                "doc_ids": list(self.doc_ids)}

    @classmethod
    def from_dict(cls, raw: dict) -> "TextsRecord":
        return cls(file=str(raw["file"]), crc32=int(raw["crc32"]),
                   doc_ids=tuple(int(i) for i in raw["doc_ids"]))


@dataclass(frozen=True)
class StoreManifest:
    """The generation-stamped commit record of a segmented store."""

    generation: int
    wal_lsn: int
    shards: int
    strategy: str
    index_tags: bool
    use_stopwords: bool
    use_stemming: bool
    base_documents: int
    document_names: tuple[str, ...]
    segments: tuple[SegmentRecord, ...] = ()
    texts: tuple[TextsRecord, ...] = ()

    def to_dict(self) -> dict:
        return {
            "generation": self.generation,
            "wal_lsn": self.wal_lsn,
            "shards": self.shards,
            "strategy": self.strategy,
            "index_tags": self.index_tags,
            "analyzer": {"use_stopwords": self.use_stopwords,
                         "use_stemming": self.use_stemming},
            "base_documents": self.base_documents,
            "document_names": list(self.document_names),
            "segments": [record.to_dict() for record in self.segments],
            "texts": [record.to_dict() for record in self.texts],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "StoreManifest":
        analyzer = raw.get("analyzer", {})
        return cls(
            generation=int(raw["generation"]),
            wal_lsn=int(raw["wal_lsn"]),
            shards=int(raw["shards"]),
            strategy=str(raw["strategy"]),
            index_tags=bool(raw["index_tags"]),
            use_stopwords=bool(analyzer.get("use_stopwords", True)),
            use_stemming=bool(analyzer.get("use_stemming", True)),
            base_documents=int(raw["base_documents"]),
            document_names=tuple(str(n) for n in raw["document_names"]),
            segments=tuple(SegmentRecord.from_dict(entry)
                           for entry in raw.get("segments", ())),
            texts=tuple(TextsRecord.from_dict(entry)
                        for entry in raw.get("texts", ())))


def read_manifest(directory: str | Path) -> StoreManifest:
    """Read and verify the MANIFEST of the store at *directory*.

    Raises :class:`StorageError` with the storage diagnoses —
    ``unreadable`` / ``truncated`` / ``corrupted`` / ``version-mismatch``
    — mirroring :func:`repro.index.storage.read_envelope`.
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            envelope = json.load(handle)
    except EOFError as exc:
        raise StorageError(
            f"cannot read store manifest {path}: file is truncated "
            f"({exc})", diagnosis="truncated", path=path) from exc
    except (gzip.BadGzipFile, json.JSONDecodeError, UnicodeDecodeError,
            zlib.error) as exc:
        raise StorageError(
            f"cannot read store manifest {path}: file is corrupted "
            f"({exc})", diagnosis="corrupted", path=path) from exc
    except OSError as exc:
        raise StorageError(f"cannot read store manifest {path}: {exc}",
                           diagnosis="unreadable", path=path) from exc
    if not isinstance(envelope, dict) or "manifest" not in envelope:
        raise StorageError(
            f"cannot read store manifest {path}: not a manifest envelope",
            diagnosis="corrupted", path=path)
    if envelope.get("version") != MANIFEST_VERSION:
        raise StorageError(
            f"unsupported store manifest version "
            f"{envelope.get('version')!r} in {path}",
            diagnosis="version-mismatch", path=path)
    body = envelope["manifest"]
    if envelope.get("crc32") != payload_crc32(body):
        raise StorageError(
            f"store manifest checksum mismatch in {path} — the file is "
            f"corrupted", diagnosis="corrupted", path=path)
    try:
        return StoreManifest.from_dict(body)
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(
            f"cannot read store manifest {path}: malformed body ({exc})",
            diagnosis="corrupted", path=path) from exc


def write_manifest(directory: str | Path, manifest: StoreManifest) -> Path:
    """Atomically publish *manifest* (temp + fsync + rename + dir fsync)."""
    body = manifest.to_dict()
    envelope = {"version": MANIFEST_VERSION, "crc32": payload_crc32(body),
                "manifest": body}
    path = atomic_write_json_gz(envelope, Path(directory) / MANIFEST_NAME)
    fsync_directory(directory)
    return path


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PendingDocument:
    """One acknowledged-but-unflushed document (WAL + memtable unit)."""

    lsn: int
    doc_id: int
    shard_id: int
    name: str
    text: str
    unit: GKSIndex = field(compare=False)


def _read_texts_file(path: Path) -> list[tuple[int, str, str]]:
    try:
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            body = json.load(handle)
        return [(int(doc_id), str(name), str(text))
                for doc_id, name, text in body["documents"]]
    except OSError as exc:
        raise StorageError(f"cannot read texts sidecar {path}: {exc}",
                           diagnosis="unreadable", path=path) from exc
    except (EOFError, gzip.BadGzipFile, json.JSONDecodeError,
            UnicodeDecodeError, zlib.error, KeyError, TypeError,
            ValueError) as exc:
        raise StorageError(
            f"cannot read texts sidecar {path}: file is corrupted ({exc})",
            diagnosis="corrupted", path=path) from exc


class SegmentStore:
    """The on-disk half of a durable engine: WAL + segments + manifest.

    The store knows nothing about searching; it persists and recovers
    immutable index runs and the raw texts needed to rebuild the
    repository.  The engine composes what the store returns into its
    serving :class:`StackedIndex` stacks.
    """

    def __init__(self, directory: Path, manifest: StoreManifest,
                 wal: WriteAheadLog) -> None:
        self.directory = directory
        self.manifest = manifest
        self.wal = wal
        self._observe_manifest()

    def _observe_manifest(self) -> None:
        """Publish the store's shape as gauges (scraped via /metrics)."""
        registry = global_registry()
        registry.gauge(
            "gks_store_generation",
            help="Generation of the committed store manifest."
        ).set(self.manifest.generation)
        registry.gauge(
            "gks_store_segments",
            help="Immutable segment files referenced by the manifest."
        ).set(len(self.manifest.segments))
        registry.gauge(
            "gks_store_documents",
            help="Documents covered by the committed manifest."
        ).set(len(self.manifest.document_names))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, directory: str | Path,
               index: GKSIndex | ShardedIndex, *, shards: int,
               strategy: str, index_tags: bool,
               fsync: bool = True) -> "SegmentStore":
        """Initialise a store from a freshly built base index (gen 1)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if isinstance(index, ShardedIndex):
            parts = [(shard.shard_id, shard.doc_ids, shard.index)
                     for shard in index.shards if shard.doc_ids]
            analyzer = index.analyzer
            names = index.document_names
        else:
            names = index.document_names
            parts = ([(0, tuple(range(len(names))), index)]
                     if names else [])
            analyzer = index.analyzer
        records = []
        for shard_id, doc_ids, unit in parts:
            file_name = segment_file_name(1, shard_id)
            save_index(unit, directory / file_name)
            records.append(SegmentRecord(
                file=file_name, crc32=file_crc32(directory / file_name),
                shard_id=shard_id, doc_ids=tuple(doc_ids), generation=1))
        manifest = StoreManifest(
            generation=1, wal_lsn=0, shards=shards, strategy=strategy,
            index_tags=index_tags,
            use_stopwords=analyzer.use_stopwords,
            use_stemming=analyzer.use_stemming,
            base_documents=len(names), document_names=tuple(names),
            segments=tuple(records))
        write_manifest(directory, manifest)
        wal = WriteAheadLog.create(directory / WAL_NAME, fsync=fsync)
        return cls(directory, manifest, wal)

    @classmethod
    def open(cls, directory: str | Path, *,
             fsync: bool = True) -> "SegmentStore":
        """Recover the store at *directory*.

        Verifies the manifest, requires the WAL to exist (a missing log
        is corruption, not a torn tail — its absence could hide
        acknowledged writes), deletes orphaned segment/sidecar files
        left by a crash between file writes and the manifest rename, and
        truncates any torn WAL tail.
        """
        directory = Path(directory)
        manifest = read_manifest(directory)
        cls._remove_orphans(directory, manifest)
        wal_path = directory / WAL_NAME
        if not wal_path.exists():
            raise StorageError(
                f"store at {directory} has a manifest but no write-ahead "
                f"log — acknowledged writes may be lost",
                diagnosis="corrupted", path=wal_path)
        wal, replay = WriteAheadLog.open(wal_path, fsync=fsync)
        # LSNs must keep counting past frames the last flush truncated
        wal.ensure_lsn(manifest.wal_lsn)
        tail = [frame for frame in replay.frames
                if frame.lsn > manifest.wal_lsn]
        if tail and tail[0].lsn > manifest.wal_lsn + 1:
            raise StorageError(
                f"WAL at {wal_path} skips lsns {manifest.wal_lsn + 1}.."
                f"{tail[0].lsn - 1} — acknowledged writes are missing",
                diagnosis="corrupted", path=wal_path)
        store = cls(directory, manifest, wal)
        store._tail = tuple(tail)
        return store

    _tail: tuple[WALFrame, ...] = ()

    def close(self) -> None:
        self.wal.close()

    @staticmethod
    def _remove_orphans(directory: Path, manifest: StoreManifest) -> int:
        referenced = ({record.file for record in manifest.segments}
                      | {record.file for record in manifest.texts})
        removed = 0
        for entry in sorted(directory.iterdir()):
            name = entry.name
            orphan = (name.endswith(".tmp")
                      or (SEGMENT_PATTERN.match(name)
                          and name not in referenced)
                      or (TEXTS_PATTERN.match(name)
                          and name not in referenced))
            if orphan:
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass  # an undeletable orphan is reported by --deep
        if removed:
            global_registry().counter(
                "gks_store_orphans_removed_total",
                help="Crash-residue files removed at store open."
            ).inc(removed)
        return removed

    # ------------------------------------------------------------------
    # Recovery reads
    # ------------------------------------------------------------------
    def pending_frames(self) -> tuple[WALFrame, ...]:
        """WAL frames past the manifest's ``wal_lsn`` (unflushed tail)."""
        return self._tail

    def appended_documents(self) -> list[tuple[int, str, str]]:
        """Flushed post-base documents as ``(doc_id, name, text)``.

        Read from the texts sidecars, verified against the manifest's
        per-file CRCs, and checked to cover document ids
        ``base_documents .. len(document_names)-1`` exactly once.
        """
        collected: dict[int, tuple[str, str]] = {}
        for record in self.manifest.texts:
            path = self.directory / record.file
            if file_crc32(path) != record.crc32:
                raise StorageError(
                    f"texts sidecar checksum mismatch for {path}",
                    diagnosis="corrupted", path=path)
            for doc_id, name, text in _read_texts_file(path):
                if doc_id in collected:
                    raise StorageError(
                        f"document {doc_id} appears in multiple texts "
                        f"sidecars of {self.directory}",
                        diagnosis="corrupted", path=path)
                collected[doc_id] = (name, text)
        expected = set(range(self.manifest.base_documents,
                             len(self.manifest.document_names)))
        if set(collected) != expected:
            raise StorageError(
                f"texts sidecars of {self.directory} cover documents "
                f"{sorted(collected)} but the manifest names "
                f"{sorted(expected)}", diagnosis="corrupted",
                path=self.directory / MANIFEST_NAME)
        return [(doc_id, name, text)
                for doc_id, (name, text) in sorted(collected.items())]

    def load_segment_units(self) -> dict[int, list[tuple[SegmentRecord,
                                                         GKSIndex]]]:
        """Verified segment indexes grouped per shard, in run order."""
        by_shard: dict[int, list[tuple[SegmentRecord, GKSIndex]]] = {}
        for record in self.manifest.segments:
            path = self.directory / record.file
            if file_crc32(path) != record.crc32:
                raise StorageError(
                    f"segment checksum mismatch for {path}",
                    diagnosis="corrupted", path=path)
            unit = load_index(path)
            by_shard.setdefault(record.shard_id, []).append((record, unit))
        for runs in by_shard.values():
            runs.sort(key=lambda pair: min(pair[0].doc_ids))
        return by_shard

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------
    def append(self, doc_id: int, name: str | None, text: str) -> int:
        """Durably log one add_document; returns its LSN."""
        return self.wal.append({"op": "add", "doc_id": doc_id,
                                "name": name, "text": text})

    def flush(self, pending: Sequence[PendingDocument]
              ) -> dict[int, tuple[SegmentRecord, GKSIndex]]:
        """Persist the memtable: new segments + sidecar, then commit.

        Writes one merged segment per shard holding pending documents
        and one texts sidecar, publishes a manifest with the next
        generation, and finally truncates the WAL through the flushed
        frames.  Returns the merged per-shard units so the engine can
        collapse its in-memory stacks without re-reading the files.
        """
        pending = sorted(pending, key=lambda doc: doc.doc_id)
        if not pending:
            return {}
        manifest = self.manifest
        expected = list(range(len(manifest.document_names),
                              len(manifest.document_names) + len(pending)))
        if [doc.doc_id for doc in pending] != expected:
            raise ValidationError(
                f"flush expects documents {expected}, got "
                f"{[doc.doc_id for doc in pending]}")
        generation = manifest.generation + 1
        by_shard: dict[int, list[PendingDocument]] = {}
        for doc in pending:
            by_shard.setdefault(doc.shard_id, []).append(doc)
        merged_units: dict[int, tuple[SegmentRecord, GKSIndex]] = {}
        for shard_id in sorted(by_shard):
            docs = by_shard[shard_id]
            merged = merge_indexes([doc.unit for doc in docs])
            file_name = segment_file_name(generation, shard_id)
            save_index(merged, self.directory / file_name)
            record = SegmentRecord(
                file=file_name,
                crc32=file_crc32(self.directory / file_name),
                shard_id=shard_id,
                doc_ids=tuple(doc.doc_id for doc in docs),
                generation=generation)
            merged_units[shard_id] = (record, merged)
        texts_name = texts_file_name(generation)
        atomic_write_json_gz(
            {"version": 1,
             "documents": [[doc.doc_id, doc.name, doc.text]
                           for doc in pending]},
            self.directory / texts_name)
        texts_record = TextsRecord(
            file=texts_name, crc32=file_crc32(self.directory / texts_name),
            doc_ids=tuple(doc.doc_id for doc in pending))
        last_lsn = max(doc.lsn for doc in pending)
        self.manifest = StoreManifest(
            generation=generation, wal_lsn=last_lsn,
            shards=manifest.shards, strategy=manifest.strategy,
            index_tags=manifest.index_tags,
            use_stopwords=manifest.use_stopwords,
            use_stemming=manifest.use_stemming,
            base_documents=manifest.base_documents,
            document_names=manifest.document_names
            + tuple(doc.name for doc in pending),
            segments=manifest.segments
            + tuple(record for record, _ in merged_units.values()),
            texts=manifest.texts + (texts_record,))
        write_manifest(self.directory, self.manifest)
        # checkpoint: flushed frames are now redundant with the manifest
        self.wal.truncate_through(last_lsn)
        global_registry().counter(
            "gks_store_flushes_total",
            help="Memtable flushes committed to the store.").inc()
        global_registry().counter(
            "gks_store_flushed_documents_total",
            help="Documents flushed from the memtable to segments."
        ).inc(len(pending))
        self._observe_manifest()
        return merged_units

    def compact(self) -> dict[int, tuple[SegmentRecord, GKSIndex]]:
        """Merge each shard's segment chain down to one run.

        Shards with a single segment are left alone; texts sidecars are
        merged alongside.  The replaced files are deleted only *after*
        the new manifest is durable — a crash anywhere in between leaves
        orphans for the next open, never a dangling reference.  Returns
        the compacted per-shard units ({} when there was nothing to do).
        """
        manifest = self.manifest
        by_shard: dict[int, list[SegmentRecord]] = {}
        for record in manifest.segments:
            by_shard.setdefault(record.shard_id, []).append(record)
        todo = {shard_id: records for shard_id, records in by_shard.items()
                if len(records) >= 2}
        merge_texts = len(manifest.texts) >= 2
        if not todo and not merge_texts:
            return {}
        generation = manifest.generation + 1
        merged_units: dict[int, tuple[SegmentRecord, GKSIndex]] = {}
        replaced: list[str] = []
        for shard_id in sorted(todo):
            records = sorted(todo[shard_id],
                             key=lambda record: min(record.doc_ids))
            units = []
            for record in records:
                path = self.directory / record.file
                if file_crc32(path) != record.crc32:
                    raise StorageError(
                        f"segment checksum mismatch for {path}",
                        diagnosis="corrupted", path=path)
                units.append(load_index(path))
            merged = merge_indexes(units)
            file_name = segment_file_name(generation, shard_id)
            save_index(merged, self.directory / file_name)
            merged_units[shard_id] = (SegmentRecord(
                file=file_name,
                crc32=file_crc32(self.directory / file_name),
                shard_id=shard_id,
                doc_ids=tuple(doc_id for record in records
                              for doc_id in record.doc_ids),
                generation=generation), merged)
            replaced.extend(record.file for record in records)
        texts_records = manifest.texts
        if merge_texts:
            documents: list[tuple[int, str, str]] = []
            for record in manifest.texts:
                documents.extend(_read_texts_file(self.directory
                                                  / record.file))
            documents.sort(key=lambda entry: entry[0])
            texts_name = texts_file_name(generation)
            atomic_write_json_gz(
                {"version": 1,
                 "documents": [list(entry) for entry in documents]},
                self.directory / texts_name)
            texts_records = (TextsRecord(
                file=texts_name,
                crc32=file_crc32(self.directory / texts_name),
                doc_ids=tuple(entry[0] for entry in documents)),)
            replaced.extend(record.file for record in manifest.texts)
        segments = tuple(
            record for record in manifest.segments
            if record.shard_id not in merged_units
        ) + tuple(record for record, _ in merged_units.values())
        self.manifest = StoreManifest(
            generation=generation, wal_lsn=manifest.wal_lsn,
            shards=manifest.shards, strategy=manifest.strategy,
            index_tags=manifest.index_tags,
            use_stopwords=manifest.use_stopwords,
            use_stemming=manifest.use_stemming,
            base_documents=manifest.base_documents,
            document_names=manifest.document_names,
            segments=segments, texts=texts_records)
        write_manifest(self.directory, self.manifest)
        for file_name in replaced:
            try:
                (self.directory / file_name).unlink()
            except OSError:
                pass  # an orphan; the next open removes it
        global_registry().counter(
            "gks_store_compactions_total",
            help="Segment compactions committed to the store.").inc()
        self._observe_manifest()
        return merged_units

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SegmentStore {self.directory} "
                f"gen={self.manifest.generation} "
                f"segments={len(self.manifest.segments)}>")
