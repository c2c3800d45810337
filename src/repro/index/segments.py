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
    seg-g000001-s0.gksindex    one index file per (generation, shard), in
                               the codec it was written with
    txt-g000002.json.gz        document texts appended at each flush

The MANIFEST is the single commit point: every flush/compaction writes
its new segment files first, then publishes a manifest with a strictly
larger generation via atomic rename.  A crash in between leaves
unreferenced files, which :meth:`SegmentStore.open` deletes; a crash
after the rename but before WAL truncation leaves already-flushed
frames in the log, which recovery skips by comparing against the
manifest's ``wal_lsn``.  At no point is there a state from which the
index cannot be reconstructed node-for-node.

Segments go through the :class:`~repro.index.codec.Codec` seam like any
saved index: the store writes new ones in the codec it was opened with
(``EngineConfig.codec``) and reads each by sniffing, so one store may
hold segments of both codecs.

The store persists and recovers runs; it never merges them.  The
durable layer (:mod:`repro.core.durable`) merges the in-memory units it
already holds (:func:`repro.index.composite.merge_indexes`) and hands
the store finished runs to write and commit.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

from repro.errors import StorageError, ValidationError
from repro.index.builder import GKSIndex
from repro.index.codec import resolve_codec
from repro.index.composite import Run
from repro.index.storage import (atomic_write_json_gz, load_index,
                                 payload_crc32, read_json_gz)
from repro.index.wal import WALFrame, WriteAheadLog, fsync_directory
from repro.obs.metrics import global_registry
from repro.obs.trace import DEFAULT_CLOCK, NOOP_TRACER
from repro.text.analyzer import Analyzer

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
# Manifest
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentRecord:
    """One immutable on-disk segment: one shard's index file."""

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
    #: CRC32 of the base texts in order (``Repository.corpus_crc32``);
    #: ``None`` for a store that does not record it
    corpus_crc32: int | None = None

    def to_dict(self) -> dict:
        return {
            "generation": self.generation,
            "wal_lsn": self.wal_lsn,
            "shards": self.shards,
            "strategy": self.strategy,
            "index_tags": self.index_tags,
            "analyzer": Analyzer(self.use_stopwords,
                                 self.use_stemming).flags(),
            "base_documents": self.base_documents,
            "document_names": list(self.document_names),
            "segments": [record.to_dict() for record in self.segments],
            "texts": [record.to_dict() for record in self.texts],
            "corpus_crc32": self.corpus_crc32,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "StoreManifest":
        analyzer = Analyzer.from_flags(raw.get("analyzer", {}))
        return cls(
            generation=int(raw["generation"]),
            wal_lsn=int(raw["wal_lsn"]),
            shards=int(raw["shards"]),
            strategy=str(raw["strategy"]),
            index_tags=bool(raw["index_tags"]),
            use_stopwords=analyzer.use_stopwords,
            use_stemming=analyzer.use_stemming,
            base_documents=int(raw["base_documents"]),
            document_names=tuple(str(n) for n in raw["document_names"]),
            segments=tuple(SegmentRecord.from_dict(entry)
                           for entry in raw.get("segments", ())),
            texts=tuple(TextsRecord.from_dict(entry)
                        for entry in raw.get("texts", ())),
            corpus_crc32=raw.get("corpus_crc32"))


def read_manifest(directory: str | Path) -> StoreManifest:
    """Read and verify the MANIFEST of the store at *directory*.

    Raises :class:`StorageError` with the storage diagnoses —
    ``unreadable`` / ``truncated`` / ``corrupted`` / ``version-mismatch``.
    """
    path = Path(directory) / MANIFEST_NAME
    envelope = read_json_gz(path, "store manifest")
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
    """One acknowledged-but-unflushed document: its memtable unit, plus
    the WAL position when the engine has a store (``None`` otherwise)."""

    lsn: int | None
    doc_id: int
    shard_id: int
    name: str
    text: str
    unit: GKSIndex = field(compare=False)


def _write_segments(directory: Path, generation: int,
                    runs: Mapping[int, Run], codec: str,
                    tracer=NOOP_TRACER) -> tuple[SegmentRecord, ...]:
    """Write one immutable segment file per run in the named codec's
    format (``encode`` + ``write`` spans each); returns their records."""
    save = resolve_codec(codec).save
    seconds = global_registry().histogram(
        "gks_store_segment_write_seconds",
        help="Wall time of writing one segment file (encode + write).")
    records = []
    for shard_id in sorted(runs):
        doc_ids, index = runs[shard_id]
        file_name = segment_file_name(generation, shard_id)
        started = DEFAULT_CLOCK()
        save(index, directory / file_name, tracer)
        seconds.observe(DEFAULT_CLOCK() - started)
        records.append(SegmentRecord(
            file=file_name, crc32=file_crc32(directory / file_name),
            shard_id=shard_id, doc_ids=tuple(doc_ids),
            generation=generation))
    return tuple(records)


def _read_texts_file(path: Path) -> list[tuple[int, str, str]]:
    body = read_json_gz(path, "texts sidecar")
    try:
        return [(int(doc_id), str(name), str(text))
                for doc_id, name, text in body["documents"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(
            f"cannot read texts sidecar {path}: file is corrupted ({exc})",
            diagnosis="corrupted", path=path) from exc


class SegmentStore:
    """The on-disk half of a durable engine: WAL + segments + manifest.

    The store knows nothing about searching or merging; it persists and
    recovers immutable index runs and the raw texts needed to rebuild
    the repository.  Runs arrive as ``shard_id -> (doc_ids, index)``;
    *codec* names the format new segments are written in.
    """

    def __init__(self, directory: Path, manifest: StoreManifest,
                 wal: WriteAheadLog, tail: Sequence[WALFrame] = (),
                 codec: str = "raw") -> None:
        self.directory = directory
        self.manifest = manifest
        self.wal = wal
        self.codec = codec
        #: WAL frames past the manifest's ``wal_lsn`` (the unflushed tail)
        self.tail: tuple[WALFrame, ...] = tuple(tail)
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
    def create(cls, directory: str | Path, runs: Mapping[int, Run], *,
               document_names: Sequence[str], analyzer: Analyzer,
               shards: int, strategy: str, index_tags: bool,
               corpus_crc32: int | None = None, codec: str = "raw",
               fsync: bool = True) -> "SegmentStore":
        """Initialise a store from a freshly built base index (gen 1):
        one segment per shard that holds documents."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = StoreManifest(
            generation=1, wal_lsn=0, shards=shards, strategy=strategy,
            index_tags=index_tags,
            use_stopwords=analyzer.use_stopwords,
            use_stemming=analyzer.use_stemming,
            base_documents=len(document_names),
            document_names=tuple(document_names),
            segments=_write_segments(directory, 1, runs, codec),
            corpus_crc32=corpus_crc32)
        write_manifest(directory, manifest)
        wal = WriteAheadLog.create(directory / WAL_NAME, fsync=fsync)
        return cls(directory, manifest, wal, codec=codec)

    @classmethod
    def open(cls, directory: str | Path, *, codec: str = "raw",
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
        return cls(directory, manifest, wal, tail, codec)

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
    def _verified(self, record: SegmentRecord | TextsRecord,
                  what: str) -> Path:
        """The path of *record*'s file once its bytes match the CRC the
        manifest committed."""
        path = self.directory / record.file
        if file_crc32(path) != record.crc32:
            raise StorageError(f"{what} checksum mismatch for {path}",
                               diagnosis="corrupted", path=path)
        return path

    def appended_documents(self) -> list[tuple[int, str, str]]:
        """Flushed post-base documents as ``(doc_id, name, text)``.

        Read from the texts sidecars, verified against the manifest's
        per-file CRCs, and checked to cover document ids
        ``base_documents .. len(document_names)-1`` exactly once.
        """
        collected: dict[int, tuple[str, str]] = {}
        for record in self.manifest.texts:
            path = self._verified(record, "texts sidecar")
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

    def load_runs(self) -> dict[int, list[Run]]:
        """Verified segment indexes grouped per shard, in run order."""
        by_shard: dict[int, list[Run]] = {}
        for record in self.manifest.segments:
            unit = load_index(self._verified(record, "segment"))
            by_shard.setdefault(record.shard_id, []).append(
                (record.doc_ids, unit))
        for chain in by_shard.values():
            chain.sort(key=lambda run: min(run[0]))
        return by_shard

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------
    def append(self, doc_id: int, name: str | None, text: str) -> int:
        """Durably log one add_document; returns its LSN."""
        return self.wal.append({"op": "add", "doc_id": doc_id,
                                "name": name, "text": text})

    def _write_texts(self, generation: int,
                     documents: Sequence[tuple[int, str, str]]
                     ) -> TextsRecord:
        name = texts_file_name(generation)
        atomic_write_json_gz(
            {"version": 1,
             "documents": [list(entry) for entry in documents]},
            self.directory / name)
        return TextsRecord(
            file=name, crc32=file_crc32(self.directory / name),
            doc_ids=tuple(entry[0] for entry in documents))

    def _commit(self, **changes) -> None:
        """Publish the next manifest: the single commit point."""
        manifest = replace(self.manifest, **changes)
        write_manifest(self.directory, manifest)
        self.manifest = manifest
        self._observe_manifest()

    def flush(self, pending: Sequence[PendingDocument],
              runs: Mapping[int, Run], tracer=NOOP_TRACER) -> None:
        """Persist the memtable: new segments + sidecar, then commit.

        *runs* is the memtable merged to one run per shard.  Writes one
        segment per run and one texts sidecar (span ``texts``), then
        publishes a manifest with the next generation and truncates the
        WAL through the flushed frames (span ``commit``).
        """
        pending = sorted(pending, key=lambda doc: doc.doc_id)
        if not pending:
            return
        manifest = self.manifest
        expected = list(range(len(manifest.document_names),
                              len(manifest.document_names) + len(pending)))
        if [doc.doc_id for doc in pending] != expected:
            raise ValidationError(
                f"flush expects documents {expected}, got "
                f"{[doc.doc_id for doc in pending]}")
        owned: dict[int, tuple[int, ...]] = {}
        for doc in pending:
            owned[doc.shard_id] = owned.get(doc.shard_id, ()) + (doc.doc_id,)
        handed = {shard_id: tuple(doc_ids)
                  for shard_id, (doc_ids, _) in runs.items()}
        if handed != owned:
            raise ValidationError(
                f"flush runs cover {handed} but the memtable holds {owned}")
        generation = manifest.generation + 1
        segments = _write_segments(self.directory, generation, runs,
                                   self.codec, tracer)
        with tracer.span("texts"):
            texts = self._write_texts(
                generation, [(doc.doc_id, doc.name, doc.text)
                             for doc in pending])
        last_lsn = max(doc.lsn for doc in pending)
        with tracer.span("commit"):
            self._commit(
                generation=generation, wal_lsn=last_lsn,
                document_names=manifest.document_names
                + tuple(doc.name for doc in pending),
                segments=manifest.segments + segments,
                texts=manifest.texts + (texts,))
            # checkpoint: the manifest now covers the flushed frames
            self.wal.truncate_through(last_lsn)
        global_registry().counter(
            "gks_store_flushes_total",
            help="Memtable flushes committed to the store.").inc()
        global_registry().counter(
            "gks_store_flushed_documents_total",
            help="Documents flushed from the memtable to segments."
        ).inc(len(pending))

    def compact(self, runs: Mapping[int, Run], tracer=NOOP_TRACER) -> None:
        """Replace, per shard in *runs*, the newest segments its merged
        run covers by that run.

        A run must cover exactly the documents of a suffix of its
        shard's chain (segments in document order); older segments stay
        as they are.  Texts sidecars are merged alongside; spans as in
        :meth:`flush`, plus ``verify`` around the checksum pass.  Every
        replaced segment — and no other — is CRC-verified before anything
        is written, and the replaced files are deleted only *after* the
        new manifest is durable — a crash anywhere in between leaves
        orphans for the next open, never a dangling reference.  No-op
        when there is nothing to replace.
        """
        manifest = self.manifest
        merge_texts = len(manifest.texts) >= 2
        if not runs and not merge_texts:
            return
        replaced = [record for shard_id, (doc_ids, _) in sorted(runs.items())
                    for record in self._suffix(shard_id, doc_ids)]
        with tracer.span("verify"):
            for record in replaced:
                self._verified(record, "segment")
        generation = manifest.generation + 1
        segments = _write_segments(self.directory, generation, runs,
                                   self.codec, tracer)
        texts = manifest.texts
        stale = [record.file for record in replaced]
        if merge_texts:
            with tracer.span("texts"):
                documents = sorted(
                    entry for record in manifest.texts for entry
                    in _read_texts_file(self.directory / record.file))
                texts = (self._write_texts(generation, documents),)
            stale.extend(record.file for record in manifest.texts)
        with tracer.span("commit"):
            self._commit(
                generation=generation,
                segments=tuple(record for record in manifest.segments
                               if record not in replaced) + segments,
                texts=texts)
            for file_name in stale:
                try:
                    (self.directory / file_name).unlink()
                except OSError:
                    pass  # an orphan; the next open removes it
        global_registry().counter(
            "gks_store_compactions_total",
            help="Segment compactions committed to the store.").inc()

    def _suffix(self, shard_id: int, doc_ids) -> list[SegmentRecord]:
        """The newest segments of *shard_id* whose documents are exactly
        *doc_ids*; :class:`ValidationError` when no suffix of the chain
        holds them."""
        chain = sorted((record for record in self.manifest.segments
                        if record.shard_id == shard_id),
                       key=lambda record: min(record.doc_ids))
        wanted = sorted(doc_ids)
        start, held = len(chain), 0
        while start and held < len(wanted):
            start -= 1
            held += len(chain[start].doc_ids)
        suffix = chain[start:]
        if not wanted or sorted(doc_id for record in suffix
                                for doc_id in record.doc_ids) != wanted:
            raise ValidationError(
                f"compaction run of shard {shard_id} covers documents "
                f"{wanted} but no suffix of its segments holds them: "
                f"{[list(record.doc_ids) for record in chain]}")
        return suffix

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SegmentStore {self.directory} "
                f"gen={self.manifest.generation} "
                f"segments={len(self.manifest.segments)}>")
