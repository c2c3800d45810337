"""Index persistence (paper §2.4: "Creating the index is a onetime
activity").

This module is the public door to saved indexes — :func:`save_index`,
:func:`load_index`, :func:`describe_layout`, :func:`check_index` — and
the home of the gzip+JSON primitives every on-disk artefact shares.  It
knows no file layout: a save goes to the codec named by the caller, a
read to the first registered codec whose ``sniff`` claims the file
(:mod:`repro.index.codec` — ``raw``, the gzip-JSON envelopes, storage
versions 2 and 3; ``varint-dag``, the binary format, v5).

Durability
----------
Every write is atomic (:func:`atomic_write_bytes`, under the gzip+JSON
writers and the binary writer alike): the bytes go to a temporary file in
the target directory, are fsynced, and renamed over the destination — a
crash mid-write can never leave a truncated index under the final name.
Deflate streams are written at :data:`DEFLATE_LEVEL`.  Every format embeds
CRC32 checksums; ``load_index`` verifies them and raises
:class:`StorageError` with a machine-readable ``diagnosis`` —
``"truncated"`` (the stream ends early), ``"corrupted"`` (bad bytes or a
checksum mismatch), ``"version-mismatch"`` (an unknown or retired format
version — storage version 1, which had no checksum and has had no writer
since version 2, is refused this way) or ``"unreadable"``.

Table 4's "Index Size" column is measured with :func:`index_size_bytes`.
"""

from __future__ import annotations

import gzip
import json
import os
import zlib
from pathlib import Path

from repro.errors import StorageError
from repro.index.builder import GKSIndex
from repro.index.sharding import ShardedIndex
from repro.obs.metrics import global_registry


#: zlib level of every deflate stream written: the gzip+JSON artefacts
#: (index files, segments, texts sidecars, manifests) and the binary frames
#: and directories.  Measured, not the library's default 9 — the sweep
#: is in EXPERIMENTS.md, "write path: where a compaction goes".
DEFLATE_LEVEL = 6


def canonical_json(payload) -> bytes:
    """The canonical (compact, key-sorted, ASCII) JSON bytes of *payload*:
    what every JSON-region checksum is taken over."""
    return json.dumps(payload, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")


def payload_crc32(payload: dict) -> int:
    """CRC32 of the canonical JSON of *payload*.

    The one checksum of every JSON region on disk — raw envelopes and
    shard manifests, the binary header, the store MANIFEST — so writers,
    the deep audit and the fault injectors agree byte for byte.
    """
    return zlib.crc32(canonical_json(payload)) & 0xFFFFFFFF


def atomic_write_bytes(data: bytes, path: str | Path) -> Path:
    """Write *data* to *path* atomically — the shared durability
    primitive of every on-disk artefact (temp file, fsync, rename; see
    *Durability* above).  Raises :class:`StorageError`
    (``diagnosis="unwritable"``) on any OS failure; the temp file is
    cleaned up best-effort."""
    path = Path(path)
    temp_path = path.with_name(path.name + ".tmp")
    try:
        with open(temp_path, "wb") as raw:
            raw.write(data)
            raw.flush()
            os.fsync(raw.fileno())
        os.replace(temp_path, path)
    except OSError as exc:
        try:
            temp_path.unlink()
        except OSError:
            pass
        raise StorageError(f"cannot write {path}: {exc}",
                           diagnosis="unwritable", path=path) from exc
    return path


def atomic_write_gz(text: bytes, path: str | Path) -> Path:
    """Gzip already-serialised JSON *text* at :data:`DEFLATE_LEVEL` and
    write it atomically.  ``mtime=0`` and no embedded file name keep the
    bytes a function of the content alone, so file-level CRCs are stable
    and two saves of one index compare equal."""
    return atomic_write_bytes(
        gzip.compress(text, DEFLATE_LEVEL, mtime=0), path)


def atomic_write_json_gz(envelope: dict, path: str | Path) -> Path:
    """Write *envelope* as gzip + compact JSON, atomically
    (:func:`atomic_write_gz` of its serialisation)."""
    return atomic_write_gz(
        json.dumps(envelope, separators=(",", ":")).encode("utf-8"), path)


def read_json_gz(path: str | Path, what: str = "index from"):
    """Read one gzip+JSON file whole; the inverse of
    :func:`atomic_write_json_gz` and the only gunzip on the read side.

    *what* names the artefact in the error (``"index from"``, ``"store
    manifest"``, ``"texts sidecar"``).  Raises :class:`StorageError`:
    ``truncated`` when the gzip stream ends before its trailer (a torn
    write), ``corrupted`` for bad gzip/JSON bytes, ``unreadable`` for
    OS failures.
    """
    try:
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            return json.load(handle)
    except EOFError as exc:
        raise StorageError(
            f"cannot read {what} {path}: file is truncated ({exc})",
            diagnosis="truncated", path=path) from exc
    except (gzip.BadGzipFile, json.JSONDecodeError, UnicodeDecodeError,
            zlib.error) as exc:
        raise StorageError(
            f"cannot read {what} {path}: file is corrupted ({exc})",
            diagnosis="corrupted", path=path) from exc
    except OSError as exc:
        raise StorageError(f"cannot read {what} {path}: {exc}",
                           diagnosis="unreadable", path=path) from exc


def save_index(index: GKSIndex | ShardedIndex, path: str | Path,
               codec: str = "raw") -> Path:
    """Write *index* to *path* atomically in the named codec's format.

    ``"raw"`` (default) writes the JSON envelopes — v2 for a plain
    :class:`GKSIndex`, v3 (shard manifest + per-shard CRCs) for a
    :class:`ShardedIndex`; ``"varint-dag"`` writes the binary format (v5).
    Unknown codec names raise :class:`~repro.errors.ConfigError`.
    Returns the path written.
    """
    from repro.index.codec import resolve_codec

    path = resolve_codec(codec).save(index, Path(path))
    registry = global_registry()
    registry.counter("gks_index_saves_total",
                     help="Indexes persisted to disk.").inc()
    registry.gauge("gks_index_file_bytes",
                   help="On-disk size of the most recently saved index."
                   ).set(path.stat().st_size)
    return path


def load_index(path: str | Path) -> GKSIndex | ShardedIndex:
    """Read an index previously written by :func:`save_index`.

    Readers never name a codec: the file goes to the first one that
    sniffs it.  Returns a :class:`ShardedIndex` for sharded files and a
    plain :class:`GKSIndex` otherwise.  Raises :class:`StorageError`
    carrying a ``diagnosis`` naming the failure class (truncated /
    corrupted / version-mismatch / unreadable).  A binary file's load
    verifies its header and directory tables; the rest verifies (and
    raises) on first touch, and :func:`check_index` verifies all of it.
    """
    from repro.index.codec import sniff_codec

    registry = global_registry()
    try:
        index = sniff_codec(path).load(Path(path))
    except StorageError as exc:
        registry.counter(
            "gks_index_load_failures_total",
            help="Index loads rejected, by failure diagnosis."
        ).inc(labels={"diagnosis": exc.diagnosis or "unknown"})
        raise
    registry.counter("gks_index_loads_total",
                     help="Indexes loaded from disk.").inc()
    return index


def describe_layout(path: str | Path) -> dict:
    """Describe how an index is persisted: version / codec / layout.

    Accepts every form ``check-index`` does.  An index file answers
    through its codec's ``describe``: ``version`` (storage format
    version), ``codec``, ``layout`` (``"monolithic"`` / ``"sharded"``),
    and ``shards``.  A segmented store (the directory or its
    ``MANIFEST``) reports ``layout="store"``, the manifest's
    ``version`` / ``shards`` / ``segments`` / ``generation``, and as
    ``codec`` the comma-joined sorted codecs its segments sniff as.
    Raises
    :class:`StorageError` when the target cannot be read or parsed.
    """
    from repro.index.codec import sniff_codec

    path = Path(path)
    if path.is_dir() or path.name == "MANIFEST":
        from repro.index.segments import MANIFEST_VERSION, read_manifest

        directory = path if path.is_dir() else path.parent
        manifest = read_manifest(directory)
        codecs = sorted({sniff_codec(directory / record.file).name
                         for record in manifest.segments})
        return {"version": MANIFEST_VERSION, "codec": ",".join(codecs),
                "layout": "store", "shards": manifest.shards,
                "segments": len(manifest.segments),
                "generation": manifest.generation}
    return sniff_codec(path).describe(path)


def check_index(path: str | Path) -> dict:
    """Structural health of an index file or a segmented store — are the
    bytes what was written? (``gks check-index``).

    Accepts every form :func:`describe_layout` does.  An index file is
    checked by its codec's ``load`` (every CRC, every Dewey id) and
    ``check`` (the regions a lazy load has not touched); a store by its
    manifest, every file against its recorded CRC32, every segment's
    load and a WAL replay (a torn tail is legal crash residue, counted
    in ``wal_torn_bytes``).  Whether the tables are *right* is the deep
    audit's question (:mod:`repro.analysis.invariants`).

    Returns one flat mapping: ``path``, ``ok``, the layout facts and the
    counters — or ``diagnosis``/``error`` on failure.  Never raises.
    """
    from repro.index.codec import sniff_codec

    path = Path(path)
    if path.is_dir() or path.name == "MANIFEST":
        return _check_store(path if path.is_dir() else path.parent)
    summary: dict = {"path": str(path), "ok": False}
    try:
        summary["size_bytes"] = index_size_bytes(path)
    except OSError as exc:
        summary.update(diagnosis="unreadable", error=str(exc))
        return summary
    codec = sniff_codec(path)
    summary["codec"] = codec.name
    # the whole summary stays inside the guard: a lazily loaded binary
    # index can surface a truncated or corrupt region only when its
    # tables are first touched, not at load time
    try:
        index = load_index(path)
        summary.update(codec.describe(path, index))
        # per shard: a binary file answers both from its directories, the
        # merged ``inverted`` of a sharded index would decode every list
        parts = ([shard.index.inverted for shard in index.shards]
                 if isinstance(index, ShardedIndex) else [index.inverted])
        summary.update(
            documents=len(index.document_names),
            keywords=len(set().union(*(part.vocabulary
                                       for part in parts))),
            postings=sum(part.total_postings for part in parts),
            entity_nodes=index.hashes.entity_count,
            element_nodes=index.hashes.element_count,
            total_nodes=index.stats.total_nodes)
        codec.check(path, index)
    except StorageError as exc:
        summary.update(diagnosis=exc.diagnosis or "corrupted",
                       error=str(exc))
        return summary
    summary["ok"] = True
    if isinstance(index, ShardedIndex):
        summary.update(strategy=index.strategy)
    return summary


def _check_store(directory: Path) -> dict:
    """:func:`check_index` of a segmented store directory."""
    from repro.index.codec import sniff_codec
    from repro.index.segments import WAL_NAME, file_crc32, read_manifest
    from repro.index.wal import replay_wal

    # a manifest that does not read still leaves the target a store
    summary: dict = {"path": str(directory), "ok": False, "layout": "store"}
    step = ""  # names the file a load or replay error comes from
    try:
        manifest = read_manifest(directory)
        summary.update(describe_layout(directory))
        for record in (*manifest.segments, *manifest.texts):
            if file_crc32(directory / record.file) != record.crc32:
                raise StorageError(f"{record.file} does not match its "
                                   f"manifest CRC32", diagnosis="corrupted")
        for record in manifest.segments:
            step = f"segment {record.file}: "
            segment = directory / record.file
            sniff_codec(segment).check(segment, load_index(segment))
        step = "WAL: "
        replay = replay_wal(directory / WAL_NAME)
    except StorageError as exc:
        summary.update(diagnosis=exc.diagnosis or "corrupted",
                       error=f"{step}{exc}")
        return summary
    summary.update(
        ok=True, generation=manifest.generation,
        documents=len(manifest.document_names),
        wal_tail=sum(frame.lsn > manifest.wal_lsn
                     for frame in replay.frames),
        segments=len(manifest.segments), shards=manifest.shards,
        strategy=manifest.strategy, wal_frames=len(replay.frames),
        wal_torn_bytes=replay.torn_bytes)
    return summary


def index_size_bytes(path: str | Path) -> int:
    """On-disk size of a saved index (Table 4's "Index Size" column)."""
    return Path(path).stat().st_size
