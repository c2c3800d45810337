"""Index persistence (paper §2.4: "Creating the index is a onetime
activity").

An index is written as a single gzip-compressed JSON file.  Dewey ids are
stored in the paper's dotted notation; posting lists stay sorted on disk so
loading needs no re-sort (a checksum of sortedness is verified on load).
The format is versioned; loading an unknown version fails loudly rather
than guessing.

Durability (format version 2)
-----------------------------
``save_index`` is atomic: the gzip payload is written to a temporary file
in the target directory, fsynced, and renamed over the destination —
a crash mid-write can never leave a truncated index under the final name.
The envelope embeds a CRC32 of the canonical payload serialization;
``load_index`` verifies it and raises :class:`StorageError` with a
machine-readable ``diagnosis`` — ``"truncated"`` (the gzip stream ends
early, e.g. a torn write of the temp-file-less v1 era), ``"corrupted"``
(bad gzip/JSON bytes or checksum mismatch) or ``"version-mismatch"``.
Version-1 files (no checksum) still load.

Sharded indexes (format version 3)
----------------------------------
A :class:`~repro.index.sharding.ShardedIndex` is stored as a *shard
manifest* — partitioning strategy, global document names, analyzer
settings and one CRC32 per shard — plus the per-shard payloads, all in
the same single atomic gzip file.  The manifest carries its own CRC32
(computed over the manifest including the per-shard CRCs), so a flipped
bit in any shard payload or in the manifest itself is detected on load
and the file is rejected whole.

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
from repro.obs.metrics import global_registry
from repro.index.hashtables import NodeHashes
from repro.index.inverted import InvertedIndex
from repro.index.probtables import ProbTables
from repro.index.sharding import Shard, ShardedIndex
from repro.index.statistics import IndexStats
from repro.text.analyzer import Analyzer
from repro.xmltree.dewey import format_dewey, parse_dewey

FORMAT_VERSION = 2
FORMAT_VERSION_SHARDED = 3
_SUPPORTED_VERSIONS = (1, 2, 3)


def _payload_dict(index: GKSIndex) -> dict:
    payload = {
        "analyzer": {
            "use_stopwords": index.analyzer.use_stopwords,
            "use_stemming": index.analyzer.use_stemming,
        },
        "document_names": list(index.document_names),
        "stats": index.stats.to_dict(),
        "entity_hash": {format_dewey(dewey): count
                        for dewey, count in index.hashes.entity_table.items()},
        "element_hash": {format_dewey(dewey): count
                         for dewey, count
                         in index.hashes.element_table.items()},
        "postings": {keyword: [format_dewey(dewey) for dewey in posting_list]
                     for keyword, posting_list in index.inverted.items()},
    }
    # Conditional key: a strict index's payload (and its CRC32) stays
    # byte-identical to the pre-probabilistic format.
    if isinstance(index.probabilities, ProbTables) and index.probabilities:
        payload["probabilities"] = index.probabilities.to_dict()
    return payload


def _canonical(payload: dict) -> str:
    """The byte-stable serialization the CRC32 is computed over."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def payload_crc32(payload: dict) -> int:
    """CRC32 of the canonical serialization of *payload*.

    Public so the deep invariant verifier
    (:mod:`repro.analysis.invariants`) and the fault injectors
    (:class:`repro.testing.faults.IndexCorruptor`) compute byte-identical
    checksums to the ones embedded at save time.
    """
    return zlib.crc32(_canonical(payload).encode("utf-8")) & 0xFFFFFFFF


_crc = payload_crc32


def atomic_write_json_gz(envelope: dict, path: str | Path) -> Path:
    """Write *envelope* as gzip + compact JSON, atomically.

    The shared durability primitive of every on-disk artefact: the bytes
    go to a temporary file in the target directory, are fsynced, and the
    temp file is renamed over the destination — a crash mid-write can
    never leave a truncated file under the final name.  ``mtime=0``
    keeps the gzip bytes deterministic so file-level CRCs are stable.
    Raises :class:`StorageError` (``diagnosis="unwritable"``) on any OS
    failure; the temp file is cleaned up best-effort.
    """
    path = Path(path)
    temp_path = path.with_name(path.name + ".tmp")
    try:
        with open(temp_path, "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
                handle.write(
                    json.dumps(envelope, separators=(",", ":"))
                    .encode("utf-8"))
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


def _sharded_envelope(index: ShardedIndex) -> dict:
    """The v3 envelope: shard manifest (with per-shard CRCs) + payloads."""
    payloads = [_payload_dict(shard.index) for shard in index.shards]
    manifest = {
        "strategy": index.strategy,
        "document_names": list(index.document_names),
        "analyzer": {
            "use_stopwords": index.analyzer.use_stopwords,
            "use_stemming": index.analyzer.use_stemming,
        },
        "shards": [{
            "shard_id": shard.shard_id,
            "doc_ids": list(shard.doc_ids),
            "crc32": _crc(payload),
        } for shard, payload in zip(index.shards, payloads)],
    }
    return {
        "version": FORMAT_VERSION_SHARDED,
        "crc32": _crc(manifest),
        "manifest": manifest,
        "shards": payloads,
    }


def save_index(index: GKSIndex | ShardedIndex, path: str | Path,
               codec: str = "raw") -> Path:
    """Write *index* to *path* atomically (temp file + fsync + rename).

    ``codec`` picks the on-disk representation: ``"raw"`` (default)
    writes the JSON envelope formats — v2 for a plain
    :class:`GKSIndex`, v3 (shard manifest + per-shard CRCs) for a
    :class:`ShardedIndex` — while ``"varint-dag"`` writes the v4
    binary format (:mod:`repro.index.codec`: delta+varint posting
    blocks, DAG-shared subtrees, lazy loading).  Every format embeds
    CRC32 checksums so :func:`load_index` can distinguish a clean file
    from silent corruption.  Unknown codec names raise
    :class:`~repro.errors.ConfigError`.  Returns the path written.
    """
    path = Path(path)
    if codec == "raw":
        if isinstance(index, ShardedIndex):
            envelope = _sharded_envelope(index)
        else:
            payload = _payload_dict(index)
            envelope = {
                "version": FORMAT_VERSION,
                "crc32": _crc(payload),
                "payload": payload,
            }
        atomic_write_json_gz(envelope, path)
    else:
        from repro.index.codec import resolve_codec

        resolve_codec(codec).save(index, path)
    registry = global_registry()
    registry.counter("gks_index_saves_total",
                     help="Indexes persisted to disk.").inc()
    registry.gauge("gks_index_file_bytes",
                   help="On-disk size of the most recently saved index."
                   ).set(path.stat().st_size)
    return path


def load_index(path: str | Path) -> GKSIndex | ShardedIndex:
    """Read an index previously written by :func:`save_index`.

    Returns a :class:`ShardedIndex` for v3 files and a plain
    :class:`GKSIndex` otherwise.  Raises :class:`StorageError` carrying
    a ``diagnosis`` naming the failure class (truncated / corrupted /
    version-mismatch / unreadable); a verified index is returned whole
    or not at all — a torn write can never yield a partially-read index,
    and a corrupted shard payload rejects the whole file.
    """
    registry = global_registry()
    try:
        index = _load_index(path)
    except StorageError as exc:
        registry.counter(
            "gks_index_load_failures_total",
            help="Index loads rejected, by failure diagnosis."
        ).inc(labels={"diagnosis": exc.diagnosis or "unknown"})
        raise
    registry.counter("gks_index_loads_total",
                     help="Indexes loaded from disk.").inc()
    return index


def read_envelope(path: str | Path) -> dict:
    """Read the raw persisted envelope without rebuilding the index.

    This is the *unrepaired* on-disk view: posting lists come back in
    exactly the stored order (``load_index`` re-sorts them through
    :meth:`InvertedIndex.from_mapping`, which hides on-disk corruption
    the CRC alone cannot prove intentional).  The deep invariant
    verifier audits this raw form.  Raises :class:`StorageError` with
    the usual ``diagnosis`` for unreadable/truncated/corrupted files
    and unknown format versions.
    """
    path = Path(path)
    try:
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            envelope = json.load(handle)
    except EOFError as exc:
        # the gzip stream ends before its trailer: a torn/partial write
        raise StorageError(
            f"cannot read index from {path}: file is truncated ({exc})",
            diagnosis="truncated", path=path) from exc
    except (gzip.BadGzipFile, json.JSONDecodeError, UnicodeDecodeError,
            zlib.error) as exc:
        raise StorageError(
            f"cannot read index from {path}: file is corrupted ({exc})",
            diagnosis="corrupted", path=path) from exc
    except OSError as exc:
        raise StorageError(f"cannot read index from {path}: {exc}",
                           diagnosis="unreadable", path=path) from exc

    if not isinstance(envelope, dict):
        raise StorageError(f"cannot read index from {path}: not an index "
                           f"envelope", diagnosis="corrupted", path=path)
    version = envelope.get("version")
    if version not in _SUPPORTED_VERSIONS:
        raise StorageError(
            f"unsupported index format version {version!r} in {path}",
            diagnosis="version-mismatch", path=path)
    return envelope


def write_envelope(envelope: dict, path: str | Path) -> Path:
    """Write a raw *envelope* back to *path* (gzip + compact JSON).

    The inverse of :func:`read_envelope`, for tools that edit the
    persisted form directly — chiefly the fault injector
    (:class:`repro.testing.faults.IndexCorruptor`), which mutates a
    payload and recomputes its CRCs so the file stays *structurally*
    clean while violating a deep invariant.  No atomicity: this is a
    test/diagnostic surface, not the durability path (`save_index`).
    """
    path = Path(path)
    try:
        with open(path, "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
                handle.write(json.dumps(envelope, separators=(",", ":"))
                             .encode("utf-8"))
    except OSError as exc:
        raise StorageError(f"cannot write index to {path}: {exc}",
                           diagnosis="unwritable", path=path) from exc
    return path


def _load_index(path: str | Path) -> GKSIndex | ShardedIndex:
    path = Path(path)
    from repro.index.codec import is_binary_index, load_binary_index

    if is_binary_index(path):
        return load_binary_index(path)
    envelope = read_envelope(path)
    version = envelope.get("version")

    if version == FORMAT_VERSION_SHARDED:
        return _sharded_from_envelope(envelope, path)

    if version == 1:
        payload = envelope  # v1 stored the payload fields at top level
    else:
        payload = envelope.get("payload")
        if not isinstance(payload, dict):
            raise StorageError(
                f"cannot read index from {path}: envelope has no payload",
                diagnosis="corrupted", path=path)
        expected_crc = envelope.get("crc32")
        actual_crc = (zlib.crc32(_canonical(payload).encode("utf-8"))
                      & 0xFFFFFFFF)
        if expected_crc != actual_crc:
            raise StorageError(
                f"checksum mismatch in {path}: stored crc32 "
                f"{expected_crc!r}, computed {actual_crc:#010x} — the "
                f"file is corrupted", diagnosis="corrupted", path=path)

    return _index_from_payload(payload, path)


def _index_from_payload(payload: dict, path: Path) -> GKSIndex:
    try:
        inverted = InvertedIndex.from_mapping({
            keyword: [parse_dewey(text) for text in posting_list]
            for keyword, posting_list in payload["postings"].items()})
    except KeyError as exc:
        raise StorageError(f"cannot read index from {path}: missing "
                           f"section {exc}", diagnosis="corrupted",
                           path=path) from exc
    if not inverted.check_integrity():
        raise StorageError(f"corrupt posting lists in {path}",
                           diagnosis="corrupted", path=path)

    hashes = NodeHashes.from_mappings(
        entity={parse_dewey(text): count
                for text, count in payload["entity_hash"].items()},
        element={parse_dewey(text): count
                 for text, count in payload["element_hash"].items()})

    analyzer_config = payload.get("analyzer", {})
    analyzer = Analyzer(
        use_stopwords=analyzer_config.get("use_stopwords", True),
        use_stemming=analyzer_config.get("use_stemming", True))

    probabilities = None
    raw_tables = payload.get("probabilities")
    if raw_tables is not None:
        try:
            probabilities = ProbTables.from_dict(raw_tables)
        except Exception as exc:
            raise StorageError(
                f"cannot read index from {path}: malformed probability "
                f"tables ({exc})", diagnosis="corrupted",
                path=path) from exc

    return GKSIndex(
        inverted=inverted, hashes=hashes,
        stats=IndexStats.from_dict(payload.get("stats", {})),
        analyzer=analyzer,
        document_names=tuple(payload.get("document_names", ())),
        probabilities=probabilities)


def _sharded_from_envelope(envelope: dict, path: Path) -> ShardedIndex:
    """Verify and rebuild a v3 sharded index (manifest CRC first)."""
    manifest = envelope.get("manifest")
    payloads = envelope.get("shards")
    if not isinstance(manifest, dict) or not isinstance(payloads, list):
        raise StorageError(
            f"cannot read index from {path}: sharded envelope has no "
            f"manifest/shards", diagnosis="corrupted", path=path)
    if envelope.get("crc32") != _crc(manifest):
        raise StorageError(
            f"shard manifest checksum mismatch in {path} — the file is "
            f"corrupted", diagnosis="corrupted", path=path)
    entries = manifest.get("shards", [])
    if len(entries) != len(payloads) or not entries:
        raise StorageError(
            f"cannot read index from {path}: manifest lists "
            f"{len(entries)} shards but {len(payloads)} payloads are "
            f"present", diagnosis="corrupted", path=path)

    shards = []
    for entry, payload in zip(entries, payloads):
        if entry.get("crc32") != _crc(payload):
            raise StorageError(
                f"checksum mismatch for shard {entry.get('shard_id')!r} "
                f"in {path} — the file is corrupted",
                diagnosis="corrupted", path=path)
        shards.append(Shard(shard_id=int(entry["shard_id"]),
                            doc_ids=tuple(entry.get("doc_ids", ())),
                            index=_index_from_payload(payload, path)))

    analyzer_config = manifest.get("analyzer", {})
    analyzer = Analyzer(
        use_stopwords=analyzer_config.get("use_stopwords", True),
        use_stemming=analyzer_config.get("use_stemming", True))
    strategy = manifest.get("strategy", "round_robin")
    try:
        return ShardedIndex(shards, strategy=strategy,
                            document_names=tuple(
                                manifest.get("document_names", ())),
                            analyzer=analyzer)
    except Exception as exc:  # e.g. an unknown strategy string
        raise StorageError(
            f"cannot read index from {path}: invalid shard manifest "
            f"({exc})", diagnosis="corrupted", path=path) from exc


def describe_layout(path: str | Path) -> dict:
    """Describe how an index is persisted: version / codec / layout.

    Accepts every form ``check-index`` does — JSON envelopes (v1–v3),
    v4 binary codec files, and segmented store directories (given the
    directory or its ``MANIFEST``).  Returns a mapping with stable
    keys: ``version`` (storage format version), ``codec`` (``"raw"``
    for the JSON envelopes, the header's codec name for binary files),
    ``layout`` (``"monolithic"`` / ``"sharded"`` / ``"store"``) and
    ``shards``.  Store directories additionally report ``segments``
    and ``generation``.  Raises :class:`StorageError` when the target
    cannot be read or parsed.
    """
    path = Path(path)
    if path.is_dir() or path.name == "MANIFEST":
        from repro.index.segments import MANIFEST_VERSION, read_manifest

        directory = path if path.is_dir() else path.parent
        manifest = read_manifest(directory)
        return {"version": MANIFEST_VERSION, "codec": "raw",
                "layout": "store", "shards": manifest.shards,
                "segments": len(manifest.segments),
                "generation": manifest.generation,
                "mode": "strict"}
    from repro.index.codec import is_binary_index, read_binary_header

    if is_binary_index(path):
        header = read_binary_header(path)
        body = header.get("body", {})
        probabilistic = bool(body.get("probabilities")) or any(
            shard.get("probabilities")
            for shard in body.get("shards", []))
        return {"version": header.get("version"),
                "codec": header.get("codec"),
                "layout": body.get("layout", "monolithic"),
                "shards": len(body.get("shards", [])),
                "mode": "probabilistic" if probabilistic else "strict"}
    envelope = read_envelope(path)
    version = envelope.get("version")
    if version == FORMAT_VERSION_SHARDED:
        payloads = envelope.get("shards") or []
        shards = len(payloads)
        layout = "sharded"
        probabilistic = any(isinstance(payload, dict)
                            and payload.get("probabilities")
                            for payload in payloads)
    else:
        shards, layout = 1, "monolithic"
        payload = envelope.get("payload", envelope)
        probabilistic = bool(isinstance(payload, dict)
                             and payload.get("probabilities"))
    return {"version": version, "codec": "raw", "layout": layout,
            "shards": shards,
            "mode": "probabilistic" if probabilistic else "strict"}


def check_index(path: str | Path) -> dict:
    """Health summary of a persisted index file (``--check-index``).

    Never raises: failures are reported in the returned mapping's
    ``"ok"``/``"diagnosis"``/``"error"`` fields.
    """
    path = Path(path)
    summary: dict = {"path": str(path), "ok": False}
    try:
        summary["size_bytes"] = index_size_bytes(path)
    except OSError as exc:
        summary.update(diagnosis="unreadable", error=str(exc))
        return summary
    try:
        summary.update(describe_layout(path))
    except StorageError:
        pass  # the load below reports the failure with its diagnosis
    # the whole summary stays inside the guard: a lazily loaded v4
    # index can surface a truncated or corrupt region only when its
    # tables are first touched, not at load time
    try:
        index = load_index(path)
        # per shard: a v4 file answers both from its directories, the
        # merged ``inverted`` of a sharded index would decode every list
        parts = ([shard.index.inverted for shard in index.shards]
                 if isinstance(index, ShardedIndex) else [index.inverted])
        summary.update(
            ok=True,
            documents=len(index.document_names),
            keywords=len(set().union(*(part.vocabulary
                                       for part in parts))),
            postings=sum(part.total_postings for part in parts),
            entity_nodes=len(index.hashes.entity_table),
            element_nodes=len(index.hashes.element_table),
            total_nodes=index.stats.total_nodes)
    except StorageError as exc:
        summary.update(ok=False, diagnosis=exc.diagnosis or "corrupted",
                       error=str(exc))
        return summary
    if isinstance(index, ShardedIndex):
        summary.update(shards=index.num_shards, strategy=index.strategy)
    return summary


def index_size_bytes(path: str | Path) -> int:
    """On-disk size of a saved index (Table 4's "Index Size" column)."""
    return Path(path).stat().st_size
