"""Deep data-level invariant verification for built and saved indexes.

A checksum proves a file holds the bytes that were written; it cannot
prove the bytes were *right*.  This module audits the semantic
invariants every GKS correctness argument rests on — the structural
guarantees that make merge/LCP/LCE binary searches, scatter-gather
equivalence and ranking potential-flow sound:

``postings-sorted``
    Every posting list is strictly ascending in Dewey order (strictness
    also rules out duplicates) — the precondition of every binary
    search and k-way merge in the pipeline.
``postings-document``
    Every posting's leading Dewey component names a known document.
``hash-cross-consistency``
    A node present in both ``entityHash`` and ``elementHash`` (a
    dual-role entity+repeating node) carries the same direct-child
    count in both; no child count is negative; every entity node's
    parent is itself indexed.
``stats-agreement``
    ``stats.documents`` matches the recorded document names;
    ``stats.entity_nodes`` matches the entity table; distinct postings
    never exceed the keyword occurrences counted at build time; the
    category counters sum to at most twice the node count.
``shard-partition``
    The shard manifest partitions the document set exactly once — no
    document unassigned, none assigned twice (an unassigned document
    silently vanishes from every query; a doubly-assigned one is
    double-counted by scatter-gather).
``shard-routing``
    Each document lives on the shard its partitioning strategy names.
``shard-ownership``
    Every posting and hash key of a shard belongs to a document that
    shard owns.
``manifest-crc``
    Each manifest entry's stored CRC32 matches its shard payload.
``dewey-layout``
    Every Dewey id fits the layout widths the file records (a load packs
    ids under them; one that does not fit cannot be served).
``codec-block-crc`` / ``codec-block-metadata`` / ``codec-dag-suffix``
    Binary indexes only: every posting block's stored bytes match
    their CRC32, decoded block content agrees with the directory
    metadata (counts, first keys, frame bounds), and the DAG
    shared-subtree tables are present, sorted and consistent with
    their occurrence prefixes.
``source-agreement``
    :func:`verify_against` only: the file's postings and hash tables
    are exactly what a fresh build of its source documents produces.

:func:`verify_index` audits an index in memory (monolithic or sharded),
:func:`verify_store` a saved file of either codec,
:func:`verify_against` a saved file and the documents it was built from
and :func:`verify_segmented_store` a store directory, segment by
segment.  All four run **one** content audit over the codecs' decoded view
(:class:`repro.index.codec.DecodedIndex`): plain tables in stored
order, so on-disk rot that ``load_index`` would silently repair (its
``from_mapping`` re-sorts posting lists) is still there to be seen;
``decode`` reports the format-level invariants (``manifest-crc``, the
``codec-*`` family) through the same collector.  Each returns a
violation list; empty means sound.  This audit is the one definition
of a sound index: ``gks check-index --deep`` (``--against FILE...`` for
:func:`verify_against`) exits 2 when it fails — distinct from exit 1
for the structural failures :func:`repro.index.storage.check_index`
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import StorageError
from repro.index.builder import GKSIndex, build_index
from repro.index.codec import DecodedIndex, DecodedShard, sniff_codec
from repro.index.sharding import (PARTITION_STRATEGIES, ShardedIndex,
                                  shard_of)
from repro.text.analyzer import Analyzer
from repro.xmltree.dewey import Dewey, DeweyLayout, format_dewey
from repro.xmltree.repository import Repository


@dataclass(frozen=True)
class InvariantViolation:
    """One violated invariant: which one, and the offending detail."""

    invariant: str
    detail: str

    def render(self) -> str:
        return f"{self.invariant}: {self.detail}"


#: Cap on violations reported per invariant class, so a wholly rotten
#: index produces a readable report instead of one line per posting.
MAX_PER_INVARIANT = 5


class _Report:
    """Accumulates violations with per-invariant caps."""

    def __init__(self) -> None:
        self.violations: list[InvariantViolation] = []
        self._counts: dict[str, int] = {}

    def add(self, invariant: str, detail: str) -> None:
        count = self._counts.get(invariant, 0)
        self._counts[invariant] = count + 1
        if count < MAX_PER_INVARIANT:
            self.violations.append(InvariantViolation(invariant, detail))
        elif count == MAX_PER_INVARIANT:
            self.violations.append(InvariantViolation(
                invariant, "... further violations elided"))


# ----------------------------------------------------------------------
# The content audit
# ----------------------------------------------------------------------

def verify_index(index: GKSIndex | ShardedIndex) -> list[InvariantViolation]:
    """Audit a built index; empty list means every invariant holds."""
    report = _Report()
    _audit_decoded(DecodedIndex.of(index), report)
    return report.violations


def verify_store(path: str | Path) -> list[InvariantViolation]:
    """Audit a saved index file of either codec, unrepaired.

    Structural failures (unreadable, truncated, a bad CRC on the file's
    outermost seal) raise :class:`~repro.errors.StorageError` exactly as
    ``load_index`` would — callers distinguish *broken file* (exit 1)
    from *consistent-but-wrong file* (exit 2, the violations returned
    here).  Below that seal the codec's ``decode`` keeps going and
    reports ``manifest-crc`` (raw) or ``codec-block-crc`` /
    ``codec-block-metadata`` / ``codec-dag-suffix`` (varint-dag) as
    violations next to the content audit's.
    """
    report = _Report()
    _audit_decoded(sniff_codec(path).decode(path, report.add), report)
    return report.violations


def verify_against(path: str | Path,
                   repository: Repository) -> list[InvariantViolation]:
    """:func:`verify_store` plus ``source-agreement``: rebuild the
    index of *repository* under the file's analyzer and diff the tables
    (slow, authoritative).  Shards are document-disjoint, so a sharded
    file is compared as the union of its shards."""
    report = _Report()
    decoded = sniff_codec(path).decode(path, report.add)
    _audit_decoded(decoded, report)
    rebuilt = DecodedIndex.of(build_index(
        repository, analyzer=Analyzer.from_flags(decoded.analyzer),
        index_tags=decoded.analyzer.get("index_tags", True))).shards[0]
    postings: dict[str, list[Dewey]] = {}
    entity: dict[Dewey, int] = {}
    element: dict[Dewey, int] = {}
    for shard in decoded.shards:
        for keyword, entries in shard.postings.items():
            postings.setdefault(keyword, []).extend(entries)
        entity.update(shard.entity)
        element.update(shard.element)
    for keyword in sorted(postings.keys() | rebuilt.postings.keys()):
        if sorted(postings.get(keyword, ())) != \
                rebuilt.postings.get(keyword, []):
            report.add("source-agreement",
                       f"posting list for {keyword!r} differs from the "
                       f"sources")
    if entity != rebuilt.entity:
        report.add("source-agreement", "entityHash differs from the sources")
    if element != rebuilt.element:
        report.add("source-agreement", "elementHash differs from the sources")
    return report.violations


def _audit_decoded(decoded: DecodedIndex, report: _Report) -> None:
    documents = len(decoded.document_names)
    sharded = decoded.layout == "sharded"
    if sharded:
        _audit_partition(
            [(shard.shard_id, tuple(shard.doc_ids or ()))
             for shard in decoded.shards],
            list(decoded.document_names),
            decoded.strategy or "round_robin", report)
    for shard in decoded.shards:
        _audit_shard(shard, documents,
                     set(shard.doc_ids or ()) if sharded else None, report,
                     f"shard {shard.shard_id}" if sharded else "")
    if decoded.dewey_widths is not None:
        needed = DeweyLayout.covering(
            dewey for shard in decoded.shards
            for table in (*shard.postings.values(), shard.entity,
                          shard.element)
            for dewey in table)
        if not DeweyLayout(decoded.dewey_widths).contains(needed):
            report.add("dewey-layout",
                       f"recorded widths {list(decoded.dewey_widths)} "
                       f"cannot hold ids that need {list(needed.widths)}")


def _audit_shard(shard: DecodedShard, documents: int,
                 owned: set[int] | None, report: _Report,
                 label: str = "") -> None:
    """The one content audit: a shard's (or segment's) postings, hash
    tables and stats against each other, the *documents* the whole
    index names and the document ids this shard *owned* (``None`` when
    it owns them all)."""
    where = f" [{label}]" if label else ""
    for keyword, postings in shard.postings.items():
        _audit_posting_list(keyword, postings, documents, owned, report,
                            where)

    entity, element = shard.entity, shard.element
    for table_name, table in (("entityHash", entity),
                              ("elementHash", element)):
        for dewey, child_count in table.items():
            if child_count < 0:
                report.add("hash-cross-consistency",
                           f"{table_name}[{format_dewey(dewey)}]{where} "
                           f"has negative child count {child_count}")
            if dewey[0] >= documents:
                report.add("postings-document",
                           f"{table_name}{where} references unknown "
                           f"document {dewey[0]}")
            elif owned is not None and dewey[0] not in owned:
                report.add("shard-ownership",
                           f"{table_name}{where} holds "
                           f"{format_dewey(dewey)} of unowned document "
                           f"{dewey[0]}")
    for dewey in entity.keys() & element.keys():
        if entity[dewey] != element[dewey]:
            report.add("hash-cross-consistency",
                       f"dual-role node {format_dewey(dewey)}{where} has "
                       f"child count {entity[dewey]} in entityHash but "
                       f"{element[dewey]} in elementHash")
    for dewey in entity:
        parent = dewey[:-1]
        if parent and parent not in entity and parent not in element:
            report.add("hash-cross-consistency",
                       f"entity {format_dewey(dewey)}{where} has an "
                       f"unindexed parent")

    stats = shard.stats
    local_documents = len(shard.document_names)
    if stats.get("documents", local_documents) != local_documents:
        report.add("stats-agreement",
                   f"stats.documents={stats['documents']}{where} but "
                   f"{local_documents} document name(s) recorded")
    if stats.get("entity_nodes", len(entity)) != len(entity):
        report.add("stats-agreement",
                   f"stats.entity_nodes={stats['entity_nodes']}{where} "
                   f"but entityHash holds {len(entity)} node(s)")
    occurrences = (stats.get("text_keywords", 0)
                   + stats.get("tag_keywords", 0))
    total_postings = sum(map(len, shard.postings.values()))
    if occurrences and total_postings > occurrences:
        report.add("stats-agreement",
                   f"{total_postings} distinct postings{where} exceed "
                   f"the {occurrences} keyword occurrence(s) counted at "
                   f"build time")
    nodes = stats.get("total_nodes", 0)
    categorized = sum(stats.get(counter, 0) for counter in (
        "attribute_nodes", "entity_nodes", "connecting_nodes"))
    if nodes and categorized > 2 * nodes:
        report.add("stats-agreement",
                   f"category counters{where} sum to {categorized}, more "
                   f"than twice the {nodes} node(s)")


def _audit_posting_list(keyword: str, postings: list[Dewey],
                        documents: int, owned_set: set[int] | None,
                        report: _Report, where: str = "") -> None:
    if not postings:
        report.add("postings-sorted",
                   f"empty posting list for {keyword!r}{where}")
        return
    for previous, current in zip(postings, postings[1:]):
        if previous == current:
            report.add("postings-sorted",
                       f"duplicate posting {format_dewey(current)} for "
                       f"{keyword!r}{where}")
            break
        if previous > current:
            report.add("postings-sorted",
                       f"posting list for {keyword!r}{where} is out of "
                       f"order at {format_dewey(current)}")
            break
    for dewey in postings:
        if dewey[0] >= documents:
            report.add("postings-document",
                       f"posting {format_dewey(dewey)} of {keyword!r}"
                       f"{where} references unknown document {dewey[0]}")
            break
        if owned_set is not None and dewey[0] not in owned_set:
            report.add("shard-ownership",
                       f"posting {format_dewey(dewey)} of {keyword!r}"
                       f"{where} belongs to document {dewey[0]} not "
                       f"owned by this shard")
            break


def _audit_partition(assignments: list[tuple[int, tuple[int, ...]]],
                     document_names: list[str], strategy: str,
                     report: _Report, *,
                     invariants: tuple[str, str] = ("shard-partition",
                                                    "shard-routing"),
                     shards: int | None = None) -> None:
    """Shared by the index audit and the segmented-store audit.

    ``shards`` defaults to one shard per assignment row; segmented
    stores pass the manifest's shard count explicitly (several segment
    records share a shard there).
    """
    partition_inv, routing_inv = invariants
    documents = len(document_names)
    if shards is None:
        shards = len(assignments)
    owner: dict[int, int] = {}
    for shard_id, doc_ids in assignments:
        for doc_id in doc_ids:
            if doc_id in owner:
                report.add(partition_inv,
                           f"document {doc_id} is assigned to both "
                           f"shard {owner[doc_id]} and shard {shard_id}")
                continue
            owner[doc_id] = shard_id
            if not 0 <= doc_id < documents:
                report.add(partition_inv,
                           f"shard {shard_id} claims unknown document "
                           f"{doc_id}")
    for doc_id in range(documents):
        if doc_id not in owner:
            report.add(partition_inv,
                       f"document {doc_id} "
                       f"({document_names[doc_id]!r}) is assigned to no "
                       f"shard — it would vanish from every query")
    if strategy not in PARTITION_STRATEGIES:
        report.add(routing_inv,
                   f"unknown partitioning strategy {strategy!r}")
        return
    for doc_id, shard_id in sorted(owner.items()):
        if not 0 <= doc_id < documents:
            continue
        expected = shard_of(doc_id, document_names[doc_id], shards,
                            strategy)
        if expected != shard_id:
            report.add(routing_inv,
                       f"document {doc_id} lives on shard {shard_id} "
                       f"but strategy {strategy!r} routes it to shard "
                       f"{expected}")


# ----------------------------------------------------------------------
# Segmented-store audits
# ----------------------------------------------------------------------

def verify_segmented_store(directory: str | Path
                           ) -> list[InvariantViolation]:
    """Audit a segmented store directory (manifest + segments + WAL).

    Covers the durability-specific invariants on top of the per-segment
    payload audit:

    ``manifest-generation``
        The manifest generation is positive, no segment or texts file
        claims a newer generation than the manifest, and every record's
        generation agrees with its file name — a regressed manifest
        would resurrect deleted documents after the next compaction.
    ``segment-orphan`` / ``segment-missing`` / ``segment-crc``
        Every file the manifest names exists with the recorded CRC32,
        and no unreferenced segment/texts/temp file lingers (an orphan
        is a crash residue the store should have cleaned, or worse, a
        manifest that lost a reference).
    ``segment-partition`` / ``segment-routing``
        The segment records partition the document set exactly once per
        shard strategy, and the texts sidecars cover each appended
        document exactly once.
    ``wal-consistency``
        The WAL exists, replays (a torn tail is legal crash residue),
        and its post-checkpoint tail continues the manifest: frames
        numbered from ``wal_lsn + 1`` appending documents numbered from
        ``len(document_names)``.

    Structural manifest failures raise :class:`StorageError` (exit 1 in
    the CLI); the returned violations are exit 2.
    """
    from repro.index.segments import (SEGMENT_PATTERN, TEXTS_PATTERN,
                                      WAL_NAME, file_crc32, read_manifest)

    directory = Path(directory)
    manifest = read_manifest(directory)
    report = _Report()

    if manifest.generation < 1:
        report.add("manifest-generation",
                   f"manifest generation {manifest.generation} is not "
                   f"positive")
    referenced: set[str] = set()
    for record in manifest.segments:
        referenced.add(record.file)
        if record.generation > manifest.generation:
            report.add("manifest-generation",
                       f"segment {record.file} claims generation "
                       f"{record.generation} newer than the manifest's "
                       f"{manifest.generation}")
        match = SEGMENT_PATTERN.match(record.file)
        if match and (int(match.group(1)) != record.generation
                      or int(match.group(2)) != record.shard_id):
            report.add("manifest-generation",
                       f"segment {record.file} disagrees with its record "
                       f"(generation {record.generation}, shard "
                       f"{record.shard_id})")
    for record in manifest.texts:
        referenced.add(record.file)
        match = TEXTS_PATTERN.match(record.file)
        if match and int(match.group(1)) > manifest.generation:
            report.add("manifest-generation",
                       f"texts file {record.file} is newer than the "
                       f"manifest generation {manifest.generation}")

    for entry in sorted(directory.iterdir()):
        name = entry.name
        if name in referenced or name in ("MANIFEST", WAL_NAME):
            continue
        if (name.endswith(".tmp") or SEGMENT_PATTERN.match(name)
                or TEXTS_PATTERN.match(name)):
            report.add("segment-orphan",
                       f"unreferenced file {name} in {directory}")

    documents = len(manifest.document_names)
    for record in list(manifest.segments) + list(manifest.texts):
        path = directory / record.file
        if not path.exists():
            report.add("segment-missing",
                       f"manifest references missing file {record.file}")
            continue
        if file_crc32(path) != record.crc32:
            report.add("segment-crc",
                       f"{record.file} does not match its manifest CRC32")

    _audit_partition(
        [(record.shard_id, record.doc_ids)
         for record in manifest.segments],
        list(manifest.document_names), manifest.strategy, report,
        invariants=("segment-partition", "segment-routing"),
        shards=manifest.shards)
    appended = set(range(manifest.base_documents, documents))
    texts_seen: dict[int, str] = {}
    for record in manifest.texts:
        for doc_id in record.doc_ids:
            if doc_id in texts_seen:
                report.add("segment-partition",
                           f"appended document {doc_id} appears in both "
                           f"{texts_seen[doc_id]} and {record.file}")
            texts_seen[doc_id] = record.file
            if doc_id not in appended:
                report.add("segment-partition",
                           f"texts file {record.file} covers {doc_id}, "
                           f"which is not an appended document")
    for doc_id in sorted(appended - set(texts_seen)):
        report.add("segment-partition",
                   f"appended document {doc_id} has no texts sidecar — "
                   f"it cannot be recovered")

    _audit_wal_tail(directory / WAL_NAME, manifest, report)

    # content audit of every segment that decodes; a file that does not
    # was already reported above (missing / CRC) or is exit 1's business
    for record in manifest.segments:
        path = directory / record.file
        if not path.exists():
            continue
        try:
            decoded = sniff_codec(path).decode(path, report.add)
        except StorageError:
            continue
        for shard in decoded.shards:
            _audit_shard(shard, documents, set(record.doc_ids), report,
                         record.file)
    return report.violations


def _audit_wal_tail(path: Path, manifest, report: _Report) -> None:
    from repro.index.wal import replay_wal

    if not path.exists():
        report.add("wal-consistency",
                   f"missing WAL {path.name}: acknowledged writes may "
                   f"be lost")
        return
    try:
        replay = replay_wal(path)
    except StorageError as exc:
        report.add("wal-consistency", f"WAL does not replay: {exc}")
        return
    tail = [frame for frame in replay.frames
            if frame.lsn > manifest.wal_lsn]
    if tail and tail[0].lsn != manifest.wal_lsn + 1:
        report.add("wal-consistency",
                   f"WAL tail starts at lsn {tail[0].lsn} but the "
                   f"manifest checkpointed lsn {manifest.wal_lsn} — "
                   f"frames in between are lost")
        return
    doc_id = len(manifest.document_names)
    for frame in tail:
        record = frame.record
        if (not isinstance(record, dict) or record.get("op") != "add"
                or record.get("doc_id") != doc_id
                or not isinstance(record.get("text"), str)):
            report.add("wal-consistency",
                       f"WAL frame {frame.lsn} does not continue the "
                       f"manifest (expected add of document {doc_id})")
            return
        doc_id += 1


#: Invariant names, for the docs and the CLI's "what was checked" line.
INVARIANT_NAMES = (
    "postings-sorted", "postings-document", "hash-cross-consistency",
    "stats-agreement", "shard-partition", "shard-routing",
    "shard-ownership", "manifest-crc", "manifest-generation",
    "segment-orphan", "segment-missing", "segment-crc",
    "segment-partition", "segment-routing", "wal-consistency",
    "codec-block-crc", "codec-block-metadata", "codec-dag-suffix",
    "dewey-layout",
)
