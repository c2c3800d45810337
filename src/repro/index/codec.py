"""Index codecs: the one place that knows how an index lies in a file.

A :class:`Codec` is one on-disk representation of the paper's three
tables (sorted postings, ``entityHash``, ``elementHash``).  Two are
registered: ``raw`` — the gzip-JSON envelopes, storage versions 2
(monolithic) and 3 (shard manifest + per-shard payloads), dotted Dewey
strings, eager loading — and ``varint-dag``, the binary format (storage
version 5, version 4 read-only) most of this module is about.  Callers
pick a codec by name only when they *write* (:func:`resolve_codec`,
``EngineConfig.codec``); readers never need the name —
:func:`sniff_codec` hands a file to the codec that wrote it, so index
files and store segments of both codecs mix freely.

Besides ``save`` / ``load`` every codec offers the *unrepaired* view of
a file: ``decode`` expands it into a :class:`DecodedIndex` — plain
dicts and lists in exactly the stored order, nothing re-sorted, which
is what the deep invariant audit inspects and the fault injectors
mutate — and ``encode`` seals such a view back with fresh checksums.

The binary format layers three ideas:

* **Postings codec.**  Uncovered ("literal") posting runs are cut into
  blocks of at most ``BLOCK_POSTINGS`` entries.  Inside a block, Dewey
  ids are front-coded (shared-prefix length + suffix components, each
  a varint); each block carries its own CRC32 plus skip metadata
  (count + first Dewey) in the directory, so corruption is detected
  at first decode and a reader may skip whole blocks (none does yet).
* **DAG-subtree sharing.**  Repeated XML subtrees with identical
  indexed content (same keywords at the same relative paths, same
  entity/element hash rows — think syndicated records, mirrored
  documents, boilerplate) are collapsed, after Böttcher et al.
  (*Efficient XML Keyword Search based on DAG-Compression*): the
  subtree's per-keyword suffix lists and hash rows are stored **once**
  per distinct subtree, and every occurrence costs one front-coded
  prefix in an occurrence table — *not* one reference per keyword.
  Posting lists of covered keywords are never materialised on disk:
  a keyword's list *in the file* is an ordered sequence of disjoint
  segments (literal blocks + occurrence × suffix-list expansions).
  The reader expands it once, on the keyword's first touch, into the
  plain ``list`` an in-memory build holds (:func:`_decode_keyword`),
  so the pipeline runs at the same speed on both and is node-for-node
  identical by construction.
* **Frames + lazy loading.**  All chunks (blocks, suffix tables, hash
  tables) are concatenated into ~64 KiB frames, each deflated as one
  zlib stream — small chunks share compression context instead of
  paying per-chunk headers.  :func:`load_binary_index` reads only the
  gzip JSON header and each shard directory's fixed tables; a
  keyword's directory entry parses and frames inflate on first touch
  (mmap-backed), so cold open never decodes a posting and a query
  parses and decodes only its own keywords.

File layout::

    MAGIC(8) | header_len(uint32 BE) | gzip JSON header
            | shard0 directory (zlib) | shard0 frames...
            | shard1 directory (zlib) | shard1 frames... | ...

    header = {"version": 5, "codec": "varint-dag", "crc32": crc(body),
              "body": {layout, strategy?, analyzer, document_names,
                       dewey_widths?,
                       shards: [{shard_id, doc_ids?, document_names,
                                 stats, directory: [comp, raw, crc32],
                                 frames: [[comp, raw, crc32], ...]}]}}

``dewey_widths`` (additive, under the header CRC; raw payloads carry the
same key) is the :class:`~repro.xmltree.dewey.DeweyLayout` the index
packs its ids under: a load decodes every id straight into that packed
int, and an id the widths cannot hold is corrupt data.  A file without
it (v4, or v5 written before the key) is decoded whole at load and
packed under the narrowest layout covering it.

The directory (:class:`_Directory`) is a vocabulary blob under a
fixed-width offset table, one self-contained entry per keyword — its
literal block metadata (frame/offset/length/count/CRC/first) and, per
DAG node whose subtrees contain it, that node's suffix-table location
— and a DAG section: per node its occurrence prefixes and hash-table
locations.  Every region is CRC-checked: the header over its canonical
body, the directory and each frame over their stored bytes, and each
literal block over its raw payload.
"""

from __future__ import annotations

import gzip
import json
import mmap
import struct
import zlib
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import itemgetter, or_
from pathlib import Path
from typing import NamedTuple, Protocol, Sequence, runtime_checkable

from repro.errors import ConfigError, StorageError
from repro.index.builder import GKSIndex
from repro.index.hashtables import NodeHashes
from repro.index.inverted import InvertedIndex
from repro.index.sharding import Shard, ShardedIndex
from repro.index.statistics import IndexStats
from repro.index.storage import (DEFLATE_LEVEL, atomic_write_bytes,
                                 atomic_write_gz, canonical_json,
                                 payload_crc32, read_json_gz)
from repro.obs.metrics import global_registry
from repro.obs.trace import NOOP_TRACER
from repro.text.analyzer import Analyzer
from repro.xmltree.dewey import (Dewey, DeweyError, DeweyLayout,
                                 format_dewey, parse_dewey)

#: Storage format versions: the raw envelopes (monolithic, sharded) and
#: the binary format.  Version 1 (no checksum) is retired and refused.
FORMAT_VERSION = 2
FORMAT_VERSION_SHARDED = 3
FORMAT_VERSION_BINARY = 5

#: Binary versions a reader accepts; only the last one is written.
BINARY_VERSIONS_READ = (4, FORMAT_VERSION_BINARY)

#: File magic of the binary index format, every version.
MAGIC = b"GKSIDX04"

#: Literal postings per block — the skip + integrity granularity.
BLOCK_POSTINGS = 128

#: Uncompressed frame target — the lazy-decode granularity.
FRAME_RAW_TARGET = 64 * 1024

#: A subtree is DAG-shared once its content repeats this often and
#: carries at least this many index entries (below that, the occurrence
#: and table bookkeeping costs more than the literals it replaces).
SHARED_MIN_OCCURRENCES = 2
SHARED_MIN_ENTRIES = 4


# ----------------------------------------------------------------------
# The decoded view: what every codec reads a file into and seals from
# ----------------------------------------------------------------------

@dataclass(slots=True)
class DecodedShard:
    """One shard's tables as plain dicts and lists, in stored order."""

    shard_id: int
    doc_ids: tuple[int, ...] | None
    document_names: tuple[str, ...]
    stats: dict
    postings: dict[str, list[Dewey]]
    entity: dict[Dewey, int]
    element: dict[Dewey, int]


@dataclass(slots=True)
class DecodedIndex:
    """A whole index in decoded form (``layout`` is ``"monolithic"`` —
    one shard, no ``doc_ids`` — or ``"sharded"``)."""

    layout: str
    strategy: str | None
    #: the analyzer flags plus ``index_tags`` — how text became keywords
    #: — and, when known, ``corpus_crc32``: which text
    analyzer: dict
    document_names: tuple[str, ...]
    shards: list[DecodedShard]
    #: the layout's widths the file records (``None``: it records none)
    dewey_widths: tuple[int, ...] | None = None

    @classmethod
    def of(cls, index: GKSIndex | ShardedIndex) -> "DecodedIndex":
        """The view of an index in memory, ids unpacked into tuples —
        what the binary writer encodes and ``verify_index`` audits; each
        node's tuple is made once and shared by every table naming it."""
        return _view(index, _Memo(index.layout.unpack).__getitem__)


def _view(index: GKSIndex | ShardedIndex, convert) -> DecodedIndex:
    """:meth:`DecodedIndex.of` with every id passed through *convert*;
    ``None`` keeps them packed and shares the posting lists."""
    sharded = isinstance(index, ShardedIndex)
    units = ([(shard.shard_id, tuple(shard.doc_ids), shard.index)
              for shard in index.shards] if sharded
             else [(0, None, index)])
    facts = {**index.analyzer.flags(), "index_tags": index.index_tags}
    if index.corpus_crc32 is not None:
        facts["corpus_crc32"] = index.corpus_crc32
    return DecodedIndex(
        "sharded" if sharded else "monolithic",
        index.strategy if sharded else None, facts,
        tuple(index.document_names),
        [DecodedShard(
            shard_id, doc_ids, tuple(unit.document_names),
            unit.stats.to_dict(),
            {keyword: postings if convert is None
             else list(map(convert, postings))
             for keyword, postings in unit.inverted.items()},
            _converted(unit.hashes.entity_table, convert),
            _converted(unit.hashes.element_table, convert))
         for shard_id, doc_ids, unit in units],
        index.layout.widths)


def _converted(table: dict, convert) -> dict:
    if convert is None:
        return table
    return dict(zip(map(convert, table), table.values()))


def _layout_of(widths, path: Path) -> DeweyLayout:
    """The layout a file's ``dewey_widths`` names (corrupt otherwise)."""
    try:
        if not isinstance(widths, list) or not all(
                isinstance(width, int) for width in widths):
            raise DeweyError(f"widths {widths!r} are not a list of ints")
        return DeweyLayout(widths)
    except DeweyError as exc:
        raise StorageError(f"cannot read index from {path}: bad Dewey "
                           f"layout ({exc})", diagnosis="corrupted",
                           path=path) from exc


def _pack_decoded(decoded: DecodedIndex) -> DeweyLayout:
    """Pack a decoded (tuple) view in place under the narrowest layout
    covering it, and return that layout: how a file that records no
    widths loads."""
    layout = DeweyLayout.covering(
        dewey for shard in decoded.shards
        for table in (*shard.postings.values(), shard.entity, shard.element)
        for dewey in table)
    pack = _Memo(layout.pack).__getitem__
    for shard in decoded.shards:
        shard.postings = {keyword: list(map(pack, postings))
                          for keyword, postings in shard.postings.items()}
        shard.entity = _converted(shard.entity, pack)
        shard.element = _converted(shard.element, pack)
    return layout


def _assemble(decoded: DecodedIndex, layouts: Sequence[DeweyLayout],
              path: Path) -> "GKSIndex | ShardedIndex":
    """The index of a decoded view whose shard *i* holds ids packed
    under ``layouts[i]``; shards that differ are re-packed under the
    union (one layout per index).  Posting lists are re-sorted and
    de-duplicated (``from_mapping``): a load repairs what only a decode
    (and so the deep audit) can show."""
    analyzer = Analyzer.from_flags(decoded.analyzer)
    family = DeweyLayout().union(*layouts)
    units = [GKSIndex(
        inverted=InvertedIndex.from_mapping(shard.postings),
        hashes=NodeHashes.from_mappings(shard.entity, shard.element,
                                        layout),
        stats=IndexStats.from_dict(shard.stats), layout=layout,
        analyzer=analyzer, index_tags=decoded.analyzer.get("index_tags"),
        corpus_crc32=decoded.analyzer.get("corpus_crc32"),
        document_names=shard.document_names
    ).relaid(family) for shard, layout in zip(decoded.shards, layouts)]
    if decoded.layout != "sharded":
        return units[0]
    try:
        return ShardedIndex(
            [Shard(shard_id=shard.shard_id, doc_ids=shard.doc_ids,
                   index=unit)
             for shard, unit in zip(decoded.shards, units)],
            strategy=decoded.strategy or "round_robin",
            document_names=decoded.document_names, analyzer=analyzer,
            corpus_crc32=decoded.analyzer.get("corpus_crc32"))
    except Exception as exc:  # e.g. an unknown strategy string
        raise _corrupted(path, f"invalid shard manifest ({exc})") from exc


# ----------------------------------------------------------------------
# Varint / front-coding primitives
# ----------------------------------------------------------------------

def write_uvarint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint."""
    if value < 0:
        raise StorageError(f"cannot varint-encode negative value {value}",
                           diagnosis="corrupted")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    value = shift = 0
    try:
        while True:
            byte = data[pos]
            pos += 1
            if byte < 0x80:
                return value | byte << shift, pos
            value |= (byte & 0x7F) << shift
            shift += 7
    except IndexError:
        raise StorageError("truncated varint in codec data",
                           diagnosis="truncated") from None


def write_svarint(out: bytearray, value: int) -> None:
    """Zigzag-coded signed varint (child counts survive round trips)."""
    write_uvarint(out, value << 1 if value >= 0 else ((-value) << 1) - 1)


def _write_dewey(out: bytearray, dewey: Dewey, previous: Dewey) -> None:
    """Front-code *dewey* against the previously written id."""
    lcp = 0
    limit = min(len(dewey), len(previous))
    while lcp < limit and dewey[lcp] == previous[lcp]:
        lcp += 1
    write_uvarint(out, lcp)
    write_uvarint(out, len(dewey) - lcp)
    for component in dewey[lcp:]:
        write_uvarint(out, component)


def _decode_run(payload: bytes, count: int, what: str,
                path: Path | None, *, counted: bool = False) -> list:
    """The block decode kernel: *count* front-coded Dewey ids (each one
    followed by a zigzag child count when *counted*) filling *payload*
    exactly, decoded in this one frame.

    Equal to a loop of one :func:`read_uvarint` per field (the
    reference the tests compare against), with the reads inlined: nearly
    every value in real data fits one byte, and a suffix made of
    single-byte components is one ``tuple(bytes)``.
    """
    items: list = []
    append = items.append
    previous: Dewey = ()
    pos = 0
    try:
        for _ in range(count):
            lcp = payload[pos]
            suffix_len = payload[pos + 1]
            pos += 2
            if lcp >= 0x80 or suffix_len >= 0x80:
                lcp, pos = read_uvarint(payload, pos - 2)
                suffix_len, pos = read_uvarint(payload, pos)
            if lcp > len(previous):
                raise StorageError(
                    f"{what} in {path} front-codes against a "
                    f"{lcp}-component prefix but only {len(previous)} "
                    f"are available", diagnosis="corrupted", path=path)
            suffix = payload[pos:pos + suffix_len]
            if len(suffix) == suffix_len and suffix.isascii():
                pos += suffix_len
                previous = previous[:lcp] + tuple(suffix)
            else:
                components = list(previous[:lcp])
                for _ in range(suffix_len):
                    component, pos = read_uvarint(payload, pos)
                    components.append(component)
                previous = tuple(components)
            if counted:
                raw = payload[pos]
                pos += 1
                if raw >= 0x80:
                    raw, pos = read_uvarint(payload, pos - 1)
                append((previous,
                        raw >> 1 if not raw & 1 else -((raw + 1) >> 1)))
            else:
                append(previous)
    except IndexError:
        raise StorageError(f"{what} in {path} ends inside a varint",
                           diagnosis="truncated", path=path) from None
    if pos != len(payload):
        raise StorageError(f"{what} in {path} has trailing bytes",
                           diagnosis="corrupted", path=path)
    return items


def _decode_packed(payload: bytes, count: int, what: str,
                   path: Path | None, layout: DeweyLayout, base: int = 0,
                   *, counted: bool = False) -> list:
    """:func:`_decode_run` decoding each id straight into its packed int
    under *layout*.  The ids of a DAG suffix table continue an
    occurrence prefix of *base* components, so each packs to the bits it
    ORs onto that prefix.  An id deeper or wider than *layout* is
    corrupt data.  Most ids differ from the previous one in their last
    component alone: that case is one mask, one shift and one OR.
    """
    items: list = []
    append = items.append
    shifts, limits = layout.shifts, layout.limits
    keep = (0,) + layout.masks  # keep[n]: an id's first n components
    components = len(limits)
    previous = length = pos = 0
    try:
        for _ in range(count):
            lcp = payload[pos]
            suffix_len = payload[pos + 1]
            pos += 2
            if lcp >= 0x80 or suffix_len >= 0x80:
                lcp, pos = read_uvarint(payload, pos - 2)
                suffix_len, pos = read_uvarint(payload, pos)
            if lcp > length:
                raise StorageError(
                    f"{what} in {path} front-codes against a "
                    f"{lcp}-component prefix but only {length} "
                    f"are available", diagnosis="corrupted", path=path)
            level = base + lcp
            if suffix_len == 1 and level:
                stored = payload[pos] + 1
                pos += 1
                if stored > 0x80:
                    stored, pos = read_uvarint(payload, pos - 1)
                    stored += 1
                if level >= components or stored >= limits[level]:
                    raise _misfit(what, path, layout)
                packed = previous & keep[level] | stored << shifts[level]
            else:
                if level + suffix_len > components:
                    raise _misfit(what, path, layout)
                suffix = payload[pos:pos + suffix_len]
                if len(suffix) == suffix_len and suffix.isascii():
                    pos += suffix_len
                else:
                    suffix = []
                    for _ in range(suffix_len):
                        component, pos = read_uvarint(payload, pos)
                        suffix.append(component)
                packed = previous & keep[level]
                for component in suffix:
                    if level:
                        component += 1
                        if component >= limits[level]:
                            raise _misfit(what, path, layout)
                        packed |= component << shifts[level]
                    else:
                        packed = component << shifts[0]
                    level += 1
            previous, length = packed, lcp + suffix_len
            if counted:
                raw = payload[pos]
                pos += 1
                if raw >= 0x80:
                    raw, pos = read_uvarint(payload, pos - 1)
                append((packed,
                        raw >> 1 if not raw & 1 else -((raw + 1) >> 1)))
            else:
                append(packed)
    except IndexError:
        raise StorageError(f"{what} in {path} ends inside a varint",
                           diagnosis="truncated", path=path) from None
    if pos != len(payload):
        raise StorageError(f"{what} in {path} has trailing bytes",
                           diagnosis="corrupted", path=path)
    return items


def _misfit(what: str, path: Path | None,
            layout: DeweyLayout) -> StorageError:
    return StorageError(f"{what} in {path} holds a Dewey id its recorded "
                        f"layout {list(layout.widths)} cannot hold",
                        diagnosis="corrupted", path=path)


def _crc(stored: bytes) -> int:
    return zlib.crc32(stored) & 0xFFFFFFFF

# ----------------------------------------------------------------------
# DAG model: which subtrees repeat with identical indexed content?
# ----------------------------------------------------------------------

class _DagModel:
    """Children-first signature interning over the indexed node set.

    The node set is every posting Dewey plus every hash-table key,
    prefix-closed.  Two nodes receive the same DAG id exactly when
    their subtrees carry identical indexed content: the same keyword
    ids posted locally, the same entity/element hash row for the node
    itself, and children with equal DAG ids at equal steps.  By
    structural induction, equal ids imply identical per-keyword
    relative suffix sets *and* identical relative hash rows — which is
    what makes sharing lossless: expanding the stored tables under any
    occurrence's prefix reproduces the literal data exactly.

    The node's *own* hash row is part of its signature deliberately:
    categorization can depend on context (a tag repeating under one
    parent but not another), so two structurally equal subtrees whose
    roots categorize differently must not share — they get different
    signatures and simply stay literal.

    The nodes are sorted once, into document order, and walked twice.
    Backwards, every child closes before its parent, so a node's
    ``(step, dag id)`` pairs are complete when it is reached — appended
    in descending step order, canonical without a sort — and DAG ids
    are numbered in this interning order.  Forwards, each node inherits
    its parent's *cover* or, being a shared DAG node under none, becomes
    a topmost occurrence and covers itself: ``cover`` maps every covered
    node to its topmost shared ancestor-or-self ``(prefix, dag id)``,
    one tuple per occurrence, and ``occurrences`` lists each shared DAG
    node's topmost occurrences in document order (an occurrence nested
    inside another shared subtree is reached through *that* subtree's
    expansion; a shared node that is never topmost contributes nothing).
    """

    def __init__(self, postings: dict, entity: dict, element: dict) -> None:
        local: dict[Dewey, tuple[int, ...]] = {}
        get_local = local.get
        for keyword_id, keyword in enumerate(sorted(postings)):
            for dewey in postings[keyword]:
                local[dewey] = get_local(dewey, ()) + (keyword_id,)
        nodes = set(local)
        nodes.update(entity)
        nodes.update(element)
        # prefix-close: walk up only until an ancestor is already known
        for dewey in list(nodes):
            parent = dewey[:-1]
            while parent and parent not in nodes:
                nodes.add(parent)
                parent = parent[:-1]
        order = sorted(nodes)
        height = max(map(len, order), default=0)

        interned: dict[tuple, int] = {}
        weight: list[int] = []
        seen: list[int] = []
        ids: list[int] = []
        # children[d]: (step, dag id) of closed depth-d nodes whose
        # parent is still to come
        children: list[list] = [[] for _ in range(height + 2)]
        backwards = order[::-1]
        # signature: (entity row, element row, keyword ids, *children)
        for dewey, signature in zip(backwards, zip(
                map(entity.get, backwards, repeat(-1)),
                map(element.get, backwards, repeat(-1)),
                map(get_local, backwards, repeat(())))):
            depth = len(dewey)
            below = children[depth + 1]
            if below:
                children[depth + 1] = []
                signature += tuple(below)
            dag_id = interned.get(signature)
            if dag_id is None:
                dag_id = interned[signature] = len(weight)
                weight.append(len(signature[2]) + (signature[0] >= 0)
                              + (signature[1] >= 0)
                              + sum(weight[child] for _, child in below))
                seen.append(1)
            else:
                seen[dag_id] += 1
            children[depth].append((dewey[-1], dag_id))
            ids.append(dag_id)
        shared = {dag_id for dag_id, count in enumerate(seen)
                  if count >= SHARED_MIN_OCCURRENCES
                  and weight[dag_id] >= SHARED_MIN_ENTRIES}

        ids.reverse()
        self.cover: dict[Dewey, tuple[Dewey, int]] = {}
        self.occurrences: dict[int, list[Dewey]] = {}
        covers: list = [None] * (height + 1)  # latest node's, per depth
        for dewey, dag_id in zip(order, ids):
            depth = len(dewey)
            hit = covers[depth - 1]
            if hit is None and dag_id in shared:
                hit = (dewey, dag_id)
                self.occurrences.setdefault(dag_id, []).append(dewey)
            covers[depth] = hit
            if hit is not None:
                self.cover[dewey] = hit


# ----------------------------------------------------------------------
# Frames: shared compression context, lazy inflation
# ----------------------------------------------------------------------

class _FrameWriter:
    """Accumulates chunks into ~FRAME_RAW_TARGET frames.

    A chunk never spans frames, so inflating one frame yields every
    chunk inside it; ``add`` returns the chunk's (frame, offset,
    length) address.
    """

    def __init__(self) -> None:
        self._frames: list[bytearray] = [bytearray()]

    def add(self, payload: bytes) -> tuple[int, int, int]:
        current = self._frames[-1]
        if current and len(current) + len(payload) > FRAME_RAW_TARGET:
            current = bytearray()
            self._frames.append(current)
        offset = len(current)
        current.extend(payload)
        return len(self._frames) - 1, offset, len(payload)

    def finish(self) -> tuple[list[bytes], list[list[int]]]:
        """Deflate all frames: (stored blobs, [[comp, raw, crc], ...])."""
        blobs: list[bytes] = []
        table: list[list[int]] = []
        for frame in self._frames:
            raw = bytes(frame)
            stored = zlib.compress(raw, DEFLATE_LEVEL)
            if len(stored) >= len(raw):
                stored = raw  # incompressible frame: store verbatim
            blobs.append(stored)
            table.append([len(stored), len(raw), _crc(stored)])
        return blobs, table


class _FrameReader:
    """Inflates frames of one shard on first touch, with CRC checks."""

    def __init__(self, buffer, offsets: list[int], table: list,
                 path: Path) -> None:
        self._buffer = buffer
        self._offsets = offsets  # absolute file offset per frame
        self._table = table
        self._path = path
        self._cache: dict[int, bytes] = {}

    def frame(self, number: int) -> bytes:
        raw = self._cache.get(number)
        if raw is not None:
            return raw
        if not 0 <= number < len(self._table):
            raise StorageError(
                f"codec chunk references frame {number} but only "
                f"{len(self._table)} exist in {self._path}",
                diagnosis="corrupted", path=self._path)
        raw = _read_region(self._buffer, self._offsets[number],
                           self._table[number], f"frame {number}",
                           self._path, verbatim=True)
        self._cache[number] = raw
        global_registry().counter(
            "gks_codec_frames_inflated_total",
            help="Frames of binary index files inflated on first touch."
        ).inc()
        return raw

    def chunk(self, frame: int, offset: int, length: int,
              what: str) -> bytes:
        raw = self.frame(frame)
        if offset + length > len(raw):
            raise StorageError(
                f"codec chunk for {what} overruns frame {frame} in "
                f"{self._path}", diagnosis="corrupted", path=self._path)
        return raw[offset:offset + length]


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

def _cover_spans(keys: Sequence[Dewey], values, dag: _DagModel,
                 what: str) -> tuple[list[list], dict[int, list]]:
    """Split sorted *keys* — Dewey ids, each paired with its entry of
    *values* unless that is ``None`` — wherever the cover changes, one
    cover probe per key (:class:`_DagModel`): a subtree is contiguous
    in document order, so the keys one occurrence covers are
    consecutive.  Returns the uncovered runs (whole ids) and, per DAG
    node, its first occurrence's span (ids relative to it).  Every later
    occurrence's span must equal that one, and since an occurrence
    gives at most one span, as many spans as occurrences means each
    gave one."""
    runs: list[list] = []
    tables: dict[int, list] = {}
    spans = 0
    current = ()  # no key's cover: the first key opens a span
    known = members = None
    for key, value, hit in zip(keys, values, map(dag.cover.get, keys)):
        if hit is not current:
            if known is not members and known != members:
                raise _inconsistent(current[1], what)
            current, members = hit, []
            if hit is None:
                runs.append(members)
                known, cut = members, 0
            else:
                known = tables.setdefault(hit[1], members)
                cut = len(hit[0])
                spans += 1
        members.append(key[cut:] if value is None else (key[cut:], value))
    if known is not members and known != members:
        raise _inconsistent(current[1], what)
    if spans != sum(len(dag.occurrences.get(dag_id, ()))
                    for dag_id in tables):
        raise _inconsistent(sorted(tables), what)
    return runs, tables


def _inconsistent(dag_id, what: str) -> StorageError:
    return StorageError(f"DAG node {dag_id} expands to differing {what} — "
                        f"the DAG model is inconsistent",
                        diagnosis="corrupted")


def _plan_keyword(postings: Sequence[Dewey], keyword_index: int,
                  dag: _DagModel, suffix_tables: dict,
                  frames: _FrameWriter) -> tuple[list, list[int]]:
    """One keyword's directory entry: literal blocks + covering dag ids.

    A covered span is dropped from the literal stream — it will be
    reconstructed from the occurrence table — and an uncovered one is
    cut into blocks.  Literal blocks never span a covered gap, which is
    what keeps the runtime segment order a plain sort by first key.
    """
    runs, tables = _cover_spans(
        postings, repeat(None), dag,
        f"suffix sets for keyword index {keyword_index}")
    blocks: list = []
    for run in runs:
        for start in range(0, len(run), BLOCK_POSTINGS):
            chunk = run[start:start + BLOCK_POSTINGS]
            payload = _dewey_chunk(chunk)
            frame, offset, length = frames.add(payload)
            blocks.append((frame, offset, length, len(chunk),
                           _crc(payload), chunk[0]))
    for dag_id, suffixes in tables.items():
        suffix_tables[dag_id, keyword_index] = suffixes
    return blocks, sorted(tables)


def _plan_hash_table(table: dict[Dewey, int], dag: _DagModel, which: int,
                     hash_tables: dict) -> list[tuple[Dewey, int]]:
    """Split a hash table into its literal rows (sorted) + shared
    per-dag row sets."""
    keys = sorted(table)
    runs, tables = _cover_spans(keys, map(table.__getitem__, keys), dag,
                                "hash rows")
    for dag_id, rows in tables.items():
        hash_tables[dag_id, which] = rows
    return [row for run in runs for row in run]


def _dewey_chunk(deweys: list[Dewey]) -> bytes:
    """A front-coded run of Dewey ids (what :func:`_decode_run` reads)."""
    out = bytearray()
    previous: Dewey = ()
    for dewey in deweys:
        _write_dewey(out, dewey, previous)
        previous = dewey
    return bytes(out)


def _hash_chunk(rows: list[tuple[Dewey, int]]) -> bytes:
    out = bytearray()
    previous: Dewey = ()
    for suffix, count in rows:
        _write_dewey(out, suffix, previous)
        write_svarint(out, count)
        previous = suffix
    return bytes(out)


def _write_loc(out: bytearray, loc: tuple[int, int, int]) -> None:
    write_uvarint(out, loc[0])
    write_uvarint(out, loc[1])
    write_uvarint(out, loc[2])


def _encode_shard_data(postings: dict[str, list[Dewey]],
                       entity: dict[Dewey, int],
                       element: dict[Dewey, int], *,
                       use_dag: bool = True,
                       tracer=NOOP_TRACER) -> tuple[bytes, list, list]:
    """Encode one shard: the *uncompressed* directory payload, the
    finished frame regions (stored blobs) and the frame table.  The
    ``plan`` span covers the DAG model and the planners (literal blocks
    included)."""
    vocabulary = sorted(postings)
    frames = _FrameWriter()
    suffix_tables: dict[tuple[int, int], list[Dewey]] = {}
    hash_tables: dict[tuple[int, int], list] = {}
    with tracer.span("plan"):
        # an empty model covers nothing: every posting and row literal
        dag = (_DagModel(postings, entity, element) if use_dag
               else _DagModel({}, {}, {}))
        keyword_plans = [
            (keyword, *_plan_keyword(postings[keyword], keyword_index,
                                     dag, suffix_tables, frames))
            for keyword_index, keyword in enumerate(vocabulary)]
        literal_entity = _plan_hash_table(entity, dag, 0, hash_tables)
        literal_element = _plan_hash_table(element, dag, 1, hash_tables)

    # dense file ids for the dag nodes actually used, in interning order
    used = sorted(dag.occurrences)
    remap = {original: dense for dense, original in enumerate(used)}

    # suffix + hash chunks per dag node
    dag_suffix_locs: dict[tuple[int, int], tuple] = {}
    for (dag_id, keyword_index), suffixes in sorted(suffix_tables.items()):
        payload = _dewey_chunk(suffixes)
        loc = frames.add(payload)
        dag_suffix_locs[(remap[dag_id], keyword_index)] = (
            loc, len(suffixes), _crc(payload))
    dag_hash_locs: dict[tuple[int, int], tuple] = {}
    for (dag_id, which), rows in sorted(hash_tables.items()):
        payload = _hash_chunk(rows)
        loc = frames.add(payload)
        dag_hash_locs[(remap[dag_id], which)] = (
            loc, len(rows), _crc(payload))

    entity_payload = _hash_chunk(literal_entity)
    entity_loc = frames.add(entity_payload)
    element_payload = _hash_chunk(literal_element)
    element_loc = frames.add(element_payload)

    # ---- directory: fixed tables, keyword entries, the DAG section -----
    vocabulary_blob = bytearray()
    entries = bytearray()
    word_ends: list[int] = []
    entry_ends: list[int] = []
    for keyword_index, (keyword, blocks, dag_ids) in enumerate(keyword_plans):
        vocabulary_blob += keyword.encode("utf-8")
        word_ends.append(len(vocabulary_blob))
        write_uvarint(entries, len(blocks))
        previous_first: Dewey = ()
        for frame, offset, length, count, crc, first in blocks:
            write_uvarint(entries, frame)
            write_uvarint(entries, offset)
            write_uvarint(entries, length)
            write_uvarint(entries, count)
            write_uvarint(entries, crc)
            _write_dewey(entries, first, previous_first)
            previous_first = first
        write_uvarint(entries, len(dag_ids))
        previous_id = 0
        for dag_id in dag_ids:
            dense = remap[dag_id]
            write_uvarint(entries, dense - previous_id)
            previous_id = dense
            loc, count, crc = dag_suffix_locs[(dense, keyword_index)]
            _write_loc(entries, loc)
            write_uvarint(entries, count)
            write_uvarint(entries, crc)
        entry_ends.append(len(entries))
    offsets = struct.Struct(f"<{len(keyword_plans) + 1}I")
    out = bytearray(struct.pack("<I", len(keyword_plans)))
    out += offsets.pack(0, *word_ends)
    out += offsets.pack(0, *entry_ends)
    out += vocabulary_blob
    out += entries
    occurrences = [dag.occurrences[original] for original in used]
    write_uvarint(out, len(used))
    run = _dewey_chunk([prefix for prefixes in occurrences
                         for prefix in prefixes])
    write_uvarint(out, len(run))
    for prefixes in occurrences:
        write_uvarint(out, len(prefixes))
    out += run
    for dense in range(len(used)):
        for which in (0, 1):
            entry = dag_hash_locs.get((dense, which))
            if entry is None:
                write_uvarint(out, 0)
                continue
            loc, count, crc = entry
            write_uvarint(out, count)
            _write_loc(out, loc)
            write_uvarint(out, crc)
    for loc, payload, table in ((entity_loc, entity_payload,
                                 literal_entity),
                                (element_loc, element_payload,
                                 literal_element)):
        write_uvarint(out, len(table))
        _write_loc(out, loc)
        write_uvarint(out, _crc(payload))

    blobs, frame_table = frames.finish()
    return bytes(out), blobs, frame_table


def _shard_regions(postings: dict, entity: dict, element: dict,
                   stats: dict, document_names: list[str], *,
                   use_dag: bool, tracer) -> tuple[dict, list[bytes]]:
    """One shard's header section + its on-disk regions (dir + frames)."""
    directory, blobs, frame_table = _encode_shard_data(
        postings, entity, element, use_dag=use_dag, tracer=tracer)
    directory_z = zlib.compress(directory, DEFLATE_LEVEL)
    section = {
        "document_names": document_names,
        "stats": stats,
        "directory": [len(directory_z), len(directory),
                      _crc(directory_z)],
        "frames": frame_table,
    }
    return section, [directory_z, *blobs]


def write_binary_index(index: GKSIndex | ShardedIndex,
                       path: str | Path, *, use_dag: bool = True,
                       tracer=NOOP_TRACER) -> Path:
    """Persist *index* in the binary format (v5), atomically."""
    return _write_decoded(DecodedIndex.of(index), path, use_dag=use_dag,
                          tracer=tracer)


def _write_decoded(decoded: DecodedIndex, path: str | Path, *,
                   use_dag: bool, tracer=NOOP_TRACER) -> Path:
    """Encode a decoded view as a binary (v5) file with fresh CRCs.

    Conditional keys (``strategy`` / ``doc_ids`` for sharded layouts)
    keep monolithic files byte-identical to the format that preceded
    sharding.
    """
    sharded = decoded.layout == "sharded"
    body: dict = {"layout": decoded.layout}
    if sharded:
        body["strategy"] = decoded.strategy
    body["analyzer"] = dict(decoded.analyzer)
    body["document_names"] = list(decoded.document_names)
    if decoded.dewey_widths is not None:
        body["dewey_widths"] = list(decoded.dewey_widths)
    sections: list[dict] = []
    regions: list[bytes] = []
    with tracer.span("encode"):
        for shard in decoded.shards:
            section, shard_regions = _shard_regions(
                shard.postings, shard.entity, shard.element,
                dict(shard.stats), list(shard.document_names),
                use_dag=use_dag, tracer=tracer)
            section["shard_id"] = shard.shard_id
            if sharded and shard.doc_ids is not None:
                section["doc_ids"] = list(shard.doc_ids)
            sections.append(section)
            regions.extend(shard_regions)
    body["shards"] = sections
    with tracer.span("write"):
        return _write_file(body, regions, path)


def _write_file(body: dict, regions: list[bytes],
                path: str | Path) -> Path:
    header = {"version": FORMAT_VERSION_BINARY, "codec": "varint-dag",
              "crc32": payload_crc32(body), "body": body}
    header_gz = gzip.compress(
        json.dumps(header, separators=(",", ":")).encode("utf-8"),
        DEFLATE_LEVEL, mtime=0)
    return atomic_write_bytes(
        b"".join([MAGIC, struct.pack(">I", len(header_gz)), header_gz,
                  *regions]), path)


# ----------------------------------------------------------------------
# Reading: header, directory, lazy structures
# ----------------------------------------------------------------------

def is_binary_index(path: str | Path) -> bool:
    """True when *path* starts with the binary magic (cheap sniff)."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def read_binary_header(path: str | Path) -> dict:
    """Verify magic/version/CRC and return the parsed header dict.

    The returned mapping carries one extra key, ``blob_offset`` — the
    absolute file offset where the first shard's regions begin.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(MAGIC))
            if magic != MAGIC:
                raise StorageError(
                    f"{path} is not a binary GKS index (bad magic)",
                    diagnosis="version-mismatch", path=path)
            raw_len = handle.read(4)
            if len(raw_len) != 4:
                raise StorageError(
                    f"cannot read index from {path}: file is truncated",
                    diagnosis="truncated", path=path)
            header_len = struct.unpack(">I", raw_len)[0]
            header_gz = handle.read(header_len)
    except OSError as exc:
        raise StorageError(f"cannot read index from {path}: {exc}",
                           diagnosis="unreadable", path=path) from exc
    if len(header_gz) != header_len:
        raise StorageError(
            f"cannot read index from {path}: header is truncated",
            diagnosis="truncated", path=path)
    try:
        header = json.loads(gzip.decompress(header_gz).decode("utf-8"))
    except (OSError, EOFError, zlib.error, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        raise StorageError(
            f"cannot read index from {path}: header is corrupted "
            f"({exc})", diagnosis="corrupted", path=path) from exc
    if not isinstance(header, dict) or \
            header.get("version") not in BINARY_VERSIONS_READ:
        version = header.get("version") if isinstance(header, dict) \
            else None
        raise StorageError(
            f"unsupported binary index version {version!r} in {path}",
            diagnosis="version-mismatch", path=path)
    body = header.get("body")
    if not isinstance(body, dict) or not body.get("shards"):
        raise StorageError(
            f"cannot read index from {path}: header has no shard "
            f"sections", diagnosis="corrupted", path=path)
    if header.get("crc32") != payload_crc32(body):
        raise StorageError(
            f"header checksum mismatch in {path} — the file is "
            f"corrupted", diagnosis="corrupted", path=path)
    header["blob_offset"] = len(MAGIC) + 4 + header_len
    return header


def _map_blob(path: Path):
    """mmap the file read-only; fall back to an in-memory bytes copy."""
    try:
        with open(path, "rb") as handle:
            try:
                return mmap.mmap(handle.fileno(), 0,
                                 access=mmap.ACCESS_READ)
            except (OSError, ValueError):
                handle.seek(0)
                return handle.read()
    except OSError as exc:
        raise StorageError(f"cannot read index from {path}: {exc}",
                           diagnosis="unreadable", path=path) from exc


def _uvarints(data: bytes, pos: int, count: int) -> tuple[Sequence[int], int]:
    """*count* plain uvarints from *pos*: ``(values, next pos)``.  A run
    of one-byte values (most rows without a CRC) is the slice itself."""
    run = data[pos:pos + count]
    if len(run) == count and run.isascii():  # all one-byte
        return run, pos + count
    values = []
    for _ in range(count):
        value, pos = read_uvarint(data, pos)
        values.append(value)
    return values, pos


def _front_coded(data: bytes, pos: int, lcp: int, suffix_len: int,
                 previous: Dewey) -> tuple[Dewey, int]:
    """The Dewey id whose ``lcp`` / suffix length were just read."""
    if lcp > len(previous):
        raise StorageError(
            f"codec data front-codes against a {lcp}-component prefix "
            f"but only {len(previous)} are available",
            diagnosis="corrupted")
    suffix, pos = _uvarints(data, pos, suffix_len)
    return previous[:lcp] + tuple(suffix), pos


def _blocks(data: bytes, pos: int) -> tuple[list, int]:
    """A counted run of block rows ``(frame, offset, length, count, crc,
    first)``, the first Dewey ids front-coded against each other."""
    (n_blocks,), pos = _uvarints(data, pos, 1)
    blocks = []
    first: Dewey = ()
    for _ in range(n_blocks):
        (frame, offset, length, count, crc, lcp,
         suffix_len), pos = _uvarints(data, pos, 7)
        first, pos = _front_coded(data, pos, lcp, suffix_len, first)
        blocks.append((frame, offset, length, count, crc, first))
    return blocks, pos


def _table_rows(data: bytes, pos: int) -> tuple[list, int]:
    """A counted run of ``(id delta, frame, offset, length, count, crc)``
    rows as ``(id, ((frame, offset, length), count, crc))``."""
    (n_rows,), pos = _uvarints(data, pos, 1)
    values, pos = _uvarints(data, pos, 6 * n_rows)
    rows = list(zip(*[iter(values)] * 6))
    return [(ident, ((frame, offset, length), count, crc))
            for ident, (_, frame, offset, length, count, crc)
            in zip(accumulate(row[0] for row in rows), rows)], pos


class _Entry(NamedTuple):
    """One keyword's directory entry: its literal blocks and its DAG
    references ``(dag node, that node's suffix-table location for the
    keyword)`` — ``None`` only where a v4 file lacks the table, which
    decoding diagnoses."""

    blocks: list
    dags: list


class _Directory:
    """The binary directory of one shard (layout: DESIGN.md §5.8).

    A v5 payload's construction reads the fixed offset tables, the
    vocabulary and the DAG section (every query's hash lookups need it)
    and rejects a payload its declared sizes do not fill exactly; a
    keyword's entry parses on first touch, once (:meth:`entry`).  A v4
    payload (read-only) parses whole, into the same entries.
    """

    __slots__ = ("keywords", "keyword_ids", "occurrences", "hash_locs",
                 "entity_literal", "element_literal", "_path", "_entries",
                 "_entry_bytes", "_entry_ends")

    def __init__(self, payload: bytes, path: Path,
                 version: int = FORMAT_VERSION_BINARY) -> None:
        self._path = path
        self._entries: dict[str, _Entry] = {}
        self.hash_locs: dict[tuple[int, int], tuple] = {}
        try:
            if version == FORMAT_VERSION_BINARY:
                self._open(payload)
            else:
                self._parse_v4(payload)
        except StorageError:
            raise
        except (IndexError, ValueError, OverflowError,
                struct.error) as exc:
            raise StorageError(
                f"cannot parse codec directory in {path}: {exc}",
                diagnosis="corrupted", path=path) from exc

    def _open(self, payload: bytes) -> None:
        count = int.from_bytes(payload[:4], "little")
        tables = 4 + 8 * (count + 1)
        if len(payload) < tables:
            raise StorageError("codec directory ends inside its offset "
                               "tables", diagnosis="truncated")
        ends = struct.unpack_from(f"<{2 * count + 2}I", payload, 4)
        word_ends, entry_ends = ends[:count + 1], ends[count + 1:]
        for table in (word_ends, entry_ends):
            if table[0] or list(table) != sorted(table):
                raise StorageError("codec directory offsets do not ascend",
                                   diagnosis="corrupted")
        start = tables + word_ends[-1]
        end = start + entry_ends[-1]
        if len(payload) < end:
            raise StorageError("codec directory ends inside its entries",
                               diagnosis="truncated")
        words = payload[tables:start]
        self.keywords = [words[a:b].decode("utf-8")
                         for a, b in zip(word_ends, word_ends[1:])]
        self.keyword_ids = dict(zip(self.keywords, range(count)))
        self._entry_bytes = payload[start:end]
        self._entry_ends = entry_ends
        (n_nodes, run_length), pos = _uvarints(payload, end, 2)
        counts, pos = _uvarints(payload, pos, n_nodes)
        if pos + run_length > len(payload):
            raise StorageError("codec directory ends inside its DAG "
                               "occurrences", diagnosis="truncated")
        prefixes = _decode_run(payload[pos:pos + run_length], sum(counts),
                               "DAG occurrence table", self._path)
        bounds = list(accumulate(counts, initial=0))
        self.occurrences = [prefixes[a:b]
                            for a, b in zip(bounds, bounds[1:])]
        pos += run_length
        for dag_id in range(n_nodes):
            pos = self._hash_locs(payload, pos, dag_id)
        if self._literal_locs(payload, pos) != len(payload):
            raise StorageError("codec directory has trailing bytes",
                               diagnosis="corrupted")

    def _hash_locs(self, payload: bytes, pos: int, dag_id: int) -> int:
        for which in (0, 1):
            (count,), pos = _uvarints(payload, pos, 1)
            if count:
                (frame, offset, length, crc), pos = _uvarints(payload, pos,
                                                              4)
                self.hash_locs[(dag_id, which)] = (
                    (frame, offset, length), count, crc)
        return pos

    def _literal_locs(self, payload: bytes, pos: int) -> int:
        literals = []
        for _ in range(2):
            (count, frame, offset, length, crc), pos = _uvarints(payload,
                                                                 pos, 5)
            literals.append(((frame, offset, length), count, crc))
        self.entity_literal, self.element_literal = literals
        return pos

    def entry(self, keyword: str) -> _Entry | None:
        """*keyword*'s entry (``None`` for an unknown keyword): parsed on
        first touch, the same object from then on."""
        entry = self._entries.get(keyword)
        if entry is None:
            index = self.keyword_ids.get(keyword)
            if index is None:
                return None
            parsed = self._parse_entry(keyword, index)
            entry = self._entries.setdefault(keyword, parsed)
            if entry is parsed:  # racing first touches install one entry
                _entries_parsed().inc()
        return entry

    def _parse_entry(self, keyword: str, index: int) -> _Entry:
        data = self._entry_bytes[self._entry_ends[index]:
                                 self._entry_ends[index + 1]]
        try:
            blocks, pos = _blocks(data, 0)
            dags, pos = _table_rows(data, pos)
            if dags and dags[-1][0] >= len(self.occurrences):
                raise StorageError(f"references DAG node {dags[-1][0]} of "
                                   f"{len(self.occurrences)}")
            if pos != len(data):
                raise StorageError("has trailing bytes")
        except StorageError as exc:
            raise StorageError(
                f"directory entry of keyword {keyword!r} in {self._path} "
                f"is malformed: {exc}", diagnosis="corrupted",
                path=self._path) from None
        return _Entry(blocks, dags)

    def _parse_v4(self, payload: bytes) -> None:
        """The whole v4 payload in one pass, every entry included."""
        (n_keywords,), pos = _uvarints(payload, 0, 1)
        self.keywords: list[str] = []
        plans = []
        previous_kw = b""
        for _ in range(n_keywords):
            (lcp, suffix_len), pos = _uvarints(payload, pos, 2)
            if lcp > len(previous_kw) or pos + suffix_len > len(payload):
                raise StorageError("corrupt front-coded string in directory",
                                   diagnosis="corrupted")
            previous_kw = previous_kw[:lcp] + payload[pos:pos + suffix_len]
            pos += suffix_len
            self.keywords.append(previous_kw.decode("utf-8"))
            blocks, pos = _blocks(payload, pos)
            (n_dags,), pos = _uvarints(payload, pos, 1)
            deltas, pos = _uvarints(payload, pos, n_dags)
            plans.append((blocks, list(accumulate(deltas))))
        self.keyword_ids = {keyword: i
                            for i, keyword in enumerate(self.keywords)}
        (n_dag_nodes,), pos = _uvarints(payload, pos, 1)
        self.occurrences: list[list[Dewey]] = []
        suffix_locs: dict[tuple[int, int], tuple] = {}
        for dag_id in range(n_dag_nodes):
            (n_occ,), pos = _uvarints(payload, pos, 1)
            prefixes = []
            prefix: Dewey = ()
            for _ in range(n_occ):
                (lcp, suffix_len), pos = _uvarints(payload, pos, 2)
                prefix, pos = _front_coded(payload, pos, lcp, suffix_len,
                                           prefix)
                prefixes.append(prefix)
            self.occurrences.append(prefixes)
            tables, pos = _table_rows(payload, pos)
            suffix_locs.update(((dag_id, keyword_index), table)
                               for keyword_index, table in tables)
            pos = self._hash_locs(payload, pos, dag_id)
        if self._literal_locs(payload, pos) != len(payload):
            raise StorageError("codec directory has trailing bytes",
                               diagnosis="corrupted")
        self._entries = {
            keyword: _Entry(blocks, [(dag_id, suffix_locs.get((dag_id, i)))
                                     for dag_id in dag_ids])
            for i, (keyword, (blocks, dag_ids))
            in enumerate(zip(self.keywords, plans))}
        _entries_parsed().inc(len(self._entries))

    def posting_count(self, keyword: str) -> int:
        """Length of *keyword*'s posting list, from its entry alone:
        literal block counts plus, per covering DAG node, its suffix
        count once per occurrence (0 for an unknown keyword)."""
        entry = self.entry(keyword)
        if entry is None:
            return 0
        total = sum(block[3] for block in entry.blocks)
        for dag_id, table in entry.dags:
            # a missing table counts nothing here; decoding diagnoses it
            if table is not None:
                total += table[1] * len(self.occurrences[dag_id])
        return total


def _entries_parsed():
    return global_registry().counter(
        "gks_codec_directory_entries_parsed_total",
        help="Keyword entries of binary index directories parsed: one "
             "per keyword on its first touch (v5), all at load (v4).")


class _ShardReader:
    """Lazy access to one shard's frames and tables.

    With a *layout* every id decodes straight into its packed int (what
    a load serves); without one into Dewey tuples (what the audit and
    the fault injectors read, stored order and all)."""

    def __init__(self, frames: _FrameReader, directory: _Directory,
                 path: Path, layout: DeweyLayout | None = None) -> None:
        self.frames = frames
        self.directory = directory
        self.path = path
        self.layout = layout
        self._suffix_cache: dict[tuple, list] = {}
        self._occurrences: dict[int, list[tuple[int, int]]] = {}

    def _run(self, payload: bytes, count: int, what: str, base: int = 0,
             *, counted: bool = False) -> list:
        if self.layout is None:
            return _decode_run(payload, count, what, self.path,
                               counted=counted)
        return _decode_packed(payload, count, what, self.path, self.layout,
                              base, counted=counted)

    def _table_chunk(self, entry: tuple, what: str) -> bytes:
        (frame, offset, length), _count, crc = entry
        payload = self.frames.chunk(frame, offset, length, what)
        if _crc(payload) != crc:
            raise StorageError(
                f"codec chunk for {what} in {self.path} fails its "
                f"CRC32 — the data is corrupted",
                diagnosis="corrupted", path=self.path)
        return payload

    def block_postings(self, block: tuple, what: str) -> list:
        """One literal block, checked against its CRC and its directory
        metadata (count, first Dewey); *what* names it in diagnoses."""
        frame, offset, length, count, crc, first = block
        payload = self.frames.chunk(frame, offset, length, what)
        if _crc(payload) != crc:
            raise StorageError(
                f"{what} in {self.path} fails its CRC32 — the block is "
                f"corrupted", diagnosis="corrupted", path=self.path)
        postings = self._run(payload, count, what)
        if postings and (postings[0] if self.layout is None
                         else self.layout.unpack(postings[0])) != first:
            raise StorageError(
                f"{what} in {self.path} disagrees with its directory "
                f"metadata", diagnosis="corrupted", path=self.path)
        return postings

    def suffixes(self, dag_id: int, table: tuple | None,
                 base: int = 0) -> list:
        """One keyword's suffix table under DAG node *dag_id*, as its
        directory entry locates it (packed below a *base*-component
        prefix when the reader packs)."""
        if table is None:
            raise StorageError(
                f"keyword references DAG node {dag_id} but no suffix "
                f"table exists for it in {self.path}",
                diagnosis="corrupted", path=self.path)
        cached = self._suffix_cache.get((table, base))
        if cached is not None:
            return cached
        what = f"dag suffixes {dag_id}"
        suffixes = self._run(self._table_chunk(table, what), table[1], what,
                             base)
        self._suffix_cache[(table, base)] = suffixes
        return suffixes

    def occurrences(self, dag_id: int) -> list[tuple[object, int]]:
        """``(occurrence prefix, its component count)`` per occurrence
        of DAG node *dag_id* (packed when the reader packs)."""
        occurrences = self._occurrences.get(dag_id)
        if occurrences is None:
            prefixes = self.directory.occurrences[dag_id]
            lengths = list(map(len, prefixes))
            try:
                if self.layout is None:
                    packed = prefixes
                elif len(set(lengths)) == 1:  # one depth: one packer
                    packed = map(self.layout.packer(lengths[0]), prefixes)
                else:
                    packed = map(self.layout.pack, prefixes)
                occurrences = list(zip(packed, lengths))
            except DeweyError:
                raise _misfit(f"DAG node {dag_id} occurrences", self.path,
                              self.layout) from None
            self._occurrences[dag_id] = occurrences
        return occurrences

    def first_id(self, block: tuple):
        """A literal block's first id from its directory row (packed
        when the reader packs): the block's place among a keyword's
        segments."""
        if self.layout is None:
            return block[5]
        try:
            return self.layout.pack(block[5])
        except DeweyError:
            raise StorageError(
                f"posting block in {self.path}: its directory metadata "
                f"names a first id the recorded layout "
                f"{list(self.layout.widths)} cannot hold",
                diagnosis="corrupted", path=self.path) from None

    def _decode_hash(self, entry: tuple, what: str, base: int = 0) -> list:
        return self._run(self._table_chunk(entry, what), entry[1], what,
                         base, counted=True)

    def hash_table(self, which: int) -> dict:
        """Materialise one full hash table (0 = entity, 1 = element)."""
        directory = self.directory
        entry, name = ((directory.entity_literal, "entity") if which == 0
                       else (directory.element_literal, "element"))
        table = dict(self._decode_hash(entry, f"literal {name} table"))
        packed = self.layout is not None
        for dag_id in range(len(directory.occurrences)):
            entry = directory.hash_locs.get((dag_id, which))
            if entry is None:
                continue
            rows: dict = {}
            for occurrence, base in self.occurrences(dag_id):
                if base not in rows:
                    rows[base] = self._decode_hash(
                        entry, f"dag hash rows {dag_id}", base)
                for suffix, count in rows[base]:
                    table[occurrence | suffix if packed
                          else occurrence + suffix] = count
        return table


# ----------------------------------------------------------------------
# The loaded index: plain lists and dicts, decoded on first touch
# ----------------------------------------------------------------------

def _decode_keyword(reader: _ShardReader, keyword: str,
                    tracer=NOOP_TRACER) -> list:
    """One keyword's whole posting list, as the plain sorted list an
    in-memory build holds.

    On disk the list is an ordered sequence of disjoint *segments*:
    literal blocks (keyed by their first posting, from the directory)
    and (dag node, occurrence) expansions (keyed by the occurrence
    prefix — every expanded posting lies inside that prefix's subtree
    interval, and literal blocks never span a covered gap, so sorting
    segments by key reproduces exact document order).
    """
    directory = reader.directory
    what = f"posting block for keyword {keyword!r}"
    with tracer.span("decode", keyword=keyword) as span:
        started = tracer.clock()
        entry = directory.entry(keyword)
        segments: list[tuple] = [(reader.first_id(block), block, None)
                                 for block in entry.blocks]
        blocks = len(segments)
        for dag_id, table in entry.dags:
            occurrences = reader.occurrences(dag_id)
            suffixes = {base: reader.suffixes(dag_id, table, base)
                        for base in {base for _, base in occurrences}}
            segments += [(occurrence, None, suffixes[base])
                         for occurrence, base in occurrences]
        if len(segments) > blocks:
            segments.sort(key=itemgetter(0))
        postings: list = []
        packed = reader.layout is not None
        for occurrence, block, suffixes in segments:
            if block is not None:
                postings += reader.block_postings(block, what)
            elif packed:
                postings += map(or_, suffixes, repeat(occurrence))
            else:
                postings += [occurrence + suffix for suffix in suffixes]
        seconds = tracer.clock() - started
        span.add("blocks", blocks)
        span.add("postings", len(postings))
    registry = global_registry()
    registry.counter("gks_codec_blocks_decoded_total",
                     help="Literal posting blocks decoded from binary files."
                     ).inc(blocks)
    registry.counter("gks_codec_postings_decoded_total",
                     help="Postings decoded or expanded from binary files."
                     ).inc(len(postings))
    registry.histogram("gks_codec_decode_seconds",
                       help="Wall time to decode one keyword's postings."
                       ).observe(seconds)
    return postings


class LazyInvertedIndex(InvertedIndex):
    """An :class:`InvertedIndex` over a codec shard.

    ``postings(keyword)`` decodes the keyword's whole list on first
    touch and returns that same ``list`` from then on, so the pipeline
    merges, bisects and slices it in C exactly as on a built index.
    Vocabulary and counts come from the directory and decode nothing.
    """

    def __init__(self, reader: _ShardReader) -> None:
        # deliberately no super().__init__ — see __getattr__
        self._reader = reader
        self._decoded: dict[str, list[Dewey]] = {}

    def __getattr__(self, name: str):
        """First use of the inherited ``_postings`` dict (``items``, a
        mutation such as ``add``): decode what is left and *become* a
        plain :class:`InvertedIndex`, so no answer
        below can go stale against the file's directory."""
        if name != "_postings":
            raise AttributeError(name)
        self._postings = {keyword: self.postings(keyword)
                          for keyword in self._reader.directory.keywords}
        self.__class__ = InvertedIndex
        return self._postings

    def postings(self, keyword: str, tracer=NOOP_TRACER) -> list[Dewey]:
        postings = self._decoded.get(keyword)
        if postings is None:
            if keyword not in self._reader.directory.keyword_ids:
                return []
            # cached only when whole: a failed decode fails again
            postings = _decode_keyword(self._reader, keyword, tracer)
            self._decoded[keyword] = postings
        return postings

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._reader.directory.keyword_ids

    def __len__(self) -> int:
        return len(self._reader.directory.keywords)

    @property
    def vocabulary(self) -> list[str]:
        return list(self._reader.directory.keywords)

    def document_frequency(self, keyword: str) -> int:
        return self._reader.directory.posting_count(keyword)

    @property
    def total_postings(self) -> int:
        directory = self._reader.directory
        return sum(map(directory.posting_count, directory.keywords))


class LazyNodeHashes(NodeHashes):
    """A :class:`NodeHashes` whose tables decode on first touch and are
    ordinary instance dicts from then on."""

    def __init__(self, reader: _ShardReader) -> None:
        # deliberately no super().__init__ — see __getattr__
        self._reader = reader
        self.layout = reader.layout

    def __getattr__(self, name: str):
        # reached only while the table is missing from the instance
        which = {"_entity": 0, "_element": 1}.get(name)
        if which is None:
            raise AttributeError(name)
        table = self._reader.hash_table(which)
        setattr(self, name, table)
        return table


def _region_table(section: dict, path: Path) -> tuple[tuple, list[tuple]]:
    """A shard section's ``(comp, raw, crc32)`` records: its directory's
    and its frames'."""
    try:
        records = [(comp, raw, crc) for comp, raw, crc
                   in [section["directory"], *section["frames"]]]
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(
            f"shard section in {path} is missing its region table",
            diagnosis="corrupted", path=path) from exc
    return records[0], records[1:]


def _read_region(buffer, start: int, record: tuple, what: str, path: Path,
                 *, verbatim: bool) -> bytes:
    """The payload of the stored region at *start*, checked against its
    header *record* ``(comp, raw, crc32)``: a short region is
    ``truncated``; a CRC32 mismatch, a failed inflate or a wrong
    inflated size is ``corrupted``.  A frame (*verbatim*) whose stored
    and raw sizes agree was stored as it is; a directory is always
    deflated."""
    comp_size, raw_size, crc = record
    stored = bytes(buffer[start:start + comp_size])
    if len(stored) != comp_size:
        raise StorageError(
            f"{what} in {path} is truncated ({len(stored)} of "
            f"{comp_size} byte(s))", diagnosis="truncated", path=path)
    if _crc(stored) != crc:
        raise StorageError(
            f"{what} in {path} fails its CRC32 — the file is corrupted",
            diagnosis="corrupted", path=path)
    if verbatim and comp_size == raw_size:
        return stored
    try:
        payload = zlib.decompress(stored)
    except zlib.error as exc:
        raise StorageError(
            f"{what} in {path} does not inflate: {exc}",
            diagnosis="corrupted", path=path) from exc
    if len(payload) != raw_size:
        raise StorageError(
            f"{what} in {path} inflates to {len(payload)} byte(s), "
            f"header promises {raw_size}", diagnosis="corrupted", path=path)
    return payload


def _section_reader(section: dict, buffer, cursor: int, path: Path,
                    version: int, layout: DeweyLayout | None = None
                    ) -> tuple[_ShardReader, int]:
    """Build one shard's reader; returns it plus the next region offset."""
    directory_record, frame_table = _region_table(section, path)
    payload = _read_region(buffer, cursor, directory_record,
                           "codec directory", path, verbatim=False)
    cursor += directory_record[0]
    offsets = []
    for comp_size, _raw_size, _crc32 in frame_table:
        offsets.append(cursor)
        cursor += comp_size
    frames = _FrameReader(buffer, offsets, frame_table, path)
    directory = _Directory(payload, path, version)
    return _ShardReader(frames, directory, path, layout), cursor


def _shard_index(section: dict, reader: _ShardReader, analyzer: Analyzer,
                 flags: dict) -> GKSIndex:
    return GKSIndex(
        inverted=LazyInvertedIndex(reader),
        hashes=LazyNodeHashes(reader),
        stats=IndexStats.from_dict(section.get("stats", {})),
        layout=reader.layout,
        analyzer=analyzer, index_tags=flags.get("index_tags"),
        corpus_crc32=flags.get("corpus_crc32"),
        document_names=tuple(section.get("document_names", ())))


def load_binary_index(path: str | Path) -> "GKSIndex | ShardedIndex":
    """Open a binary index (v5, or a read-only v4) over the mmap'd file.

    Up front: the header, and per shard its directory's fixed tables
    and DAG section.  A keyword's directory entry and postings and the
    two hash tables parse and decode on first touch, where a corrupt
    one raises :class:`StorageError`; they are plain lists and dicts
    from then on, every id packed under the recorded ``dewey_widths``.
    A file that records none is decoded whole here instead.
    """
    path = Path(path)
    header = read_binary_header(path)
    body = header["body"]
    if header["version"] != FORMAT_VERSION_BINARY or \
            "dewey_widths" not in body:
        decoded = decode_file(path)
        return _assemble(decoded, [_pack_decoded(decoded)]
                         * len(decoded.shards), path)
    family = _layout_of(body["dewey_widths"], path)
    flags = body.get("analyzer", {})
    analyzer = Analyzer.from_flags(flags)
    buffer = _map_blob(path)
    cursor = header["blob_offset"]
    sections = body.get("shards")
    if not isinstance(sections, list) or not sections:
        raise StorageError(
            f"binary index {path} carries no shard sections",
            diagnosis="corrupted", path=path)
    layout = body.get("layout", "monolithic")
    if layout == "monolithic":
        if len(sections) != 1:
            raise StorageError(
                f"monolithic binary index {path} carries "
                f"{len(sections)} shard sections",
                diagnosis="corrupted", path=path)
        reader, _cursor = _section_reader(sections[0], buffer, cursor,
                                          path, header["version"], family)
        return _shard_index(sections[0], reader, analyzer, flags)
    if layout != "sharded":
        raise StorageError(
            f"binary index {path} declares unknown layout {layout!r}",
            diagnosis="version-mismatch", path=path)
    shards = []
    for section in sections:
        reader, cursor = _section_reader(section, buffer, cursor, path,
                                         header["version"], family)
        index = _shard_index(section, reader, analyzer, flags)
        shards.append(Shard(shard_id=int(section.get("shard_id", 0)),
                            doc_ids=tuple(section.get("doc_ids", ())),
                            index=index))
    try:
        return ShardedIndex(shards, body.get("strategy", "round_robin"),
                            tuple(body.get("document_names", ())),
                            analyzer=analyzer,
                            corpus_crc32=flags.get("corpus_crc32"))
    except StorageError:
        raise
    except Exception as exc:
        raise StorageError(
            f"cannot assemble sharded index from {path}: {exc}",
            diagnosis="corrupted", path=path) from exc


def verify_frames(path: str | Path) -> None:
    """Bytes-level structural audit of every stored region.

    Checks each shard's directory and frame regions against the
    header's ``(comp, raw, crc32)`` records — sizes, checksums,
    inflatability and the absence of trailing bytes — without
    semantically decoding a single posting.  This is the structural
    complement of :func:`decode_file`: byte rot and truncation fail
    here (``check-index`` exit 1), while *resealed* semantic corruption
    (fresh CRCs over wrong content) passes and is left for the deep
    invariant audit (exit 2).  Raises :class:`StorageError` on the
    first structural problem.
    """
    path = Path(path)
    header = read_binary_header(path)
    buffer = _map_blob(path)
    cursor = header["blob_offset"]
    for section in header["body"].get("shards", []):
        directory_record, frame_table = _region_table(section, path)
        regions = [(directory_record, False)]
        regions.extend((record, True) for record in frame_table)
        for record, verbatim in regions:
            _read_region(buffer, cursor, record,
                         f"region at offset {cursor}", path,
                         verbatim=verbatim)
            cursor += record[0]
    if cursor != len(buffer):
        raise StorageError(
            f"{len(buffer) - cursor} trailing byte(s) after the last "
            f"region in {path}", diagnosis="corrupted", path=path)


# ----------------------------------------------------------------------
# Deep decode: eager expansion for audits and fault injection
# ----------------------------------------------------------------------

def _classify_codec_error(error: StorageError) -> str:
    message = str(error)
    if "CRC32" in message:
        return "codec-block-crc"
    if "suffix" in message or "DAG" in message:
        return "codec-dag-suffix"
    return "codec-block-metadata"


def decode_file(path: str | Path, on_violation=None) -> DecodedIndex:
    """Fully expand a binary index, verifying every codec invariant.

    Without *on_violation* the first problem raises
    :class:`StorageError`.  With a collector ``on_violation(name,
    detail)`` the decode keeps going, reporting ``codec-block-crc``
    (stored bytes fail their checksum), ``codec-block-metadata``
    (decoded content disagrees with directory metadata) and
    ``codec-dag-suffix`` (shared-subtree tables missing, unsorted or
    inconsistent) — the three codec invariants `check-index --deep`
    audits on top of the generic content checks.
    """
    path = Path(path)

    def report(error: StorageError) -> None:
        if on_violation is None:
            raise error
        on_violation(_classify_codec_error(error), str(error))

    header = read_binary_header(path)
    body = header["body"]
    buffer = _map_blob(path)
    cursor = header["blob_offset"]
    shards = []
    for section in body.get("shards", []):
        reader, cursor = _section_reader(section, buffer, cursor, path,
                                         header["version"])
        directory = reader.directory
        postings: dict[str, list[Dewey]] = {}
        for keyword in directory.keywords:
            try:
                postings[keyword] = _decode_keyword(reader, keyword)
            except StorageError as exc:
                report(exc)
                postings[keyword] = []
        for keyword in directory.keywords:
            try:
                dags = directory.entry(keyword).dags
            except StorageError:
                continue  # reported with the keyword's postings
            for dag_id, table in dags:
                if table is None:
                    continue  # reported with the keyword's postings
                try:
                    suffixes = reader.suffixes(dag_id, table)
                except StorageError as exc:
                    report(exc)
                    continue
                if any(suffixes[i] >= suffixes[i + 1]
                       for i in range(len(suffixes) - 1)):
                    report(StorageError(
                        f"DAG node {dag_id} suffix table for keyword "
                        f"{keyword!r} in {path} is not strictly sorted",
                        diagnosis="corrupted", path=path))
        for dag_id, prefixes in enumerate(directory.occurrences):
            if any(prefixes[i] >= prefixes[i + 1]
                   for i in range(len(prefixes) - 1)):
                report(StorageError(
                    f"DAG node {dag_id} occurrence list in {path} is "
                    f"not strictly sorted", diagnosis="corrupted",
                    path=path))
        tables = []
        for which in (0, 1):
            try:
                tables.append(reader.hash_table(which))
            except StorageError as exc:
                report(exc)
                tables.append({})
        shards.append(DecodedShard(
            shard_id=int(section.get("shard_id", 0)),
            doc_ids=(tuple(section["doc_ids"])
                     if "doc_ids" in section else None),
            document_names=tuple(section.get("document_names", ())),
            stats=dict(section.get("stats", {})),
            postings=postings, entity=tables[0], element=tables[1]))
    return DecodedIndex(
        layout=body.get("layout", "monolithic"),
        strategy=body.get("strategy"),
        analyzer=dict(body.get("analyzer", {})),
        document_names=tuple(body.get("document_names", ())),
        shards=shards,
        dewey_widths=(tuple(_layout_of(body["dewey_widths"], path).widths)
                      if "dewey_widths" in body else None))


# ----------------------------------------------------------------------
# The codecs
# ----------------------------------------------------------------------

@runtime_checkable
class Codec(Protocol):
    """Storage codec: one on-disk representation of a GKS index.

    ``save`` persists an index (an ``encode`` and a ``write`` span on
    *tracer*: building the bytes, then compressing and syncing them) and
    ``load`` reopens one (possibly lazily); ``sniff`` answers whether a
    file on disk is this codec's.
    ``decode`` reads a file into its unrepaired :class:`DecodedIndex` —
    stored order, nothing re-sorted; a checksum or consistency failure
    below the file's outermost seal goes to ``on_violation(invariant,
    detail)`` when a collector is given and raises
    :class:`StorageError` otherwise — and ``encode`` seals a decoded
    view back under fresh checksums.  ``describe`` states how the file
    is laid out (``version``, ``codec``, ``layout``, ``shards``), and
    ``check`` raises :class:`StorageError` for what a load that
    succeeded has not verified — both use the index ``load``
    returned when given one; ``check`` is the structural half of ``gks
    check-index``; whether the tables are right is the deep audit's
    question (:mod:`repro.analysis.invariants`).  Codecs are
    stateless singletons registered in :data:`CODECS`; a writer picks
    one by name (``EngineConfig.codec``, :func:`resolve_codec`), a
    reader never needs the name (:func:`sniff_codec`).
    """

    name: str

    def save(self, index, path, tracer=NOOP_TRACER): ...

    def load(self, path): ...

    def sniff(self, path) -> bool: ...

    def decode(self, path, on_violation=None) -> DecodedIndex: ...

    def encode(self, decoded: DecodedIndex, path): ...

    def describe(self, path, index=None) -> dict: ...

    def check(self, path, index=None) -> None: ...


def _units(index) -> list[GKSIndex]:
    if isinstance(index, ShardedIndex):
        return [shard.index for shard in index.shards]
    return [index]


def _describe(codec: Codec, version: int, index) -> dict:
    sharded = isinstance(index, ShardedIndex)
    return {"version": version, "codec": codec.name,
            "layout": "sharded" if sharded else "monolithic",
            "shards": len(_units(index))}


def _corrupted(path: Path, problem: str) -> StorageError:
    return StorageError(f"cannot read index from {path}: {problem}",
                        diagnosis="corrupted", path=path)


class _Memo(dict):
    """``memo[key]`` is ``compute(key)``, computed on first request
    (``map(memo.__getitem__, ...)`` answers every repeat inside C).
    One per raw file: postings and both hash tables name each node, so
    its Dewey id is rendered — or parsed and validated — once, and the
    decoded tables share one tuple per node."""

    __slots__ = ("compute",)

    def __init__(self, compute) -> None:
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _hash_rows(parse, table: dict) -> dict[Dewey, int]:
    """A stored hash table with its keys parsed; counts must be ints."""
    if not set(map(type, table.values())) <= {int}:
        raise TypeError("hash count is not an integer")
    return dict(zip(map(parse, table), table.values()))


def _posting_fragment(keyword: str, rendered) -> bytes:
    """``canonical_json({keyword: list(rendered)})[1:-1]`` in one join:
    rendered Dewey ids are digits and dots, which JSON quotes as they
    are, so only the keyword goes through the encoder."""
    body = '","'.join(rendered)
    return (f'{json.dumps(keyword)}:["{body}"]' if body
            else f'{json.dumps(keyword)}:[]').encode()


def _seal_payload(shard: DecodedShard, analyzer: dict, render,
                  widths: tuple[int, ...] | None) -> tuple[bytes, int]:
    """One shard's payload as stored JSON, and the CRC32 of its
    canonical form.  The two differ in keyword order alone — the file
    keeps ``postings`` in index order (sorted keywords deflate 5 %
    larger), the checksum is defined over sorted keys — so every value
    is serialised once and the fragments are joined twice."""
    payload = {"analyzer": analyzer,
               "document_names": shard.document_names,
               "stats": shard.stats,
               "entity_hash": dict(zip(map(render, shard.entity),
                                       shard.entity.values())),
               "element_hash": dict(zip(map(render, shard.element),
                                        shard.element.values()))}
    # conditional key: a view decoded from a file that records no
    # layout re-encodes without one
    if widths is not None:
        payload["dewey_widths"] = list(widths)
    parts = {key: canonical_json({key: value})[1:-1]
             for key, value in payload.items()}
    lists = {keyword: _posting_fragment(keyword, map(render, posting_list))
             for keyword, posting_list in shard.postings.items()}

    def joined(keywords) -> bytes:
        whole = {**parts, "postings": b'"postings":{%b}' % b",".join(
            map(lists.get, keywords))}
        return b"{%b}" % b",".join(map(whole.get, sorted(whole)))

    return joined(lists), _crc(joined(sorted(lists)))


class RawCodec:
    """The gzip-JSON envelopes, eager-loading: v2 is ``{version, crc32,
    payload}``; v3 is ``{version, crc32, manifest, shards}`` — a shard
    manifest (strategy, global document names, analyzer flags, one
    ``{shard_id, doc_ids, crc32}`` entry per shard) sealed by the
    envelope CRC, and one payload per entry sealed by the entry's.  A
    payload holds one shard's tables with Dewey ids in the paper's
    dotted notation; every CRC is over canonical JSON."""

    name = "raw"

    def sniff(self, path) -> bool:
        return not is_binary_index(path)

    def save(self, index, path, tracer=NOOP_TRACER):
        """Render the packed ids straight to dotted strings (one
        generated formatter per depth), never through tuples."""
        return self._write(_view(index, None), path, tracer,
                           _Memo(index.layout.format).__getitem__)

    def encode(self, decoded: DecodedIndex, path, tracer=NOOP_TRACER):
        return self._write(decoded, path, tracer,
                           _Memo(format_dewey).__getitem__)

    def _write(self, decoded: DecodedIndex, path, tracer, render):
        """One pass per shard: every distinct Dewey id is rendered once
        (postings and both hash tables repeat it ~3.4x), every payload
        serialised once (:func:`_seal_payload`), and those bytes spliced
        into the envelope instead of dumping the envelope again."""
        with tracer.span("encode"):
            bodies, crcs = zip(*(
                _seal_payload(shard, decoded.analyzer, render,
                              decoded.dewey_widths)
                for shard in decoded.shards))
            if decoded.layout == "sharded":
                manifest = canonical_json({
                    "strategy": decoded.strategy,
                    "document_names": decoded.document_names,
                    "analyzer": decoded.analyzer,
                    "shards": [{"shard_id": shard.shard_id,
                                "doc_ids": shard.doc_ids or (),
                                "crc32": crc}
                               for shard, crc in zip(decoded.shards, crcs)],
                })
                text = (b'{"version":%d,"crc32":%d,"manifest":%b,'
                        b'"shards":[%b]}') % (
                    FORMAT_VERSION_SHARDED, _crc(manifest), manifest,
                    b",".join(bodies))
            else:
                text = b'{"version":%d,"crc32":%d,"payload":%b}' % (
                    FORMAT_VERSION, crcs[0], bodies[0])
        with tracer.span("write", bytes=len(text)):
            return atomic_write_gz(text, path)

    def decode(self, path, on_violation=None) -> DecodedIndex:
        return self._read(Path(path), on_violation, packed=False)[0]

    def _read(self, path: Path, on_violation, *, packed: bool
              ) -> tuple[DecodedIndex, list[DeweyLayout | None]]:
        """The envelope's shards, every CRC checked.  *packed*: each
        payload that records its widths parses straight into packed ids
        (its layout is returned; ``None`` where it records none, and its
        ids stay tuples)."""
        envelope = read_json_gz(path)
        if not isinstance(envelope, dict):
            raise _corrupted(path, "not an index envelope")
        version = envelope.get("version")
        if version == FORMAT_VERSION_SHARDED:
            sealed, payloads = envelope.get("manifest"), envelope.get("shards")
            if not isinstance(sealed, dict) or not isinstance(payloads, list):
                raise _corrupted(path, "sharded envelope has no "
                                       "manifest/shards")
            layout, entries = "sharded", sealed.get("shards", [])
            if len(entries) != len(payloads) or not entries:
                raise _corrupted(
                    path, f"manifest lists {len(entries)} shards but "
                          f"{len(payloads)} payloads are present")
        elif version == FORMAT_VERSION:
            sealed = envelope.get("payload")
            if not isinstance(sealed, dict):
                raise _corrupted(path, "envelope has no payload")
            layout, entries, payloads = "monolithic", [None], [sealed]
        else:
            raise StorageError(
                f"unsupported index format version {version!r} in {path}",
                diagnosis="version-mismatch", path=path)
        if envelope.get("crc32") != payload_crc32(sealed):
            raise StorageError(
                f"checksum mismatch in {path}: stored crc32 "
                f"{envelope.get('crc32')!r}, computed "
                f"{payload_crc32(sealed):#010x} — the file is corrupted",
                diagnosis="corrupted", path=path)
        shards, layouts = [], []
        widths = None
        parse_tuple = _Memo(parse_dewey).__getitem__
        for position, (entry, payload) in enumerate(zip(entries, payloads)):
            try:
                if entry is not None and \
                        entry.get("crc32") != payload_crc32(payload):
                    error = StorageError(
                        f"checksum mismatch for shard "
                        f"{entry.get('shard_id')!r} in {path} — the file "
                        f"is corrupted", diagnosis="corrupted", path=path)
                    if on_violation is None:
                        raise error
                    on_violation("manifest-crc", str(error))
                unit_layout = None
                parse = parse_tuple
                if "dewey_widths" in payload:
                    widths = tuple(_layout_of(payload["dewey_widths"],
                                              path).widths)
                    if packed:
                        unit_layout = DeweyLayout(widths)
                        parse = _Memo(unit_layout.parse).__getitem__
                layouts.append(unit_layout)
                shards.append(DecodedShard(
                    0 if entry is None
                    else int(entry.get("shard_id", position)),
                    None if entry is None
                    else tuple(entry.get("doc_ids", ())),
                    tuple(payload.get("document_names", ())),
                    dict(payload.get("stats", {})),
                    {keyword: list(map(parse, posting_list))
                     for keyword, posting_list
                     in payload["postings"].items()},
                    _hash_rows(parse, payload["entity_hash"]),
                    _hash_rows(parse, payload["element_hash"])))
            except (KeyError, AttributeError, TypeError,
                    DeweyError) as exc:
                raise _corrupted(
                    path, f"malformed shard {position} ({exc!r})") from exc
        return DecodedIndex(
            layout, sealed.get("strategy"), dict(sealed.get("analyzer", {})),
            tuple(sealed.get("document_names", ())), shards,
            widths), layouts

    def load(self, path):
        path = Path(path)
        decoded, layouts = self._read(path, None, packed=True)
        if None in layouts:  # no widths recorded: pack what was parsed
            if any(layout is not None for layout in layouts):
                decoded, layouts = self._read(path, None, packed=False)
            layouts = [_pack_decoded(decoded)] * len(layouts)
        return _assemble(decoded, layouts, path)

    def describe(self, path, index=None) -> dict:
        index = self.load(path) if index is None else index
        return _describe(self, FORMAT_VERSION_SHARDED
                         if isinstance(index, ShardedIndex)
                         else FORMAT_VERSION, index)

    def check(self, path, index=None) -> None:
        """Nothing left: the eager load verified every CRC and parsed
        every Dewey id."""


class VarintDagCodec:
    """The binary format: varint/delta blocks + DAG sharing, lazy."""

    name = "varint-dag"

    def sniff(self, path) -> bool:
        return is_binary_index(path)

    def save(self, index, path, tracer=NOOP_TRACER):
        return write_binary_index(index, path, use_dag=True, tracer=tracer)

    def load(self, path):
        return load_binary_index(path)

    def decode(self, path, on_violation=None) -> DecodedIndex:
        return decode_file(path, on_violation)

    def encode(self, decoded: DecodedIndex, path):
        """All-literal: a mutated view must land on disk verbatim, and
        shared-subtree planning presumes sorted, consistent tables."""
        return _write_decoded(decoded, path, use_dag=False)

    def describe(self, path, index=None) -> dict:
        """``version`` is the file's own: a v4 file says 4."""
        return _describe(self, read_binary_header(path)["version"],
                         self.load(path) if index is None else index)

    def check(self, path, index=None) -> None:
        """Bytes-level: every region against its CRC (:func:`verify_frames`)
        — the lazy load read only the header and the directories' fixed
        tables — and every keyword's directory entry of *index* (loaded
        when not given) parsed, its blocks' first ids and every DAG
        occurrence checked against the recorded widths."""
        verify_frames(path)
        for unit in _units(self.load(path) if index is None else index):
            reader = getattr(unit.inverted, "_reader", None)
            if reader is None:
                continue  # no widths recorded: the load decoded it all
            directory = reader.directory
            for keyword in directory.keywords:
                for block in directory.entry(keyword).blocks:
                    reader.first_id(block)
            for dag_id in range(len(directory.occurrences)):
                reader.occurrences(dag_id)


CODECS: dict[str, Codec] = {"raw": RawCodec(),
                            "varint-dag": VarintDagCodec()}
CODEC_NAMES: tuple[str, ...] = tuple(sorted(CODECS))


def resolve_codec(name: str) -> Codec:
    """The codec a writer named; unknown names raise ConfigError."""
    codec = CODECS.get(name)
    if codec is None:
        raise ConfigError(
            f"unknown codec {name!r}; expected one of {CODEC_NAMES}")
    return codec


def sniff_codec(path: str | Path) -> Codec:
    """The codec a reader needs: the first whose ``sniff`` claims *path*
    (``raw`` claims whatever lacks the binary magic, so there is one)."""
    return next(codec for codec in CODECS.values() if codec.sniff(path))
