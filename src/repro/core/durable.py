"""The unit algebra of the write path: run chains, memtable, store.

:class:`~repro.core.engine.GKSEngine` stays the facade; this module owns
the mechanics underneath ``add_document``.  Every engine — with a
:class:`~repro.index.segments.SegmentStore` or without — keeps, per
shard, an ordered *chain* of immutable runs plus a memtable of
one-document units, all document-disjoint in the sense of
:mod:`repro.index.composite`:

* **compose** — the serving index over chains + memtable: one
  :class:`~repro.index.composite.CompositeIndex` per shard (the bare
  unit when a shard is a single run), wrapped in a
  :class:`~repro.index.sharding.ShardedIndex` for scatter-gather.
* **merge** — the memtable into one run per shard (a flush), a chain
  into one run (a compaction).  Merging happens here, on the in-memory
  units; the store only persists the finished runs.
* **open / recover** — no manifest yet: build the base index as usual,
  seed the store with generation-1 segments and an empty WAL.  Manifest
  present: verify compatibility with the engine config and the base
  corpus (never silently serve a different corpus), check the flushed
  appended documents from the texts sidecars, load the verified segment
  runs, then stream the WAL tail's texts into memtable units.  No tree
  is built: each waits for a reader.  The composed index is
  node-for-node the one a from-scratch rebuild over the same documents
  would produce.
* **one layout** — every unit packs its Dewey ids under the engine's
  one :class:`~repro.xmltree.dewey.DeweyLayout`: a new unit is built in
  it, and a document deeper or wider than it re-lays the whole family
  out once (:func:`admit_unit`, counted in ``gks_dewey_relayouts_total``).
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Callable, Sequence

from repro.core.config import EngineConfig
from repro.errors import StorageError, XMLSyntaxError
from repro.index.builder import GKSIndex, IndexBuilder
from repro.index.composite import CompositeIndex, Run, merge_indexes
from repro.index.segments import (MANIFEST_NAME, PendingDocument,
                                  SegmentStore, StoreManifest)
from repro.index.sharding import Shard, ShardedIndex, shard_of
from repro.obs.metrics import global_registry
from repro.obs.trace import NOOP_TRACER
from repro.text.analyzer import Analyzer
from repro.xmltree.dewey import DeweyLayout
from repro.xmltree.repository import (Repository, TextCheck,
                                      ingest_document)
from repro.xmltree.tree import XMLDocument

# per shard: the ordered run chain
UnitRuns = dict[int, list[Run]]


def build_unit(document: XMLDocument, analyzer: Analyzer,
               index_tags: bool) -> GKSIndex:
    """Index a single document as an immutable memtable unit.

    The unit keeps the document's **global** Dewey ids, so composing it
    with the serving index is a disjoint sorted union — the same
    guarantee shard builds rely on.
    """
    builder = IndexBuilder(analyzer=analyzer, index_tags=index_tags)
    builder.add_document_unchecked(document)
    return builder.build()


def family_layout(durable_units: UnitRuns,
                  pending: Sequence[PendingDocument]) -> DeweyLayout:
    """The narrowest layout every unit of the family fits."""
    return DeweyLayout().union(
        *(unit.layout for chain in durable_units.values()
          for _, unit in chain),
        *(doc.unit.layout for doc in pending))


def relayout(durable_units: UnitRuns, pending: list[PendingDocument],
             layout: DeweyLayout) -> None:
    """Re-pack, in place, every unit not yet under *layout*; counted
    once when any unit moved."""
    moved = False
    for chain in durable_units.values():
        for position, (doc_ids, unit) in enumerate(chain):
            if unit.layout != layout:
                chain[position] = (doc_ids, unit.relaid(layout))
                moved = True
    for position, doc in enumerate(pending):
        if doc.unit.layout != layout:
            pending[position] = replace(doc, unit=doc.unit.relaid(layout))
            moved = True
    if moved:
        global_registry().counter(
            "gks_dewey_relayouts_total",
            help="Times an engine re-packed its units under a wider "
                 "Dewey layout (a document outgrew it).").inc()


def admit_unit(unit: GKSIndex, durable_units: UnitRuns,
               pending: list[PendingDocument],
               layout: DeweyLayout) -> tuple[GKSIndex, DeweyLayout]:
    """A new *unit* (built from the family's *layout*) and the family's
    layout from now on: a unit that outgrew the layout re-lays the
    family out under the union (:func:`relayout`)."""
    if unit.layout == layout:
        return unit, layout
    grown = layout.union(unit.layout)
    relayout(durable_units, pending, grown)
    return unit.relaid(grown), grown


def pending_document(document: XMLDocument, text: str, lsn: int | None,
                     unit: GKSIndex, config: EngineConfig
                     ) -> PendingDocument:
    """The memtable entry of a just-acknowledged *document*, indexed as
    *unit* (streamed from its text before the WAL append)."""
    return PendingDocument(
        lsn=lsn, doc_id=document.doc_id,
        shard_id=shard_of(document.doc_id, document.name, config.shards,
                          config.shard_strategy),
        name=document.name, text=text, unit=unit)


def compose_serving(durable_units: UnitRuns,
                    pending: Sequence[PendingDocument],
                    config: EngineConfig, repository: Repository
                    ) -> GKSIndex | CompositeIndex | ShardedIndex:
    """The serving index over *durable_units* plus the memtable tail.

    A shard that is a single run is served by that run's index itself,
    so an engine that never added a document runs exactly the code a
    plain build runs.  Monolithic configs get the shard-0 index
    directly (one search unit); sharded configs get a
    :class:`ShardedIndex` over the per-shard indexes.
    """
    per_shard: UnitRuns = {
        shard_id: list(durable_units.get(shard_id, ()))
        for shard_id in range(config.shards)}
    for doc in pending:
        per_shard[doc.shard_id].append(((doc.doc_id,), doc.unit))
    layout = family_layout(durable_units, pending)

    def serving(runs: list[Run]) -> GKSIndex | CompositeIndex:
        if len(runs) == 1:
            return runs[0][1]
        return CompositeIndex(runs, analyzer=config.analyzer, layout=layout)

    if config.shards == 1:
        return serving(per_shard[0])
    shards = [Shard(shard_id=shard_id,
                    doc_ids=tuple(doc_id for doc_ids, _ in runs
                                  for doc_id in doc_ids),
                    index=serving(runs))
              for shard_id, runs in per_shard.items()]
    return ShardedIndex(
        shards, strategy=config.shard_strategy, analyzer=config.analyzer,
        document_names=[document.name for document in repository])


def units_from_base(base: GKSIndex | ShardedIndex) -> UnitRuns:
    """Seed the per-shard run chains from a freshly built base index."""
    if isinstance(base, ShardedIndex):
        return {shard.shard_id: [(shard.doc_ids, shard.index)]
                for shard in base.shards if shard.doc_ids}
    count = len(base.document_names)
    return {0: [(tuple(range(count)), base)]} if count else {}


def _merge_runs(runs: Sequence[Run]) -> Run:
    return (tuple(doc_id for doc_ids, _ in runs for doc_id in doc_ids),
            merge_indexes(runs))


def merge_memtable(pending: Sequence[PendingDocument]) -> dict[int, Run]:
    """The memtable (in document order, as the engine keeps it) merged
    into one run per shard holding documents."""
    by_shard: UnitRuns = {}
    for doc in pending:
        by_shard.setdefault(doc.shard_id, []).append(
            ((doc.doc_id,), doc.unit))
    return {shard_id: _merge_runs(by_shard[shard_id])
            for shard_id in sorted(by_shard)}


def merge_chains(durable_units: UnitRuns) -> dict[int, Run]:
    """Every multi-run chain merged down to one run (single-run shards
    are left alone)."""
    return {shard_id: _merge_runs(durable_units[shard_id])
            for shard_id in sorted(durable_units)
            if len(durable_units[shard_id]) >= 2}


def incompatibilities(persisted: StoreManifest | GKSIndex | ShardedIndex,
                      repository: Repository,
                      config: EngineConfig) -> list[str]:
    """Why a persisted index or store cannot serve *repository* under
    *config*; empty when it can.

    One check over the same facts for both: the shard layout (the write
    path routes new documents by it), whether element names were indexed
    and the analyzer flags (else the keywords differ), and the base
    document names and texts' CRC32 (else it is somebody else's corpus).
    An index file without the CRC is a stale cache; a store without it
    opens.
    """
    crc = persisted.corpus_crc32
    if isinstance(persisted, StoreManifest):
        shards, strategy = persisted.shards, persisted.strategy
        flags = (persisted.use_stopwords, persisted.use_stemming)
        names = persisted.document_names[:persisted.base_documents]
    else:
        sharded = isinstance(persisted, ShardedIndex)
        shards = persisted.num_shards if sharded else 1
        # one shard routes every document to itself, whatever the strategy
        strategy = persisted.strategy if sharded else config.shard_strategy
        flags = (persisted.analyzer.use_stopwords,
                 persisted.analyzer.use_stemming)
        names = tuple(persisted.document_names)
    problems = []
    if shards != config.shards:
        problems.append(f"{shards} shard(s), config wants {config.shards}")
    if strategy != config.shard_strategy:
        problems.append(f"strategy {strategy!r}, config wants "
                        f"{config.shard_strategy!r}")
    if persisted.index_tags != config.index_tags:
        problems.append(f"index_tags={persisted.index_tags}, config wants "
                        f"{config.index_tags}")
    if flags != (config.analyzer.use_stopwords,
                 config.analyzer.use_stemming):
        problems.append("analyzer flags differ")
    if names != tuple(document.name for document in repository):
        problems.append(f"built over {len(names)} base documents that are "
                        f"not the source's {len(repository)}")
    if repository.corpus_crc32 is not None and crc != repository.corpus_crc32:
        if crc is not None:
            problems.append("built over base texts whose CRC32 differs from "
                            "the source's")
        elif not isinstance(persisted, StoreManifest):
            problems.append("records no corpus CRC32")
    return problems


def open_durable(repository: Repository, config: EngineConfig,
                 build_index: Callable[[Repository, EngineConfig],
                                       GKSIndex | ShardedIndex],
                 tracer=NOOP_TRACER
                 ) -> tuple[SegmentStore, UnitRuns, list[PendingDocument]]:
    """Open or recover the segmented store named by ``config.store_path``.

    Returns ``(store, durable_units, pending)``.  The repository is
    extended in place with every recovered post-base document (sidecar
    texts first, then the WAL tail) so snippets and exports see the full
    corpus.  A recovery records four spans on *tracer*: ``manifest``
    (verify, sweep orphans, open the WAL), ``texts`` (check the
    sidecars), ``segments`` (load every run) and ``wal_tail``.
    """
    directory = Path(config.store_path)
    if not (directory / MANIFEST_NAME).exists():
        durable_units = units_from_base(build_index(repository, config))
        store = SegmentStore.create(
            directory,
            {shard_id: chain[0]
             for shard_id, chain in durable_units.items()},
            document_names=[document.name for document in repository],
            analyzer=config.analyzer, shards=config.shards,
            strategy=config.shard_strategy, index_tags=config.index_tags,
            corpus_crc32=repository.corpus_crc32, codec=config.codec)
        return store, durable_units, []

    with tracer.span("manifest"):
        store = SegmentStore.open(directory, codec=config.codec)
        manifest = store.manifest
        # a store holds documents the source corpus does not: opening an
        # incompatible one anyway would be silent data loss
        problems = incompatibilities(manifest, repository, config)
        if problems:
            raise StorageError(
                f"segmented store is incompatible with this engine: "
                f"{'; '.join(problems)}", diagnosis="incompatible")
    with tracer.span("texts") as span:
        for doc_id, name, text in store.appended_documents():
            document = _replay(text, doc_id, name, store, TextCheck)
            repository.add(document, text=text)
        checked = len(repository) - manifest.base_documents
        span.set(documents=checked, checked=checked, parsed=0)
    with tracer.span("segments", files=len(manifest.segments)):
        durable_units = store.load_runs()
        layout = family_layout(durable_units, ())
        relayout(durable_units, [], layout)
    covered = sorted(doc_id
                     for chain in durable_units.values()
                     for doc_ids, _ in chain
                     for doc_id in doc_ids)
    if covered != list(range(len(manifest.document_names))):
        raise StorageError(
            f"segments of {directory} cover documents {covered} but the "
            f"manifest names {len(manifest.document_names)}",
            diagnosis="corrupted", path=directory / MANIFEST_NAME)
    pending: list[PendingDocument] = []
    with tracer.span("wal_tail", frames=len(store.tail)):
        for frame in store.tail:
            record = frame.record
            doc_id = len(repository)
            if (not isinstance(record, dict) or record.get("op") != "add"
                    or record.get("doc_id") != doc_id
                    or not isinstance(record.get("text"), str)):
                raise StorageError(
                    f"WAL frame {frame.lsn} of {directory} does not "
                    f"continue the manifest (expected add of document "
                    f"{doc_id})", diagnosis="corrupted",
                    path=directory / MANIFEST_NAME)
            builder = IndexBuilder(analyzer=config.analyzer,
                                   index_tags=config.index_tags,
                                   layout=layout)
            document = _replay(record["text"], doc_id, record.get("name"),
                               store, builder)
            repository.add(document, text=record["text"])
            unit, layout = admit_unit(builder.build(), durable_units,
                                      pending, layout)
            pending.append(pending_document(document, record["text"],
                                            frame.lsn, unit, config))
    return store, durable_units, pending


def _replay(text: str, doc_id: int, name: str | None, store: SegmentStore,
            builder) -> XMLDocument:
    """Stream a recovered document into *builder* (an index unit, or
    :class:`TextCheck`), timed like any ingest; it was valid when
    acknowledged, so a syntax error means the bytes rotted."""
    try:
        return ingest_document(text, doc_id, name=name, builder=builder)
    except XMLSyntaxError as exc:
        raise StorageError(
            f"recovered document {doc_id} of {store.directory} no longer "
            f"parses ({exc}) — the store is corrupted",
            diagnosis="corrupted", path=store.directory) from exc
