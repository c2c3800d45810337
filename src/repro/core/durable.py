"""The write path: run chains, memtable, store — one owner.

:class:`~repro.core.engine.GKSEngine` stays the facade; this module owns
the mechanics underneath ``add_document``.  Every engine — with a
:class:`~repro.index.segments.SegmentStore` or without — holds one
:class:`WritePath`: per shard, an ordered *chain* of immutable runs plus
a memtable of one-document units, all document-disjoint in the sense of
:mod:`repro.index.composite`:

* **stream, admit** — the two steps every document goes through, a live
  add and a WAL-tail replay alike: its text is scanned into a
  one-document unit under the family layout, then the repository grows
  and the unit joins the memtable.  A live add appends to the WAL
  between the two.
* **compose** — the serving index over chains + memtable: one
  :class:`~repro.index.composite.CompositeIndex` per shard (the bare
  unit when a shard is a single run), wrapped in a
  :class:`~repro.index.sharding.ShardedIndex` for scatter-gather.
* **merge** — the memtable into one run per shard (a flush), the
  newest size tier of a chain into one run (an automatic compaction,
  :func:`tier_start`) or every chain whole (an explicit one).  Merging
  happens here, on the in-memory units; the store only persists the
  finished runs.
* **open / recover** — every open reads its source (:func:`read_source`)
  and builds the base index (:func:`build_index`) unless a store serves
  it.  No manifest yet: build the base index as usual, seed the store
  with generation-1 segments and an empty WAL.  Manifest present:
  verify compatibility with the engine config and the base corpus
  (never silently serve a different corpus), check the flushed appended
  documents from the texts sidecars, load the verified segment runs,
  then stream and admit the WAL tail's texts.  No tree is built: each
  waits for a reader.  The composed index is node-for-node the one
  a from-scratch rebuild over the same documents would produce.
* **one layout** — every unit packs its Dewey ids under the engine's
  one :class:`~repro.xmltree.dewey.DeweyLayout`: a new unit is built in
  it, and a document deeper or wider than it re-lays the whole family
  out once (:meth:`WritePath.admit`, counted in
  ``gks_dewey_relayouts_total``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.core.config import EngineConfig, Paths, Texts
from repro.core.search import units_of
from repro.errors import ConfigError, StorageError, XMLSyntaxError
from repro.index.builder import GKSIndex, IndexBuilder
from repro.index.composite import CompositeIndex, Run, merge_indexes
from repro.index.segments import (MANIFEST_NAME, PendingDocument,
                                  SegmentStore, StoreManifest)
from repro.index.sharding import (Shard, ShardedBuilder, ShardedIndex,
                                  shard_of)
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.trace import NOOP_TRACER, Span, Tracer
from repro.text.analyzer import Analyzer
from repro.xmltree.dewey import DeweyLayout
from repro.xmltree.repository import (Repository, Source, TextCheck,
                                      ingest_document, path_sources,
                                      text_sources)
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


def build_index(repository: Repository, config: EngineConfig,
                sources: list[Source] | None = None
                ) -> GKSIndex | ShardedIndex:
    """The base index of *repository* under *config* — or, given
    *sources*, ingest them into it in the same pass: each text's one
    scan is its check and its index, and it enters the repository
    text-backed."""
    if config.shards > 1:
        builder = ShardedBuilder(
            analyzer=config.analyzer, index_tags=config.index_tags,
            shards=config.shards, strategy=config.shard_strategy)
    else:
        builder = IndexBuilder(analyzer=config.analyzer,
                               index_tags=config.index_tags)
    if sources is None:
        for document in repository:
            builder.add_document_unchecked(document)
    else:
        repository.ingest(sources, config.recovery, builder)
    return builder.build(corpus_crc32=repository.corpus_crc32)


def build_facts(index) -> dict:
    """What a ``build`` span reports about the index it produced."""
    stats = index.stats
    return {"nodes": stats.total_nodes, "tokens": stats.total_keywords,
            "postings": sum(unit.inverted.total_postings
                            for _, unit in units_of(index))}


def read_source(source, config: EngineConfig
                ) -> tuple[Repository, list[Source] | None]:
    """Read a ``GKSEngine.open`` *source*: a :class:`Repository` as it
    is; texts or files into sources for the build to stream — or, when
    a store manifest on disk will serve them, checked into a repository
    now."""
    if isinstance(source, Repository):
        return source, None
    if not isinstance(source, (Texts, Paths)):
        if isinstance(source, (str, Path)):
            source = [source]
        try:
            items = list(source)
        except TypeError:
            raise ConfigError(
                f"cannot open source of type {type(source).__name__}; "
                "expected a Repository, XML text(s) or corpus path(s)")
        if all(_looks_like_xml(item) for item in items):
            source = Texts(items)
        elif not any(_looks_like_xml(item) for item in items):
            source = Paths(items)
        else:
            raise ConfigError(
                "source mixes XML texts and paths; wrap it in Texts(...) "
                "or Paths(...) to state which it is")
    sources = (text_sources(source) if isinstance(source, Texts)
               else path_sources(source))
    repository = Repository()
    if (config.store_path is not None
            and (Path(config.store_path) / MANIFEST_NAME).exists()):
        repository.ingest(sources, config.recovery, TextCheck)
        return repository, None
    return repository, sources


def _looks_like_xml(item) -> bool:
    return isinstance(item, str) and item.lstrip().startswith("<")


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


def tier_start(sizes: Sequence[int]) -> int:
    """Where the newest size tier of a chain of runs weighing *sizes*
    (oldest first) starts: the newest two runs, grown backwards while the
    next older run weighs no more than the tier already holds.  A
    compaction merges ``chain[tier_start(sizes):]``, so a run heavier
    than everything after it — the base corpus, an earlier merge — stays
    as it is until the newer runs outweigh it (size-tiered merging: each
    record is rewritten O(log n) times, not once per compaction)."""
    start = max(len(sizes) - 2, 0)
    held = sum(sizes[start:])
    while start and sizes[start - 1] <= held:
        start -= 1
        held += sizes[start]
    return start


def compaction_start(sizes: Sequence[int], compact_segments: int) -> int:
    """Where an automatic compaction of a chain weighing *sizes* starts:
    at the newest tier once it holds *compact_segments* runs — moved
    back while the run that tier merges into fills the next older tier,
    so a cascade is one merge — or ``len(sizes)`` when no tier is full."""
    sizes = list(sizes)
    start = len(sizes)
    while len(sizes) - (tier := tier_start(sizes)) >= compact_segments:
        start = tier
        sizes[tier:] = [sum(sizes[tier:])]
    return start


def _merge_runs(runs: Sequence[Run]) -> Run:
    return (tuple(doc_id for doc_ids, _ in runs for doc_id in doc_ids),
            merge_indexes(runs))


#: per merge operation: its histogram's name and help
_MERGE_SECONDS = {
    "flush": ("gks_store_flush_seconds",
              "Wall time of memtable flushes (segments + recompose)."),
    "compact": ("gks_store_compaction_seconds",
                "Wall time of segment compactions (merge + recompose)."),
}


class WritePath:
    """The one owner of an engine's write path: the store (or ``None``),
    the per-shard run chains, the memtable, the family Dewey layout and
    the flush and compaction thresholds, with the rules that change them.

    A document enters in two steps, the same for a live
    ``add_document`` and for a WAL-tail replay: :meth:`stream` its text
    into a one-document unit under the family layout, then :meth:`admit`
    it.  The owning engine's ``engine.mutation`` lock serializes every
    call that changes the owner.
    """

    def __init__(self, repository: Repository, config: EngineConfig,
                 chains: UnitRuns,
                 store: SegmentStore | None = None) -> None:
        self.repository = repository
        self.config = config
        self.store = store
        self.chains = chains
        self.pending: list[PendingDocument] = []
        self.memtable_docs = config.memtable_docs
        self.compact_segments = config.compact_segments
        # the narrowest layout every run fits; runs recovered under
        # narrower recorded layouts are re-packed into it
        self.layout = DeweyLayout().union(
            *(unit.layout for chain in chains.values() for _, unit in chain))
        self._relayout()

    @classmethod
    def over(cls, index: GKSIndex | ShardedIndex, repository: Repository,
             config: EngineConfig) -> "WritePath":
        """The write path of an engine serving a built (or loaded)
        *index*: one run per shard that holds documents, no store."""
        if isinstance(index, ShardedIndex):
            chains = {shard.shard_id: [(shard.doc_ids, shard.index)]
                      for shard in index.shards if shard.doc_ids}
        else:
            count = len(index.document_names)
            chains = {0: [(tuple(range(count)), index)]} if count else {}
        return cls(repository, config, chains)

    # -- the two steps every document goes through ----------------------
    def stream(self, text: str, name: str | None
               ) -> tuple[XMLDocument, IndexBuilder]:
        """Scan *text*, the next document, into a unit builder under the
        family layout.  The scan is the well-formedness check: a
        malformed text raises before anything changes."""
        builder = IndexBuilder(analyzer=self.config.analyzer,
                               index_tags=self.config.index_tags,
                               layout=self.layout)
        document = ingest_document(text, len(self.repository), name=name,
                                   builder=builder)
        return document, builder

    def admit(self, document: XMLDocument, text: str,
              builder: IndexBuilder, lsn: int | None) -> PendingDocument:
        """File a streamed *document*: the repository grows, its unit is
        finished (a unit that outgrew the family layout re-lays the
        family out under the union, once) and joins the memtable."""
        self.repository.add(document, text=text)
        unit = builder.build()
        if unit.layout != self.layout:
            self.layout = self.layout.union(unit.layout)
            self._relayout()
            unit = unit.relaid(self.layout)
        pending = pending_document(document, text, lsn, unit, self.config)
        self.pending.append(pending)
        return pending

    def _relayout(self) -> None:
        """Re-pack, in place, every unit not yet under the family layout;
        counted once when any unit moved."""
        moved = False
        for chain in self.chains.values():
            for position, (doc_ids, unit) in enumerate(chain):
                if unit.layout != self.layout:
                    chain[position] = (doc_ids, unit.relaid(self.layout))
                    moved = True
        for position, doc in enumerate(self.pending):
            if doc.unit.layout != self.layout:
                self.pending[position] = replace(
                    doc, unit=doc.unit.relaid(self.layout))
                moved = True
        if moved:
            global_registry().counter(
                "gks_dewey_relayouts_total",
                help="Times an engine re-packed its units under a wider "
                     "Dewey layout (a document outgrew it).").inc()

    # -- serving ---------------------------------------------------------
    def compose(self) -> GKSIndex | CompositeIndex | ShardedIndex:
        """The serving index over the chains plus the memtable.

        A shard that is a single run is served by that run's index
        itself, so an engine that never added a document runs exactly
        the code a plain build runs.  Monolithic configs get the shard-0
        index directly (one search unit); sharded configs get a
        :class:`ShardedIndex` over the per-shard indexes.
        """
        config = self.config
        per_shard: UnitRuns = {
            shard_id: list(self.chains.get(shard_id, ()))
            for shard_id in range(config.shards)}
        for doc in self.pending:
            per_shard[doc.shard_id].append(((doc.doc_id,), doc.unit))

        def serving(runs: list[Run]) -> GKSIndex | CompositeIndex:
            if len(runs) == 1:
                return runs[0][1]
            return CompositeIndex(runs, analyzer=config.analyzer,
                                  layout=self.layout)

        if config.shards == 1:
            return serving(per_shard[0])
        shards = [Shard(shard_id=shard_id,
                        doc_ids=tuple(doc_id for doc_ids, _ in runs
                                      for doc_id in doc_ids),
                        index=serving(runs))
                  for shard_id, runs in per_shard.items()]
        return ShardedIndex(
            shards, strategy=config.shard_strategy, analyzer=config.analyzer,
            document_names=[document.name for document in self.repository])

    # -- flush and compaction --------------------------------------------
    def flush_due(self) -> bool:
        return len(self.pending) >= self.memtable_docs

    def tiers(self) -> dict[int, int]:
        """Per shard whose newest size tier (:func:`tier_start`, runs
        weighed by ``stats.total_nodes``) holds ``compact_segments`` runs
        or more: where in its chain the automatic compaction starts
        (:func:`compaction_start`)."""
        starts = {}
        for shard_id, chain in self.chains.items():
            start = compaction_start(
                [unit.stats.total_nodes for _, unit in chain],
                self.compact_segments)
            if start < len(chain):
                starts[shard_id] = start
        return starts

    def merge(self, operation: str, publish: Callable[[], None],
              registry: MetricsRegistry,
              starts: dict[int, int] | None = None
              ) -> tuple[Span | None, set[int]]:
        """One ``"flush"`` (the memtable into one run per shard) or
        ``"compact"``: per shard in *starts*, ``chain[start:]`` into one
        run; without *starts*, every multi-run chain whole.

        With a store the merged runs are persisted before the chains
        change.  Traced as a root span named *operation* (its
        ``segments`` child holds ``merge``, then the store's spans), then
        ``recompose`` around *publish*, and timed into the operation's
        histogram.  Returns that root — ``None`` when nothing merged —
        and the shards that got a new run.
        """
        flush = operation == "flush"
        count = len(self.pending)
        if starts is None:
            starts = {shard_id: 0 for shard_id, chain in self.chains.items()
                      if len(chain) >= 2}
        tracer = Tracer()
        with tracer.span(operation) as span:
            with tracer.span("segments"):
                with tracer.span("merge"):
                    runs = self._memtable_runs() if flush else {
                        shard_id: _merge_runs(self.chains[shard_id][start:])
                        for shard_id, start in sorted(starts.items())}
                if self.store is not None:
                    if flush:
                        self.store.flush(self.pending, runs, tracer)
                    else:
                        self.store.compact(runs, tracer)
            for shard_id, run in runs.items():
                if flush:
                    self.chains.setdefault(shard_id, []).append(run)
                else:
                    self.chains[shard_id][starts[shard_id]:] = [run]
            if flush:
                self.pending = []
            if runs:
                with tracer.span("recompose"):
                    publish()
            facts = {"documents": count} if flush else {}
            span.set(**facts, shards=len(runs), **self.store_generation())
        if not runs:
            return None, set()
        root = tracer.roots[-1]
        name, help_text = _MERGE_SECONDS[operation]
        registry.histogram(name, help=help_text).observe(root.duration_s)
        return root, set(runs)

    def _memtable_runs(self) -> dict[int, Run]:
        """The memtable (in document order) as one run per shard."""
        by_shard: UnitRuns = {}
        for doc in self.pending:
            by_shard.setdefault(doc.shard_id, []).append(
                ((doc.doc_id,), doc.unit))
        return {shard_id: _merge_runs(by_shard[shard_id])
                for shard_id in sorted(by_shard)}

    # -- the store -------------------------------------------------------
    def create_store(self, directory: Path) -> None:
        """Seed a new segmented store at *directory*: one generation-1
        segment per chain and an empty WAL."""
        config = self.config
        self.store = SegmentStore.create(
            directory,
            {shard_id: chain[0] for shard_id, chain in self.chains.items()},
            document_names=[document.name for document in self.repository],
            analyzer=config.analyzer, shards=config.shards,
            strategy=config.shard_strategy, index_tags=config.index_tags,
            corpus_crc32=self.repository.corpus_crc32, codec=config.codec)

    def require_store(self, operation: str) -> None:
        if self.store is None:
            raise StorageError(
                f"cannot {operation}: engine has no segmented store "
                f"(open it with config.store_path)", diagnosis="unwritable")

    def store_generation(self) -> dict:
        if self.store is None:
            return {}
        return {"store_generation": self.store.manifest.generation}

    def close(self) -> None:
        if self.store is not None:
            self.store.close()


def incompatibilities(manifest: StoreManifest, repository: Repository,
                      config: EngineConfig) -> list[str]:
    """Why the store recorded by *manifest* cannot serve *repository*
    under *config*; empty when it can: another shard layout (the write
    path routes new documents by it), ``index_tags`` or analyzer flags
    (else the keywords differ), or other base documents — their names,
    and their texts' CRC32 when the manifest records one."""
    problems = []
    if manifest.shards != config.shards:
        problems.append(f"{manifest.shards} shard(s), config wants "
                        f"{config.shards}")
    if manifest.strategy != config.shard_strategy:
        problems.append(f"strategy {manifest.strategy!r}, config wants "
                        f"{config.shard_strategy!r}")
    if manifest.index_tags != config.index_tags:
        problems.append(f"index_tags={manifest.index_tags}, config wants "
                        f"{config.index_tags}")
    if (manifest.use_stopwords, manifest.use_stemming) != (
            config.analyzer.use_stopwords, config.analyzer.use_stemming):
        problems.append("analyzer flags differ")
    names = manifest.document_names[:manifest.base_documents]
    if names != tuple(document.name for document in repository):
        problems.append(f"built over {len(names)} base documents that are "
                        f"not the source's {len(repository)}")
    crc = manifest.corpus_crc32
    if (None not in (crc, repository.corpus_crc32)
            and crc != repository.corpus_crc32):
        problems.append("built over base texts whose CRC32 differs from "
                        "the source's")
    return problems


def open_durable(repository: Repository, config: EngineConfig,
                 build_index: Callable[[Repository, EngineConfig],
                                       GKSIndex | ShardedIndex],
                 tracer=NOOP_TRACER) -> WritePath:
    """Open or recover the segmented store named by ``config.store_path``.

    Returns the engine's write path over it.  The repository is extended
    in place with every recovered post-base document (sidecar texts
    first, then the WAL tail, admitted like live adds) so snippets and
    exports see the full corpus.  A recovery records four spans on
    *tracer*: ``manifest`` (verify, sweep orphans, open the WAL),
    ``texts`` (check the sidecars), ``segments`` (load every run) and
    ``wal_tail``.  A tail of ``memtable_docs`` or more documents waits
    for the next add or flush.
    """
    directory = Path(config.store_path)
    if not (directory / MANIFEST_NAME).exists():
        writes = WritePath.over(build_index(repository, config), repository,
                                config)
        writes.create_store(directory)
        return writes

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
            with _rotted(doc_id, store):
                document = ingest_document(text, doc_id, name=name,
                                           builder=TextCheck)
            repository.add(document, text=text)
        checked = len(repository) - manifest.base_documents
        span.set(documents=checked, checked=checked, parsed=0)
    with tracer.span("segments", files=len(manifest.segments)):
        writes = WritePath(repository, config, store.load_runs(), store)
    covered = sorted(doc_id
                     for chain in writes.chains.values()
                     for doc_ids, _ in chain
                     for doc_id in doc_ids)
    if covered != list(range(len(manifest.document_names))):
        raise StorageError(
            f"segments of {directory} cover documents {covered} but the "
            f"manifest names {len(manifest.document_names)}",
            diagnosis="corrupted", path=directory / MANIFEST_NAME)
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
            with _rotted(doc_id, store):
                document, builder = writes.stream(record["text"],
                                                  record.get("name"))
            writes.admit(document, record["text"], builder, frame.lsn)
    return writes


@contextmanager
def _rotted(doc_id: int, store: SegmentStore) -> Iterator[None]:
    """A recovered document was valid when acknowledged, so a syntax
    error streaming it means the bytes rotted: the store is corrupted."""
    try:
        yield
    except XMLSyntaxError as exc:
        raise StorageError(
            f"recovered document {doc_id} of {store.directory} no longer "
            f"parses ({exc}) — the store is corrupted",
            diagnosis="corrupted", path=store.directory) from exc
