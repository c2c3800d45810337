"""Indexing Engine (paper Fig. 3, §2.4).

Builds, in a single pass per document, the three index structures GKS
queries run against:

* the inverted keyword index (text keywords and element names),
* ``entityHash`` / ``elementHash`` with direct-child counts,
* the :class:`IndexStats` counters behind Tables 4 and 5.

"Since XML nodes arrive pre-order (an ancestor of an XML node always
appears before it), the hash tables and the inverted index are created in a
single pass over XML data."  The builder accepts materialised
documents/repositories or raw XML text; text is parsed one document at a
time and every document goes through the same walk
(:meth:`IndexBuilder._walk`), so the two entry points cannot disagree and
a text build never holds more than one document's tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.errors import IndexError_
from repro.index.categorize import NodeCategory, StreamingCategorizer
from repro.index.hashtables import NodeHashes
from repro.index.inverted import InvertedIndex
from repro.index.statistics import IndexStats
from repro.obs.metrics import global_registry
from repro.obs.trace import DEFAULT_CLOCK, NOOP_TRACER
from repro.text.analyzer import DEFAULT_ANALYZER, Analyzer
from repro.xmltree.node import XMLNode
from repro.xmltree.parser import parse_document
from repro.xmltree.repository import Repository
from repro.xmltree.tree import XMLDocument


@dataclass(frozen=True)
class GKSIndex:
    """The complete on-disk-able GKS index of one repository.

    Searching needs nothing but this object; the engine keeps the
    repository around only to render result snippets.
    """

    inverted: InvertedIndex
    hashes: NodeHashes
    stats: IndexStats
    analyzer: Analyzer = field(default=DEFAULT_ANALYZER)
    #: whether element names were indexed (``None``: a saved file that
    #: does not record it)
    index_tags: bool | None = True
    document_names: tuple[str, ...] = ()
    #: :attr:`Repository.corpus_crc32` of the corpus built over (``None``:
    #: not built from texts, or a saved file that does not record it)
    corpus_crc32: int | None = field(default=None, compare=False)
    #: p-document probability tables (None/empty for deterministic corpora;
    #: compiled by ``repro.semantics`` when the engine runs in
    #: probabilistic mode and persisted by both codecs).
    probabilities: "object | None" = field(default=None, repr=False,
                                           compare=False)
    _phrase_cache: dict = field(default_factory=dict, repr=False,
                                compare=False)

    @property
    def depth(self) -> int:
        """Maximum element depth ``d`` over the repository (§4.2)."""
        return self.stats.max_depth

    def with_probabilities(self, tables) -> "GKSIndex":
        """A copy carrying *tables*; every structure is shared."""
        return replace(self, probabilities=tables)

    def postings(self, keyword: str, tracer=NOOP_TRACER):
        """Posting list for a keyword — or a phrase keyword.

        A phrase keyword (words joined by spaces, e.g. ``"peter buneman"``)
        posts at the elements whose direct content contains *every* word:
        the per-Dewey intersection of the word posting lists, cached per
        phrase.  This is how the Table 6 queries treat quoted author names
        as single keywords (|QD2| = 4).
        """
        if " " not in keyword:
            return self.inverted.postings(keyword, tracer)
        cached = self._phrase_cache.get(keyword)
        if cached is None:
            from repro.index.postings import intersect_postings

            cached = intersect_postings(
                [self.inverted.postings(word, tracer)
                 for word in keyword.split()])
            self._phrase_cache[keyword] = cached
        return cached


class IndexBuilder:
    """Accumulates documents and produces a :class:`GKSIndex`.

    Parameters
    ----------
    analyzer:
        Text-normalisation pipeline shared with query parsing.
    index_tags:
        Also index element names (default on — the paper's QM2 searches the
        tags ``country`` and ``name``).  The ablation bench A3 turns it off.
    clock:
        Injectable time source for ``stats.build_seconds`` (defaults to
        the tracer clock, :data:`repro.obs.trace.DEFAULT_CLOCK`).
    """

    def __init__(self, analyzer: Analyzer = DEFAULT_ANALYZER,
                 index_tags: bool = True,
                 clock: Callable[[], float] | None = None) -> None:
        self.analyzer = analyzer
        self.index_tags = index_tags
        self._inverted = InvertedIndex()
        self._hashes = NodeHashes()
        self._stats = IndexStats()
        self._names: list[str] = []
        self._built = False
        self._clock = clock if clock is not None else DEFAULT_CLOCK
        self._started = self._clock()

    # ------------------------------------------------------------------
    # Feeding documents
    # ------------------------------------------------------------------
    def add_document(self, document: XMLDocument) -> None:
        """Index one materialised document (doc ids must be consecutive)."""
        self._check_open()
        if document.doc_id != len(self._names):
            raise IndexError_(
                f"document {document.name!r} has doc id {document.doc_id}, "
                f"expected {len(self._names)}")
        self._ingest(document)

    def add_document_unchecked(self, document: XMLDocument) -> None:
        """Index one document *keeping its global doc id*.

        Shard builds use this: a shard holds an arbitrary subset of the
        repository's documents, so its doc ids are global and
        non-consecutive — every posting and hash key still carries the
        repository-wide Dewey id, which is what makes the union of shard
        search results exactly the monolithic answer.
        """
        self._check_open()
        self._ingest(document)

    def _ingest(self, document: XMLDocument) -> None:
        self._names.append(document.name)
        self._stats.documents += 1
        self._walk(document.root)

    def add_repository(self, repository: Repository) -> None:
        """Index every document of *repository* in order."""
        for document in repository:
            self.add_document(document)

    def add_xml(self, text: str, name: str | None = None,
                doc_id: int | None = None) -> None:
        """Index raw XML text; its tree lives only for this call.

        With an explicit *doc_id* the document is indexed under that
        global document number instead of the next consecutive one —
        the text counterpart of :meth:`add_document_unchecked` that
        shard builds drive from raw corpus texts.  Malformed text raises
        before the builder has recorded anything of the document.
        """
        self._check_open()
        if doc_id is None:
            doc_id = len(self._names)
        self._ingest(parse_document(text, doc_id=doc_id, name=name))

    # ------------------------------------------------------------------
    def _walk(self, root: XMLNode) -> None:
        """The one build driver: every document, however it arrived, is
        indexed by this pre-order walk of its tree.

        An element's tag keywords and then the keywords of its direct
        text (``XMLNode.text`` — the parser's single definition) are
        posted at its Dewey id when it opens; when it closes, the
        categorizer releases the records of its children.
        """
        categorizer = StreamingCategorizer()
        start, end = categorizer.start, categorizer.end
        analyze = self.analyzer.analyze
        analyze_tag = self.analyzer.analyze_tag
        index_tags = self.index_tags
        add_all = self._inverted.add_all
        file_records = self._file_records
        text_keywords = tag_keywords = 0
        stack: list[XMLNode | None] = [root]  # None closes the open element
        while stack:
            node = stack.pop()
            if node is None:
                file_records(end())
                continue
            dewey, tag, has_text = node.dewey, node.tag, node.has_text
            start(dewey, tag, has_text)
            if index_tags:
                keywords = analyze_tag(tag)
                tag_keywords += len(keywords)
                add_all(keywords, dewey)
            if has_text:
                keywords = analyze(node.text)
                text_keywords += len(keywords)
                add_all(keywords, dewey)
            stack.append(None)
            stack.extend(reversed(node.children))
        self._stats.text_keywords += text_keywords
        self._stats.tag_keywords += tag_keywords

    def _file_records(self, records) -> None:
        """File categorization records into the hash tables and the
        Table 4/5 counters.

        An element that is both entity and repeating counts as an entity
        node for the primary-category histogram *and* as a repeating
        node — matching Table 5, whose four counts sum to more than the
        "Total Nodes" column would otherwise allow for some corpora (the
        paper files dual-role nodes in both hash tables, §2.4).
        """
        stats = self._stats
        add_record = self._hashes.add_record
        by_tag = stats.category_by_tag
        for record in records:
            add_record(record)
            category = record.category
            stats.total_nodes += 1
            if category is NodeCategory.ATTRIBUTE:
                stats.attribute_nodes += 1
            elif category is NodeCategory.ENTITY:
                stats.entity_nodes += 1
                if record.is_repeating:
                    stats.repeating_nodes += 1
            elif category is NodeCategory.REPEATING:
                stats.repeating_nodes += 1
            else:
                stats.connecting_nodes += 1
            if len(record.dewey) > stats.max_depth + 1:
                stats.max_depth = len(record.dewey) - 1
            if record.tag not in by_tag:
                by_tag[record.tag] = category.value

    def _check_open(self) -> None:
        if self._built:
            raise IndexError_("IndexBuilder already finished; "
                              "create a new builder")

    # ------------------------------------------------------------------
    def build(self) -> GKSIndex:
        """Finish and return the index (builder becomes unusable)."""
        self._check_open()
        self._built = True
        self._stats.build_seconds = self._clock() - self._started
        registry = global_registry()
        registry.counter("gks_index_builds_total",
                         help="Indexes built in this process.").inc()
        registry.histogram("gks_index_build_seconds",
                           help="Wall time of index builds."
                           ).observe(self._stats.build_seconds)
        registry.gauge("gks_index_total_nodes",
                       help="Nodes in the most recently built index."
                       ).set(self._stats.total_nodes)
        registry.gauge("gks_index_documents",
                       help="Documents in the most recently built index."
                       ).set(self._stats.documents)
        return GKSIndex(inverted=self._inverted, hashes=self._hashes,
                        stats=self._stats, analyzer=self.analyzer,
                        index_tags=self.index_tags,
                        document_names=tuple(self._names))


def build_index(source: Repository | XMLDocument | str,
                analyzer: Analyzer = DEFAULT_ANALYZER,
                index_tags: bool = True) -> GKSIndex:
    """One-call convenience: index a repository, a document, or XML text."""
    builder = IndexBuilder(analyzer=analyzer, index_tags=index_tags)
    if isinstance(source, Repository):
        builder.add_repository(source)
        return replace(builder.build(), corpus_crc32=source.corpus_crc32)
    if isinstance(source, XMLDocument):
        builder.add_document(source)
    elif isinstance(source, str):
        builder.add_xml(source)
    else:
        raise TypeError(f"cannot index {type(source).__name__}")
    return builder.build()
