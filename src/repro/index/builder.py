"""Indexing Engine (paper Fig. 3, §2.4).

Builds, in a single pass per document, the three index structures GKS
queries run against:

* the inverted keyword index (text keywords and element names),
* ``entityHash`` / ``elementHash`` with direct-child counts,
* the :class:`IndexStats` counters behind Tables 4 and 5.

"Since XML nodes arrive pre-order (an ancestor of an XML node always
appears before it), the hash tables and the inverted index are created in a
single pass over XML data."  The builder therefore accepts either
materialised documents/repositories or raw XML text driven through the
streaming parser — the latter never builds a tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.errors import IndexError_
from repro.index.categorize import StreamingCategorizer
from repro.index.hashtables import NodeHashes
from repro.index.inverted import InvertedIndex
from repro.index.statistics import IndexStats
from repro.obs.metrics import global_registry
from repro.obs.trace import DEFAULT_CLOCK
from repro.text.analyzer import DEFAULT_ANALYZER, Analyzer
from repro.xmltree.dewey import Dewey
from repro.xmltree.events import EndElement, StartElement, Text
from repro.xmltree.node import XMLNode
from repro.xmltree.parser import iter_events
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
    document_names: tuple[str, ...] = ()
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

    def postings(self, keyword: str):
        """Posting list for a keyword — or a phrase keyword.

        A phrase keyword (words joined by spaces, e.g. ``"peter buneman"``)
        posts at the elements whose direct content contains *every* word:
        the per-Dewey intersection of the word posting lists, cached per
        phrase.  This is how the Table 6 queries treat quoted author names
        as single keywords (|QD2| = 4).
        """
        if " " not in keyword:
            return self.inverted.postings(keyword)
        cached = self._phrase_cache.get(keyword)
        if cached is None:
            from repro.index.postings import intersect_postings

            cached = intersect_postings(
                [self.inverted.postings(word)
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
        categorizer = StreamingCategorizer()
        self._walk(document.root, categorizer)

    def add_repository(self, repository: Repository) -> None:
        """Index every document of *repository* in order."""
        for document in repository:
            self.add_document(document)

    def add_xml(self, text: str, name: str | None = None,
                doc_id: int | None = None) -> None:
        """Index raw XML text without materialising the tree.

        With an explicit *doc_id* the document is indexed under that
        global document number instead of the next consecutive one —
        the streaming counterpart of :meth:`add_document_unchecked` that
        shard builds drive from raw corpus texts.
        """
        self._check_open()
        if doc_id is None:
            doc_id = len(self._names)
        self._names.append(name or f"doc{doc_id}")
        self._stats.documents += 1
        categorizer = StreamingCategorizer()
        path: list[int] = []       # child ordinals of the open elements
        counts: list[int] = [0]    # children seen at each open level
        for event in iter_events(text):
            if isinstance(event, StartElement):
                ordinal = counts[-1]
                counts[-1] += 1
                path.append(ordinal)
                counts.append(0)
                dewey: Dewey = (doc_id, *path[1:]) if len(path) > 1 \
                    else (doc_id,)
                categorizer.start(dewey, event.tag)
                self._post_tag(event.tag, dewey)
                for key, value in event.attributes.items():
                    # attributes-as-children, mirroring the tree builder
                    attr_ordinal = counts[-1]
                    counts[-1] += 1
                    attr_dewey = dewey + (attr_ordinal,)
                    categorizer.start(attr_dewey, key)
                    categorizer.text(value)
                    self._post_tag(key, attr_dewey)
                    self._post_text(value, attr_dewey)
                    self._file_records(categorizer.end())
            elif isinstance(event, EndElement):
                path.pop()
                counts.pop()
                self._file_records(categorizer.end())
            elif isinstance(event, Text):
                if event.content.strip():
                    categorizer.text(event.content)
                    dewey = (doc_id, *path[1:]) if len(path) > 1 \
                        else (doc_id,)
                    self._post_text(event.content, dewey)

    # ------------------------------------------------------------------
    def _walk(self, node: XMLNode, categorizer: StreamingCategorizer) -> None:
        stack: list[tuple[XMLNode, bool]] = [(node, False)]
        while stack:
            current, closed = stack.pop()
            if closed:
                self._file_records(categorizer.end())
                continue
            categorizer.start(current.dewey, current.tag)
            self._post_tag(current.tag, current.dewey)
            if current.has_text:
                assert current.text is not None
                categorizer.text(current.text)
                self._post_text(current.text, current.dewey)
            stack.append((current, True))
            stack.extend((child, False)
                         for child in reversed(current.children))

    def _post_text(self, text: str, dewey: Dewey) -> None:
        keywords = self.analyzer.analyze(text)
        self._stats.text_keywords += len(keywords)
        self._inverted.add_all(keywords, dewey)

    def _post_tag(self, tag: str, dewey: Dewey) -> None:
        if not self.index_tags:
            return
        keywords = self.analyzer.analyze_tag(tag)
        self._stats.tag_keywords += len(keywords)
        self._inverted.add_all(keywords, dewey)

    def _file_records(self, records) -> None:
        for record in records:
            self._hashes.add_record(record)
            self._stats.record_category(record)

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
                        document_names=tuple(self._names))


def build_index(source: Repository | XMLDocument | str,
                analyzer: Analyzer = DEFAULT_ANALYZER,
                index_tags: bool = True) -> GKSIndex:
    """One-call convenience: index a repository, a document, or XML text."""
    builder = IndexBuilder(analyzer=analyzer, index_tags=index_tags)
    if isinstance(source, Repository):
        builder.add_repository(source)
    elif isinstance(source, XMLDocument):
        builder.add_document(source)
    elif isinstance(source, str):
        builder.add_xml(source)
    else:
        raise TypeError(f"cannot index {type(source).__name__}")
    return builder.build()
