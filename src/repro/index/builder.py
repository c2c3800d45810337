"""Indexing Engine (paper Fig. 3, §2.4).

Builds, in a single pass per document, the three index structures GKS
queries run against:

* the inverted keyword index (text keywords and element names),
* ``entityHash`` / ``elementHash`` with direct-child counts,
* the :class:`IndexStats` counters behind Tables 4 and 5.

"Since XML nodes arrive pre-order (an ancestor of an XML node always
appears before it), the hash tables and the inverted index are created in a
single pass over XML data."  The builder consumes the parser's element
stream and nothing else: a text is indexed straight from the scanner's
tokens, without a tree, and a tree replays itself as the same calls, so
the two cannot disagree (docs/ALGORITHMS.md §9).  A document that fails
part-way is rolled back: the builder ends equal to one that never saw
it.

Every Dewey id is packed while it streams (:class:`DeweyLayout`): an
element's id is its parent's packed id plus its own stored component,
one shift and one OR.  A component wider, or an element deeper, than
the layout grows it by one bit more than it needs, re-packing only the
held ids the change moves: widening the first level inside the first
document moves nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.errors import IndexError_
from repro.index.categorize import (AN, CATEGORIES, CN, EN, LEAF_WITH_TEXT,
                                    RN, close_element, close_root)
from repro.index.hashtables import NodeHashes
from repro.index.inverted import InvertedIndex
from repro.index.statistics import IndexStats
from repro.obs.metrics import global_registry
from repro.obs.trace import DEFAULT_CLOCK, NOOP_TRACER
from repro.text.analyzer import DEFAULT_ANALYZER, Analyzer
from repro.xmltree.dewey import DeweyLayout
from repro.xmltree.repository import Repository
from repro.xmltree.tree import XMLDocument


@dataclass(frozen=True)
class GKSIndex:
    """The complete on-disk-able GKS index of one repository.

    Searching needs nothing but this object; the engine keeps the
    repository around only to render result snippets.  Postings and
    hash keys are Dewey ids packed under :attr:`layout`.
    """

    inverted: InvertedIndex
    hashes: NodeHashes
    stats: IndexStats
    layout: DeweyLayout = field(default_factory=DeweyLayout, compare=False)
    analyzer: Analyzer = field(default=DEFAULT_ANALYZER)
    #: whether element names were indexed (``None``: a saved file that
    #: does not record it)
    index_tags: bool | None = True
    document_names: tuple[str, ...] = ()
    #: :attr:`Repository.corpus_crc32` of the corpus built over (``None``:
    #: not built from texts, or a saved file that does not record it)
    corpus_crc32: int | None = field(default=None, compare=False)
    _phrase_cache: dict = field(default_factory=dict, repr=False,
                                compare=False)

    @property
    def depth(self) -> int:
        """Maximum element depth ``d`` over the repository (§4.2)."""
        return self.stats.max_depth

    def relaid(self, layout: DeweyLayout) -> "GKSIndex":
        """This index with every id re-packed under *layout* (which must
        contain :attr:`layout`); itself when the layouts are equal."""
        if layout == self.layout:
            return self
        move = layout.converter(self.layout)
        inverted = InvertedIndex()
        inverted._postings = {keyword: list(map(move, postings))
                              for keyword, postings in self.inverted.items()}
        return replace(self, inverted=inverted, layout=layout,
                       hashes=NodeHashes.from_mappings(
                           dict(zip(map(move, self.hashes.entity_table),
                                    self.hashes.entity_table.values())),
                           dict(zip(map(move, self.hashes.element_table),
                                    self.hashes.element_table.values())),
                           layout),
                       _phrase_cache={})

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
            from repro.index.postings import cache_list, intersect_postings

            cached = intersect_postings(
                [self.inverted.postings(word, tracer)
                 for word in keyword.split()])
            cache_list(self._phrase_cache, keyword, cached)
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
    layout:
        The layout to start from — an engine's, so that its units agree
        unless a document outgrows it.
    """

    def __init__(self, analyzer: Analyzer = DEFAULT_ANALYZER,
                 index_tags: bool = True,
                 clock: Callable[[], float] | None = None,
                 layout: DeweyLayout | None = None) -> None:
        self.analyzer = analyzer
        self.index_tags = index_tags
        self._layout = layout if layout is not None else DeweyLayout()
        self._last_doc = 0   # the highest document number held
        self._inverted = InvertedIndex()
        self._hashes = NodeHashes(self._layout)
        self._stats = IndexStats()
        self._names: list[str] = []
        # tag -> keywords: a dict lookup per element instead of a call
        # into the analyzer's memo (~5 % of a build)
        self._tag_keywords: dict[str, list[str]] = {}
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
        self._index(document)

    def add_document_unchecked(self, document: XMLDocument) -> None:
        """Index one document *keeping its global doc id*.

        Shard builds use this: a shard holds an arbitrary subset of the
        repository's documents, so its doc ids are global and
        non-consecutive — every posting and hash key still carries the
        repository-wide Dewey id, which is what makes the union of shard
        search results exactly the monolithic answer.
        """
        self._index(document)

    def add_repository(self, repository: Repository) -> None:
        """Index every document of *repository* in order."""
        for document in repository:
            self.add_document(document)

    def add_xml(self, text: str, name: str | None = None,
                doc_id: int | None = None) -> None:
        """Index raw XML text straight from its element stream (no tree).

        With an explicit *doc_id* the document is indexed under that
        global document number instead of the next consecutive one —
        the text counterpart of :meth:`add_document_unchecked` that
        shard builds drive from raw corpus texts.  Malformed text raises
        and leaves the builder as it was before the call.
        """
        if doc_id is None:
            doc_id = len(self._names)
        self.add_document_unchecked(
            XMLDocument(None, name, text=text, doc_id=doc_id))

    # ------------------------------------------------------------------
    def _index(self, document: XMLDocument) -> None:
        """The one build driver: index *document*'s element stream.

        ``start`` packs the element's id from its parent's and posts its
        tag keywords; ``end`` posts its direct-text keywords and closes
        it in the categoriser (a leaf inline, anything else through
        :func:`close_element`, which files the children's hash rows).
        The counters reach :class:`IndexStats` once, at the end; if the
        stream raises, what the document added is taken back.
        """
        self._check_open()
        analyze = self.analyzer.analyze
        analyze_tag = self.analyzer.analyze_tag
        tag_memo = self._tag_keywords if self.index_tags else None
        add_all = self._inverted.add_all
        entity, element = self._hashes._entity, self._hashes._element
        by_tag = self._stats.category_by_tag
        tally = [0, 0, 0, 0, 0]  # AN, RN, EN, CN, then repeating ENs
        pending: list = []     # closed elements' summaries (categorize)
        marks: list[int] = []  # per open element: its children's start
        opened: list[int] = []  # the open elements' packed ids
        text_keywords = tag_keywords = deepest = 0
        self._last_doc = max(self._last_doc, document.doc_id)
        shifts = self._layout.shifts
        # one past the deepest level a stored component is checked
        # against 0: a deeper element always grows the layout
        bounds = self._layout.limits + (0,)

        def file(tag, dewey, child_count, category, repeated):
            if category == EN:
                entity[dewey] = child_count
                if repeated:
                    element[dewey] = child_count
                    tally[4] += 1
            elif category != AN:
                # repeating and connecting nodes; attribute nodes are
                # deliberately kept out of both tables
                element[dewey] = child_count
            tally[category] += 1
            if tag not in by_tag:
                by_tag[tag] = CATEGORIES[category].value

        def grow(level, stored):
            nonlocal shifts, bounds
            self._grow(level, stored, opened, pending)
            shifts = self._layout.shifts
            bounds = self._layout.limits + (0,)

        def start(dewey, tag):
            nonlocal tag_keywords
            level = len(dewey) - 1
            if level:
                stored = dewey[-1] + 1
                if stored >= bounds[level]:
                    grow(level, stored)
                packed = opened[-1] | stored << shifts[level]
            else:
                packed = dewey[0] << shifts[0]
            opened.append(packed)
            marks.append(len(pending))
            if tag_memo is not None:
                keywords = tag_memo.get(tag)
                if keywords is None:
                    keywords = tag_memo[tag] = analyze_tag(tag)
                tag_keywords += len(keywords)
                add_all(keywords, packed)

        def end(dewey, tag, text):
            nonlocal text_keywords, deepest
            packed = opened.pop()
            has_text = False
            if text and not text.isspace():
                has_text = True
                keywords = analyze(text)
                text_keywords += len(keywords)
                add_all(keywords, packed)
            mark = marks.pop()
            if mark == len(pending):  # a leaf: the deepest are leaves
                pending.append((tag, packed, 0,
                                LEAF_WITH_TEXT if has_text else 0))
                if len(dewey) > deepest:
                    deepest = len(dewey)
            else:
                close_element(pending, mark, tag, packed, has_text, file)

        rows = len(entity), len(element), len(by_tag)
        try:
            document.stream(start, end)
        except BaseException:
            self._roll_back(document.doc_id, *rows)
            raise
        close_root(pending, file)
        stats = self._stats
        stats.documents += 1
        stats.total_nodes += sum(tally[:4])
        stats.attribute_nodes += tally[AN]
        stats.entity_nodes += tally[EN]
        stats.repeating_nodes += tally[RN] + tally[4]
        stats.connecting_nodes += tally[CN]
        stats.text_keywords += text_keywords
        stats.tag_keywords += tag_keywords
        stats.max_depth = max(stats.max_depth, deepest - 1)
        self._names.append(document.name)

    def _grow(self, level: int, stored: int, opened: list,
              pending: list) -> None:
        """Widen *level* (or add it, one below the deepest) so *stored*
        fits, with one bit to spare, and re-pack what moves.

        Every held id at or above the widened field's top bit moves up
        by the added bits; the ids below it keep their value.  Posting
        lists are sorted, so the moving ids are each list's tail; the
        hash tables are re-keyed in place, in insertion order.
        """
        old = self._layout
        widths = list(old.widths)
        width = stored.bit_length() + 1
        if level > len(widths):
            # new levels go below every field, so every held id moves:
            # past eight levels the level count doubles, and a deep
            # document grows the layout O(log depth) times
            added = [width] + [2] * (len(widths) - 1 if level > 8 else 0)
            widths += added
            width, top = sum(added), 0
        else:
            width = max(width, widths[level - 1] + 1)
            top = old.shifts[level - 1]
            widths[level - 1], width = width, width - widths[level - 1]
        self._layout = DeweyLayout(widths)
        self._hashes.layout = self._layout
        bound = 1 << top
        low = bound - 1

        def move(packed: int) -> int:
            if packed < bound:
                return packed
            return (packed >> top) << (top + width) | (packed & low)

        opened[:] = map(move, opened)
        pending[:] = [(tag, move(dewey), count, flags)
                      for tag, dewey, count, flags in pending]
        if (self._last_doc + 1) << old.inner_bits <= bound:
            return  # nothing held reaches the moved bits
        for posting_list in self._inverted._postings.values():
            first = bisect_left(posting_list, bound)
            if first < len(posting_list):
                posting_list[first:] = map(move, posting_list[first:])
        for table in (self._hashes._entity, self._hashes._element):
            if max(table, default=-1) >= bound:
                rows = list(table.items())
                table.clear()
                table.update((move(dewey), count) for dewey, count in rows)

    def _roll_back(self, doc_id: int, entities: int, elements: int,
                   tags: int) -> None:
        """Take back a failed document: its postings, and the hash rows
        and first-seen tags it appended (dicts keep insertion order)."""
        shift = self._layout.inner_bits
        self._inverted.discard_range(doc_id << shift, doc_id + 1 << shift)
        for table, kept in ((self._hashes._entity, entities),
                            (self._hashes._element, elements),
                            (self._stats.category_by_tag, tags)):
            for _ in range(len(table) - kept):
                table.popitem()

    def _check_open(self) -> None:
        if self._built:
            raise IndexError_("IndexBuilder already finished; "
                              "create a new builder")

    # ------------------------------------------------------------------
    def build(self, corpus_crc32: int | None = None) -> GKSIndex:
        """Finish and return the index (builder becomes unusable);
        *corpus_crc32* is the CRC of the texts it was built over."""
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
                        stats=self._stats, layout=self._layout,
                        analyzer=self.analyzer,
                        index_tags=self.index_tags,
                        document_names=tuple(self._names),
                        corpus_crc32=corpus_crc32)


def build_index(source: Repository | XMLDocument | str,
                analyzer: Analyzer = DEFAULT_ANALYZER,
                index_tags: bool = True) -> GKSIndex:
    """One-call convenience: index a repository, a document, or XML text."""
    builder = IndexBuilder(analyzer=analyzer, index_tags=index_tags)
    if isinstance(source, Repository):
        builder.add_repository(source)
        return builder.build(corpus_crc32=source.corpus_crc32)
    if isinstance(source, XMLDocument):
        builder.add_document(source)
    elif isinstance(source, str):
        builder.add_xml(source)
    else:
        raise TypeError(f"cannot index {type(source).__name__}")
    return builder.build()
