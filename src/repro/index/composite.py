"""Document-disjoint index units behind one :class:`GKSIndex` interface.

The paper prefixes every Dewey id with its document number (§2.4,
"the XML data could be spread over multiple files").  Any two indexes
over *disjoint* document sets therefore compose exactly:

* a posting belongs to one document, so the union of the units' posting
  lists is a disjoint sorted union — precisely the monolithic list;
* hash keys start with the document number, so the units' tables never
  collide and every lookup routes to the one unit owning the document
  (all units share one :class:`~repro.xmltree.dewey.DeweyLayout`, so the
  number is a packed id's top bits);
* no pipeline stage crosses a document boundary — an LCP block across
  two documents has an empty common prefix, LCE discovery walks entity
  *ancestors* (same document), ranking flows potential inside one
  subtree — so a stage run on a unit sees everything it would see on
  the whole.

Shards (:mod:`repro.index.sharding`), on-disk segments and memtable
mini-indexes (:mod:`repro.core.durable`) are all such units.  This
module is the one place the argument is turned into code:
:class:`CompositeIndex` serves a set of units without copying them, and
:func:`merge_indexes` materialises them into one plain index.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import IndexError_
from repro.index.builder import GKSIndex
from repro.index.hashtables import NodeHashes
from repro.index.inverted import InvertedIndex
from repro.index.postings import cache_list, merge_sorted_runs
from repro.index.statistics import IndexStats
from repro.obs.locks import new_lock
from repro.obs.trace import NOOP_TRACER
from repro.text.analyzer import DEFAULT_ANALYZER, Analyzer
from repro.xmltree.dewey import DeweyLayout

#: One unit with the documents it owns: ``(doc_ids, index)``.  The index
#: carries **global** Dewey ids; only its ``document_names``/``stats``
#: are local to the unit.
Run = tuple[tuple[int, ...], GKSIndex]


def shared_layout(units: Sequence[GKSIndex]) -> DeweyLayout:
    """The one layout every unit packs its ids under."""
    layouts = {unit.layout for unit in units}
    if len(layouts) > 1:
        raise IndexError_(f"units packed under different layouts: "
                          f"{sorted(layouts, key=repr)}")
    return layouts.pop() if layouts else DeweyLayout()


def merge_stats(stats_list: Sequence[IndexStats]) -> IndexStats:
    """Sum per-unit :class:`IndexStats` (max depth maxes, counters add)."""
    total = IndexStats()
    for stats in stats_list:
        total.documents += stats.documents
        total.total_nodes += stats.total_nodes
        total.attribute_nodes += stats.attribute_nodes
        total.entity_nodes += stats.entity_nodes
        total.repeating_nodes += stats.repeating_nodes
        total.connecting_nodes += stats.connecting_nodes
        total.text_keywords += stats.text_keywords
        total.tag_keywords += stats.tag_keywords
        total.max_depth = max(total.max_depth, stats.max_depth)
        total.build_seconds += stats.build_seconds
        for tag, category in stats.category_by_tag.items():
            total.category_by_tag.setdefault(tag, category)
    return total


#: what the router answers for a document no unit owns
_NO_TABLES = NodeHashes()


class _RoutedHashes:
    """A :class:`NodeHashes` view over all units, routed by document.

    Every hash key carries its document number (its top bits) and a
    document lives in exactly one unit, so each lookup forwards to the
    owning unit's tables.  Ancestor walks stay inside one document,
    hence inside one unit.
    """

    def __init__(self, runs: Sequence[Run], layout: DeweyLayout) -> None:
        self._units = tuple(unit for _, unit in runs)
        self._owner: dict[int, GKSIndex] = {
            doc_id: unit for doc_ids, unit in runs for doc_id in doc_ids}
        self.layout = layout
        self._shift = layout.inner_bits

    def _tables_for(self, dewey: int) -> NodeHashes:
        unit = self._owner.get(dewey >> self._shift)
        return _NO_TABLES if unit is None else unit.hashes

    # -- the paper's two functions ------------------------------------
    def is_entity(self, dewey: int) -> int | None:
        return self._tables_for(dewey).is_entity(dewey)

    def is_element(self, dewey: int) -> int | None:
        return self._tables_for(dewey).is_element(dewey)

    # -- derived lookups ----------------------------------------------
    def child_count(self, dewey: int) -> int | None:
        return self._tables_for(dewey).child_count(dewey)

    def is_attribute(self, dewey: int) -> bool:
        return self._tables_for(dewey).is_attribute(dewey)

    def nearest_entity(self, dewey: int) -> int | None:
        return self._tables_for(dewey).nearest_entity(dewey)

    # -- aggregates (validation, stats, persistence) -------------------
    @property
    def entity_count(self) -> int:
        return sum(unit.hashes.entity_count for unit in self._units)

    @property
    def element_count(self) -> int:
        return sum(unit.hashes.element_count for unit in self._units)

    @property
    def entity_table(self) -> dict[int, int]:
        merged: dict[int, int] = {}
        for unit in self._units:
            merged.update(unit.hashes.entity_table)
        return merged

    @property
    def element_table(self) -> dict[int, int]:
        merged: dict[int, int] = {}
        for unit in self._units:
            merged.update(unit.hashes.element_table)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RoutedHashes units={len(self._units)} "
                f"entities={self.entity_count}>")


class CompositeIndex:
    """Immutable set of document-disjoint units, quacking like a
    :class:`GKSIndex`.

    Validation, insights, snippet lookups, persistence
    and the search pipeline itself talk to this object exactly as they
    would to a monolithic index.  ``postings()`` answers with the merge
    of the unit posting lists (cached per keyword); ``inverted`` and
    ``stats`` merge lazily on first use.

    The unit set never changes: adding a document builds a *new*
    composite sharing the old units, so a search that captured this one
    keeps a consistent snapshot for its whole run — the invariant the
    serving layer's zero-downtime swap rests on.
    """

    def __init__(self, runs: Sequence[Run],
                 analyzer: Analyzer = DEFAULT_ANALYZER,
                 document_names: Sequence[str] | None = None,
                 layout: DeweyLayout | None = None) -> None:
        self.units: tuple[GKSIndex, ...] = tuple(unit for _, unit in runs)
        self.analyzer = analyzer
        if document_names is None:
            document_names = [name for unit in self.units
                              for name in unit.document_names]
        self.document_names: tuple[str, ...] = tuple(document_names)
        #: as on :class:`GKSIndex`; one engine config built every unit
        self.index_tags = self.units[0].index_tags if self.units else True
        #: the units' one layout (*layout* names it for a unit-less
        #: shard of a family)
        self.layout = layout if layout is not None else shared_layout(
            self.units)
        self.hashes = _RoutedHashes(runs, self.layout)
        self._postings_cache: dict[str, list[int]] = {}
        self._merged_inverted: InvertedIndex | None = None
        self._merged_stats: IndexStats | None = None
        # The lazily merged views are probed from the scatter-gather and
        # serve worker pools; without the lock two threads could
        # interleave a check-then-merge and publish half-built state.
        # guards: _postings_cache, _merged_inverted, _merged_stats
        self._cache_lock = new_lock("composite.cache")

    # ------------------------------------------------------------------
    # GKSIndex interface
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return max((unit.depth for unit in self.units), default=0)

    def postings(self, keyword: str, tracer=NOOP_TRACER) -> list[int]:
        """Global posting list: disjoint sorted union over units.

        Phrase keywords intersect *within* each unit first — every word
        occurrence of one element lives in that element's document,
        hence in one unit, so the union of per-unit intersections equals
        the global intersection.
        """
        with self._cache_lock:
            cached = self._postings_cache.get(keyword)
        if cached is None:
            merged = merge_sorted_runs(
                unit.postings(keyword, tracer) for unit in self.units)
            with self._cache_lock:
                # publish exactly one list per keyword even when two
                # threads merged it concurrently
                if keyword not in self._postings_cache:
                    cache_list(self._postings_cache, keyword, merged)
                cached = self._postings_cache[keyword]
        return cached

    @property
    def inverted(self) -> InvertedIndex:
        """Merged inverted index (lazy; for validation and persistence)."""
        with self._cache_lock:
            if self._merged_inverted is None:
                collected: dict[str, list] = {}
                for unit in self.units:
                    for keyword, postings in unit.inverted.items():
                        collected.setdefault(keyword, []).append(postings)
                merged = InvertedIndex()
                merged._postings = {
                    keyword: merge_sorted_runs(lists)
                    for keyword, lists in collected.items()}
                self._merged_inverted = merged
            return self._merged_inverted

    @property
    def stats(self) -> IndexStats:
        """Aggregated corpus statistics over all units."""
        with self._cache_lock:
            if self._merged_stats is None:
                self._merged_stats = merge_stats(
                    [unit.stats for unit in self.units])
            return self._merged_stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} units={len(self.units)} "
                f"docs={len(self.document_names)}>")


def merge_indexes(runs: Sequence[Run]) -> GKSIndex:
    """Materialise document-disjoint *runs* into one plain index —
    exactly what a monolithic build over the same documents produces.

    Callers pass runs in ascending document order (runs are built
    append-only, so their doc-id ranges are disjoint and ordered); the
    merged index then lists its documents in that order and keeps the
    runs' analyzer.
    """
    merged = CompositeIndex(
        runs, analyzer=runs[0][1].analyzer if runs else DEFAULT_ANALYZER)
    return GKSIndex(
        inverted=merged.inverted,
        hashes=NodeHashes.from_mappings(
            entity=merged.hashes.entity_table,
            element=merged.hashes.element_table, layout=merged.layout),
        stats=merged.stats, layout=merged.layout, analyzer=merged.analyzer,
        index_tags=merged.index_tags,
        document_names=merged.document_names)
