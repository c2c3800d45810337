"""Least Common Entity (LCE) node discovery (paper §4.1–4.2, Def 2.2.1).

An entity node ``e`` is an LCE node for query ``Q`` when at least one query
keyword in its subtree is contained in no deeper entity node — such a
keyword is ``e``'s *independent witness*.  The discovery walks the LCP list
in creation order:

* an LCP entry that is an entity node, or has an entity ancestor, maps to
  that (nearest) entity — its LCE candidate;
* when an entity is first added, its independent witness is located at the
  block boundaries ``p1``/``p2`` (Lemma 4); we additionally fall back to a
  block scan for robustness, and record the witness Dewey id.  That is the
  entity's only witness test: a witness is independent against the whole
  entity table, so no entity added later can hold it in its subtree, and
  Lemma 5's maintenance has nothing to do;
* entity ancestors in the LCE list get their statistics updated ("Update
  LCE node (e)" in Fig. 6).

An LCP entry with no entity ancestor-or-self is kept as *unmapped* ("there
may exist some nodes in LCP list such that no corresponding entity node is
found for them").  The GKS response is the surviving LCE nodes plus the
unmapped LCP nodes (§4.2).  Every id here is packed under the index's
:class:`~repro.xmltree.dewey.DeweyLayout`: a parent is one mask, and
"inside ``subtree(e)``" is ``e <= x < layout.subtree_end(e)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.budget import SearchBudget
from repro.core.lcp import LCPList
from repro.index.builder import GKSIndex
from repro.index.postings import MergedList
from repro.xmltree.dewey import DeweyLayout


_UNKNOWN = object()  # memo miss (``None`` is a real answer)


@dataclass(slots=True)
class LCEInfo:
    """Bookkeeping for one (candidate) LCE node (ids packed)."""

    dewey: int
    witness: int | None            # smallest independent witness position
    estimated_keywords: int        # the running s+counter−1 style estimate
    #: the (lifted) LCP candidates that mapped to this entity — the
    #: fallback response nodes should the entity fail Def 2.2.1.
    candidates: list[int]


@dataclass
class LCEResult:
    """Outcome of LCE discovery over one LCP list (ids packed under
    :attr:`layout`)."""

    layout: DeweyLayout = field(default_factory=DeweyLayout)
    lce: dict[int, LCEInfo] = field(default_factory=dict)
    #: Entity candidates that turned out not to be LCE nodes (their
    #: creating block held no independent witness) — their *mapped LCP
    #: candidates* fall back into the response pool:
    #: §4.2 treats them as LCP nodes "for which no corresponding LCE node
    #: exists".
    rejected: dict[int, LCEInfo] = field(default_factory=dict)
    #: LCP entries with no entity ancestor-or-self at all (deduplicated,
    #: in creation order; values are the estimated keyword counts).
    unmapped: dict[int, int] = field(default_factory=dict)

    def fallback_candidates(self) -> dict[int, int]:
        """Unmapped LCP nodes plus the candidates of rejected entities.

        Maps each fallback node to its keyword-count estimate.
        """
        pool = dict(self.unmapped)
        confirmed = self.lce
        for info in self.rejected.values():
            for candidate in info.candidates:
                if candidate not in confirmed:
                    pool.setdefault(candidate, info.estimated_keywords)
        return pool

    def response_deweys(self, fallback: dict[int, int] | None = None
                        ) -> list[int]:
        """The GKS response node set ``RQ(s)`` (§4.2); *fallback* is
        :meth:`fallback_candidates` when the caller already has it.

        Surviving LCE nodes plus the LCP nodes that have no corresponding
        LCE node.  "The nodes in GKS response set follow the semantics of
        SLCA" (§1.1): for entity nodes the independent-witness rule already
        enforces this (an ancestor entity survives only with its own
        witness — Example 4 keeps both did.0.1 and did.0.1.1.0); for the
        remaining non-entity candidates we drop any node that has another
        candidate strictly inside its subtree, which is what makes Table 1
        return {x2} rather than {x1, x2, r} for Q1.
        """
        lce = self.lce
        survivors = list(lce)
        filtered = (self.fallback_candidates() if fallback is None
                    else fallback).keys() - lce.keys()
        ordered = sorted(lce.keys() | filtered)
        # In Dewey (document) order every id strictly between a node and
        # its subtree end is a descendant, so a candidate has a candidate
        # descendant iff its immediate successor is one: one sorted pass.
        layout = self.layout
        level_of_bit, shifts = layout.level_of_bit, layout.shifts
        inner = layout.inner_mask
        for dewey, successor in zip(ordered, ordered[1:] + [math.inf]):
            if dewey in filtered and successor >= dewey + (1 << shifts[
                    level_of_bit[(dewey & -dewey & inner).bit_length()]]):
                survivors.append(dewey)
        return survivors


def discover_lce(lcp: LCPList, sl: MergedList,
                 index: GKSIndex,
                 budget: SearchBudget | None = None) -> LCEResult:
    """Map LCP entries to LCE nodes, each witnessed by its creating block.

    With a budget the walk polls the deadline between LCP entries and
    stops early when it trips; already-discovered LCE nodes are kept.

    The hash tables are asked three questions — attribute lift, nearest
    entity, nearest entity strictly above (= nearest entity of the
    parent) — about the same few nodes over and over: block windows
    overlap and siblings share their ancestors.  Each answer is memoised
    for the call in one table, ``owners`` (node → nearest entity of its
    lift; an element's lift is itself).  The tables are only ever reached
    through ``index.hashes`` methods: routed, stacked and lazily decoded
    tables answer the same way.
    """
    layout = index.layout
    result = LCEResult(layout)
    lce, rejected, unmapped = result.lce, result.rejected, result.unmapped
    is_attribute = index.hashes.is_attribute
    nearest_entity = index.hashes.nearest_entity
    owners: dict[int, int | None] = {}
    bits = sl.keyword_bits
    inner = layout.inner_mask
    parent_masks = layout.lcp_masks  # by (v & -v).bit_length()
    base = lcp.s - 1  # an entry's estimate is base + its counter

    def independent_witness(candidate: int, left: int,
                            right: int) -> int | None:
        """Smallest-Dewey independent witness for *candidate* in [l, r].

        A keyword occurrence is an independent witness when its nearest
        entity ancestor-or-self is *candidate* itself (no deeper entity
        contains it).  Lemma 4 says checking the block boundaries
        suffices; we scan from the left boundary so the smallest
        qualifying Dewey id is returned.
        """
        for position in range(left, right + 1):
            occurrence = sl[position] >> bits
            owner = owners.get(occurrence, _UNKNOWN)
            if owner is _UNKNOWN:
                node = occurrence
                if node & inner and is_attribute(node):
                    node &= parent_masks[(node & -node).bit_length()]
                owner = owners.get(node, _UNKNOWN)
                if owner is _UNKNOWN:
                    owner = owners[node] = nearest_entity(node)
                owners[occurrence] = owner
            if owner == candidate:
                return occurrence
        return None

    total = len(lcp.entries)
    for position, (dewey, entry) in enumerate(lcp.entries.items()):
        if budget is not None and budget.checkpoint("lce", position, total):
            break
        # lift off an attribute node (Def 2.1.1: an element in neither
        # hash table; ANs are leaves, so a single lift suffices)
        candidate = dewey
        if dewey & inner and is_attribute(dewey):
            candidate = dewey & parent_masks[(dewey & -dewey).bit_length()]
        entity = owners.get(candidate, _UNKNOWN)
        if entity is _UNKNOWN:
            entity = owners[candidate] = nearest_entity(candidate)
        owners[dewey] = entity
        counter = entry.counter
        if entity is None:
            previous = unmapped.get(candidate)
            unmapped[candidate] = (base + counter if previous is None
                                   else previous + counter)
            continue
        info = lce.get(entity)
        if info is None:
            # First block for this entity: its one witness test, and
            # s + counter − 1 keywords (Example 4: did.0.1 enters with 2,
            # did.0.1.1.0 with 3).  A creating block that is the entry's
            # own occurrence alone (all at s = 1) needs no scan: it
            # witnesses `entity` and nothing else.
            left, right = entry.first_left, entry.first_right
            witness = (dewey if left == right and sl[left] >> bits == dewey
                       else independent_witness(entity, left, right))
            lce[entity] = LCEInfo(entity, witness, base + counter,
                                  [candidate])
        else:
            # Another LCP entry mapped to the same entity: its blocks each
            # contribute one further keyword occurrence to the estimate.
            info.estimated_keywords += counter
            info.candidates.append(candidate)

        # Fig. 6's "Update LCE node (e)" for the entity ancestors in the
        # LCE list, hopping from entity to entity: each estimate grows by
        # this entry's blocks (Example 4: did.0.1 grows to 4 as
        # did.0.1.1.0's two blocks are filed).
        ancestor = entity
        while ancestor & inner:
            parent = ancestor & parent_masks[(ancestor & -ancestor)
                                             .bit_length()]
            ancestor = owners.get(parent, _UNKNOWN)
            if ancestor is _UNKNOWN:
                ancestor = owners[parent] = nearest_entity(parent)
            if ancestor is None:
                break
            info = lce.get(ancestor)
            if info is not None:
                info.estimated_keywords += counter

    # Entities that never obtained an independent witness are not LCE
    # nodes by Def 2.2.1: their mapped LCP candidates fall back into the
    # response pool (handled by fallback_candidates / response_deweys).
    for dewey in [dewey for dewey, info in lce.items()
                  if info.witness is None]:
        rejected[dewey] = lce.pop(dewey)
    return result
