"""Potential-flow node ranking (paper §5, Example 5).

Each response node ``e`` starts with potential ``P|e`` = the number of
distinct query keywords in its subtree.  The potential flows down the tree,
dividing equally among a node's direct children at every step; the rank of
``e`` is the total potential arriving at the *terminal points* — the
highest (shallowest) occurrence(s) of each query keyword inside ``e``'s
subtree.  A keyword occurring several times at its highest level
contributes one terminal per occurrence.

Everything is computed from the index alone: keyword occurrences come from
posting-list subtree ranges (contiguous by Dewey order), and the division
factors are the direct-child counts stored in the hash tables — exactly why
the paper stores child counts there (§2.4).  A terminal at ``e`` itself
(the keyword occurs in ``e``'s own text or tag) receives the undivided
``P|e``.

Intuition: many children dilute the flow, so among nodes with equal
keyword coverage the one whose matches sit in a leaner context ranks
higher — the paper's Example 2 ranks an article with few co-authors above
one with many.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

from repro.core.query import Query
from repro.index.builder import GKSIndex
from repro.xmltree.dewey import Dewey, DeweyLayout


@dataclass(frozen=True)
class RankBreakdown:
    """Rank of one node plus the evidence behind it.

    A ranker works on packed ids and builds its record with
    :meth:`packed`: ``dewey`` and ``terminals`` are then unpacked into
    Dewey tuples on first read, so a candidate's evidence costs no
    tuples unless someone looks at it.
    """

    dewey: Dewey
    score: float
    initial_potential: int
    #: keyword → its terminal points (highest occurrences in the subtree).
    terminals: dict[str, tuple[Dewey, ...]]

    @property
    def matched_keywords(self) -> tuple[str, ...]:
        fields = self.__dict__
        return tuple(fields["terminals"] if "terminals" in fields
                     else fields["_packed_terminals"])

    @property
    def distinct_keywords(self) -> int:
        return self.initial_potential

    @staticmethod
    def packed(dewey: int, score: float, initial_potential: int,
               terminals: dict[str, tuple[int, ...]],
               layout: DeweyLayout) -> "RankBreakdown":
        """A record of packed ids under *layout*, its fields written
        straight into the instance dict (no frozen ``__setattr__``)."""
        record = object.__new__(RankBreakdown)
        fields = record.__dict__
        fields["score"] = score
        fields["initial_potential"] = initial_potential
        fields["_packed"] = dewey
        fields["_packed_terminals"] = terminals
        fields["_layout"] = layout
        return record

    def __getattr__(self, name: str):
        # reached only for ``dewey`` / ``terminals`` of a packed record
        fields = self.__dict__
        if name not in ("dewey", "terminals") or "_layout" not in fields:
            raise AttributeError(name)
        unpack = fields["_layout"].unpack
        fields["dewey"] = unpack(fields["_packed"])
        fields["terminals"] = {
            keyword: tuple(map(unpack, points))
            for keyword, points in fields["_packed_terminals"].items()}
        return fields[name]


def keyword_occurrences(index: GKSIndex, keyword: str,
                        dewey: int) -> list[int]:
    """All postings of *keyword* inside ``subtree(dewey)`` (packed,
    document order)."""
    postings = index.postings(keyword)
    return postings[bisect_left(postings, dewey):
                    bisect_left(postings, index.layout.subtree_end(dewey))]


def terminal_points(occurrences: list[int],
                    layout: DeweyLayout) -> tuple[int, ...]:
    """The highest occurrences: all postings at the minimal depth."""
    if not occurrences:
        return ()
    depths = list(map(layout.depth, occurrences))
    shallowest = min(depths)
    return tuple(occurrence for occurrence, depth
                 in zip(occurrences, depths) if depth == shallowest)


def received_potential(index: GKSIndex, root: Dewey, terminal: Dewey,
                       potential: float) -> float:
    """Potential arriving at *terminal* when *potential* starts at *root*
    (Dewey tuples, as :mod:`repro.core.explain` reads them).

    Divides by the direct-child count of every node on the path from
    *root* down to the terminal's parent.  Child counts come from the hash
    tables; attribute nodes are leaves so they never appear mid-path.
    """
    if terminal == root:
        return potential
    flowed = potential
    pack = index.layout.pack
    for length in range(len(root), len(terminal)):
        children = index.hashes.child_count(pack(terminal[:length]))
        if children and children > 1:
            flowed /= children
    return flowed


def flow_scorer(index: GKSIndex, query: Query
                ) -> Callable[[int], tuple[float, dict[str, tuple[int, ...]]]]:
    """The potential-flow kernel bound to one index and query (posting
    lists, ``child_count``, layout tables): packed node → ``(score,
    terminals)``.  Per keyword one bisect, and a second plus a depth scan
    only for a run of several occurrences in the subtree.

    The score is a float sum, so its value depends on the order of the
    operations: each terminal's share is divided top-down, one
    ``flowed /= children`` per path node (:func:`received_potential`),
    and the shares are added keyword by keyword, terminals in document
    order.  Keep that order — recorded rankings compare scores exactly.
    """
    layout = index.layout
    level_of_bit, masks = layout.level_of_bit, layout.masks
    shifts, inner = layout.shifts, layout.inner_mask
    child_count = index.hashes.child_count
    lists = []
    for keyword in query.keywords:
        postings = index.postings(keyword)
        if postings:
            lists.append((keyword, postings, len(postings)))

    def score(dewey: int) -> tuple[float, dict[str, tuple[int, ...]]]:
        depth = level_of_bit[(dewey & -dewey & inner).bit_length()]
        # the postings of subtree(dewey) are exactly those in [dewey, after)
        after = dewey + (1 << shifts[depth])
        terminals: dict[str, tuple[int, ...]] = {}
        for keyword, postings, size in lists:
            lo = bisect_left(postings, dewey)
            if lo == size:
                continue
            first = postings[lo]
            if first >= after:
                continue
            if (first == dewey or lo + 1 == size
                    or postings[lo + 1] >= after):
                terminals[keyword] = (first,)
            else:
                # strict descendants only: no document root among them
                run = postings[lo:bisect_left(postings, after, lo + 2)]
                levels = [level_of_bit[(occurrence & -occurrence)
                                       .bit_length()]
                          for occurrence in run]
                shallowest = min(levels)
                terminals[keyword] = tuple([
                    occurrence for occurrence, level in zip(run, levels)
                    if level == shallowest])
        source = float(len(terminals))
        # every path below the node starts by dividing by its own count
        fanout = child_count(dewey) or 1
        below = depth + 1
        total = 0.0
        for points in terminals.values():
            for terminal in points:
                flowed = source
                if terminal != dewey:
                    end = level_of_bit[(terminal & -terminal).bit_length()]
                    if fanout > 1:
                        flowed /= fanout
                    if end > below:
                        for level in range(below, end):
                            children = child_count(terminal & masks[level])
                            if children and children > 1:
                                flowed /= children
                total += flowed
        return total, terminals

    return score


def rank_node(index: GKSIndex, query: Query, dewey: int) -> RankBreakdown:
    """Rank one response node (a packed id) for *query* with the
    potential-flow model: :func:`flow_scorer` applied to one id."""
    score, terminals = flow_scorer(index, query)(dewey)
    return RankBreakdown.packed(dewey, score, len(terminals), terminals,
                                index.layout)


def rank_by_keyword_count(index: GKSIndex, query: Query,
                          dewey: int) -> RankBreakdown:
    """Ablation baseline (bench A2): rank = distinct-keyword count only.

    Shares the terminal bookkeeping so the two rankers are comparable.
    """
    terminals = flow_scorer(index, query)(dewey)[1]
    return RankBreakdown.packed(dewey, float(len(terminals)),
                                len(terminals), terminals, index.layout)
