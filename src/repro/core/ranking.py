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

from repro.core.query import Query
from repro.index.builder import GKSIndex
from repro.index.postings import subtree_range
from repro.xmltree.dewey import Dewey


@dataclass(frozen=True)
class RankBreakdown:
    """Rank of one node plus the evidence behind it."""

    dewey: Dewey
    score: float
    initial_potential: int
    #: keyword → its terminal points (highest occurrences in the subtree).
    terminals: dict[str, tuple[Dewey, ...]]

    @property
    def matched_keywords(self) -> tuple[str, ...]:
        return tuple(self.terminals)

    @property
    def distinct_keywords(self) -> int:
        return self.initial_potential

    @staticmethod
    def _build(dewey, score, initial_potential, terminals) -> "RankBreakdown":
        """``RankBreakdown(...)`` with its fields written straight into the
        instance dict, as :meth:`RankedNode._build`."""
        record = object.__new__(RankBreakdown)
        fields = record.__dict__
        fields["dewey"] = dewey
        fields["score"] = score
        fields["initial_potential"] = initial_potential
        fields["terminals"] = terminals
        return record


def keyword_occurrences(index: GKSIndex, keyword: str,
                        dewey: Dewey) -> list[Dewey]:
    """All postings of *keyword* inside ``subtree(dewey)`` (document
    order)."""
    postings = index.postings(keyword)
    lo, hi = subtree_range(postings, dewey)
    return postings[lo:hi]


def terminal_points(occurrences: list[Dewey]) -> tuple[Dewey, ...]:
    """The highest occurrences: all postings at the minimal depth."""
    if not occurrences:
        return ()
    min_length = min(len(occurrence) for occurrence in occurrences)
    return tuple(occurrence for occurrence in occurrences
                 if len(occurrence) == min_length)


def received_potential(index: GKSIndex, root: Dewey, terminal: Dewey,
                       potential: float) -> float:
    """Potential arriving at *terminal* when *potential* starts at *root*.

    Divides by the direct-child count of every node on the path from
    *root* down to the terminal's parent.  Child counts come from the hash
    tables; attribute nodes are leaves so they never appear mid-path.
    """
    if terminal == root:
        return potential
    flowed = potential
    for length in range(len(root), len(terminal)):
        children = index.hashes.child_count(terminal[:length])
        if children and children > 1:
            flowed /= children
    return flowed


def subtree_terminals(index: GKSIndex, query: Query,
                      dewey: Dewey) -> dict[str, tuple[Dewey, ...]]:
    """Matched query keyword → its terminal points in ``subtree(dewey)``."""
    return rank_node(index, query, dewey).terminals


def rank_node(index: GKSIndex, query: Query, dewey: Dewey) -> RankBreakdown:
    """Rank one response node for *query* with the potential-flow model.

    Per keyword, one bisect lands on the first posting at or after
    *dewey*: about half the time it lies outside the subtree and the
    keyword is done, the next posting settles a single occurrence, and
    only a longer run pays a second bisect and a depth scan.

    The score is a float sum, so its value depends on the order of the
    operations: each terminal's share is divided top-down, one
    ``flowed /= children`` per path node (:func:`received_potential`),
    and the shares are added keyword by keyword, terminals in document
    order.  Keep that order — recorded rankings compare scores exactly.
    """
    depth = len(dewey)
    # the postings of subtree(dewey) are exactly those in [dewey, after)
    after = dewey[:-1] + (dewey[-1] + 1,)
    postings_of = index.postings
    terminals: dict[str, tuple[Dewey, ...]] = {}
    for keyword in query.keywords:
        postings = postings_of(keyword)
        lo = bisect_left(postings, dewey)
        size = len(postings)
        if lo == size:
            continue
        first = postings[lo]
        if first >= after:
            continue
        if lo + 1 == size or postings[lo + 1] >= after:
            terminals[keyword] = (first,)
        else:
            hi = bisect_left(postings, after, lo + 2)
            terminals[keyword] = terminal_points(postings[lo:hi])
    potential = len(terminals)
    source = float(potential)
    child_count = index.hashes.child_count
    # every path below the node starts by dividing by its own count
    fanout = child_count(dewey) or 1
    below = depth + 1
    score = 0.0
    for points in terminals.values():
        for terminal in points:
            flowed = source
            end = len(terminal)
            if end > depth:
                if fanout > 1:
                    flowed /= fanout
                if end > below:
                    for length in range(below, end):
                        children = child_count(terminal[:length])
                        if children and children > 1:
                            flowed /= children
            score += flowed
    return RankBreakdown._build(dewey, score, potential, terminals)


def rank_by_keyword_count(index: GKSIndex, query: Query,
                          dewey: Dewey) -> RankBreakdown:
    """Ablation baseline (bench A2): rank = distinct-keyword count only.

    Shares the terminal bookkeeping so the two rankers are comparable.
    """
    terminals = subtree_terminals(index, query, dewey)
    return RankBreakdown(dewey=dewey, score=float(len(terminals)),
                         initial_potential=len(terminals),
                         terminals=terminals)
