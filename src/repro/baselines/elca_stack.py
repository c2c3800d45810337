"""Stack-based ELCA — the XRank DIL-style algorithm (paper ref [7]).

The classic one-pass ELCA computation: sweep the merged occurrence list
in document order while maintaining a stack that mirrors the current
root-to-node path.  Each stack frame carries two bit sets per query keyword:

* ``total[k]`` — any occurrence of k in my subtree;
* ``available[k]`` — an occurrence of k in my subtree that is not inside
  any *all-keyword* descendant (such occurrences are "claimed" whether or
  not that descendant is itself an ELCA — exclusivity is defined against
  all-keyword nodes, not against ELCA nodes).

A popping frame is an ELCA iff all ``available`` bits are set.  Merging
upward: ``total`` always propagates; ``available`` propagates only when
the child is *not* an all-keyword node (otherwise the child claims
everything beneath it).

This reproduces the exclusivity semantics exactly and is cross-validated
against both the closure-based :func:`repro.baselines.elca.elca` and the
brute-force oracle.  Complexity: O(d·|SL|) stack operations.
"""

from __future__ import annotations

from repro.baselines.lca import posting_lists, tagged_merge
from repro.core.query import Query
from repro.index.builder import GKSIndex
from repro.xmltree.dewey import Dewey


class _Frame:
    __slots__ = ("dewey", "total", "available")

    def __init__(self, dewey: Dewey, keyword_count: int) -> None:
        self.dewey = dewey
        self.total = [False] * keyword_count
        self.available = [False] * keyword_count


def elca_stack(index: GKSIndex, query: Query) -> list[Dewey]:
    """ELCA nodes via the Dewey-stack sweep, in document order."""
    lists = posting_lists(index, query)
    if any(not postings for postings in lists):
        return []
    keyword_count = len(lists)
    stack: list[_Frame] = []
    results: list[Dewey] = []

    for dewey, keyword in tagged_merge(lists):
        _align_stack(stack, dewey, keyword_count, results)
        stack[-1].total[keyword] = True
        stack[-1].available[keyword] = True

    while stack:
        _pop(stack, results)
    results.sort()
    return results


def _align_stack(stack: list[_Frame], dewey: Dewey, keyword_count: int,
                 results: list[Dewey]) -> None:
    """Pop frames outside *dewey*'s ancestor chain, push the rest of it."""
    # length of the common prefix between the stack path and dewey
    keep = 0
    for frame in stack:
        length = len(frame.dewey)
        if length <= len(dewey) and frame.dewey == dewey[:length]:
            keep += 1
        else:
            break
    while len(stack) > keep:
        _pop(stack, results)
    # push the remaining ancestors of dewey (and dewey itself)
    start = stack[-1].dewey if stack else None
    first_new = len(start) + 1 if start is not None else 1
    for length in range(first_new, len(dewey) + 1):
        stack.append(_Frame(dewey[:length], keyword_count))


def _pop(stack: list[_Frame], results: list[Dewey]) -> None:
    frame = stack.pop()
    is_all_keyword = all(frame.total)
    if all(frame.available):
        results.append(frame.dewey)
    if not stack:
        return
    parent = stack[-1]
    for position, flag in enumerate(frame.total):
        if flag:
            parent.total[position] = True
    if not is_all_keyword:
        # only a non-all-keyword child leaves its occurrences available
        for position, flag in enumerate(frame.available):
            if flag:
                parent.available[position] = True
