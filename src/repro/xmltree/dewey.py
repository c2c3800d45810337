"""Dewey identifiers for XML nodes (paper §2.1).

A Dewey id encodes a node's position in the labeled ordered tree: the node
with id ``0.2.3`` is the fourth child of node ``0.2``.  Following §2.4 of the
paper, ids are prefixed with a document number so that search "is seamlessly
expanded over multiple documents".

We represent a Dewey id as an immutable tuple of non-negative integers
``(doc, c0, c1, ...)``.  Two properties make Dewey ids the workhorse of the
whole system:

* tuple (lexicographic) order over Dewey ids equals *document order*
  (pre-order arrival of nodes), and
* ``a`` is an ancestor of ``b`` iff ``a`` is a strict prefix of ``b``.

The helpers below implement the prefix algebra used by the search engine
(Lemma 6: for a sorted block the longest common prefix of the first and last
entry is the block's longest common prefix).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import DeweyError

Dewey = tuple[int, ...]

#: Dewey id of the (virtual) root of document 0; mostly useful in tests.
ROOT: Dewey = (0,)


def make_dewey(components: Iterable[int]) -> Dewey:
    """Validate *components* and return them as a Dewey tuple.

    Raises :class:`DeweyError` when empty or containing negative entries.
    """
    dewey = tuple(int(c) for c in components)
    if not dewey:
        raise DeweyError("a Dewey id needs at least a document component")
    if any(c < 0 for c in dewey):
        raise DeweyError(f"Dewey components must be non-negative: {dewey}")
    return dewey


def parse_dewey(text: str) -> Dewey:
    """Parse the dotted string form (``"0.2.3"``) into a Dewey tuple.

    The loaders call this once per stored posting, so it validates in
    two C-level passes rather than through :func:`make_dewey`; an empty
    string fails ``int("")`` like any other non-numeric component.
    """
    try:
        dewey = tuple(map(int, text.split(".")))
    except ValueError as exc:
        raise DeweyError(f"malformed Dewey id {text!r}") from exc
    if min(dewey) < 0:
        raise DeweyError(f"Dewey components must be non-negative: {dewey}")
    return dewey


def format_dewey(dewey: Sequence[int]) -> str:
    """Render a Dewey tuple in the paper's dotted notation."""
    return ".".join(map(str, dewey))


def document_of(dewey: Sequence[int]) -> int:
    """Return the document number (the first component) of *dewey*."""
    return dewey[0]


def depth_of(dewey: Sequence[int]) -> int:
    """Return the depth of the node below its document root.

    The document root itself (a one-component id) has depth 0.
    """
    return len(dewey) - 1


def parent_of(dewey: Dewey) -> Dewey:
    """Return the Dewey id of the parent node.

    Raises :class:`DeweyError` when *dewey* is a document root.
    """
    if len(dewey) <= 1:
        raise DeweyError(f"{format_dewey(dewey)} is a document root")
    return dewey[:-1]


def child_of(dewey: Dewey, ordinal: int) -> Dewey:
    """Return the Dewey id of the *ordinal*-th child (0-based)."""
    if ordinal < 0:
        raise DeweyError(f"child ordinal must be non-negative: {ordinal}")
    return dewey + (ordinal,)


def ancestors_of(dewey: Dewey) -> list[Dewey]:
    """Return all strict ancestors of *dewey*, nearest first.

    ``ancestors_of((0, 1, 2))`` is ``[(0, 1), (0,)]``.
    """
    return [dewey[:length] for length in range(len(dewey) - 1, 0, -1)]


def is_ancestor(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff *a* is a strict ancestor of *b* (``a`` ≺ ``b``)."""
    return len(a) < len(b) and tuple(b[: len(a)]) == tuple(a)


def is_ancestor_or_self(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff *a* is an ancestor of *b* or equal to it (``a`` ⪯ ``b``)."""
    return len(a) <= len(b) and tuple(b[: len(a)]) == tuple(a)


def common_prefix(a: Sequence[int], b: Sequence[int]) -> Dewey:
    """Longest common prefix of two Dewey ids.

    For ids of nodes in the same document this is the Dewey id of their
    lowest common ancestor.  When the ids belong to different documents the
    result is empty — there is no common ancestor across documents.
    """
    n = 0
    limit = min(len(a), len(b))
    while n < limit and a[n] == b[n]:
        n += 1
    return tuple(a[:n])


def lca_of(deweys: Iterable[Sequence[int]]) -> Dewey:
    """Lowest common ancestor (longest common prefix) of many Dewey ids.

    Raises :class:`DeweyError` on an empty input or when the ids span
    multiple documents (no common ancestor exists).
    """
    iterator = iter(deweys)
    try:
        acc: Dewey = tuple(next(iterator))
    except StopIteration:
        raise DeweyError("lca_of() needs at least one Dewey id") from None
    for dewey in iterator:
        acc = common_prefix(acc, dewey)
        if not acc:
            raise DeweyError("nodes from different documents share no LCA")
    return acc


def block_lcp(sorted_block: Sequence[Sequence[int]]) -> Dewey:
    """Longest common prefix of a *sorted* block of Dewey ids (Lemma 6).

    Because the block is sorted in document order, the common prefix of its
    first and last entries is the common prefix of the whole block — this is
    the O(d) shortcut the paper's search algorithm relies on.
    """
    if not sorted_block:
        raise DeweyError("block_lcp() needs a non-empty block")
    return common_prefix(sorted_block[0], sorted_block[-1])


def subtree_interval(dewey: Dewey) -> tuple[Dewey, Dewey]:
    """Half-open interval ``[lo, hi)`` covering exactly ``subtree(dewey)``.

    Any Dewey id ``x`` satisfies ``lo <= x < hi`` iff *dewey* is an
    ancestor-or-self of ``x``.  Used to binary-search the contiguous range of
    a node's postings inside the merged, sorted list ``SL``.
    """
    lo = dewey
    hi = dewey[:-1] + (dewey[-1] + 1,)
    return lo, hi
