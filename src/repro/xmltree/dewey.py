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

The tuple helpers below implement that prefix algebra for the oracles and
the tree.  The index and the query pipeline hold each id as one ``int``
under a :class:`DeweyLayout`, an order-preserving packing that keeps both
properties: int order is document order, and a subtree is the interval
``[v, layout.subtree_end(v))``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
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


class DeweyLayout:
    """Dewey ids packed into ints, order and intervals preserved.

    A layout gives each in-document level (1 = the root's children) a
    bit width.  Component ``c`` of level ``j`` is stored as ``c + 1`` in
    a ``widths[j - 1]``-bit field; the fields are left-aligned in level
    order, so an absent level is 0 and a node packs below all of its
    descendants.  The document number sits above the fields with no
    width limit: more documents never change a layout.  Hence

    * int order is tuple order (document order);
    * ``subtree(v)`` is exactly ``[v, subtree_end(v))``;
    * ``v & masks[j]`` is ``v``'s ancestor-or-self at level ``j``;
    * two ids of one document share the prefix
      ``a & lcp_masks[(a ^ b).bit_length()]``; a bit length past
      ``inner_bits`` means they lie in different documents.

    Unpacking, formatting and packing run one function per depth,
    generated on first use (a loop past :data:`GENERATED_DEPTH`), so no
    interpreted loop runs per component of a typical id.
    """

    __slots__ = ("widths", "inner_bits", "inner_mask", "shifts", "limits",
                 "masks", "level_of_bit", "lcp_masks", "_unpackers",
                 "_formatters", "_packers", "_sl_masks")

    #: deeper ids use a per-component loop instead of generated code
    GENERATED_DEPTH = 16

    def __init__(self, widths: Iterable[int] = ()) -> None:
        widths = tuple(int(width) for width in widths)
        if any(width < 1 for width in widths):
            raise DeweyError(f"level widths must be positive: {widths}")
        self.widths = widths
        self.inner_bits = inner = sum(widths)
        #: an id's in-document bits (0 for a document root)
        self.inner_mask = (1 << inner) - 1
        shifts = [inner]
        for width in widths:
            shifts.append(shifts[-1] - width)
        #: ``shifts[j]``: the lowest bit of level ``j`` (0: the document)
        self.shifts = tuple(shifts)
        #: a level's stored values (component + 1) stay below its limit
        self.limits = (0,) + tuple(1 << width for width in widths)
        #: ``v & masks[j]``: the ancestor-or-self at level ``j``
        self.masks = tuple(-(1 << shift) for shift in shifts)
        level_of_bit = [0] * (inner + 1)
        for level in range(1, len(widths) + 1):
            for bit in range(shifts[level], shifts[level - 1]):
                level_of_bit[bit + 1] = level
        #: the level of an id's lowest set bit, by ``bit_length``: the
        #: depth of ``v`` is ``level_of_bit[(v & -v).bit_length()]``
        self.level_of_bit = tuple(level_of_bit)
        #: by ``(a ^ b).bit_length()``: the mask keeping the shared
        #: prefix; by ``(v & -v).bit_length()``: the one giving the parent
        self.lcp_masks = (-1,) + tuple(self.masks[level - 1]
                                       for level in level_of_bit[1:])
        self._unpackers: dict[int, object] = {}
        self._formatters: dict[int, object] = {}
        self._packers: dict[int, object] = {}
        self._sl_masks: dict[int, tuple[int, ...]] = {}

    # -- generated per-depth code --------------------------------------
    def _fields(self, depth: int) -> list[str]:
        fields = [f"v >> {self.inner_bits}"]
        fields += [f"(v >> {self.shifts[level]} & "
                   f"{self.limits[level] - 1}) - 1"
                   for level in range(1, depth + 1)]
        return fields

    @staticmethod
    @lru_cache(maxsize=512)
    def _compiled(source: str, name: str):
        """The function *source* defines.  Cached by text: every load of
        one file makes a new layout of the same widths, and compiling
        costs more than a first query's decode."""
        scope = {"DeweyError": DeweyError}
        exec(source, scope)  # noqa: S102 - text generated right here
        return scope[name]

    def _unpacker(self, depth: int):
        unpacker = self._unpackers.get(depth)
        if unpacker is None:
            if depth <= self.GENERATED_DEPTH:
                unpacker = self._compiled(
                    f"def unpack(v):\n    return "
                    f"({', '.join(self._fields(depth))},)", "unpack")
            else:
                def unpacker(v, levels=range(1, depth + 1),
                             shifts=self.shifts, limits=self.limits):
                    return (v >> shifts[0],) + tuple(
                        (v >> shifts[level] & limits[level] - 1) - 1
                        for level in levels)
            self._unpackers[depth] = unpacker
        return unpacker

    def _formatter(self, depth: int):
        formatter = self._formatters.get(depth)
        if formatter is None:
            if depth <= self.GENERATED_DEPTH:
                formatter = self._compiled(
                    "def format(v):\n    return f'" + ".".join(
                        "{" + field + "}" for field in self._fields(depth))
                    + "'", "format")
            else:
                unpack = self._unpacker(depth)

                def formatter(v):
                    return ".".join(map(str, unpack(v)))
            self._formatters[depth] = formatter
        return formatter

    def packer(self, length: int):
        """The function packing ``length`` components (ints or digit
        strings), each checked against its level's width."""
        packer = self._packers.get(length)
        if packer is not None:
            return packer
        if length > len(self.limits):
            def packer(p):
                raise DeweyError(f"Dewey id {tuple(p)} does not fit the "
                                 f"layout {self.widths}")
        elif length <= self.GENERATED_DEPTH + 1:
            names = [f"c{level}" for level in range(length)]
            packer = self._compiled("\n".join([
                "def pack(p):",
                f"    {', '.join(names)}, = map(int, p)",
                "    if c0 < 0 " + "".join(
                    f"or not 0 <= c{level} < {self.limits[level] - 1} "
                    for level in range(1, length)) + ":",
                "        raise DeweyError(f'Dewey id {tuple(p)} does not "
                f"fit the layout {self.widths}')",
                "    return " + " | ".join(
                    [f"c0 << {self.inner_bits}"]
                    + [f"c{level} + 1 << {self.shifts[level]}"
                       for level in range(1, length)])]), "pack")
        else:
            def packer(p, shifts=self.shifts, limits=self.limits):
                components = list(map(int, p))
                packed = components[0] << shifts[0]
                if components[0] < 0:
                    raise DeweyError(f"Dewey id {tuple(p)} does not fit "
                                     f"the layout {self.widths}")
                for level, component in enumerate(components[1:], 1):
                    if not 0 <= component < limits[level] - 1:
                        raise DeweyError(f"Dewey id {tuple(p)} does not "
                                         f"fit the layout {self.widths}")
                    packed |= component + 1 << shifts[level]
                return packed
        self._packers[length] = packer
        return packer

    # -- packing -------------------------------------------------------
    def pack(self, dewey: Sequence[int]) -> int:
        """The packed id of a Dewey tuple; :class:`DeweyError` when it is
        empty, deeper or wider than the layout."""
        if not dewey:
            raise DeweyError("a Dewey id needs at least a document component")
        return self.packer(len(dewey))(dewey)

    def parse(self, text: str) -> int:
        """The packed id of a dotted Dewey string, checked as
        :func:`parse_dewey` checks it and against the widths."""
        try:
            return self.pack(text.split("."))
        except ValueError as exc:
            raise DeweyError(f"malformed Dewey id {text!r}") from exc

    def unpack(self, packed: int) -> Dewey:
        """The Dewey tuple of a packed id."""
        depth = self.level_of_bit[
            (packed & -packed & self.inner_mask).bit_length()]
        unpacker = self._unpackers.get(depth)
        if unpacker is None:
            unpacker = self._unpacker(depth)
        return unpacker(packed)

    def format(self, packed: int) -> str:
        """The dotted notation of a packed id."""
        return self._formatter(self.depth(packed))(packed)

    # -- navigation ----------------------------------------------------
    def depth(self, packed: int) -> int:
        """``len(dewey) - 1``: 0 for a document root."""
        return self.level_of_bit[
            (packed & -packed & self.inner_mask).bit_length()]

    def subtree_end(self, packed: int) -> int:
        """The first id after ``subtree(packed)``."""
        return packed + (1 << self.shifts[self.depth(packed)])

    def common_prefix(self, a: int, b: int) -> int | None:
        """The packed lowest common ancestor (``None``: two documents)."""
        length = (a ^ b).bit_length()
        if length > self.inner_bits:
            return None
        return a & self.lcp_masks[length]

    def sl_masks(self, keyword_bits: int) -> tuple[int, ...]:
        """:attr:`lcp_masks` for merged-list entries
        ``id << keyword_bits | keyword``, by the entries' xor bit length
        (the prefix comes out still shifted; cached per shift)."""
        masks = self._sl_masks.get(keyword_bits)
        if masks is None:
            masks = self._sl_masks[keyword_bits] = (
                (-1 << keyword_bits,) * (keyword_bits + 1)
                + tuple(mask << keyword_bits
                        for mask in self.lcp_masks[1:]))
        return masks

    # -- layouts of a family -------------------------------------------
    @classmethod
    def covering(cls, deweys: Iterable[Sequence[int]]) -> "DeweyLayout":
        """The narrowest layout every one of *deweys* fits."""
        needed: list[int] = []
        for dewey in deweys:
            for level in range(1, len(dewey)):
                bits = (dewey[level] + 1).bit_length()
                if level > len(needed):
                    needed.append(bits)
                elif bits > needed[level - 1]:
                    needed[level - 1] = bits
        return cls(needed)

    def union(self, *others: "DeweyLayout") -> "DeweyLayout":
        """The narrowest layout *self* and every one of *others* fit in
        (*self* itself when they all equal it)."""
        others = [other for other in others if other != self]
        if not others:
            return self
        return DeweyLayout(map(max, zip_longest(
            self.widths, *(other.widths for other in others),
            fillvalue=0)))

    def contains(self, other: "DeweyLayout") -> bool:
        """True when every id of *other* fits this layout."""
        return len(other.widths) <= len(self.widths) and all(
            mine >= theirs for mine, theirs in zip(self.widths,
                                                   other.widths))

    def converter(self, source: "DeweyLayout"):
        """A function re-packing ids of *source* under this layout."""
        unpack, pack = source.unpack, self.pack
        return lambda packed: pack(unpack(packed))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DeweyLayout)
                and other.widths == self.widths)

    def __hash__(self) -> int:
        return hash(self.widths)

    def __repr__(self) -> str:
        return f"DeweyLayout({list(self.widths)})"

