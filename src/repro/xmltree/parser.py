"""A from-scratch streaming XML parser.

The paper's system ingests raw XML repositories; rather than leaning on a
third-party parser we implement the substrate ourselves: a tokenizer that
turns a character stream into :mod:`repro.xmltree.events` parse events, and a
tree builder that assigns Dewey ids on the fly.

Supported XML subset (ample for the corpora the paper evaluates on):

* elements with attributes, self-closing tags,
* character data with the five predefined entities plus decimal/hex
  character references,
* CDATA sections, comments, processing instructions and the XML declaration,
* a permissive DOCTYPE skipper (internal subsets are skipped, not parsed).

Design notes
------------
``stream_document`` drives the *element stream* — ``start(dewey, tag)``
when an element opens, ``end(dewey, tag, text)`` with its joined direct
text when it closes — which the index builder consumes without a tree;
without consumers it only proves a text would parse.  ``parse_document``
feeds the same stream to a :class:`TreeBuilder` for callers that want
the tree, and ``iter_events`` yields the raw parse events.  Malformed
input raises :class:`XMLSyntaxError` with a 1-based line/column and a
0-based character offset.

Both run one strict loop, ``_scan``: one compiled master pattern matched
per token (the text run before a ``<`` and the end or start tag after
it).  Whatever it declines — attributes, references, markup other than
tags, every error — the careful scanner reads at the same position
with the same open tags.  Parsing costs per element, not per byte
(protein corpus 24.7 bytes per element, mirror corpora 33.0).
gksbench ``xmltree.parser.mb_per_s`` (one traced pass, 2 vCPUs):
query_inproc 1.9 -> 3.3, the others 6.2-7.9; query_inproc parses
beside a live engine, and collector passes over its heap take ~40 %.

Recovery
--------
Real multi-file corpora (§2.4) contain the occasional malformed document.
:class:`RecoveryPolicy` selects what happens:

* ``STRICT`` — raise on the first error (the default, unchanged behaviour);
* ``SKIP_DOCUMENT`` — parser-level behaviour equals STRICT; the
  *repository* catches the error and quarantines the document instead of
  aborting the whole ingest;
* ``SALVAGE`` — :func:`iter_events_salvage` resynchronises after malformed
  markup (skips to the next ``<``), drops stray closing tags, closes
  unbalanced open tags at end of input, ignores extra root elements, and
  keeps unknown entities as literal text.  Every repair is recorded in a
  :class:`SalvageLog`.
"""

from __future__ import annotations

import enum
import re
from collections import deque
from typing import Callable, Iterable, Iterator

from repro.errors import ConfigError, XMLSyntaxError
from repro.xmltree.events import (Comment, EndElement, ParseEvent,
                                  ProcessingInstruction, StartElement, Text)
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLDocument

_PREDEFINED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

_NAME_START_EXTRA = "_:"
_NAME_EXTRA = "_:.-"


class RecoveryPolicy(enum.Enum):
    """How ingestion reacts to malformed XML (see module docstring)."""

    STRICT = "strict"
    SKIP_DOCUMENT = "skip_document"
    SALVAGE = "salvage"

    @classmethod
    def coerce(cls, value: "RecoveryPolicy | str") -> "RecoveryPolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            choices = ", ".join(policy.value for policy in cls)
            raise ConfigError(
                f"unknown recovery policy {value!r} (choose from {choices})")


class SalvageLog:
    """The repairs a salvage parse had to make, in input order."""

    def __init__(self) -> None:
        self.problems: list[XMLSyntaxError] = []

    def note(self, problem: XMLSyntaxError) -> None:
        self.problems.append(problem)

    def __len__(self) -> int:
        return len(self.problems)

    def __iter__(self):
        return iter(self.problems)

    def render(self) -> str:
        return "; ".join(str(problem) for problem in self.problems)


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in _NAME_START_EXTRA


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA


# The scanner's compiled patterns, each matched at the cursor.  The two
# predicates above are the definition; the patterns are held to them over
# every code point by tests/test_parser.py.  ``\w`` is ``str.isalnum``
# plus ``_``, so the name-character class is exact; ``str.isalpha`` has
# no regex spelling, so a name's first character is tested directly.
_NAME_RUN = re.compile(r"[\w:.\-]+").match
_WHITESPACE = re.compile(r"[ \t\r\n]*").match
_REFERENCE = re.compile(r"&([^;]*);")

# The strict loop's master pattern: the text run before a ``<`` and the
# end or start tag after it, in one match.  It takes only reference-free
# text and attribute-free tags with ASCII name starts; whatever it
# declines is a miss the careful scanner above reads.
_NAME = r"[A-Za-z_:][\w:.\-]*"
_MASTER = re.compile(
    rf"([^<&]*)<(?:/({_NAME})[ \t\r\n]*>|({_NAME})[ \t\r\n]*(/?)>)")


class _Scanner:
    """Character cursor with line/column tracking for error messages."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.length = len(text)

    def at_end(self) -> bool:
        return self.pos >= self.length

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index >= self.length:
            return ""
        return self.text[index]

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def take_until(self, token: str, description: str) -> str:
        """Consume text up to *token*, consume the token, return the text."""
        end = self.text.find(token, self.pos)
        if end < 0:
            raise self.error(f"unterminated {description}")
        chunk = self.text[self.pos:end]
        self.pos = end + len(token)
        return chunk

    def skip_whitespace(self) -> None:
        self.pos = _WHITESPACE(self.text, self.pos).end()

    def read_name(self, description: str) -> str:
        run = _NAME_RUN(self.text, self.pos)
        # a name start is a name character, so no run means no name
        if run is None or not ((first := self.text[self.pos]).isalpha()
                               or first in _NAME_START_EXTRA):
            raise self.error(f"expected {description}")
        self.pos = run.end()
        return run.group()

    def expect(self, token: str) -> None:
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def error(self, message: str) -> XMLSyntaxError:
        line = self.text.count("\n", 0, self.pos) + 1
        last_newline = self.text.rfind("\n", 0, self.pos)
        column = self.pos - last_newline
        return XMLSyntaxError(message, line=line, column=column,
                              offset=self.pos)


def decode_entities(raw: str, scanner: _Scanner | None = None,
                    lenient: bool = False) -> str:
    """Resolve entity and character references inside character data.

    With ``lenient=True`` (salvage mode) an unresolvable reference is kept
    as literal text instead of raising.
    """
    if "&" not in raw:
        return raw

    def resolve(reference: re.Match) -> str:
        try:
            return _resolve_entity(reference.group(1), scanner)
        except XMLSyntaxError:
            if not lenient:
                raise
            return reference.group()

    decoded = _REFERENCE.sub(resolve, raw)
    # References resolve left to right, so an ``&`` that no ``;`` follows
    # is the last thing wrong with *raw*; lenient mode keeps it as text.
    if not lenient and raw.rfind("&") > raw.rfind(";"):
        raise _entity_error("unterminated entity reference", scanner)
    return decoded


def _resolve_entity(name: str, scanner: _Scanner | None) -> str:
    if name in _PREDEFINED_ENTITIES:
        return _PREDEFINED_ENTITIES[name]
    if name.startswith("#x") or name.startswith("#X"):
        try:
            return chr(int(name[2:], 16))
        except ValueError:
            raise _entity_error(f"bad character reference &{name};", scanner)
    if name.startswith("#"):
        try:
            return chr(int(name[1:]))
        except ValueError:
            raise _entity_error(f"bad character reference &{name};", scanner)
    raise _entity_error(f"unknown entity &{name};", scanner)


def _entity_error(message: str, scanner: _Scanner | None) -> XMLSyntaxError:
    if scanner is not None:
        return scanner.error(message)
    return XMLSyntaxError(message)


# What the strict loop yields: ``(kind, value, attributes)``, *value* a tag
# or a text — or, for ``_EVENT``, an event the careful scanner (or the
# salvage parser) built.  The fast path's start tags have no attributes.
_START, _END, _TEXT, _EVENT = range(4)


def _scan(text: str) -> Iterator[tuple]:
    """The one strict scanning loop behind :func:`iter_events` and
    :func:`parse_document`.

    Each step matches :data:`_MASTER` at the cursor.  A miss — no match,
    or a match the fast branch may not take (text outside the root, a
    mismatched close, a second root) — hands the same position and the
    same open-tag stack to :func:`_scan_text` / :func:`_scan_markup`, which
    read the construct or raise exactly as they always have.
    """
    if text.startswith("﻿"):
        text = text[1:]  # strip a UTF-8 BOM
    scanner = _Scanner(text)
    open_tags: list[str] = []
    roots_seen = 0
    pos = 0
    while True:
        match = None
        # a pattern scanner starts each match where the last one ended
        for match in iter(_MASTER.scanner(text, pos).match, None):
            raw, closing, tag, empty = match.groups()
            if raw:
                if open_tags:
                    yield _TEXT, raw, None
                elif raw.strip():  # the careful path raises
                    pos = match.start()
                    break
            if closing is not None:
                if open_tags and open_tags[-1] == closing:
                    open_tags.pop()
                    yield _END, closing, None
                    continue
            elif open_tags or not roots_seen:
                if not open_tags:
                    roots_seen = 1
                yield _START, tag, None
                if empty:
                    yield _END, tag, None
                else:
                    open_tags.append(tag)
                continue
            pos = match.end(1)  # the text is read; the tag is a miss
            break
        else:  # the pattern stopped matching: the end, or a miss
            if match is not None:
                pos = match.end()
            if pos >= scanner.length:
                break
        # a miss: the careful scanner reads the construct at *pos*
        scanner.pos = pos
        if text[pos] == "<":
            at_top_level = not open_tags
            for event in _scan_markup(scanner, open_tags):
                if at_top_level and isinstance(event, StartElement):
                    roots_seen += 1
                    if roots_seen > 1:
                        raise scanner.error("multiple root elements")
                yield _EVENT, event, None
        else:
            chunk = _scan_text(scanner)
            if chunk:
                if not open_tags and chunk.strip():
                    raise _stray_data(scanner, pos, scanner.pos)
                if open_tags:
                    yield _TEXT, chunk, None
        pos = scanner.pos

    scanner.pos = pos
    if open_tags:
        raise scanner.error(f"unclosed element <{open_tags[-1]}>")
    if roots_seen == 0:
        raise scanner.error("document has no root element")


def iter_events(text: str) -> Iterator[ParseEvent]:
    """Tokenize *text* into a stream of parse events.

    The generator validates well-formedness incrementally: tags must nest
    properly, exactly one root element must exist, and nothing but
    whitespace/comments/PIs may surround it.
    """
    for kind, value, attributes in _scan(text):
        if kind == _START:
            yield StartElement(value)
        elif kind == _END:
            yield EndElement(value)
        elif kind == _TEXT:
            yield Text(value)
        else:
            yield value


def iter_events_salvage(text: str,
                        log: SalvageLog | None = None) -> Iterator[ParseEvent]:
    """Recovering variant of :func:`iter_events`.

    On malformed markup the scanner resynchronises at the next ``<``;
    stray closing tags are dropped; unbalanced open tags are closed at end
    of input; content after the first root element is skipped.  Each
    repair is recorded on *log*.  Only a document with no salvageable root
    element at all still raises :class:`XMLSyntaxError`.
    """
    if log is None:
        log = SalvageLog()
    if text.startswith("﻿"):
        text = text[1:]  # strip a UTF-8 BOM
    scanner = _Scanner(text)
    open_tags: list[str] = []
    root_done = False      # the first root element closed already
    suppressing = False    # inside a second root: consume, don't yield

    while not scanner.at_end():
        if scanner.peek() == "<":
            at_top_level = not open_tags
            position = scanner.pos
            try:
                events = _scan_markup(scanner, open_tags, recover=True)
            except XMLSyntaxError as problem:
                log.note(problem)
                _resynchronize(scanner, position)
                continue
            if text.startswith("</", position) and len(events) > 1:
                closed = ", ".join(f"<{event.tag}>" for event in events[:-1])
                log.note(_position_error(
                    scanner, position,
                    f"closing tag auto-closed unclosed children: {closed}"))
            for event in events:
                if isinstance(event, StartElement) and at_top_level:
                    at_top_level = False
                    if root_done:
                        suppressing = True
                        log.note(_position_error(
                            scanner, position,
                            f"extra root element <{event.tag}> skipped"))
                if not suppressing:
                    yield event
            if not open_tags and any(isinstance(event, EndElement)
                                     for event in events):
                if not suppressing:
                    root_done = True
                suppressing = False
            continue
        try:
            chunk = _scan_text(scanner, lenient=True)
        except XMLSyntaxError as problem:  # pragma: no cover - lenient
            log.note(problem)
            _resynchronize(scanner, scanner.pos)
            continue
        if chunk and open_tags and not suppressing:
            yield Text(chunk)

    if open_tags:
        log.note(scanner.error(
            f"unclosed element <{open_tags[-1]}> auto-closed at end of "
            f"input"))
        while open_tags:
            tag = open_tags.pop()
            if not suppressing:
                yield EndElement(tag)
        if not suppressing:
            root_done = True
    if not root_done:
        raise scanner.error("document has no salvageable root element")


def _resynchronize(scanner: _Scanner, markup_start: int) -> None:
    """Skip past a malformed construct to the next plausible markup."""
    scanner.pos = max(scanner.pos, markup_start + 1)
    next_markup = scanner.text.find("<", scanner.pos)
    scanner.pos = scanner.length if next_markup < 0 else next_markup


def _position_error(scanner: _Scanner, position: int,
                    message: str) -> XMLSyntaxError:
    """An :class:`XMLSyntaxError` pinned to *position* (not scanner.pos)."""
    saved = scanner.pos
    scanner.pos = position
    try:
        return scanner.error(message)
    finally:
        scanner.pos = saved


def _stray_data(scanner: _Scanner, start: int, end: int) -> XMLSyntaxError:
    """Character data ``text[start:end]`` outside the root element,
    reported at its first non-blank raw character."""
    raw = scanner.text[start:end]
    return _position_error(scanner, end - len(raw.lstrip()),
                           "character data outside the root element")


def _scan_text(scanner: _Scanner, lenient: bool = False) -> str:
    start = scanner.pos
    end = scanner.text.find("<", start)
    if end < 0:
        end = scanner.length
    raw = scanner.text[start:end]
    scanner.pos = end
    return decode_entities(raw, scanner, lenient=lenient)


def _scan_markup(scanner: _Scanner, open_tags: list[str],
                 recover: bool = False) -> list[ParseEvent]:
    """Dispatch on the markup starting at ``<``.

    Returns the events it produced — usually one, two for a self-closing
    element, zero for markup with no event (XML declaration, DOCTYPE).
    With ``recover=True`` stray closing tags yield no event and entity
    errors in attribute values are tolerated; structural errors still
    raise and are handled by the salvage driver.
    """
    text, pos = scanner.text, scanner.pos
    second = text[pos + 1:pos + 2]  # every kind of markup differs here
    if second == "/":
        if recover:
            return _scan_end_tag_salvage(scanner, open_tags)
        return [_scan_end_tag(scanner, open_tags)]
    if second == "?":
        scanner.pos = pos + 2
        body = scanner.take_until("?>", "processing instruction")
        target, _, data = body.partition(" ")
        if target.lower() == "xml":
            return []  # the XML declaration carries no content
        return [ProcessingInstruction(target, data.strip())]
    if second == "!":
        if text.startswith("--", pos + 2):
            scanner.pos = pos + 4
            return [Comment(scanner.take_until("-->", "comment"))]
        if text.startswith("[CDATA[", pos + 2):
            scanner.pos = pos + 9
            content = scanner.take_until("]]>", "CDATA section")
            if open_tags:
                return [Text(content)]
            if content.strip() and not recover:
                raise _stray_data(scanner, pos + 9, pos + 9 + len(content))
            return []
        if text.startswith(("DOCTYPE", "doctype"), pos + 2):
            _skip_doctype(scanner)
            return []
    return _scan_start_tag(scanner, open_tags, recover=recover)


def _skip_doctype(scanner: _Scanner) -> None:
    """Skip a DOCTYPE declaration, tolerating an internal subset."""
    depth = 0
    scanner.pos += 1  # consume '<'
    while not scanner.at_end():
        ch = scanner.peek()
        scanner.pos += 1
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == ">" and depth <= 0:
            return
    raise scanner.error("unterminated DOCTYPE declaration")


def _scan_end_tag(scanner: _Scanner, open_tags: list[str]) -> EndElement:
    scanner.pos += 2
    tag = scanner.read_name("element name in closing tag")
    scanner.skip_whitespace()
    scanner.expect(">")
    if not open_tags:
        raise scanner.error(f"closing tag </{tag}> without opening tag")
    expected = open_tags.pop()
    if expected != tag:
        raise scanner.error(
            f"mismatched closing tag </{tag}>, expected </{expected}>")
    return EndElement(tag)


def _scan_end_tag_salvage(scanner: _Scanner,
                          open_tags: list[str]) -> list[ParseEvent]:
    """Recovering end-tag scan: close through to the matching open tag.

    A closing tag whose name is on the open stack (not necessarily on
    top) closes every deeper element on the way — the common
    "forgot-to-close-a-child" corruption.  A closing tag matching nothing
    is dropped.
    """
    scanner.pos += 2
    tag = scanner.read_name("element name in closing tag")
    scanner.skip_whitespace()
    scanner.expect(">")
    if tag not in open_tags:
        raise scanner.error(f"stray closing tag </{tag}> dropped")
    events: list[ParseEvent] = []
    while open_tags:
        top = open_tags.pop()
        events.append(EndElement(top))
        if top == tag:
            break
    return events


def _scan_start_tag(scanner: _Scanner, open_tags: list[str],
                    recover: bool = False) -> list[ParseEvent]:
    scanner.pos += 1
    tag = scanner.read_name("element name")
    attributes = _scan_attributes(scanner, lenient=recover)
    if scanner.startswith("/>"):
        scanner.pos += 2
        return [StartElement(tag, attributes), EndElement(tag)]
    scanner.expect(">")
    open_tags.append(tag)
    return [StartElement(tag, attributes)]


def _scan_attributes(scanner: _Scanner,
                     lenient: bool = False) -> dict[str, str]:
    """The attributes of a start tag; the cursor is left on its ``>``
    or ``/`` (or at end of input), past any whitespace."""
    attributes: dict[str, str] = {}
    while True:
        scanner.skip_whitespace()
        if scanner.peek() in ("", ">", "/"):
            return attributes
        name = scanner.read_name("attribute name")
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error("attribute value must be quoted")
        scanner.pos += 1
        value = scanner.take_until(quote, "attribute value")
        if name in attributes:
            raise scanner.error(f"duplicate attribute {name!r}")
        attributes[name] = decode_entities(value, scanner, lenient=lenient)


class TreeBuilder:
    """Assemble an :class:`XMLDocument` (named *name*) from the element
    stream's ``start``/``end`` calls (see :func:`_stream`)."""

    def __init__(self, name: str | None = None) -> None:
        self.name = name
        self._root: XMLNode | None = None
        self._stack: list[XMLNode] = []

    def start(self, dewey: Dewey, tag: str) -> None:
        node = XMLNode(tag, dewey)
        stack = self._stack
        if stack:
            parent = stack[-1]
            node.parent = parent
            parent.children.append(node)
        else:
            self._root = node
        stack.append(node)

    def end(self, dewey: Dewey, tag: str, text: str | None) -> None:
        node = self._stack.pop()
        if text is not None:
            node.text = text

    def attributes(self, attributes: dict[str, str]) -> None:
        """Keep the open element's XML attributes raw (attributes not
        read as children)."""
        self._stack[-1].xml_attributes = dict(attributes)

    def document(self) -> XMLDocument:
        """Return the finished document (after the whole stream)."""
        if self._root is None or self._stack:
            raise XMLSyntaxError("document incomplete: unbalanced events")
        return XMLDocument(self._root, name=self.name)


def _stream(tokens: Iterable[tuple], start: Callable, end: Callable,
            doc_id: int, attributes_as_children: bool,
            keep_attributes: Callable | None = None) -> None:
    """The element cursor: turn scanner tokens into ``start(dewey, tag)``
    / ``end(dewey, tag, text)`` calls, the one element stream every tree
    and every index is built from.

    It allocates the Dewey ids and joins each element's *direct text* —
    every character-data and CDATA piece directly inside it, in document
    order, stripped (``None`` when empty): the one definition indexing,
    snippets and exports share.  Under *attributes_as_children* each
    attribute ``k="v"`` is a child ``<k>`` with the text ``v`` as
    written; otherwise they go to *keep_attributes*.  Comments and PIs
    are dropped.
    """
    deweys: list[Dewey] = []   # the open elements' Dewey ids
    ordinals: list[int] = []   # per open element: its children so far
    # per open element: None, its first non-blank text piece, or a list
    # of its pieces (a blank first piece would be stripped anyway)
    texts: list = []
    for kind, value, attributes in tokens:
        if kind == _EVENT:  # the careful scanner's event, or salvage's
            if isinstance(value, StartElement):
                kind, value, attributes = _START, value.tag, value.attributes
            elif isinstance(value, EndElement):
                kind, value = _END, value.tag
            elif isinstance(value, Text) and deweys:
                kind, value = _TEXT, value.content
            else:
                continue
        if kind == _START:
            if deweys:
                ordinal = ordinals[-1]
                ordinals[-1] = ordinal + 1
                dewey = deweys[-1] + (ordinal,)
            else:
                dewey = (doc_id,)
            start(dewey, value)
            deweys.append(dewey)
            ordinals.append(0)
            texts.append(None)
            if not attributes:
                continue
            if attributes_as_children:
                for ordinal, (key, text) in enumerate(attributes.items()):
                    child = dewey + (ordinal,)
                    start(child, key)
                    end(child, key, text)
                ordinals[-1] = len(attributes)
            elif keep_attributes is not None:
                keep_attributes(attributes)
        elif kind == _END:
            ordinals.pop()
            pieces = texts.pop()
            if pieces is not None:
                if pieces.__class__ is str:
                    pieces = pieces.strip() or None
                else:
                    pieces = "".join(pieces).strip() or None
            end(deweys.pop(), value, pieces)
        else:
            pieces = texts[-1]
            if pieces is None:
                if not value.isspace():
                    texts[-1] = value
            elif pieces.__class__ is str:
                texts[-1] = [pieces, value]
            else:
                pieces.append(value)


def stream_document(text: str, start: Callable | None = None,
                    end: Callable | None = None, *, doc_id: int = 0,
                    attributes_as_children: bool = True) -> None:
    """Run the strict loop over *text*, feeding its element stream (see
    :func:`_stream`) to *start* / *end*; with neither, only check it.

    Raises the :class:`XMLSyntaxError` :func:`parse_document` would,
    after the calls for what preceded the error.  A bare check costs
    30-50 % of a parse.
    """
    if start is None:
        deque(_scan(text), maxlen=0)
    else:
        _stream(_scan(text), start, end, doc_id, attributes_as_children)


def parse_document(text: str, doc_id: int = 0,
                   attributes_as_children: bool = True,
                   name: str | None = None,
                   policy: RecoveryPolicy | str = RecoveryPolicy.STRICT,
                   salvage_log: SalvageLog | None = None) -> XMLDocument:
    """Parse an XML string into an :class:`XMLDocument` with Dewey ids.

    ``policy=RecoveryPolicy.SALVAGE`` parses through malformed markup
    (repairs are recorded on *salvage_log* when given); ``STRICT`` and
    ``SKIP_DOCUMENT`` raise :class:`XMLSyntaxError` on the first error —
    the skip decision belongs to the repository, not the parser.
    """
    if RecoveryPolicy.coerce(policy) is RecoveryPolicy.SALVAGE:
        tokens = ((_EVENT, event, None)
                  for event in iter_events_salvage(text, log=salvage_log))
    else:
        tokens = _scan(text)
    builder = TreeBuilder(name)
    _stream(tokens, builder.start, builder.end, doc_id,
            attributes_as_children, builder.attributes)
    return builder.document()

