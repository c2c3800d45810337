"""The predicate-loop scanner the compiled patterns replaced — a reference.

This is the event layer of ``repro.xmltree.parser`` as it stood before
the scanner moved to compiled patterns: ``read_name`` and
``skip_whitespace`` walk characters through the ``_is_name_start`` /
``_is_name_char`` predicates, ``decode_entities`` walks the text, and
``_scan_markup`` tries six ``startswith`` tests in order.  It is kept
only so ``tests/test_parser*.py`` can hold the fast scanner to it —
event for event, repair for repair, error position for error position,
and, fed to the element cursor (``_stream``) and a ``TreeBuilder``,
tree for tree.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import XMLSyntaxError
from repro.xmltree.events import (Comment, EndElement, ParseEvent,
                                  ProcessingInstruction, StartElement, Text)
from repro.xmltree.parser import (_EVENT, _PREDEFINED_ENTITIES, SalvageLog,
                                  TreeBuilder, _is_name_char, _is_name_start,
                                  _stream)


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

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def take_until(self, token: str, description: str) -> str:
        """Consume text up to *token*, consume the token, return the text."""
        end = self.text.find(token, self.pos)
        if end < 0:
            raise self.error(f"unterminated {description}")
        chunk = self.text[self.pos:end]
        self.pos = end + len(token)
        return chunk

    def skip_whitespace(self) -> None:
        while self.pos < self.length and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def read_name(self, description: str) -> str:
        start = self.pos
        if self.at_end() or not _is_name_start(self.text[self.pos]):
            raise self.error(f"expected {description}")
        self.pos += 1
        while self.pos < self.length and _is_name_char(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos]

    def expect(self, token: str) -> None:
        if not self.startswith(token):
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
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = raw.find(";", i + 1)
        if end < 0:
            if lenient:
                out.append(raw[i:])
                break
            raise _entity_error("unterminated entity reference", scanner)
        name = raw[i + 1:end]
        try:
            out.append(_resolve_entity(name, scanner))
        except XMLSyntaxError:
            if not lenient:
                raise
            out.append(raw[i:end + 1])
        i = end + 1
    return "".join(out)


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


def iter_events(text: str) -> Iterator[ParseEvent]:
    """Tokenize *text* into a stream of parse events.

    The generator validates well-formedness incrementally: tags must nest
    properly, exactly one root element must exist, and nothing but
    whitespace/comments/PIs may surround it.
    """
    if text.startswith("﻿"):
        text = text[1:]  # strip a UTF-8 BOM
    scanner = _Scanner(text)
    open_tags: list[str] = []
    roots_seen = 0

    while not scanner.at_end():
        if scanner.peek() == "<":
            at_top_level = not open_tags
            for event in _scan_markup(scanner, open_tags):
                if isinstance(event, StartElement) and at_top_level:
                    roots_seen += 1
                    if roots_seen > 1:
                        raise scanner.error("multiple root elements")
                yield event
            continue
        start = scanner.pos
        chunk = _scan_text(scanner)
        if chunk:
            if not open_tags and chunk.strip():
                raise _stray_data(scanner, start, scanner.pos)
            if open_tags:
                yield Text(chunk)

    if open_tags:
        raise scanner.error(f"unclosed element <{open_tags[-1]}>")
    if roots_seen == 0:
        raise scanner.error("document has no root element")


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
    """Character data ``text[start:end]`` outside the root element, at
    its first non-blank raw character."""
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
    if scanner.startswith("<!--"):
        scanner.advance(4)
        return [Comment(scanner.take_until("-->", "comment"))]
    if scanner.startswith("<![CDATA["):
        scanner.advance(9)
        start = scanner.pos
        content = scanner.take_until("]]>", "CDATA section")
        if open_tags:
            return [Text(content)]
        if content.strip() and not recover:
            raise _stray_data(scanner, start, start + len(content))
        return []
    if scanner.startswith("<?"):
        scanner.advance(2)
        body = scanner.take_until("?>", "processing instruction")
        target, _, data = body.partition(" ")
        if target.lower() == "xml":
            return []  # the XML declaration carries no content
        return [ProcessingInstruction(target, data.strip())]
    if scanner.startswith("<!DOCTYPE") or scanner.startswith("<!doctype"):
        _skip_doctype(scanner)
        return []
    if scanner.startswith("</"):
        if recover:
            return _scan_end_tag_salvage(scanner, open_tags)
        return [_scan_end_tag(scanner, open_tags)]
    return _scan_start_tag(scanner, open_tags, recover=recover)


def _skip_doctype(scanner: _Scanner) -> None:
    """Skip a DOCTYPE declaration, tolerating an internal subset."""
    depth = 0
    scanner.advance(1)  # consume '<'
    while not scanner.at_end():
        ch = scanner.peek()
        scanner.advance()
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == ">" and depth <= 0:
            return
    raise scanner.error("unterminated DOCTYPE declaration")


def _scan_end_tag(scanner: _Scanner, open_tags: list[str]) -> EndElement:
    scanner.advance(2)
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
    scanner.advance(2)
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
    scanner.advance(1)
    tag = scanner.read_name("element name")
    attributes = _scan_attributes(scanner, lenient=recover)
    scanner.skip_whitespace()
    if scanner.startswith("/>"):
        scanner.advance(2)
        return [StartElement(tag, attributes), EndElement(tag)]
    scanner.expect(">")
    open_tags.append(tag)
    return [StartElement(tag, attributes)]


def _scan_attributes(scanner: _Scanner,
                     lenient: bool = False) -> dict[str, str]:
    attributes: dict[str, str] = {}
    while True:
        scanner.skip_whitespace()
        ch = scanner.peek()
        if ch in (">", "/") or scanner.at_end():
            return attributes
        name = scanner.read_name("attribute name")
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error("attribute value must be quoted")
        scanner.advance(1)
        value = scanner.take_until(quote, "attribute value")
        if name in attributes:
            raise scanner.error(f"duplicate attribute {name!r}")
        attributes[name] = decode_entities(value, scanner, lenient=lenient)


# ----------------------------------------------------------------------
# Comparing a scanner with this reference
# ----------------------------------------------------------------------
def _problem(error: XMLSyntaxError) -> tuple:
    return error.message, error.line, error.column, error.offset


def strict_outcome(events_of, text: str) -> tuple:
    """``(events before the error, error-or-None)`` of a strict scan."""
    events = []
    try:
        for event in events_of(text):
            events.append(event)
    except XMLSyntaxError as error:
        return events, _problem(error)
    return events, None


def salvage_outcome(salvage_events_of, text: str) -> tuple:
    """``(events, repairs logged, error-or-None)`` of a salvaging scan."""
    log = SalvageLog()
    events, error = strict_outcome(
        lambda source: salvage_events_of(source, log=log), text)
    return events, [_problem(problem) for problem in log], error


def _nodes(document) -> list[tuple]:
    """Each node in document order: tag, Dewey id, direct text, XML
    attributes, its parent's Dewey id, and its children's Dewey ids in
    order, each with whether the child's parent link points back."""
    return [(node.tag, node.dewey, node.text, node.xml_attributes,
             None if node.parent is None else node.parent.dewey,
             [(child.dewey, child.parent is node)
              for child in node.children])
            for node in document.root.iter_subtree()]


def tree_outcome(parse, text: str) -> tuple:
    """``(the parsed tree's nodes, error-or-None)``."""
    try:
        return _nodes(parse(text)), None
    except XMLSyntaxError as error:
        return None, _problem(error)


def reference_document(text: str, attributes_as_children: bool = True):
    """The tree the parser's element cursor builds from this reference's
    events."""
    builder = TreeBuilder()
    _stream(((_EVENT, event, None) for event in iter_events(text)),
            builder.start, builder.end, 0, attributes_as_children,
            builder.attributes)
    return builder.document()


def assert_same_scan(text: str) -> None:
    """The production scanner reads *text* exactly as this reference does,
    strict and salvaging, and ``parse_document`` builds the tree a
    cursor fed this reference's events builds — attributes
    as children and kept raw."""
    from repro.xmltree import parser

    assert strict_outcome(parser.iter_events, text) == \
        strict_outcome(iter_events, text)
    assert salvage_outcome(parser.iter_events_salvage, text) == \
        salvage_outcome(iter_events_salvage, text)
    for as_children in (True, False):
        assert tree_outcome(
            lambda source: parser.parse_document(
                source, attributes_as_children=as_children), text) == \
            tree_outcome(
                lambda source: reference_document(source, as_children), text)
