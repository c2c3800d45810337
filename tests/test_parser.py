"""Unit tests for the from-scratch streaming XML parser."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.registry import load_dataset
from repro.errors import XMLSyntaxError
from repro.xmltree import parser
from repro.xmltree.events import (Comment, EndElement,
                                  ProcessingInstruction, StartElement, Text)
from repro.xmltree.parser import (decode_entities, iter_events,
                                  parse_document)
from repro.xmltree.serialize import serialize_document, serialize_node
from tests import reference_scanner
from tests.reference_scanner import assert_same_scan


class TestTokenizer:
    def test_simple_element_stream(self):
        events = list(iter_events("<a><b>x</b></a>"))
        assert events == [StartElement("a"), StartElement("b"), Text("x"),
                          EndElement("b"), EndElement("a")]

    def test_self_closing_emits_start_and_end(self):
        events = list(iter_events("<a><b/></a>"))
        assert events[1:3] == [StartElement("b"), EndElement("b")]

    def test_attributes_parsed_and_decoded(self):
        events = list(iter_events('<a k="v &amp; w" j=\'2\'/>'))
        assert events[0].attributes == {"k": "v & w", "j": "2"}

    def test_comment_and_pi(self):
        events = list(iter_events("<a><!--note--><?proc data?></a>"))
        assert Comment("note") in events
        assert ProcessingInstruction("proc", "data") in events

    def test_xml_declaration_and_doctype_skipped(self):
        text = ('<?xml version="1.0"?>\n'
                "<!DOCTYPE a [<!ELEMENT a ANY>]>\n<a/>")
        events = list(iter_events(text))
        assert events == [StartElement("a"), EndElement("a")]

    def test_cdata_becomes_text(self):
        events = list(iter_events("<a><![CDATA[x < y & z]]></a>"))
        assert Text("x < y & z") in events

    def test_character_references(self):
        assert decode_entities("&#65;&#x42;&lt;") == "AB<"

    def test_unknown_entity_fails(self):
        with pytest.raises(XMLSyntaxError):
            list(iter_events("<a>&nope;</a>"))

    @pytest.mark.parametrize("text, offset", [
        ("abc<r/>", 0), ("<r/>abc", 4), ("<r/>\n  abc", 7),
        ("<![CDATA[x]]><r/>", 9), ('{"a": 1}', 0)])
    def test_stray_character_data_is_reported_where_it_starts(self, text,
                                                               offset):
        with pytest.raises(XMLSyntaxError,
                           match="outside the root") as caught:
            list(iter_events(text))
        assert caught.value.offset == offset
        assert_same_scan(text)


#: the pieces malformed and well-formed markup is made of; characters
#: where ``\\w``, ``isalnum`` and ``isalpha`` part ways ride along
FRAGMENTS = [
    "<", ">", "/", "</", "/>", "<a", "<a>", "</a>", "<b>", "</b>", "<b/>",
    "<ns:c", "<_d.e-f>", "</_d.e-f>", "<1x>", "<²>", "<é>", "</é>", "<一/>",
    "<½>", "<x²>", "</x²>", " ", "\n", "\t", "\r", "=", '"', "'", ' k="v"',
    " k='v'", " k=v", ' k = "v"', ' k="1" k="2"', ' k="&lt;&nope;"',
    "text", "&", ";", "&amp;", "&lt;", "&#65;", "&#x41;", "&#xZZ;", "&#;",
    "&nope;", "&;", "<!--", "-->", "<!-- c -->", "<![CDATA[", "]]>",
    "<![CDATA[x<y]]>", "<?", "?>", "<?pi d?>", "<?xml version='1.0'?>",
    "<!DOCTYPE a>", "<!doctype a [<!ELEMENT a ANY>]>", "<!DOCTYPE", "[",
    "]", "<!", "<!x", "\ufeff",
]
soup = st.lists(st.sampled_from(FRAGMENTS) | st.text(max_size=3),
                max_size=14).map("".join)


class TestCompiledPatterns:
    """The scanner's patterns against the predicate loops they replaced
    (kept in ``tests/reference_scanner.py``)."""

    def test_name_classes_are_the_predicates_on_every_code_point(self):
        points = [chr(point) for point in range(sys.maxunicode + 1)]
        name_chars = {char for char in points if parser._is_name_char(char)}
        runs = parser._NAME_RUN.__self__.findall(" ".join(points))
        assert set("".join(runs)) == name_chars
        # a name may start with exactly the name-start characters (all of
        # which are name characters, so these are the only candidates)
        starts = set()
        for char in name_chars:
            try:
                parser._Scanner(char).read_name("name")
                starts.add(char)
            except XMLSyntaxError:
                pass
        assert starts == {char for char in points
                          if parser._is_name_start(char)}

    def test_whitespace_class(self):
        text = "".join(chr(point) for point in range(sys.maxunicode + 1))
        pattern = parser._WHITESPACE.__self__
        assert sorted(set("".join(pattern.findall(text)))) == \
            ["\t", "\n", "\r", " "]

    @given(soup)
    @settings(max_examples=600, deadline=None)
    def test_markup_soup_scans_as_before(self, text):
        assert_same_scan(text)
        assert_same_scan("<r>" + text + "</r>")

    @given(st.lists(st.sampled_from(
        ["&", ";", "#", "x", "X", "amp", "lt", "41", "zz", " ", "a", "<",
         "&amp;", "&#65;", "&#x41;", "&nope;", "&#xZZ;", "&;"]),
        max_size=10).map("".join), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_decode_entities_as_before(self, raw, lenient):
        def outcome(decode):
            try:
                return decode(raw, None, lenient=lenient)
            except XMLSyntaxError as error:
                return ("error", error.message)

        assert outcome(decode_entities) == \
            outcome(reference_scanner.decode_entities)


class TestWellFormedness:
    @pytest.mark.parametrize("bad", [
        "<a><b></a></b>",          # mismatched nesting
        "<a>",                     # unclosed
        "</a>",                    # close without open
        "<a/><b/>",                # two roots
        "text<a/>",                # text before root
        "",                        # empty
        "<a b=c/>",                # unquoted attribute
        '<a b="1" b="2"/>',        # duplicate attribute
        "<a><!-- unterminated",    # unterminated comment
    ])
    def test_malformed_inputs_raise(self, bad):
        with pytest.raises(XMLSyntaxError):
            list(iter_events(bad))

    def test_error_carries_position(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            list(iter_events("<a>\n</b>"))
        assert excinfo.value.line == 2


class TestTreeBuilding:
    def test_dewey_assignment_matches_positions(self):
        doc = parse_document("<r><a/><b><c/></b></r>")
        tags = {node.dewey: node.tag for node in doc.root.iter_subtree()}
        assert tags == {(0,): "r", (0, 0): "a", (0, 1): "b",
                        (0, 1, 0): "c"}

    def test_doc_id_prefixes_every_dewey(self):
        doc = parse_document("<r><a/></r>", doc_id=7)
        assert all(node.dewey[0] == 7 for node in doc.root.iter_subtree())

    def test_attributes_as_children_by_default(self):
        doc = parse_document('<r id="42"><a/></r>')
        first = doc.root.children[0]
        assert first.tag == "id" and first.text == "42"
        assert doc.root.children[1].tag == "a"

    def test_attributes_kept_raw_when_disabled(self):
        doc = parse_document('<r id="42"/>', attributes_as_children=False)
        assert doc.root.xml_attributes == {"id": "42"}
        assert not doc.root.children

    def test_text_whitespace_is_stripped(self):
        doc = parse_document("<r>\n   hello   \n</r>")
        assert doc.root.text == "hello"

    def test_mixed_content_concatenates(self):
        doc = parse_document("<r>one<a/>two</r>")
        assert doc.root.text == "onetwo"

    def test_deep_nesting(self):
        depth = 60
        text = "".join(f"<n{i}>" for i in range(depth))
        text += "x"
        text += "".join(f"</n{i}>" for i in reversed(range(depth)))
        doc = parse_document(text)
        assert doc.depth == depth - 1


#: one input per kind of miss, and the careful function that reads it
MISSES = {
    "XML declaration": ('<?xml version="1.0"?><a/>', "_scan_markup"),
    "processing instruction": ("<a><?pi data?></a>", "_scan_markup"),
    "comment": ("<a>x<!-- c -->y</a>", "_scan_markup"),
    "CDATA": ("<a><![CDATA[x<y]]></a>", "_scan_markup"),
    "DOCTYPE": ("<!DOCTYPE a [<!ELEMENT a ANY>]><a/>", "_scan_markup"),
    "attributes": ("<a x=\"1\" y='2'><b z=\"&amp;\"/></a>", "_scan_markup"),
    "unspaced attributes": ('<a x="1"y="2"/>', "_scan_markup"),
    "non-ASCII name start": ("<a><é>x</é></a>", "_scan_markup"),
    "non-ASCII attribute name start": ('<a é="1"/>', "_scan_markup"),
    "mismatched close": ("<a><b></a>", "_scan_markup"),
    "second root": ("<a/><b/>", "_scan_markup"),
    "spaced self-close": ("<a / >", "_scan_markup"),
    "duplicate attribute": ('<a x="1" x="2"/>', "_scan_markup"),
    "bad reference in an attribute": ('<a x="&nope;"/>', "_scan_markup"),
    "text before the root": ("x<a/>", "_scan_text"),
    "text after the root": ("<a/>x", "_scan_text"),
    "blank text after the root": ("<a/>\n", "_scan_text"),
    "bad reference outside the root": ("&nope;<a/>", "_scan_text"),
    "blank reference outside the root": ("&#32;<a/>", "_scan_text"),
    "reference in text": ("<a>x &lt; y<b/>&#x41;</a>", "_scan_text"),
    "bad reference in text": ("<a>&nope;</a>", "_scan_text"),
}


class TestMasterPattern:
    """The strict loop matches one master pattern per token: whatever it
    declines the careful scanner reads, to the reference's tree or
    error, and the generated corpora never need it."""

    @pytest.mark.parametrize("text, careful", list(MISSES.values()),
                             ids=list(MISSES))
    def test_each_miss_is_read_by_the_careful_scanner(
            self, monkeypatch, text, careful):
        offsets = []
        read = getattr(parser, careful)

        def spy(scanner, *args, **kwargs):
            offsets.append(scanner.pos)
            return read(scanner, *args, **kwargs)

        monkeypatch.setattr(parser, careful, spy)
        try:
            parse_document(text)
        except XMLSyntaxError:
            pass
        monkeypatch.undo()
        assert offsets
        assert_same_scan(text)

    @pytest.mark.parametrize("name", ["protein", "mirrors"])
    def test_generated_corpora_never_miss(self, monkeypatch, name):
        def refuse(scanner, *args, **kwargs):
            raise AssertionError(f"a miss at offset {scanner.pos}")

        documents = list(load_dataset(name))
        monkeypatch.setattr(parser, "_scan_markup", refuse)
        monkeypatch.setattr(parser, "_scan_text", refuse)
        for document in documents:
            text = serialize_document(document, declaration=False)
            parsed = parse_document(text, doc_id=document.doc_id)
            assert serialize_node(parsed.root) == \
                serialize_node(document.root)
            assert [node.dewey for node in parsed] == \
                [node.dewey for node in document]
