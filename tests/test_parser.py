"""Unit tests for the from-scratch streaming XML parser."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLSyntaxError
from repro.xmltree import parser
from repro.xmltree.events import (Comment, EndElement,
                                  ProcessingInstruction, StartElement, Text)
from repro.xmltree.parser import (decode_entities, iter_events,
                                  parse_document)
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
