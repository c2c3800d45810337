"""Parser conformance battery: a condensed well-formedness test suite.

Inspired by the W3C xmlconf style: many small documents, each probing
one rule.  The paper's system must ingest the real UW repository files,
which carry DOCTYPEs, entities, namespaces-as-colons, CDATA and odd
whitespace — all covered here.
"""

import pytest

from repro.errors import XMLSyntaxError
from repro.testing.faults import XMLCorruptor
from repro.xmltree.parser import iter_events, parse_document
from tests.reference_scanner import assert_same_scan

WELL_FORMED = [
    "<a/>",
    "<a></a>",
    "<a>text</a>",
    "<a><b/><c/></a>",
    '<a x="1"/>',
    "<a x='1'/>",
    '<a x="1" y="2"/>',
    "<a\n  x=\"1\"\n/>",
    "<a>&lt;&gt;&amp;&quot;&apos;</a>",
    "<a>&#65;&#x41;</a>",
    "<a><!-- comment --></a>",
    "<a><!-- - -- is fine inside? no: but single dashes are --></a>",
    "<a><?pi data?></a>",
    "<?xml version=\"1.0\"?><a/>",
    "<?xml version=\"1.0\" encoding=\"UTF-8\" standalone=\"yes\"?><a/>",
    "<!DOCTYPE a><a/>",
    "<!DOCTYPE a SYSTEM \"a.dtd\"><a/>",
    "<!DOCTYPE a [<!ELEMENT a ANY><!ATTLIST a x CDATA #IMPLIED>]><a/>",
    "<a><![CDATA[]]></a>",
    "<a><![CDATA[<>&\"']]></a>",
    "<ns:a><ns:b/></ns:a>",                 # colonized names
    "<a_b-c.d/>",                           # name punctuation
    "<_underscore/>",
    "<a>tab\there</a>",
    "<a>\r\nwindows line endings\r\n</a>",
    "﻿<a/>",                           # BOM
    "<a>  <b/>  </a>",                      # ignorable whitespace
    "<a>mixed <b>content</b> here</a>",
    "<a>" + "x" * 100000 + "</a>",          # large text block
    "<a>ünïcödé ✓</a>",
]

MALFORMED = [
    "<a>",
    "</a>",
    "<a></b>",
    "<a><b></a></b>",
    "<a/><b/>",
    "text only",
    "<a>&unknown;</a>",
    "<a>&#xZZ;</a>",
    "<a>&#;</a>",
    "<a x=1/>",
    "<a x=\"1/>",
    "<a x=\"1\" x=\"2\"/>",
    "<a><![CDATA[unterminated</a>",
    "<a><!-- unterminated</a>",
    "<a><?pi unterminated</a>",
    "<1badname/>",
    "<>empty</>",
    "<!DOCTYPE unterminated <a/>",
    "",
    "   \n  ",
    "x<a/>",
    "<a/>trailing",
]


@pytest.mark.parametrize("text", WELL_FORMED)
def test_well_formed_accepted(text):
    document = parse_document(text)
    assert document.root is not None


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_rejected(text):
    with pytest.raises(XMLSyntaxError):
        parse_document(text)


@pytest.mark.parametrize("text", WELL_FORMED + MALFORMED)
def test_scanned_as_the_predicate_loop_scanner_did(text):
    assert_same_scan(text)


@pytest.mark.parametrize("family", [
    "_drop_closing_tag", "_break_tag_name", "_truncate_tail",
    "_stray_open", "_unbalance_quote"])
def test_corrupted_documents_scanned_as_before(family):
    """Every ``XMLCorruptor`` mutation family, over the whole battery:
    same events, same salvage repairs, same error at the same place."""
    corruptor = XMLCorruptor(seed=20)
    mutate = getattr(corruptor, family)
    for text in WELL_FORMED:
        if len(text) > 1000:
            continue  # the large-text document: one mutation site in 1e5
        for _ in range(6):
            assert_same_scan(mutate(text))
    for text in WELL_FORMED[:12]:
        assert_same_scan(corruptor.corrupt(text))


class TestDetails:
    def test_bom_is_stripped(self):
        document = parse_document("﻿<a>x</a>")
        assert document.root.tag == "a"

    def test_colonized_tags_survive(self):
        document = parse_document("<ns:a><ns:b>x</ns:b></ns:a>")
        assert document.root.tag == "ns:a"
        assert document.root.children[0].tag == "ns:b"

    def test_crlf_text_normalised_by_strip(self):
        document = parse_document("<a>\r\nhello\r\n</a>")
        assert document.root.text == "hello"

    def test_large_document_many_siblings(self):
        text = "<r>" + "<c>v</c>" * 5000 + "</r>"
        document = parse_document(text)
        assert len(document.root.children) == 5000

    def test_numeric_references_combine_with_text(self):
        document = parse_document("<a>A&#66;C</a>")
        assert document.root.text == "ABC"

    def test_attribute_entities_decoded(self):
        document = parse_document(
            '<a t="x &amp; y &#33;"/>')
        assert document.root.children[0].text == "x & y !"

    def test_pi_events_exposed(self):
        from repro.xmltree.events import ProcessingInstruction

        events = list(iter_events("<a><?target one two?></a>"))
        assert ProcessingInstruction("target", "one two") in events

    def test_doctype_internal_subset_skipped_entirely(self):
        text = ("<!DOCTYPE a [\n"
                "  <!ELEMENT a (b)*>\n"
                "  <!ENTITY custom \"value\">\n"
                "]>\n<a><b/></a>")
        document = parse_document(text)
        assert document.root.children[0].tag == "b"
