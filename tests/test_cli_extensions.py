"""Tests for the extended CLI subcommands (topk/schema/xpath/JSON)."""

import pytest

from repro.cli import main


@pytest.fixture
def xml_corpus(tmp_path):
    path = tmp_path / "library.xml"
    path.write_text(
        "<lib>"
        "<book><title>Alpha</title><year>1999</year>"
        "<author>Ann</author><author>Bob</author></book>"
        "<book><title>Beta</title><year>2005</year>"
        "<author>Ann</author><author>Cyd</author></book>"
        "</lib>")
    return path


@pytest.fixture
def json_corpus(tmp_path):
    path = tmp_path / "courses.json"
    path.write_text(
        '{"catalog": ['
        '{"name": "Data Mining", "students": ["Karen", "Mike"]},'
        '{"name": "AI", "students": ["Karen", "Zoe"]}]}')
    return path


class TestTopK:
    def test_topk_prints_k_results(self, xml_corpus, capsys):
        assert main(["topk", str(xml_corpus), "-q", "ann", "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("score=") == 1

    def test_topk_header(self, xml_corpus, capsys):
        main(["topk", str(xml_corpus), "-q", "ann", "-k", "2"])
        assert "top 2" in capsys.readouterr().out


class TestSchema:
    def test_schema_lists_types(self, xml_corpus, capsys):
        assert main(["schema", str(xml_corpus)]) == 0
        out = capsys.readouterr().out
        assert "lib/book -> (author+" in out
        assert "#PCDATA" in out


class TestXPath:
    def test_xpath_selects_and_counts(self, xml_corpus, capsys):
        assert main(["xpath", str(xml_corpus), "-p",
                     "book[author='Bob']/title"]) == 0
        out = capsys.readouterr().out
        assert "<title>Alpha</title>" in out
        assert "-- 1 node(s)" in out


class TestJSONIngestion:
    def test_search_over_json_file(self, json_corpus, capsys):
        assert main(["search", str(json_corpus), "-q", "karen mike",
                     "-s", "2"]) == 0
        out = capsys.readouterr().out
        assert "1 node(s)" in out

    def test_explain_flag(self, json_corpus, capsys):
        main(["search", str(json_corpus), "-q", "karen", "--explain"])
        assert "rank =" in capsys.readouterr().out

    def test_mixed_xml_and_json(self, xml_corpus, json_corpus, capsys):
        main(["search", str(xml_corpus), str(json_corpus), "-q", "karen"])
        out = capsys.readouterr().out
        assert "node(s) for" in out

    def test_di_over_json(self, json_corpus, capsys):
        main(["di", str(json_corpus), "-q", "karen mike", "-s", "2"])
        assert "Data Mining" in capsys.readouterr().out
