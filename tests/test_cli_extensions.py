"""Tests for the extended CLI subcommands (top-k as search -k/schema)."""

import pytest

from repro.cli import main
from repro.core.config import Paths
from repro.core.engine import GKSEngine


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


class TestTopK:
    """Top-k from the command line is ``gks search -k``: the head of the
    full ranking, the nodes ``search_top_k`` returns."""

    def test_topk_prints_k_results(self, xml_corpus, capsys):
        assert main(["search", str(xml_corpus), "-q", "ann", "-k", "1"]) \
            == 0
        printed = [line.strip() for line
                   in capsys.readouterr().out.splitlines()[1:]]
        engine = GKSEngine.open(Paths([xml_corpus]))
        assert printed == [engine.describe(node)
                           for node in engine.search_top_k("ann", k=1)]
        assert len(printed) == 1

    def test_topk_header(self, xml_corpus, capsys):
        # the header counts the full answer; -k only cuts the listing
        main(["search", str(xml_corpus), "-q", "ann", "-k", "1"])
        header, *listed = capsys.readouterr().out.splitlines()
        full = GKSEngine.open(Paths([xml_corpus])).search("ann")
        assert header.startswith(f"{len(full)} node(s) for ")
        assert len(listed) == 1 < len(full)


class TestSchema:
    def test_schema_lists_types(self, xml_corpus, capsys):
        assert main(["schema", str(xml_corpus)]) == 0
        out = capsys.readouterr().out
        assert "lib/book -> (author+" in out
        assert "#PCDATA" in out


class TestExplain:
    def test_explain_flag(self, xml_corpus, capsys):
        main(["search", str(xml_corpus), "-q", "ann", "--explain"])
        assert "rank =" in capsys.readouterr().out
