"""Index files that still carry p-document tables load, check and answer.

Before probability tables left the index, a probabilistic engine wrote
them into its files: a ``probabilities`` key in the raw payloads and in
each binary shard section.  ``tests/golden/pdoc-*.gksindex`` are such
files, written from :data:`PDOC_CORPUS` by a probabilistic engine
(``EngineConfig(mode="probabilistic", shards=…, codec=…)``) with that
older writer — today's writer stores no tables, so they cannot be
regenerated.  The stale key sits under the
file's CRC and is not read: every file must load, pass ``check-index``
(plain and ``--deep``), and serve an engine of either mode whose
probabilistic answers are the possible-worlds ones.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.baselines import possible_worlds_probabilities
from repro.cli import main
from repro.core.config import EngineConfig
from repro.core.engine import GKSEngine
from repro.core.query import Query
from repro.index.storage import check_index, describe_layout, load_index
from repro.xmltree.repository import Repository

GOLDEN = Path(__file__).parent / "golden"

#: One IND, one MUX and one nested IND distributional node.
PDOC_CORPUS = [
    '<catalog><shop p:type="IND">'
    '<item p:p="0.5"><name>apple</name><price>cheap</price></item>'
    '<item p:p="0.8"><name>banana</name></item>'
    '<item><name>apple banana</name></item></shop></catalog>',
    '<catalog><shop p:type="MUX">'
    '<item p:p="0.6">apple cherry</item><item p:p="0.9">banana</item>'
    '<item>cherry</item></shop><note>apple</note></catalog>',
    '<catalog><shop><stall p:type="IND">'
    '<item p:p="0.3">cherry apple</item><item>banana</item>'
    '</stall></shop></catalog>',
]

#: file name → (codec, shards): a raw v2 monolithic file, a raw v3
#: sharded file and a varint-dag v5 sharded file.
GOLDEN_FILES = {
    "pdoc-raw-v2.gksindex": ("raw", 1),
    "pdoc-raw-v3-2shards.gksindex": ("raw", 2),
    "pdoc-dag-v5-2shards.gksindex": ("varint-dag", 2),
}

QUERIES = [Query.of(["apple"]), Query.of(["banana"]),
           Query.of(["apple", "banana"], s=2),
           Query.of(["apple", "cherry"], s=2),
           Query.of(["apple", "cherry"], s=1)]

TOLERANCE = 1e-9

CASES = sorted(GOLDEN_FILES)


@pytest.mark.parametrize("name", CASES)
def test_golden_file_loads_and_checks(name, capsys):
    path = GOLDEN / name
    codec, shards = GOLDEN_FILES[name]
    layout = describe_layout(path)
    assert (layout["codec"], layout["shards"]) == (codec, shards)
    assert "mode" not in layout
    assert len(load_index(path).document_names) == len(PDOC_CORPUS)
    assert check_index(path)["ok"]
    assert main(["check-index", str(path)]) == 0
    assert main(["check-index", str(path), "--deep"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["strict", "probabilistic"])
@pytest.mark.parametrize("name", CASES)
def test_engine_over_golden_file_answers_possible_worlds(name, mode):
    engine = GKSEngine(Repository.from_texts(PDOC_CORPUS),
                       index=load_index(GOLDEN / name),
                       config=EngineConfig(mode=mode))
    assert engine.config.shards == GOLDEN_FILES[name][1]
    for query in QUERIES:
        oracle = possible_worlds_probabilities(engine.repository, query)
        response = engine.search(query, mode="probabilistic")
        produced = {node.dewey: node.probability for node in response.nodes}
        for dewey, probability in produced.items():
            assert probability == pytest.approx(oracle.get(dewey, 0.0),
                                                abs=TOLERANCE), query
        assert {dewey for dewey, p in oracle.items() if p > TOLERANCE} \
            <= set(produced), query
