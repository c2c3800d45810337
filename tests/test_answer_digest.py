"""Exact answers do not move: per-case digests of full and top-10
answers against a recorded golden (``tests/golden/answers.json``).

Each case is one registry dataset, one query and one ``s`` (1, 2 and
``|Q|``), answered by a monolithic index and a two-shard index, each as
built and after a ``varint-dag`` save/load round trip.  A node's digest
line carries its Dewey id, its score as ``float.hex`` (so a reordered
float sum shows, which six-place rounding would hide), its distinct and
matched keywords, its LCE flag and its keyword estimate.  Regenerate the
golden only for an intended change of answers::

    PYTHONPATH=src python tests/test_answer_digest.py > tests/golden/answers.json
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.core.query import Query
from repro.core.search import search
from repro.datasets.registry import dataset_names, load_dataset
from repro.index.builder import build_index
from repro.index.sharding import build_sharded_index
from repro.index.storage import load_index, save_index

GOLDEN = Path(__file__).parent / "golden" / "answers.json"

#: document-frequency ranks the two queries of a dataset take terms from
QUERY_RANKS = ((0, 5), (1, 3, 8, 20))


def queries(index) -> list[tuple[str, ...]]:
    """Two queries per dataset, their terms at fixed frequency ranks."""
    inverted = index.inverted
    ranked = sorted(inverted.vocabulary,
                    key=lambda keyword: (-inverted.document_frequency(
                        keyword), keyword))
    return [tuple(ranked[rank] for rank in ranks if rank < len(ranked))
            for ranks in QUERY_RANKS]


def digest(nodes) -> str:
    lines = "\n".join(
        f"{'.'.join(map(str, node.dewey))} {node.score.hex()} "
        f"{node.distinct_keywords} {','.join(node.matched_keywords)} "
        f"{int(node.is_lce)} {node.estimated_keywords}" for node in nodes)
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def dataset_digests(name: str, directory: Path) -> dict[str, str]:
    """Every case of one dataset: ``{case id: digest}``."""
    repository = load_dataset(name)
    built = {"mono": build_index(repository),
             "shards2": build_sharded_index(repository, shards=2)}
    indexes = dict(built)
    for label, index in built.items():
        path = directory / f"{name}-{label}.gksindex"
        save_index(index, path, codec="varint-dag")
        indexes[f"{label}-dag"] = load_index(path)
    digests: dict[str, str] = {}
    for number, keywords in enumerate(queries(built["mono"])):
        for s in sorted({1, 2, len(keywords)}):
            query = Query.of(list(keywords), s=s)
            for label, index in indexes.items():
                nodes = search(index, query).nodes
                case = f"{name}/q{number}/s{s}/{label}"
                digests[f"{case}/full"] = digest(nodes)
                digests[f"{case}/top10"] = digest(nodes[:10])
    return digests


def transcript() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        result: dict[str, str] = {}
        for name in dataset_names():
            result.update(dataset_digests(name, Path(tmp)))
        return result


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", dataset_names())
def test_answers_match_golden(name, golden, tmp_path):
    recorded = {case: value for case, value in golden.items()
                if case.split("/", 1)[0] == name}
    assert recorded, f"no golden cases for {name}"
    assert dataset_digests(name, tmp_path) == recorded


def test_every_layout_agrees(golden):
    """Sharding and the round trip change no answer: every case's four
    layouts share one digest."""
    by_case: dict[str, set[str]] = {}
    for case, value in golden.items():
        name, query, s, _layout, cut = case.split("/")
        by_case.setdefault(f"{name}/{query}/{s}/{cut}", set()).add(value)
    assert by_case and all(len(values) == 1 for values in by_case.values())


if __name__ == "__main__":
    json.dump(transcript(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
