"""Probabilistic answers do not move: digests of every small query over
the p-document corpus against a recorded golden
(``tests/golden/prob_answers.json``).

The corpus is :data:`tests.test_pdoc_golden.PDOC_CORPUS` (an IND, a MUX
and a nested IND distributional node), served by a monolithic and a
two-shard engine.  Every query of one to three distinct keywords over
the index vocabulary runs at every ``s`` and at thresholds 0 and 0.5.
A node's digest line carries its Dewey id, its probability as
``float.hex`` (so a reordered product or sum shows), and its distinct
and matched keywords, in response order; one case digests the lines of
every query of one size, ``s`` and threshold.  Regenerate the golden
only for an intended change of answers::

    PYTHONPATH=src python -m tests.test_prob_digest > tests/golden/prob_answers.json
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.core.config import EngineConfig, Texts
from repro.core.engine import GKSEngine
from repro.core.query import Query
from tests.test_pdoc_golden import PDOC_CORPUS

GOLDEN = Path(__file__).parent / "golden" / "prob_answers.json"

THRESHOLDS = (0.0, 0.5)
SHARDS = (1, 2)


def case_digests(shards: int) -> dict[str, str]:
    """``{case id: digest}`` for every query size, ``s`` and threshold."""
    vocabulary = sorted(GKSEngine.open(Texts(PDOC_CORPUS)).index.inverted
                        .vocabulary)
    engine = GKSEngine.open(Texts(PDOC_CORPUS), config=EngineConfig(
        mode="probabilistic", shards=shards))
    lines: dict[str, list[str]] = {}
    for size in (1, 2, 3):
        for keywords in itertools.combinations(vocabulary, size):
            for s, threshold in itertools.product(range(1, size + 1),
                                                  THRESHOLDS):
                response = engine.search(Query.of(list(keywords), s=s),
                                         threshold=threshold)
                case = f"shards{shards}/q{size}/s{s}/t{threshold}"
                lines.setdefault(case, []).append(" ".join(keywords))
                lines[case] += (
                    f"{'.'.join(map(str, node.dewey))} "
                    f"{node.probability.hex()} {node.distinct_keywords} "
                    f"{','.join(node.matched_keywords)}"
                    for node in response.nodes)
    return {case: hashlib.sha256("\n".join(text).encode()).hexdigest()
            for case, text in lines.items()}


def transcript() -> dict[str, str]:
    result: dict[str, str] = {}
    for shards in SHARDS:
        result.update(case_digests(shards))
    return result


@pytest.mark.parametrize("shards", SHARDS)
def test_prob_answers_match_golden(shards):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    recorded = {case: value for case, value in golden.items()
                if case.startswith(f"shards{shards}/")}
    assert recorded, f"no golden cases for {shards} shard(s)"
    assert case_digests(shards) == recorded


if __name__ == "__main__":
    json.dump(transcript(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
