"""The wire does not move: what four kinds of answer print, against a
recorded golden (``tests/golden/wire.json``).

For a strict monolithic, a strict two-shard, a budget-degraded and a
probabilistic answer this pins ``response_to_dict`` (the
``/search`` body), ``QueryStats.to_dict()``/``render()`` and the header
line of ``gks search``, with every timing zeroed.  Regenerate the golden
only for an intended wire change::

    PYTHONPATH=src python tests/test_wire_golden.py > tests/golden/wire.json
"""

from __future__ import annotations

import io
import json
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from repro.cli import main
from repro.core import budget as budget_module
from repro.core.budget import SearchBudget
from repro.core.config import EngineConfig, Texts
from repro.core.engine import GKSEngine
from repro.core.export import response_to_dict
from repro.testing import FakeClock

GOLDEN = Path(__file__).parent / "golden" / "wire.json"

DOCUMENTS = [
    '<root><grp p:type="IND"><item p:p="0.5">apple banana</item>'
    '<item p:p="0.75">apple cherry</item></grp>'
    "<entry>banana durian</entry></root>",
    "<root><rec><leaf>apple</leaf><leaf>banana fig</leaf></rec>"
    "<rec><leaf>cherry</leaf></rec></root>",
    "<root><entry><item>apple</item><item>banana</item></entry>"
    "<entry><item>fig durian</item></entry></root>",
]

#: case -> (engine config, query, s, budget factory, ``gks search`` flags);
#: the CLI's degraded run is a zero deadline on a fake clock
CASES = {
    "strict": ({}, "apple banana", 2, None, []),
    "sharded": ({"shards": 2}, "apple banana", 2, None, ["--shards", "2"]),
    "degraded": ({}, "apple banana", 1, lambda: SearchBudget(max_sl=3),
                 ["--deadline-ms", "0"]),
    "probabilistic": ({"mode": "probabilistic", "threshold": 0.1},
                      "apple banana", 2, None,
                      ["--mode", "probabilistic", "--threshold", "0.1"]),
}


def _zero_stages(payload: dict, total: str) -> dict:
    payload[total] = 0.0
    payload["stages"] = dict.fromkeys(payload["stages"], 0.0)
    return payload


def _header(files: list[str], query: str, s: int, flags: list[str]) -> str:
    """The first line ``gks search`` prints, its milliseconds zeroed."""
    out = io.StringIO()
    clock = budget_module.DEFAULT_CLOCK
    budget_module.DEFAULT_CLOCK = FakeClock(auto_advance=1.0)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            main(["search", *files, "-q", query, "-s", str(s), *flags])
    finally:
        budget_module.DEFAULT_CLOCK = clock
    return re.sub(r"[\d.]+ ms", "0.0 ms", out.getvalue().splitlines()[0])


def transcript(directory: Path) -> dict:
    """Every case's wire output, timings zeroed."""
    files = []
    for number, text in enumerate(DOCUMENTS):
        path = directory / f"doc{number}.xml"
        path.write_text(text, encoding="utf-8")
        files.append(str(path))
    cases = {}
    for name, (config, query, s, budget, flags) in CASES.items():
        engine = GKSEngine.open(Texts(DOCUMENTS), EngineConfig(**config))
        response = engine.search(
            query, s=s, budget=budget() if budget is not None else None)
        payload = response_to_dict(response, engine.repository)
        _zero_stages(payload["profile"], "seconds")
        cases[name] = {
            "response": payload,
            "stats": _zero_stages(response.stats.to_dict(), "total_seconds"),
            "render": re.sub(r"=[\d.]+ms", "=0ms", response.stats.render()),
            "header": _header(files, query, s, flags),
        }
    return cases


def _dumps(cases: dict) -> str:
    return json.dumps(cases, indent=1, sort_keys=True) + "\n"


def test_wire_matches_golden(tmp_path):
    assert _dumps(transcript(tmp_path)) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        sys.stdout.write(_dumps(transcript(Path(scratch))))
