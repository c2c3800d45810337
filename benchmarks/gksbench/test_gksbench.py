"""Self-test of gksbench (smoke scale; ~30 s).

    python3 -m pytest benchmarks/gksbench/test_gksbench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_pass(workload: str, trace: int, *extra: str):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", "0", "--trace", str(trace),
               "--smoke", *extra],
        stdout=subprocess.PIPE, text=True, timeout=120)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_catalogue():
    contract = json.loads((common.REPO / "BENCHMARK.json").read_text())
    assert sorted(contract) == ["command", "end_to_end", "paths",
                                "per_layer", "run_seconds", "workloads"]
    assert [w["name"] for w in contract["workloads"]] == \
        list(common.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in contract["end_to_end"]] == list(common.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in contract["per_layer"]] == list(common.PER_LAYER)
    assert contract["paths"] == ["benchmarks/gksbench"]
    assert any(m["name"] == "setup_s" for m in contract["end_to_end"])
    names = ([w["name"] for w in contract["workloads"]]
             + [m["name"] for m in contract["end_to_end"]]
             + [m["name"] for m in contract["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert not list(HERE.glob("bench_*.py"))


def test_one_command_prints_every_metric_for_every_workload():
    done = subprocess.run(RUN + ["--smoke"], stdout=subprocess.PIPE,
                          text=True, timeout=180)
    assert done.returncode == 0, done.stdout[-2000:]
    for workload in common.WORKLOADS:
        for name, unit, *_ in common.END_TO_END + common.PER_LAYER:
            assert re.search(
                rf"^{workload}\s+{re.escape(name)}\s+[-0-9.]+ "
                rf"{re.escape(unit)}.* smoke$", done.stdout, re.M), \
                (workload, name)
    assert "failed_share 0.000000" in done.stdout


def test_counts_repeat_and_results_have_the_contract_shape():
    for workload in common.WORKLOADS:
        code, plain = run_pass(workload, 0)
        assert code == 0 and plain["correct"] and plain["failed"] == 0
        assert sorted(plain) == ["attempted", "correct", "failed", "metrics"]
        assert set(plain["metrics"]) == {m[0] for m in common.END_TO_END}
        assert all(m["value"] > 0 for m in plain["metrics"].values())
        first, second = (run_pass(workload, 1)[1]["metrics"]
                         for _ in range(2))
        assert set(first) == {m[0] for m in common.PER_LAYER}
        for name, unit, _better in common.PER_LAYER:
            if unit in common.COUNT_UNITS:
                assert first[name] == second[name], (workload, name)


def test_a_corrupted_golden_file_fails_the_run(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(common.GOLDEN_DIR, golden)
    path = golden / "query_inproc-seed0-smoke.json"
    digests = json.loads(path.read_text())
    key = sorted(digests)[0]
    digests[key] = digests[key][:-1] + ("0" if digests[key][-1] != "0"
                                        else "1")
    path.write_text(json.dumps(digests))
    code, result = run_pass("query_inproc", 0, "--golden-dir", str(golden))
    assert code != 0
    assert not result["correct"] and result["failed"] == 1
