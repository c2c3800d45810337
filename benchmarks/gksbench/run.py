"""gksbench: the repo's benchmark, one command.

    python3 benchmarks/gksbench/run.py --seed 0

runs the four workloads (end-to-end pass, then traced pass), checks
every answer and prints every metric by name with its unit and sample
count.  With ``--workload`` it runs one pass of one workload and ends
with one JSON line, which is how ``BENCHMARK.json``'s driver calls it.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import common  # noqa: E402  (needs the path set above)
import inputs  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(common.WORKLOADS),
                        help="run one pass of one workload and end with a "
                             "JSON line (default: all four, both passes)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="run length the repetition counts are sized "
                             f"for (default "
                             f"{common.REFERENCE_SECONDS}; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced pass (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scales, same code paths")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run everything twice and compare")
    parser.add_argument("--record-golden", action="store_true",
                        help="write this run's digests as the golden file")
    parser.add_argument("--golden-dir", type=Path, default=common.GOLDEN_DIR)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1 if args.smoke else common.REFERENCE_SECONDS
    return args


# ----------------------------------------------------------------------
# one pass of one workload (what the driver calls)
# ----------------------------------------------------------------------
def run_pass(args: argparse.Namespace) -> int:
    scale = inputs.SMOKE if args.smoke else inputs.FULL
    checker = common.Checker(args.workload, args.seed, scale.label,
                             golden_dir=args.golden_dir,
                             record=args.record_golden)
    module = importlib.import_module(args.workload)
    started = time.perf_counter()
    try:
        result = (module.trace if args.trace else module.run)(
            args.seed, scale, args.seconds, checker)
    except Exception as exc:  # the run must still report a failed result
        traceback.print_exc()
        checker.fail(f"{type(exc).__name__}: {exc}")
        result = {"metrics": {}, "samples": {}, "corpus": {}}
    catalogue = common.PER_LAYER if args.trace else common.END_TO_END
    units = {entry[0]: entry[1] for entry in catalogue}
    samples = result.get("samples", {})
    mark = " smoke" if args.smoke else ""
    for name, value in result["metrics"].items():
        count = f"  n={samples[name]}" if name in samples else ""
        print(f"{args.workload:13s} {name:44s} {value:16.4f} "
              f"{units[name]}{count}{mark}")
    for message in checker.messages:
        print(f"FAILED: {message}")
    if args.record_golden and not args.trace:
        print(f"golden digests written to {checker.write_golden()}")
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scale": scale.label, "seconds": args.seconds,
        "wall_s": time.perf_counter() - started,
        "samples": samples, "corpus": result.get("corpus", {}),
        "golden": checker.golden is not None,
        "messages": checker.messages,
    }
    common.OUT_DIR.mkdir(exist_ok=True)
    (common.OUT_DIR / f"result-{args.workload}-{args.trace}.json"
     ).write_text(json.dumps(detail), encoding="utf-8")
    complete = set(units) == set(result["metrics"])
    print(json.dumps({
        "correct": checker.failed == 0 and complete,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0 if checker.failed == 0 and complete else 1


# ----------------------------------------------------------------------
# the whole benchmark: each pass in its own process, so that peak RSS
# and every cache start fresh
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> dict:
    """``{(workload, trace): (summary line, detail)}`` for all passes."""
    results = {}
    for workload in common.WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--golden-dir", str(args.golden_dir)]
            if args.smoke:
                command.append("--smoke")
            if args.record_golden:
                command.append("--record-golden")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line)
            summary = json.loads(lines[-1])
            detail = json.loads(
                (common.OUT_DIR / f"result-{workload}-{trace}.json"
                 ).read_text(encoding="utf-8"))
            results[workload, trace] = (summary, detail)
    return results


def header(args: argparse.Namespace) -> None:
    print(f"gksbench  seed={args.seed}  seconds={args.seconds:g}  "
          f"scale={'smoke' if args.smoke else 'full'}  "
          f"nproc={os.cpu_count()}  python={platform.python_version()}  "
          "load: 1 client, closed loop, fixed sequences; times in "
          "reference seconds")


def report(results: dict) -> int:
    failed = attempted = 0
    print()
    print(f"{'workload':13s} {'pass':6s} {'attempted':>9s} {'failed':>6s} "
          f"{'failed_share':>12s} {'wall_s':>7s}  corpus")
    for (workload, trace), (summary, detail) in results.items():
        failed += summary["failed"]
        attempted += summary["attempted"]
        corpus = ", ".join(f"{k}={v}" for k, v in detail["corpus"].items())
        print(f"{workload:13s} {'traced' if trace else 'plain':6s} "
              f"{summary['attempted']:9d} {summary['failed']:6d} "
              f"{summary['failed'] / summary['attempted']:12.4f} "
              f"{detail['wall_s']:7.1f}  {corpus}")
    for workload in common.WORKLOADS:
        layers = results[workload, 1][0]["metrics"]
        coverage = layers.get("trace.coverage", {}).get("value", 0.0)
        if coverage < 0.9:
            print(f"gap to close: trace.coverage on {workload} is "
                  f"{coverage:.3f} (< 0.9)")
    print(f"failed_share {failed / max(1, attempted):.6f} "
          f"({failed} of {attempted})")
    return 1 if failed or not all(s["correct"] for s, _ in results.values()) \
        else 0


def check_repeat(args: argparse.Namespace) -> int:
    """Two complete runs of the same code, compared metric by metric
    against each metric's own bound; exact counts must be identical."""
    first, second = run_all(args), run_all(args)
    status = max(report(first), report(second))
    print()
    print("## Repeatability: two complete runs of the same code")
    print()
    header(args)
    print()
    print("| workload | metric | unit | run 1 | run 2 | worse by | bound "
          "| verdict |")
    print("|---|---|---|---:|---:|---:|---:|---|")
    for workload in common.WORKLOADS:
        one = first[workload, 0][0]["metrics"]
        two = second[workload, 0][0]["metrics"]
        for name, unit, better, bound in common.END_TO_END:
            a, b = one[name]["value"], two[name]["value"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            verdict = "PASS" if abs(worse) <= bound else "FAIL"
            status |= verdict == "FAIL"
            print(f"| {workload} | {name} | {unit} | {a:.4f} | {b:.4f} "
                  f"| {worse:+.1%} | {bound:.0%} | {verdict} |")
    print()
    print("Exact counts of the traced pass (must be identical):")
    print()
    different = 0
    for workload in common.WORKLOADS:
        one = first[workload, 1][0]["metrics"]
        two = second[workload, 1][0]["metrics"]
        for name, unit, _better in common.PER_LAYER:
            if unit in common.COUNT_UNITS and \
                    one[name]["value"] != two[name]["value"]:
                different += 1
                print(f"- FAIL {workload} {name}: {one[name]['value']} "
                      f"then {two[name]['value']}")
    counts = sum(unit in common.COUNT_UNITS
                 for _n, unit, _b in common.PER_LAYER)
    print(f"- {counts * len(common.WORKLOADS) - different} of "
          f"{counts * len(common.WORKLOADS)} count metrics identical")
    return 1 if status or different else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload:
        return run_pass(args)
    header(args)
    if args.check_repeat:
        return check_repeat(args)
    return report(run_all(args))


if __name__ == "__main__":
    try:
        import repro  # noqa: F401  (the program under test)
    except ImportError as exc:
        print(f"gksbench: cannot import the program under test: {exc}",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
