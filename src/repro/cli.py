"""Command-line interface: ``gks`` (or ``python -m repro``).

Subcommands mirror the system's three engines (Fig. 3):

* ``gks index FILE...  -o INDEX``     build and persist an index
* ``gks search FILE... -q QUERY -s N``  run a query, print ranked results
* ``gks di FILE... -q QUERY``          print the DI for a query
* ``gks categorize FILE...``           print the Table 5 category counts
* ``gks schema FILE...``               print the inferred schema
* ``gks dataset NAME -o DIR``          emit a synthetic corpus as XML
* ``gks stats FILE... [-q QUERY]``     observability report (metrics,
  per-query stats, slow queries; ``--prom``/``--json`` exposition)
* ``gks check-index INDEX [--deep] [--against FILE...]``  health of an
  index file or store directory: exit 1 when the bytes are not what
  was written; ``--deep`` audits the tables' content invariants and
  ``--against`` also diffs a file against a rebuild of its sources
  (exit 2 on a violation)
* ``gks lint [PATH...]``               static-analysis rules over the
  source trees (exit 1 on findings; ``--list-rules`` for the catalog,
  ``--locks`` for the lock inventory, ``--json`` for machine output)
* ``gks race FILE...``                 scripted concurrent workloads
  under the runtime concurrency sanitizer: instrumented locks record
  the lock-order graph (potential deadlocks reported with both witness
  stacks) while a schedule-perturbing harness shakes out atomicity
  violations (exit 1 on findings)
* ``gks serve FILE... --port N``       JSON-over-HTTP query serving
  (``/search``, ``/healthz``, ``/metrics``) with bounded admission and
  request coalescing; SIGTERM drains gracefully

Every ``FILE`` argument is parsed as XML.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from repro.core.config import MODES, EngineConfig, Paths, SearchOptions
from repro.core.engine import GKSEngine
from repro.datasets.registry import dataset_names, load_dataset
from repro.errors import ConfigError, GKSError
from repro.eval.reporting import render_table
from repro.index.codec import CODEC_NAMES
from repro.index.sharding import PARTITION_STRATEGIES
from repro.index.storage import save_index
from repro.xmltree.parser import RecoveryPolicy
from repro.xmltree.repository import Repository
from repro.xmltree.serialize import serialize_document

#: The flags that set an :class:`EngineConfig` field, declared once:
#: flag -> (field, choices, help).  ``default=`` and ``type=`` come from
#: the dataclass field; a subcommand lists the flags it offers and
#: :func:`_engine` builds the config from whichever of them it finds.
_CONFIG_FLAGS = {
    "--shards": ("shards", None,
                 "document shards; >1 builds a sharded index served "
                 "scatter-gather"),
    "--strategy": ("shard_strategy", PARTITION_STRATEGIES,
                   "document-to-shard partitioning"),
    "--store": ("store_path", None,
                "segmented store directory; enables the durable write "
                "path (POST /documents is WAL'd and crash-safe, "
                "/admin/flush and /admin/compact manage segments)"),
    "--memtable-docs": ("memtable_docs", None,
                        "pending documents that trigger an automatic "
                        "flush"),
    "--compact-segments": ("compact_segments", None,
                           "runs in a shard's newest size tier that "
                           "trigger an automatic compaction of that tier "
                           "(runs no heavier than the newer ones it "
                           "holds; /admin/compact still merges all)"),
    "--mode": ("mode", MODES,
               "default query semantics: exact matching (strict), "
               "p-document probability scoring (probabilistic; tables "
               "compiled from the corpus on first use); a served "
               "request's ?mode= still wins"),
    "--threshold": ("threshold", None,
                    "probabilistic mode: drop results with probability "
                    "below this"),
    "--codec": ("codec", CODEC_NAMES,
                "on-disk representation: raw (gzip JSON envelope) or "
                "varint-dag (binary codec: delta+varint blocks, "
                "DAG-shared subtrees, lazy loading)"),
    "--recover": ("recovery", [policy.value for policy in RecoveryPolicy],
                  "malformed-input handling: abort (strict), quarantine "
                  "bad documents (skip_document), or repair markup in "
                  "stream (salvage)"),
}
_CONFIG_DEFAULTS = {field.name: field.default
                    for field in fields(EngineConfig)}


def _add_config_flags(command: argparse.ArgumentParser,
                      *flags: str) -> None:
    for flag in flags:
        field, choices, text = _CONFIG_FLAGS[flag]
        default = _CONFIG_DEFAULTS[field]
        shown = getattr(default, "value", default)
        command.add_argument(
            flag, dest=field, default=default, choices=choices,
            type=type(default) if type(default) in (int, float) else str,
            help=text if default is None else f"{text} (default {shown})")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gks",
        description="Generic Keyword Search over XML data (EDBT 2016 "
                    "reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    index_cmd = commands.add_parser("index", help="build a persistent index")
    index_cmd.add_argument("files", nargs="+", help="XML files to index")
    index_cmd.add_argument("-o", "--output", required=True,
                           help="index output path")
    _add_config_flags(index_cmd, "--codec", "--recover", "--shards",
                      "--strategy")

    search_cmd = commands.add_parser("search", help="run a keyword query")
    search_cmd.add_argument("files", nargs="+", help="XML files to search")
    search_cmd.add_argument("-q", "--query", required=True,
                            help='query text; quote phrases: \'"P Q" r\'')
    search_cmd.add_argument("-s", type=int, default=1,
                            help="minimum distinct query keywords "
                                 "(default 1)")
    search_cmd.add_argument("-k", "--top", type=int, default=10,
                            help="results to print (default 10)")
    search_cmd.add_argument("--snippets", action="store_true",
                            help="print the XML chunk of each result")
    search_cmd.add_argument("--explain", action="store_true",
                            help="print the potential-flow account of "
                                 "each result's rank")
    search_cmd.add_argument("--trace", action="store_true",
                            help="print the query's nested span tree "
                                 "(merge/lcp/lce/rank timings)")
    search_cmd.add_argument("--metrics-json", metavar="PATH",
                            help="write the metrics registry snapshot "
                                 "as JSON to PATH")
    search_cmd.add_argument("--deadline-ms", type=float, default=None,
                            help="per-query deadline in milliseconds; an "
                                 "exhausted deadline degrades the "
                                 "response rather than failing it")
    _add_config_flags(search_cmd, "--mode", "--threshold", "--shards",
                      "--strategy")

    serve_cmd = commands.add_parser(
        "serve", help="serve queries over JSON/HTTP "
                      "(/search, /healthz, /metrics)")
    serve_cmd.add_argument("files", nargs="+", help="XML files to serve")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8080,
                           help="listen port (0 picks an ephemeral one; "
                                "default 8080)")
    serve_cmd.add_argument("--serve-workers", type=int, default=4,
                           help="search worker threads (default 4)")
    serve_cmd.add_argument("--queue-capacity", type=int, default=64,
                           help="bounded admission queue size; arrivals "
                                "beyond it are shed with HTTP 429 "
                                "(default 64)")
    serve_cmd.add_argument("--deadline-ms", type=float, default=None,
                           help="default per-request deadline in "
                                "milliseconds (none by default)")
    serve_cmd.add_argument("--no-coalesce", action="store_true",
                           help="disable singleflight coalescing of "
                                "identical in-flight requests")
    serve_cmd.add_argument("--inject-delay-ms", type=float, default=0.0,
                           help="testing hook: delay every engine "
                                "search by this many milliseconds "
                                "(makes coalescing observable)")
    _add_config_flags(serve_cmd, "--mode", "--threshold", "--store",
                      "--memtable-docs", "--compact-segments", "--shards",
                      "--strategy")

    di_cmd = commands.add_parser("di", help="deeper analytical insights")
    di_cmd.add_argument("files", nargs="+")
    di_cmd.add_argument("-q", "--query", required=True)
    di_cmd.add_argument("-s", type=int, default=1)
    di_cmd.add_argument("-m", "--top", type=int, default=10,
                        help="insights to print (default 10)")

    cat_cmd = commands.add_parser("categorize",
                                  help="node-category statistics (Table 5)")
    cat_cmd.add_argument("files", nargs="+")

    schema_cmd = commands.add_parser("schema",
                                     help="print the inferred schema")
    schema_cmd.add_argument("files", nargs="+")

    check_cmd = commands.add_parser(
        "check-index",
        help="health of an index file or store: structural by default, "
             "content with --deep / --against")
    check_cmd.add_argument("index",
                           help="index file — or segmented store "
                                "directory — to check")
    check_cmd.add_argument("--deep", action="store_true",
                           help="additionally audit deep data-level "
                                "invariants on the raw stored form; a "
                                "violated invariant exits 2 (structural "
                                "or checksum failures still exit 1)")
    check_cmd.add_argument("--against", nargs="+", metavar="FILE",
                           help="the deep audit plus a rebuild of these "
                                "source documents diffed against an "
                                "index file (source-agreement; slow, "
                                "authoritative)")
    check_cmd.add_argument("--json", action="store_true",
                           help="emit the health summary as one stable "
                                "machine-readable JSON object instead "
                                "of text (same exit codes)")

    lint_cmd = commands.add_parser(
        "lint", help="run the static-analysis rules over source trees")
    lint_cmd.add_argument("paths", nargs="*",
                          default=["src", "tests", "benchmarks"],
                          help="files or directories to lint (default: "
                               "src tests benchmarks)")
    lint_cmd.add_argument("--list-rules", action="store_true",
                          help="print the rule catalog and exit")
    lint_cmd.add_argument("--json", action="store_true",
                          help="emit findings (or the lock inventory "
                               "with --locks) as one stable "
                               "machine-readable JSON object instead of "
                               "text (same exit codes)")
    lint_cmd.add_argument("--locks", action="store_true",
                          help="report the lock inventory instead of "
                               "findings: every Lock/RLock construction "
                               "site, its declared `# guards:` fields "
                               "and how many `with` blocks take it")

    race_cmd = commands.add_parser(
        "race", help="drive scripted concurrent workloads under the "
                     "runtime concurrency sanitizer (instrumented "
                     "locks + schedule perturbation)")
    race_cmd.add_argument("files", nargs="+", help="XML files to load")
    race_cmd.add_argument("--scenario", default="all",
                          choices=["all", "cache", "swap", "durable"],
                          help="workload: engine LRU probe/store under "
                               "contention, hot engine swap under "
                               "traffic, or concurrent durable "
                               "add/flush/search (default: all)")
    race_cmd.add_argument("--threads", type=int, default=4,
                          help="concurrent drivers per round (default 4)")
    race_cmd.add_argument("--rounds", type=int, default=3,
                          help="independent perturbed rounds (default 3)")
    race_cmd.add_argument("--iterations", type=int, default=25,
                          help="operations per thread per round "
                               "(default 25)")
    race_cmd.add_argument("--seed", type=int, default=0,
                          help="base seed for per-thread operation "
                               "choice (default 0)")
    race_cmd.add_argument("--json", action="store_true",
                          help="emit the sanitizer report as one stable "
                               "JSON object (same exit codes)")

    stats_cmd = commands.add_parser(
        "stats", help="observability report over a corpus")
    stats_cmd.add_argument("files", nargs="+", help="XML files to load")
    stats_cmd.add_argument("-q", "--query", action="append", default=[],
                           help="query to run before reporting "
                                "(repeatable)")
    stats_cmd.add_argument("-s", type=int, default=1)
    stats_cmd.add_argument("--prom", action="store_true",
                           help="print Prometheus text exposition")
    stats_cmd.add_argument("--json", action="store_true",
                           help="print the metrics snapshot as JSON")
    stats_cmd.add_argument("--slow-ms", type=float, default=500.0,
                           help="slow-query threshold in milliseconds "
                                "(default 500)")
    _add_config_flags(stats_cmd, "--shards", "--strategy")

    data_cmd = commands.add_parser("dataset",
                                   help="emit a synthetic corpus as XML")
    data_cmd.add_argument("name", choices=dataset_names())
    data_cmd.add_argument("-o", "--output", required=True,
                          help="output directory")
    data_cmd.add_argument("--scale", type=int, default=1)
    data_cmd.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    handlers = {
        "index": _cmd_index,
        "search": _cmd_search,
        "serve": _cmd_serve,
        "di": _cmd_di,
        "categorize": _cmd_categorize,
        "schema": _cmd_schema,
        "check-index": _cmd_check_index,
        "lint": _cmd_lint,
        "race": _cmd_race,
        "stats": _cmd_stats,
        "dataset": _cmd_dataset,
    }
    try:
        return handlers[args.command](args)
    except GKSError as error:
        print(f"gks: error: {error}", file=sys.stderr)
        return 1


#: ``check-index`` report keys: what ``format`` takes from the summary
#: (a file has no ``segments``/``generation``), and what ``summary``
#: takes, besides a sharded layout's ``strategy``, for a file (in text
#: order) and for a store.
_FORMAT_KEYS = ("version", "codec", "layout", "shards", "segments",
                "generation")
_FILE_COUNTERS = ("size_bytes", "documents", "total_nodes", "entity_nodes",
                  "element_nodes", "keywords", "postings")
_STORE_COUNTERS = ("generation", "documents", "wal_tail", "segments",
                   "shards", "wal_frames", "wal_torn_bytes")


def _cmd_check_index(args: argparse.Namespace) -> int:
    """Exit 0 only for a healthy index file or store.

    Exit-code contract (scripts and CI gate on it):

    * ``0`` — the bytes are what was written (and, with ``--deep`` or
      ``--against``, every content invariant holds);
    * ``1`` — structural failure: unreadable / truncated / checksum
      mismatch / version mismatch (:func:`repro.index.storage.
      check_index`);
    * ``2`` — ``--deep``/``--against`` only: the bytes are right but the
      tables are wrong (:mod:`repro.analysis.invariants`); the violated
      invariants are printed by name.
    """
    import json as json_module

    report = _check_report(args)
    if args.json:
        print(json_module.dumps(report, sort_keys=True))
    else:
        print(_render_check_report(report))
    return report["exit"]


def _check_report(args: argparse.Namespace) -> dict:
    """The one ``check-index`` report: ``--json`` prints it as is, the
    text is :func:`_render_check_report` of it."""
    from repro.analysis import (INVARIANT_NAMES, verify_against,
                                verify_segmented_store, verify_store)
    from repro.index.storage import check_index

    summary = check_index(args.index)
    store = summary.get("layout") == "store"
    if store and args.against:
        raise ConfigError("--against applies to index files only")
    report: dict = {"path": summary["path"], "ok": False, "exit": 1,
                    "format": {key: summary[key] for key in _FORMAT_KEYS
                               if key in summary}}
    if not summary["ok"]:
        report.update(diagnosis=summary["diagnosis"], error=summary["error"])
        return report
    deep = args.deep or bool(args.against)
    if deep:
        target = Path(summary["path"])
        if store:
            violations = verify_segmented_store(target)
        elif args.against:
            violations = verify_against(
                target, Repository.from_paths(args.against))
        else:
            violations = verify_store(target)
        if violations:
            report.update(exit=2, diagnosis="invariant-violation",
                          violations=[violation.render()
                                      for violation in violations])
            return report
    counters = _STORE_COUNTERS if store else _FILE_COUNTERS
    report.update(ok=True, exit=0,
                  summary={key: summary[key]
                           for key in (*counters, "strategy")
                           if key in summary})
    if deep:
        # ``--against`` checks source-agreement on top of the named set
        report["deep_invariants"] = len(INVARIANT_NAMES) + bool(args.against)
    return report


def _render_check_report(report: dict) -> str:
    """The text form of a ``check-index`` report — every line is read
    off the mapping ``--json`` prints."""
    fmt, counts = report["format"], report.get("summary", {})
    store = fmt.get("layout") == "store"
    if store:
        format_line = (f"v{fmt.get('version', '?')} {fmt.get('codec', '?')}"
                       f" store({fmt.get('shards', '?')})")
    elif "version" in fmt:
        format_line = (f"v{fmt['version']} {fmt['codec']} "
                       f"{fmt['layout']}({fmt['shards']})")
    else:  # a file that does not load still names the codec claiming it
        format_line = fmt.get("codec", "unknown")
    verdict = "OK" if report["ok"] else "BAD"
    lines = [f"{'store' if store else 'index'} {verdict}: {report['path']}"]
    if not report["ok"]:
        if fmt and not store:
            lines.append(f"  format: {format_line}")
        lines.append(f"  diagnosis: {report['diagnosis']}")
        if "error" in report:
            lines.append(f"  error: {report['error']}")
        lines += [f"  invariant violated: {violation}"
                  for violation in report.get("violations", ())]
        return "\n".join(lines)
    rows = [("format", format_line)]
    if store:
        rows += [("generation", counts["generation"]),
                 ("documents", f"{counts['documents']} "
                               f"(+{counts['wal_tail']} in WAL tail)"),
                 ("segments", counts["segments"])]
    else:
        rows += [(key, counts[key]) for key in _FILE_COUNTERS]
    if "strategy" in counts:
        rows.append(("shards", f"{fmt['shards']} [{counts['strategy']}]"))
    if store:
        rows.append(("wal", f"{counts['wal_frames']} frame(s), "
                            f"{counts['wal_torn_bytes']} torn byte(s)"))
    if "deep_invariants" in report:
        rows.append(("deep audit",
                     f"{report['deep_invariants']} invariants OK"))
    lines += [f"  {label:>14}: {value}" for label, value in rows]
    return "\n".join(lines)


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static-analysis rules; exit 1 when any finding survives."""
    import json as json_module

    from repro.analysis import collect_locks, lint_paths, rule_catalog
    from repro.analysis.lint import ModuleInfo, iter_python_files

    def emit(report: dict) -> int:
        # one sorted-keys object on stdout (same contract as
        # ``check-index --json``): scripts parse it without scraping
        print(json_module.dumps(report, sort_keys=True))
        return report["exit"]

    if args.list_rules:
        for rule in rule_catalog():
            print(f"{rule.rule_id}  {rule.title}")
        return 0
    if args.locks:
        modules = [ModuleInfo.from_path(path)
                   for path in iter_python_files(args.paths)]
        sites = collect_locks(modules)
        if args.json:
            return emit({"exit": 0, "ok": True, "count": len(sites),
                         "locks": [site.to_dict() for site in sites]})
        for site in sites:
            print(site.render())
        print(f"gks lint: {len(sites)} lock site(s)", file=sys.stderr)
        return 0
    findings = lint_paths(args.paths)
    if args.json:
        return emit({"exit": 1 if findings else 0, "ok": not findings,
                     "count": len(findings),
                     "findings": [{"path": finding.path,
                                   "line": finding.line,
                                   "rule": finding.rule_id,
                                   "severity": finding.severity,
                                   "message": finding.message}
                                  for finding in findings]})
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"gks lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_race(args: argparse.Namespace) -> int:
    """Run scripted workloads under the runtime sanitizer; exit 1 on
    findings (invariant violations, exceptions or potential deadlocks)."""
    import json as json_module
    import tempfile

    from repro.obs.locks import monitoring
    from repro.testing.race import (RaceHarness, drive_cache_workload,
                                    drive_durable_workload,
                                    drive_swap_workload)

    def queries_of(engine) -> list[str]:
        # a tag keyword such as ``a`` is a stop word to a query
        analyze = engine.analyzer.analyze
        usable = [keyword for keyword in engine.index.inverted.vocabulary
                  if analyze(keyword)]
        return usable[:8] or ["xml"]

    harness = RaceHarness(threads=args.threads, rounds=args.rounds,
                          iterations=args.iterations, seed=args.seed)
    scenarios = (["cache", "swap", "durable"] if args.scenario == "all"
                 else [args.scenario])
    reports: dict[str, object] = {}
    with monitoring() as monitor:
        if "cache" in scenarios:
            engine = _engine(args)
            reports["cache"] = drive_cache_workload(
                engine, queries_of(engine), harness)
        if "swap" in scenarios:
            engine = _engine(args)
            spare = _engine(args)
            with engine.serve(workers=max(2, args.threads)) as core:
                reports["swap"] = drive_swap_workload(
                    core, [engine, spare], harness, queries_of(engine))
        if "durable" in scenarios:
            with tempfile.TemporaryDirectory() as store_dir:
                engine = _engine(args, store_path=store_dir,
                                 memtable_docs=8)
                try:
                    reports["durable"] = drive_durable_workload(
                        engine, harness, queries_of(engine))
                finally:
                    engine.close()
    deadlocks = monitor.potential_deadlocks()
    violations = sum(len(report.violations) + len(report.exceptions)
                     for report in reports.values())
    ok = not deadlocks and violations == 0
    if args.json:
        print(json_module.dumps({
            "exit": 0 if ok else 1, "ok": ok,
            "scenarios": {name: {"rounds": report.rounds,
                                 "operations": report.operations,
                                 "violations": list(report.violations),
                                 "exceptions": [list(entry) for entry
                                                in report.exceptions]}
                          for name, report in reports.items()},
            "lock_order": monitor.report(),
        }, sort_keys=True))
        return 0 if ok else 1
    for name, report in reports.items():
        print(f"[{name}] {report.render()}")
    print(f"lock-order edges: "
          + (", ".join(f"{edge.held} -> {edge.acquired}"
                       for edge in monitor.edges()) or "(none)"))
    for report in deadlocks:
        print(report.render())
    if ok:
        print("gks race: no findings", file=sys.stderr)
        return 0
    print(f"gks race: {violations} workload finding(s), "
          f"{len(deadlocks)} potential deadlock(s)", file=sys.stderr)
    return 1


def _engine(args: argparse.Namespace, **overrides) -> GKSEngine:
    """Open ``args.files`` under the config flags the subcommand declared."""
    declared = {field: getattr(args, field)
                for field, _, _ in _CONFIG_FLAGS.values()
                if hasattr(args, field)}
    return GKSEngine.open(Paths(args.files), EngineConfig(**declared),
                          **overrides)


def _cmd_index(args: argparse.Namespace) -> int:
    engine = _engine(args)
    index, config = engine.index, engine.config
    path = save_index(index, args.output, codec=config.codec)
    stats = index.stats
    layout = (f" across {config.shards} shard(s) [{config.shard_strategy}]"
              if config.shards > 1 else "")
    print(f"indexed {stats.total_nodes} nodes "
          f"({stats.entity_nodes} entities) from {stats.documents} "
          f"document(s) in {stats.build_seconds:.2f}s{layout} -> {path}")
    for failure in engine.repository.quarantine:
        print(f"quarantined {failure.render()}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.obs.trace import Tracer, render_span_tree

    engine = _engine(args)
    tracer = Tracer() if args.trace else None
    options = None
    if args.deadline_ms is not None:
        options = SearchOptions(deadline_s=args.deadline_ms / 1000.0)
    response = engine.search(args.query, s=args.s, tracer=tracer,
                             options=options)
    nodes = response.top(args.top)
    if response.degraded:
        print(f"warning: {response.degradation.render()}",
              file=sys.stderr)
    stats = response.stats
    shards = engine.config.shards
    layout = f", {shards} shard(s)" if shards > 1 else ""
    semantics = ""
    if response.semantics is not None:
        semantics = (f", mode={response.semantics.mode} "
                     f">= {args.threshold:g}")
    print(f"{len(response)} node(s) for {response.query}  "
          f"[|SL|={stats.postings_scanned}, "
          f"{stats.total_seconds * 1000:.1f} ms{layout}{semantics}]")
    for node in nodes:
        line = engine.describe(node)
        if node.probability is not None:
            line += f"  p={node.probability:.4f}"
        print(" ", line)
        if args.snippets:
            print(engine.snippet(node))
        if args.explain:
            print(engine.explain(node))
    if tracer is not None and tracer.roots:
        print()
        print(render_span_tree(tracer.roots[-1]))
        print(stats.render())
    if args.metrics_json:
        import json as _json

        Path(args.metrics_json).write_text(
            _json.dumps(engine.metrics(), indent=2, sort_keys=True),
            encoding="utf-8")
        print(f"metrics written to {args.metrics_json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the JSON/HTTP front end and block until SIGTERM/SIGINT.

    Shutdown contract (scripts/smoke_serve.sh relies on it): on signal
    the listener stops accepting, the broker drains queued requests,
    and the process exits 0 after printing a final accounting line.
    ``httpd.shutdown()`` must run on a *different* thread than
    ``serve_forever()`` — calling it from the signal handler on the
    serving thread deadlocks — so the handler spawns one.
    """
    import gc
    import signal
    import threading

    from repro.serve import ServeConfig, ServerCore, serve_http

    engine = _engine(args)
    # This process owns its heap and the index lives as long as it does:
    # move it out of the collector's reach, so no full collection walks
    # its ~10^5 containers in the middle of a request.
    gc.collect()
    gc.freeze()
    if args.inject_delay_ms > 0:
        from repro.testing.faults import SlowEngine

        engine = SlowEngine(engine, delay_s=args.inject_delay_ms / 1000.0)
    config = ServeConfig(
        workers=args.serve_workers,
        queue_capacity=args.queue_capacity,
        deadline_s=(args.deadline_ms / 1000.0
                    if args.deadline_ms is not None else None),
        coalesce=not args.no_coalesce)
    core = ServerCore(engine, config)
    httpd = serve_http(core, host=args.host, port=args.port)
    host, port = httpd.server_address[:2]
    print(f"gks serve: listening on http://{host}:{port} "
          f"({config.workers} worker(s), queue {config.queue_capacity})",
          flush=True)

    def _shutdown(signum, frame) -> None:
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
        core.close()
        stats = core.stats()
        print(f"gks serve: drained; {stats['ok']:.0f} ok, "
              f"{stats['shed']:.0f} shed, "
              f"{stats['coalesced']:.0f} coalesced, "
              f"{stats['timeouts']:.0f} timeout(s)", flush=True)
    return 0


def _cmd_schema(args: argparse.Namespace) -> int:
    from repro.schema import infer_schema

    print(infer_schema(Repository.from_paths(args.files)).render())
    return 0


def _cmd_di(args: argparse.Namespace) -> int:
    engine = _engine(args)
    response = engine.search(args.query, s=args.s)
    report = engine.insights(response, top=args.top)
    if not report.insights:
        print("no insights (no LCE nodes in the response)")
        return 0
    for insight in report:
        print(f"{insight.render()}  weight={insight.weight:.3f}  "
              f"nodes={insight.supporting_nodes}")
    return 0


def _cmd_categorize(args: argparse.Namespace) -> int:
    row = _engine(args).index.stats.category_row()
    print(render_table(
        ["AN", "EN", "RN", "CN", "total nodes"],
        [(row["AN"], row["EN"], row["RN"], row["CN"], row["total"])]))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """One-shot observability report: load the corpus, optionally run
    queries, then print metrics (human summary, ``--json`` snapshot, or
    ``--prom`` Prometheus text)."""
    import json as _json

    from repro.obs.metrics import global_registry
    from repro.obs.stats import SlowQueryLog

    # the CLI is a one-shot process, so the process-wide registry holds
    # exactly this invocation's ingest, build and search metrics
    registry = global_registry()
    engine = _engine(args)
    engine.slow_log = SlowQueryLog(threshold_s=args.slow_ms / 1000.0)
    # mint a request id per query so slow-log lines are joinable with
    # the per-query stats printed below
    responses = [(text, engine.search(text, s=args.s,
                                      request_id=f"cli-{n:03d}"))
                 for n, text in enumerate(args.query, start=1)]
    if args.prom:
        print(registry.render_prometheus(), end="")
        return 0
    if args.json:
        print(_json.dumps(registry.snapshot(), indent=2, sort_keys=True))
        return 0

    stats = engine.index.stats
    print(f"corpus: {len(engine.repository)} document(s), "
          f"{stats.total_nodes} nodes, "
          f"{len(engine.repository.quarantine)} quarantined")
    print(f"index: {stats.entity_nodes} entities, "
          f"{len(engine.index.inverted)} keywords, "
          f"built in {stats.build_seconds * 1000:.1f} ms")
    parse = registry.histogram("gks_ingest_parse_seconds")
    build = registry.histogram("gks_index_build_seconds")
    print(f"ingest: parse {parse.sum() * 1000:.1f} ms over "
          f"{parse.count()} document(s), build "
          f"{build.sum() * 1000:.1f} ms over {build.count()} index(es)")
    from repro.index.sharding import ShardedIndex

    if isinstance(engine.index, ShardedIndex):
        rows = engine.index.shard_table()
        print(f"shards: {engine.index.num_shards} "
              f"[{engine.index.strategy}]")
        print(render_table(
            ["shard", "documents", "nodes", "postings", "vocabulary",
             "entities"],
            [(row["shard"], row["documents"], row["nodes"],
              row["postings"], row["vocabulary"], row["entities"])
             for row in rows]))
    for text, response in responses:
        print(f"query {text!r}: {len(response)} node(s)")
        print(f"  {response.stats.render()}")
    info = engine.cache_info()
    print(f"cache: {info['hits']} hit(s), {info['misses']} miss(es), "
          f"{info['evictions']} eviction(s), "
          f"{info['size']}/{info['capacity']} entries")
    slow = engine.slow_queries()
    print(f"slow queries (>= {args.slow_ms:.0f} ms): {len(slow)}")
    for entry in slow:
        print(f"  {entry.render()}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    repository = load_dataset(args.name, scale=args.scale, seed=args.seed)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for document in repository:
        path = out_dir / f"{args.name}_{document.doc_id}.xml"
        path.write_text(serialize_document(document, indent=2),
                        encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
