"""Concurrency sanitizer suite: C-rules, lock monitor, race harness.

Static half: every C-rule gets a positive, a negative and a suppression
fixture, plus the suppression-interaction cases (one line firing two
rules, partially and fully waived).  Runtime half: the
:class:`~repro.obs.locks.LockMonitor` must report the seeded lock-order
inversion with both witness stacks, the race harness must catch the
seeded check-then-act cache race, and the real serving/durability
workloads must come out clean under both instruments.
"""

from __future__ import annotations

import json
import textwrap
import threading
from pathlib import Path

import pytest

from repro.analysis import collect_locks
from repro.analysis.lint import ModuleInfo, lint_modules
from repro.cli import main
from repro.core.config import EngineConfig, Texts
from repro.core.engine import GKSEngine
from repro.errors import ValidationError
from repro.obs.locks import (InstrumentedLock, LockMonitor, monitoring,
                             new_lock, new_rlock)
from repro.testing.race import (LockOrderInversion, PreemptingEngine,
                                RaceHarness, RacyCache,
                                drive_cache_workload,
                                drive_durable_workload,
                                drive_swap_workload)

pytestmark = [pytest.mark.analysis, pytest.mark.concurrency]

DOCS = (
    "<doc><item><name>apple banana</name><tag>cherry</tag></item>"
    "<item><name>banana date</name><tag>apple</tag></item></doc>",
    "<doc><item><name>cherry apple</name><tag>date</tag></item>"
    "<item><name>date banana</name><tag>cherry</tag></item></doc>",
)
QUERIES = ["apple", "banana", "cherry banana", "date"]


def module_from(tmp_path: Path, relative: str, source: str) -> ModuleInfo:
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return ModuleInfo.from_path(path)


def findings_for(tmp_path: Path, relative: str, source: str,
                 rule_id: str) -> list:
    module = module_from(tmp_path, relative, source)
    return [finding for finding in lint_modules([module])
            if finding.rule_id == rule_id]


def make_engine(**config_kwargs) -> GKSEngine:
    config = EngineConfig(**config_kwargs)
    return GKSEngine.open(Texts(DOCS), config=config)


# ----------------------------------------------------------------------
# C001 — no lock held across an engine call
# ----------------------------------------------------------------------
class TestC001:
    BROKER = """\
        class Broker:
            def run(self, query):
                with self._lock:
                    return self.engine.search(query)
    """

    def test_engine_call_under_lock_fires(self, tmp_path):
        findings = findings_for(tmp_path, "src/repro/serve/b.py",
                                self.BROKER, "C001")
        assert len(findings) == 1
        assert ".search()" in findings[0].message
        assert "_lock" in findings[0].message

    def test_call_after_release_is_clean(self, tmp_path):
        source = """\
            class Broker:
                def run(self, query):
                    with self._lock:
                        engine = self._engine
                    return engine.search(query)
        """
        assert findings_for(tmp_path, "src/repro/serve/b.py", source,
                            "C001") == []

    def test_non_engine_receiver_is_clean(self, tmp_path):
        # self._store.flush() under the mutation lock is the durable
        # engine's deliberate design, not a layering violation
        source = """\
            class Engine:
                def flush_all(self):
                    with self._mutation_lock:
                        self._store.flush(self._pending)
        """
        assert findings_for(tmp_path, "src/repro/core/e.py", source,
                            "C001") == []

    def test_every_engine_entry_point_detected(self, tmp_path):
        source = """\
            class Broker:
                def churn(self):
                    with self.state_lock:
                        self._engine.add_document("<d/>")
                        self._engine.flush()
                        self._engine.compact()
        """
        findings = findings_for(tmp_path, "src/repro/serve/b.py", source,
                                "C001")
        assert len(findings) == 3

    def test_tests_are_exempt(self, tmp_path):
        assert findings_for(tmp_path, "tests/test_b.py", self.BROKER,
                            "C001") == []

    def test_suppression(self, tmp_path):
        source = """\
            class Broker:
                def run(self, query):
                    with self._lock:
                        return self.engine.search(query)  # gks: ignore[C001]
        """
        assert findings_for(tmp_path, "src/repro/serve/b.py", source,
                            "C001") == []


# ----------------------------------------------------------------------
# C002 — guarded fields written outside their lock
# ----------------------------------------------------------------------
class TestC002:
    def test_unlocked_write_fires(self, tmp_path):
        source = """\
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()  # guards: _items
                    self._items = {}

                def clear(self):
                    self._items = {}
        """
        findings = findings_for(tmp_path, "src/repro/serve/c.py", source,
                                "C002")
        assert len(findings) == 1
        assert "_items" in findings[0].message
        assert "_lock" in findings[0].message

    def test_mutating_method_call_fires(self, tmp_path):
        source = """\
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()  # guards: _items
                    self._items = {}

                def evict(self, key):
                    self._items.pop(key, None)
        """
        assert len(findings_for(tmp_path, "src/repro/serve/c.py", source,
                                "C002")) == 1

    def test_write_under_lock_is_clean(self, tmp_path):
        source = """\
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()  # guards: _items
                    self._items = {}

                def store(self, key, value):
                    with self._lock:
                        self._items[key] = value
        """
        assert findings_for(tmp_path, "src/repro/serve/c.py", source,
                            "C002") == []

    def test_init_locked_suffix_and_holds_marker_exempt(self, tmp_path):
        source = """\
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()  # guards: _items
                    self._items = {}

                def _clear_locked(self):
                    self._items = {}

                def _reset(self):  # holds: _lock
                    self._items = {}
        """
        assert findings_for(tmp_path, "src/repro/serve/c.py", source,
                            "C002") == []

    def test_unguarded_class_is_ignored(self, tmp_path):
        source = """\
            import threading

            class Plain:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def clear(self):
                    self._items = {}
        """
        assert findings_for(tmp_path, "src/repro/serve/c.py", source,
                            "C002") == []

    def test_multiline_guards_annotation(self, tmp_path):
        source = """\
            import threading

            class Broker:
                def __init__(self):
                    # guards: _queued, _running
                    # guards: _draining
                    self._lock = threading.Lock()
                    self._queued = 0
                    self._draining = False

                def drain(self):
                    self._draining = True
        """
        findings = findings_for(tmp_path, "src/repro/serve/c.py", source,
                                "C002")
        assert len(findings) == 1
        assert "_draining" in findings[0].message

    def test_suppression(self, tmp_path):
        source = """\
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()  # guards: _items
                    self._items = {}

                def clear(self):
                    self._items = {}  # gks: ignore[C002]
        """
        assert findings_for(tmp_path, "src/repro/serve/c.py", source,
                            "C002") == []


# ----------------------------------------------------------------------
# Suppression interaction: one line, two C-rules
# ----------------------------------------------------------------------
class TestSuppressionInteraction:
    # `self._items = self.engine.search(q)` inside `with self._db_lock:`
    # fires C001 (engine call under a held lock) AND C002 (_items is
    # guarded by _cache_lock, which is not held)
    TEMPLATE = """\
        import threading

        class Broker:
            def __init__(self):
                self._cache_lock = threading.Lock()  # guards: _items
                self._db_lock = threading.Lock()
                self._items = None

            def refresh(self, q):
                with self._db_lock:
                    self._items = self.engine.search(q){marker}
    """

    def _ids(self, tmp_path, marker: str) -> list[str]:
        module = module_from(tmp_path, "src/repro/serve/m.py",
                             self.TEMPLATE.format(marker=marker))
        return sorted(finding.rule_id
                      for finding in lint_modules([module]))

    def test_both_rules_fire_unsuppressed(self, tmp_path):
        assert self._ids(tmp_path, "") == ["C001", "C002"]

    def test_partial_suppression_keeps_the_other_rule(self, tmp_path):
        assert self._ids(tmp_path, "  # gks: ignore[C001]") == ["C002"]

    def test_multi_rule_suppression_waives_both(self, tmp_path):
        assert self._ids(tmp_path, "  # gks: ignore[C001,C002]") == []

    def test_bare_ignore_waives_everything(self, tmp_path):
        assert self._ids(tmp_path, "  # gks: ignore") == []


# ----------------------------------------------------------------------
# C003 — unguarded module-level mutable state
# ----------------------------------------------------------------------
class TestC003:
    def test_unguarded_module_dict_fires(self, tmp_path):
        findings = findings_for(tmp_path, "src/repro/serve/registry.py",
                                "REGISTRY = {}\n", "C003")
        assert len(findings) == 1
        assert "REGISTRY" in findings[0].message

    def test_declared_guard_is_clean(self, tmp_path):
        source = "REGISTRY = {}  # guards: REGISTRY_LOCK\n"
        assert findings_for(tmp_path, "src/repro/serve/registry.py",
                            source, "C003") == []

    def test_dunder_and_constants_are_clean(self, tmp_path):
        source = '__all__ = ["a"]\nNAMES = ("x", "y")\nLIMIT = 3\n'
        assert findings_for(tmp_path, "src/repro/serve/registry.py",
                            source, "C003") == []

    def test_modules_outside_the_guarded_set_are_exempt(self, tmp_path):
        assert findings_for(tmp_path, "src/repro/core/registry.py",
                            "CACHE = {}\n", "C003") == []

    def test_wal_and_segments_are_covered(self, tmp_path):
        for relative in ("src/repro/index/wal.py",
                         "src/repro/index/segments.py"):
            assert len(findings_for(tmp_path, relative, "STATE = []\n",
                                    "C003")) == 1

    def test_suppression(self, tmp_path):
        source = "REGISTRY = {}  # gks: ignore[C003]\n"
        assert findings_for(tmp_path, "src/repro/serve/registry.py",
                            source, "C003") == []


# ----------------------------------------------------------------------
# Lock inventory
# ----------------------------------------------------------------------
class TestLockInventory:
    def test_collect_locks_reports_guards_and_with_sites(self, tmp_path):
        source = """\
            import threading
            from repro.obs.locks import new_lock

            GLOBAL_LOCK = threading.Lock()

            class Cache:
                def __init__(self):
                    self._lock = new_lock("test.cache")  # guards: _items
                    self._items = {}

                def store(self, key, value):
                    with self._lock:
                        self._items[key] = value

                def load(self, key):
                    with self._lock:
                        return self._items.get(key)
        """
        module = module_from(tmp_path, "src/repro/serve/inv.py", source)
        sites = {site.owner: site for site in collect_locks([module])}
        assert sites["Cache._lock"].kind == "new_lock"
        assert sites["Cache._lock"].name == "test.cache"
        assert sites["Cache._lock"].guards == ("_items",)
        assert sites["Cache._lock"].with_sites == 2
        assert sites["GLOBAL_LOCK"].kind == "Lock"
        assert sites["GLOBAL_LOCK"].guards == ()

    def test_repo_inventory_names_the_serving_locks(self):
        modules = [ModuleInfo.from_path(path)
                   for path in sorted(Path("src").rglob("*.py"))]
        by_name = {site.name for site in collect_locks(modules)}
        assert {"serve.core", "engine.cache", "engine.mutation",
                "composite.cache", "index.wal"} <= by_name

    def test_cli_locks_json(self, capsys):
        assert main(["lint", "--locks", "--json", "src/repro/serve"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        owners = {lock["owner"] for lock in report["locks"]}
        assert "ServerCore._lock" in owners


# ----------------------------------------------------------------------
# lint --json (machine output mirrors check-index --json)
# ----------------------------------------------------------------------
class TestLintJson:
    def test_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", "--json", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"count": 0, "exit": 0, "findings": [],
                          "ok": True}

    def test_findings_carry_rule_and_location(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "serve" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("STATE = {}\n")
        assert main(["lint", "--json", str(tmp_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False and report["count"] == 1
        finding = report["findings"][0]
        assert finding["rule"] == "C003"
        assert finding["line"] == 1
        assert finding["path"].endswith("bad.py")

    def test_output_is_stable(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "serve" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("A = {}\nB = []\n")
        main(["lint", "--json", str(tmp_path)])
        first = capsys.readouterr().out
        main(["lint", "--json", str(tmp_path)])
        assert capsys.readouterr().out == first


# ----------------------------------------------------------------------
# Runtime layer: instrumented locks and the order graph
# ----------------------------------------------------------------------
class TestLockMonitor:
    def test_uninstrumented_locks_are_raw_stdlib(self):
        assert isinstance(new_lock("a"), type(threading.Lock()))
        assert not isinstance(new_lock("a"), InstrumentedLock)

    def test_monitoring_wraps_and_counts(self):
        with monitoring() as monitor:
            lock = new_lock("m.lock")
            assert isinstance(lock, InstrumentedLock)
            with lock:
                assert lock.locked()
            with lock:
                pass
        assert monitor.acquisitions() == {"m.lock": 2}
        # outside the context, construction reverts to raw locks
        assert not isinstance(new_lock("m.lock"), InstrumentedLock)

    def test_rlock_reentrancy_records_no_self_edge(self):
        with monitoring() as monitor:
            lock = new_rlock("m.rlock")
            with lock:
                with lock:
                    pass
        assert monitor.edges() == []
        assert monitor.potential_deadlocks() == []

    def test_consistent_order_has_no_cycle(self):
        with monitoring() as monitor:
            a, b = new_lock("m.a"), new_lock("m.b")
            for _ in range(3):
                with a:
                    with b:
                        pass
        assert [(edge.held, edge.acquired)
                for edge in monitor.edges()] == [("m.a", "m.b")]
        assert monitor.potential_deadlocks() == []

    def test_inversion_reported_with_both_witness_stacks(self):
        monitor = LockMonitor()
        fixture = LockOrderInversion(monitor)
        fixture.record_both_orders()
        reports = monitor.potential_deadlocks()
        assert len(reports) == 1
        report = reports[0]
        assert set(report.cycle) == {"fixture.a", "fixture.b"}
        assert len(report.edges) == 2
        for edge in report.edges:
            # both acquisition stacks captured, pointing into the fixture
            assert edge.held_stack and edge.acquired_stack
        rendered = report.render()
        assert "potential deadlock" in rendered
        assert "forward" in rendered and "backward" in rendered
        assert "race.py" in rendered

    def test_monitor_report_is_json_able(self):
        monitor = LockMonitor()
        LockOrderInversion(monitor).record_both_orders()
        report = monitor.report()
        json.dumps(report)  # must not raise
        assert report["potential_deadlocks"]
        assert "fixture.a -> fixture.b" in report["edges"]


# ----------------------------------------------------------------------
# Race harness
# ----------------------------------------------------------------------
class TestRaceHarness:
    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValidationError):
            RaceHarness(threads=1)
        with pytest.raises(ValidationError):
            RaceHarness(rounds=0)
        with pytest.raises(ValidationError):
            RaceHarness().run([])

    def test_catches_seeded_check_then_act_race(self):
        cache = RacyCache(capacity=16, gap_s=0.002)
        harness = RaceHarness(threads=4, rounds=3, iterations=8, seed=11)
        report = harness.run(
            [lambda rng: cache.get_or_compute(rng.randrange(3))],
            check=cache.violations)
        assert not report.ok
        assert any("check-then-act" in violation
                   for violation in report.violations)
        assert "violation" in report.render()

    def test_serialized_cache_passes_the_same_harness(self):
        cache = RacyCache(capacity=16, gap_s=0.002)
        lock = threading.Lock()

        def serialized(rng):
            with lock:
                cache.get_or_compute(rng.randrange(3))

        harness = RaceHarness(threads=4, rounds=3, iterations=8, seed=11)
        report = harness.run([serialized], check=cache.violations)
        assert report.ok, report.render()

    def test_exceptions_are_collected_not_fatal(self):
        def boom(rng):
            raise RuntimeError("seeded failure")

        report = RaceHarness(threads=2, rounds=1, iterations=2).run([boom])
        assert not report.ok
        assert len(report.exceptions) == 4
        assert "seeded failure" in report.exceptions[0][1]

    def test_preempting_engine_delegates(self):
        engine = make_engine()
        wrapped = PreemptingEngine(engine, gap_s=0.0)
        response = wrapped.search("apple")
        assert response.nodes == engine.search("apple").nodes
        assert wrapped.calls == 1
        assert wrapped.repository is engine.repository


# ----------------------------------------------------------------------
# The real serving/durability paths under the sanitizer
# ----------------------------------------------------------------------
class TestSanitizedWorkloads:
    HARNESS = dict(threads=4, rounds=2, iterations=12, seed=3)

    def test_engine_cache_path_is_clean(self):
        with monitoring() as monitor:
            engine = make_engine(cache_size=4)
            report = drive_cache_workload(engine, QUERIES,
                                          RaceHarness(**self.HARNESS))
        assert report.ok, report.render()
        assert monitor.potential_deadlocks() == []

    def test_swap_under_traffic_is_clean(self):
        with monitoring() as monitor:
            engine, spare = make_engine(), make_engine()
            with engine.serve(workers=4) as core:
                report = drive_swap_workload(
                    core, [engine, spare], RaceHarness(**self.HARNESS),
                    QUERIES)
        assert report.ok, report.render()
        assert monitor.potential_deadlocks() == []

    def test_durable_path_is_clean_and_orders_mutation_before_wal(
            self, tmp_path):
        with monitoring() as monitor:
            engine = make_engine(store_path=tmp_path / "store",
                                 memtable_docs=8)
            try:
                report = drive_durable_workload(
                    engine, RaceHarness(**self.HARNESS), QUERIES)
            finally:
                engine.close()
        assert report.ok, report.render()
        pairs = [(edge.held, edge.acquired) for edge in monitor.edges()]
        assert ("engine.mutation", "index.wal") in pairs
        assert monitor.potential_deadlocks() == []

    def test_sharded_index_merged_views_race_free(self):
        reference = make_engine(shards=2).index
        keywords = reference.inverted.vocabulary[:4]
        assert keywords, "fixture corpus produced no vocabulary"
        expected = {keyword: tuple(reference.postings(keyword))
                    for keyword in keywords}
        assert any(expected.values())  # the probe must compare real lists
        fresh = make_engine(shards=2).index

        def probe(rng):
            keyword = keywords[rng.randrange(len(keywords))]
            assert tuple(fresh.postings(keyword)) == expected[keyword]
            assert fresh.stats.documents == len(DOCS)
            assert keyword in fresh.inverted

        report = RaceHarness(threads=4, rounds=2, iterations=10).run(
            [probe])
        assert report.ok, report.render()


# ----------------------------------------------------------------------
# `gks race` CLI
# ----------------------------------------------------------------------
class TestRaceCli:
    @pytest.fixture()
    def corpus(self, tmp_path):
        path = tmp_path / "corpus.xml"
        path.write_text(DOCS[0])
        return str(path)

    def test_clean_run_exits_zero(self, corpus, capsys):
        assert main(["race", corpus, "--scenario", "cache",
                     "--rounds", "1", "--iterations", "5"]) == 0
        captured = capsys.readouterr()
        assert "[cache]" in captured.out
        assert "no findings" in captured.err

    def test_json_report_shape(self, corpus, capsys):
        assert main(["race", corpus, "--scenario", "durable",
                     "--rounds", "1", "--iterations", "5",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["scenarios"]["durable"]["operations"] > 0
        assert ("engine.mutation -> index.wal"
                in report["lock_order"]["edges"])
        assert report["lock_order"]["potential_deadlocks"] == []

    def test_tag_keyword_corpus_has_no_findings(self, tmp_path, capsys):
        """A tag such as ``<a>`` is in the vocabulary but is a stop word
        to a query: the race queries skip it instead of counting every
        ``QueryError`` as a finding."""
        path = tmp_path / "tags.xml"
        path.write_text("<r><a>karen</a><b>mike keyword</b></r>")
        assert main(["race", str(path), "--scenario", "all", "--rounds",
                     "1", "--iterations", "5", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        for scenario in report["scenarios"].values():
            assert scenario["operations"] > 0
            assert scenario["violations"] == []
            assert scenario["exceptions"] == []
