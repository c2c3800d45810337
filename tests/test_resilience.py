"""Resilience suite: recovering ingestion, budgeted serving, durable
storage — all driven by the deterministic injectors in
:mod:`repro.testing.faults`.

Covers the acceptance criteria of the resilience issue:

* corrupted corpora build in ``skip_document`` mode with an exact
  quarantine, and search over the survivors stays correct;
* a tripped :class:`SearchBudget` degrades gracefully (``degraded=True``
  plus a populated :class:`DegradationReport`) instead of raising, unless
  ``strict_deadline=True`` asks for :class:`SearchTimeout`;
* a torn index write can never be loaded partially — ``load_index``
  raises :class:`StorageError` with the ``truncated`` diagnosis.
"""

from __future__ import annotations

import gzip
import json

import pytest

from repro.cli import main
from repro.core.budget import DegradationReport, SearchBudget
from repro.core.config import SearchOptions
from repro.core.engine import GKSEngine
from repro.core.query import Query
from repro.core.search import search
from repro.core.topk import search_top_k
from repro.datasets.registry import load_dataset
from repro.errors import (DocumentLoadError, SearchTimeout, StorageError,
                          XMLSyntaxError)
from repro.index.builder import build_index
from repro.index.storage import check_index, load_index, save_index
from repro.testing.faults import (FakeClock, TornWriter, XMLCorruptor,
                                  corrupt_corpus)
from repro.xmltree.parser import (RecoveryPolicy, SalvageLog, iter_events,
                                  parse_document)
from repro.xmltree.repository import Repository

pytestmark = pytest.mark.resilience


def make_corpus(count: int = 50) -> list[str]:
    """A small library corpus; each document carries a unique token."""
    return [
        f"<book><title>alpha beta entry{i}</title>"
        f"<author>karen</author><year>{2000 + i % 10}</year></book>"
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# Recovering parser
# ----------------------------------------------------------------------
class TestSalvageParser:
    def test_policy_coercion(self):
        assert RecoveryPolicy.coerce("salvage") is RecoveryPolicy.SALVAGE
        assert RecoveryPolicy.coerce(RecoveryPolicy.STRICT) is \
            RecoveryPolicy.STRICT
        with pytest.raises(ValueError):
            RecoveryPolicy.coerce("lenient")

    def test_unclosed_child_closed_by_parent(self):
        doc = parse_document("<a><b>hello</a>", policy="salvage")
        child = doc.root.children[0]
        assert child.tag == "b" and child.text == "hello"

    def test_stray_closing_tag_dropped(self):
        log = SalvageLog()
        doc = parse_document("<a>text</b> more</a>", policy="salvage",
                             salvage_log=log)
        assert doc.root.tag == "a"
        assert len(log) == 1
        assert "stray closing tag" in str(log.problems[0])

    def test_truncated_document_auto_closed(self):
        log = SalvageLog()
        doc = parse_document("<a><b>trunc", policy="salvage",
                             salvage_log=log)
        assert [node.tag for node in doc.root.iter_subtree()] == ["a", "b"]
        assert any("auto-closed" in str(problem) for problem in log)

    def test_extra_root_skipped(self):
        log = SalvageLog()
        doc = parse_document("<a>one</a><z>two</z>", policy="salvage",
                             salvage_log=log)
        assert doc.root.tag == "a"
        assert any("extra root" in str(problem) for problem in log)

    def test_unknown_entity_kept_literally(self):
        doc = parse_document("<a>bad &entity; here</a>", policy="salvage")
        assert doc.root.text == "bad &entity; here"

    def test_unsalvageable_still_raises(self):
        with pytest.raises(XMLSyntaxError):
            parse_document("no markup at all", policy="salvage")

    def test_strict_unchanged(self):
        with pytest.raises(XMLSyntaxError):
            parse_document("<a><b>hello</a>", policy="strict")

    def test_salvaged_corpus_is_searchable(self):
        texts, victims = corrupt_corpus(make_corpus(20), 0.25, seed=3)
        repository = Repository.from_texts(texts, policy="salvage")
        # salvage keeps strictly more documents than skip_document
        assert len(repository) + len(repository.quarantine) == 20
        assert len(repository) >= 20 - len(victims)
        engine = GKSEngine(repository)
        assert engine.search("karen").nodes


class TestSyntaxErrorPositions:
    def test_offset_attribute(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            list(iter_events("<a>\n</b>"))
        error = excinfo.value
        assert isinstance(error.offset, int)
        assert error.line == 2
        # args[0] is the bare message: position only rendered by __str__
        assert "line" not in error.args[0]
        assert f"line {error.line}" in str(error)
        assert f"offset {error.offset}" in str(error)


# ----------------------------------------------------------------------
# Quarantined ingestion
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_corrupted_corpus_builds_with_exact_quarantine(self):
        texts, victims = corrupt_corpus(make_corpus(50), 0.20, seed=7)
        assert len(victims) == 10
        repository = Repository.from_texts(texts, policy="skip_document")

        assert len(repository) == 40
        quarantined = {failure.name for failure in repository.quarantine}
        assert quarantined == {f"text[{i}]" for i in victims}
        for failure in repository.quarantine:
            assert isinstance(failure.error, XMLSyntaxError)
            assert failure.render()

    def test_search_over_survivors_is_correct(self):
        texts, victims = corrupt_corpus(make_corpus(50), 0.20, seed=7)
        repository = Repository.from_texts(texts, policy="skip_document")
        engine = GKSEngine(repository)

        survivors = [i for i in range(50) if i not in victims]
        # every surviving document's unique token is findable, exactly once
        for original in survivors[:5]:
            response = engine.search(f"entry{original}")
            assert len(response) == 1
        # the broad query reaches every surviving document
        response = engine.search("karen")
        documents = {node.dewey[0] for node in response}
        assert documents == set(range(40))

    def test_strict_mode_still_aborts(self):
        texts, _ = corrupt_corpus(make_corpus(10), 0.3, seed=1)
        with pytest.raises(XMLSyntaxError):
            Repository.from_texts(texts)

    def test_from_paths_wraps_read_errors(self, tmp_path):
        missing = tmp_path / "nope.xml"
        with pytest.raises(DocumentLoadError) as excinfo:
            Repository.from_paths([missing])
        assert "nope.xml" in str(excinfo.value)
        assert excinfo.value.path == missing

    def test_from_paths_undecodable_file(self, tmp_path):
        bad = tmp_path / "latin.xml"
        bad.write_bytes("<r>caf\xe9</r>".encode("latin-1"))
        with pytest.raises(DocumentLoadError):
            Repository.from_paths([bad])

    def test_from_paths_quarantines_under_skip(self, tmp_path):
        good = tmp_path / "good.xml"
        good.write_text("<r><a>karen</a></r>")
        bad = tmp_path / "bad.xml"
        bad.write_text("<r><a>broken</r>")
        missing = tmp_path / "gone.xml"
        repository = Repository.from_paths([good, bad, missing],
                                           policy="skip_document")
        assert len(repository) == 1
        names = {failure.name for failure in repository.quarantine}
        assert names == {"bad.xml", "gone.xml"}

    def test_from_paths_quarantines_a_json_file(self, tmp_path):
        # JSON is not XML: a .json file is malformed input like any other
        data = tmp_path / "x.json"
        data.write_text('{"a": "karen"}')
        good = tmp_path / "y.xml"
        good.write_text("<r><a>karen</a></r>")
        with pytest.raises(XMLSyntaxError):
            Repository.from_paths([data, good])
        repository = Repository.from_paths([data, good],
                                           policy="skip_document")
        assert [document.name for document in repository] == ["y.xml"]
        assert [failure.name for failure in repository.quarantine] == \
            ["x.json"]


# ----------------------------------------------------------------------
# Search budgets & graceful degradation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def library_index():
    return build_index(Repository.from_texts(make_corpus(40)))


class TestSearchBudget:
    def test_unbudgeted_response_not_degraded(self, library_index):
        response = search(library_index, Query.of(["karen"]))
        assert response.degraded is False
        assert response.degradation is None

    def test_max_sl_degrades_at_merge(self, library_index):
        budget = SearchBudget(max_sl=5)
        response = search(library_index, Query.of(["karen"]), budget=budget)
        assert response.degraded is True
        report = response.degradation
        assert isinstance(report, DegradationReport)
        assert report.stage == "merge"
        assert report.reason == "max_sl"
        assert report.processed == 5
        assert report.total == 40
        assert response.stats.postings_scanned == 5
        assert response.nodes  # partial answer, not an empty one
        assert "degraded" in report.render()

    def test_deadline_trips_mid_pipeline_without_sleeping(
            self, library_index):
        clock = FakeClock(auto_advance=1.0)
        budget = SearchBudget(deadline_s=2.5, clock=clock)
        response = search(library_index, Query.of(["karen"]), budget=budget)
        assert response.degraded is True
        report = response.degradation
        assert report.reason == "deadline"
        assert report.stage in {"merge", "lcp", "lce", "rank"}
        assert report.elapsed_s > 2.5
        assert clock.calls > 1  # the budget really polled the fake clock

    def test_degraded_response_keeps_discovered_nodes(self, library_index):
        # a clock that jumps past the deadline partway through the LCE
        # stage: merge + the ~40 lcp blocks poll first, then lce entries
        calls = {"count": 0}

        def clock() -> float:
            calls["count"] += 1
            return 0.0 if calls["count"] < 60 else 100.0

        budget = SearchBudget(deadline_s=1.0, clock=clock, recovery_k=7)
        response = search(library_index, Query.of(["karen"]), budget=budget)
        assert response.degraded is True
        assert response.degradation.stage == "lce"
        assert 0 < len(response) <= 7

    def test_max_nodes_caps_ranking(self, library_index):
        budget = SearchBudget(max_nodes=3)
        response = search(library_index, Query.of(["karen"]), budget=budget)
        assert response.degraded is True
        assert response.degradation.stage == "rank"
        assert response.degradation.reason == "max_nodes"
        assert len(response) == 3

    def test_budget_restarts_cleanly(self, library_index):
        budget = SearchBudget(max_nodes=3)
        first = search(library_index, Query.of(["karen"]), budget=budget)
        second = search(library_index, Query.of(["alpha"]), budget=budget)
        assert first.degraded and second.degraded
        assert second.degradation.stage == "rank"

    def test_topk_under_budget(self, library_index):
        budget = SearchBudget(max_sl=5)
        response = search_top_k(library_index, Query.of(["karen"]), k=3,
                                budget=budget)
        assert response.degraded is True
        assert response.degradation.stage == "merge"
        assert len(response) <= 3

    def test_topk_honours_max_nodes(self):
        # top-k runs the one ranking loop, so the node cap trips exactly
        # as it does for the full search
        index = build_index(load_dataset("dblp"))
        response = search_top_k(index, Query.of(["peter buneman"]), k=5,
                                budget=SearchBudget(max_nodes=2))
        assert response.degraded is True
        assert response.degradation.stage == "rank"
        assert response.degradation.reason == "max_nodes"
        assert len(response) <= 2

    def test_invalid_budget_parameters(self):
        with pytest.raises(ValueError):
            SearchBudget(deadline_s=-1)
        with pytest.raises(ValueError):
            SearchBudget(max_sl=0)
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=0)


class TestEngineBudget:
    def test_engine_search_degrades(self):
        engine = GKSEngine.open(make_corpus(30))
        budget = SearchBudget(max_sl=4)
        response = engine.search("karen", budget=budget)
        assert response.degraded is True

    def test_strict_deadline_raises_timeout(self):
        engine = GKSEngine.open(make_corpus(30))
        clock = FakeClock(auto_advance=1.0)
        budget = SearchBudget(deadline_s=0.5, clock=clock)
        with pytest.raises(SearchTimeout) as excinfo:
            engine.search("karen", budget=budget, strict_deadline=True)
        assert excinfo.value.report is not None
        assert excinfo.value.report.reason == "deadline"

    def test_strict_deadline_tolerates_resource_caps(self):
        engine = GKSEngine.open(make_corpus(30))
        response = engine.search("karen", budget=SearchBudget(max_sl=4),
                                 strict_deadline=True)
        assert response.degraded is True  # max_sl degrades, never raises

    @pytest.mark.parametrize("shards", [1, 2])
    def test_strict_deadline_raises_on_top_k(self, shards):
        # via the keyword and via options; resource caps still degrade
        engine = GKSEngine.open(make_corpus(30), shards=shards)
        for how in ({"strict_deadline": True},
                    {"options": SearchOptions(strict_deadline=True)}):
            budget = SearchBudget(deadline_s=0.5,
                                  clock=FakeClock(auto_advance=1.0))
            with pytest.raises(SearchTimeout) as excinfo:
                engine.search_top_k("karen", k=3, budget=budget, **how)
            assert excinfo.value.report.reason == "deadline"
        response = engine.search_top_k("karen", k=3, strict_deadline=True,
                                       budget=SearchBudget(max_sl=4))
        assert response.degraded is True

    def test_degraded_responses_bypass_cache(self):
        engine = GKSEngine.open(make_corpus(30))
        degraded = engine.search("karen", budget=SearchBudget(max_sl=4))
        full = engine.search("karen")
        assert degraded.degraded and not full.degraded
        assert len(full) > len(degraded)


class TestEngineCacheLRU:
    def test_hit_refreshes_recency(self):
        engine = GKSEngine.open(make_corpus(10))
        engine._cache_size = 2
        first = engine.search("entry1")
        engine.search("entry2")
        # hit (shared nodes, no recompute); refreshes recency
        assert engine.search("entry1").nodes is first.nodes
        engine.search("entry3")                  # evicts entry2, not entry1
        assert engine.search("entry1").nodes is first.nodes
        keys = {key[0] for key in engine._response_cache}
        assert ("entry2",) not in keys

    def test_distinct_rankers_cached_separately(self):
        from repro.core.ranking import rank_by_keyword_count, rank_node

        engine = GKSEngine.open(make_corpus(5))
        by_flow = engine.search("karen", ranker=rank_node)
        by_count = engine.search("karen", ranker=rank_by_keyword_count)
        assert engine.search("karen", ranker=rank_node).nodes \
            is by_flow.nodes
        assert engine.search(
            "karen", ranker=rank_by_keyword_count).nodes is by_count.nodes


# ----------------------------------------------------------------------
# Durable storage
# ----------------------------------------------------------------------
@pytest.fixture()
def saved_index(tmp_path):
    index = build_index(Repository.from_texts(make_corpus(8)))
    return index, save_index(index, tmp_path / "idx.gz")


class TestAtomicStorage:
    def test_no_temp_file_left_behind(self, saved_index, tmp_path):
        _, path = saved_index
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_round_trip_verifies_checksum(self, saved_index):
        index, path = saved_index
        loaded = load_index(path)
        assert dict(loaded.inverted.items()) == dict(index.inverted.items())

    def test_torn_write_never_loads_partially(self, saved_index):
        _, path = saved_index
        TornWriter(seed=5).tear(path, fraction=0.5)
        with pytest.raises(StorageError) as excinfo:
            load_index(path)
        assert excinfo.value.diagnosis == "truncated"

    def test_random_tear_points_all_fail_closed(self, saved_index,
                                                tmp_path):
        _, path = saved_index
        writer = TornWriter(seed=11)
        for round_no in range(8):
            torn = writer.torn_copy(path, tmp_path / f"torn{round_no}.gz")
            with pytest.raises(StorageError) as excinfo:
                load_index(torn)
            assert excinfo.value.diagnosis in {"truncated", "corrupted"}

    def test_checksum_mismatch_diagnosed_corrupted(self, saved_index):
        _, path = saved_index
        with gzip.open(path, "rt") as handle:
            envelope = json.load(handle)
        envelope["payload"]["document_names"] = ["tampered"]
        with gzip.open(path, "wt") as handle:
            json.dump(envelope, handle)
        with pytest.raises(StorageError) as excinfo:
            load_index(path)
        assert excinfo.value.diagnosis == "corrupted"
        assert "checksum" in str(excinfo.value)

    def test_unknown_version_diagnosed(self, saved_index):
        _, path = saved_index
        with gzip.open(path, "rt") as handle:
            envelope = json.load(handle)
        envelope["version"] = 99
        with gzip.open(path, "wt") as handle:
            json.dump(envelope, handle)
        with pytest.raises(StorageError) as excinfo:
            load_index(path)
        assert excinfo.value.diagnosis == "version-mismatch"

    def test_unwritable_path_diagnosed(self, saved_index, tmp_path):
        index, _ = saved_index
        with pytest.raises(StorageError) as excinfo:
            save_index(index, tmp_path / "no" / "dir" / "x.gz")
        assert excinfo.value.diagnosis == "unwritable"

    def test_legacy_v1_file_is_refused(self, saved_index, tmp_path):
        # v1 (no checksum, no writer since format 2) is retired
        _, path = saved_index
        with gzip.open(path, "rt") as handle:
            payload = json.load(handle)["payload"]
        payload["version"] = 1  # v1 kept everything at top level
        legacy = tmp_path / "legacy.gz"
        with gzip.open(legacy, "wt") as handle:
            json.dump(payload, handle)
        with pytest.raises(StorageError) as excinfo:
            load_index(legacy)
        assert excinfo.value.diagnosis == "version-mismatch"
        assert check_index(legacy)["diagnosis"] == "version-mismatch"

    def test_crc_survives_key_order(self, saved_index, tmp_path):
        # reserializing with a different key order must not fail the CRC
        _, path = saved_index
        with gzip.open(path, "rt") as handle:
            envelope = json.load(handle)
        envelope["payload"] = dict(reversed(envelope["payload"].items()))
        with gzip.open(path, "wt") as handle:
            json.dump(envelope, handle)
        load_index(path)  # canonical serialization: no StorageError


class TestIndexHealth:
    def test_check_index_healthy(self, saved_index):
        _, path = saved_index
        summary = check_index(path)
        assert summary["ok"] is True
        assert summary["documents"] == 8
        assert summary["postings"] > 0

    def test_check_index_torn(self, saved_index):
        _, path = saved_index
        TornWriter(seed=2).tear(path, fraction=0.5)
        summary = check_index(path)
        assert summary["ok"] is False
        assert summary["diagnosis"] == "truncated"

    def test_check_index_missing(self, tmp_path):
        summary = check_index(tmp_path / "ghost.gz")
        assert summary["ok"] is False
        assert summary["diagnosis"] == "unreadable"

    def test_cli_check_index(self, saved_index, capsys):
        _, path = saved_index
        assert main(["check-index", str(path)]) == 0
        assert "index OK" in capsys.readouterr().out

    def test_cli_check_index_flag_form(self, saved_index, capsys):
        _, path = saved_index
        TornWriter(seed=3).tear(path, fraction=0.5)
        assert main(["check-index", str(path)]) == 1
        out = capsys.readouterr().out
        assert "index BAD" in out
        assert "truncated" in out


# ----------------------------------------------------------------------
# Injector determinism
# ----------------------------------------------------------------------
class TestInjectors:
    def test_corruptor_is_deterministic(self):
        texts = make_corpus(12)
        first = [XMLCorruptor(seed=4).corrupt(text) for text in texts]
        second = [XMLCorruptor(seed=4).corrupt(text) for text in texts]
        assert first == second

    def test_corruptions_always_malformed(self):
        corruptor = XMLCorruptor(seed=13)
        for text in make_corpus(30):
            mutated = corruptor.corrupt(text)
            with pytest.raises(XMLSyntaxError):
                list(iter_events(mutated))

    def test_corrupt_corpus_fraction(self):
        mutated, victims = corrupt_corpus(make_corpus(50), 0.2, seed=21)
        assert len(victims) == 10
        for position, text in enumerate(mutated):
            assert (text != make_corpus(50)[position]) == \
                (position in victims)

    def test_fake_clock_auto_advance(self):
        clock = FakeClock(start=5.0, auto_advance=0.5)
        assert clock() == 5.0
        assert clock() == 5.5
        clock.advance(10)
        assert clock() == 16.0
        assert clock.calls == 3
