"""Durable write path: WAL framing, segmented store, crash recovery,
serve-layer mutation and hot swap.

The correctness bar throughout is the PR 3 one: after a crash at *any*
byte offset, recovery must produce an index node-for-node identical to
a from-scratch rebuild over the surviving documents — torn tails lose
only unacknowledged writes, never acknowledged ones.
"""

from __future__ import annotations

import json
import shutil
import threading
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_segmented_store
from repro.core.config import EngineConfig, Texts
from repro.core.engine import GKSEngine
from repro.errors import Overloaded, StorageError
from repro.index.codec import CODEC_NAMES
from repro.index.segments import read_manifest
from repro.index.storage import describe_layout
from repro.index.wal import (WAL_MAGIC, WriteAheadLog, replay_wal)
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.serve import (LoadGenerator, RetryPolicy, ServeConfig,
                         ServerCore, serve_http)
from repro.testing import FakeClock, StoreCorruptor, TornWriter

pytestmark = pytest.mark.durability

BASE = [
    "<dblp><article><author>Peter Buneman</author>"
    "<title>Keys for XML</title></article></dblp>",
    "<dblp><article><author>Wenfei Fan</author>"
    "<title>XML constraints</title></article></dblp>",
]
EXTRA = [
    f"<dblp><article><author>Author{i}</author>"
    f"<title>paper {i} keys</title></article></dblp>"
    for i in range(6)
]
LATE = [
    f"<dblp><article><author>Late{i}</author>"
    f"<title>late xml keys {i}</title></article></dblp>"
    for i in range(2)
]
QUERIES = ["keys", "xml", "author0 OR author1", "constraints"]


def _config(tmp_path, **overrides) -> EngineConfig:
    defaults = dict(store_path=tmp_path / "store", memtable_docs=2,
                    compact_segments=3, cache_size=4)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def _signature(engine, queries=("keys", "xml")) -> list:
    """Node-for-node response signature over several queries."""
    out = []
    for query in queries:
        response = engine.search(query)
        out.append(sorted((node.dewey, node.score)
                          for node in response.nodes))
    return out


def _reference(texts, **config_kwargs):
    return GKSEngine.open(
        Texts(texts), config=EngineConfig(cache_size=0, **config_kwargs))


# ----------------------------------------------------------------------
# WAL framing
# ----------------------------------------------------------------------

class TestWAL:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(path)
        records = [{"op": "add", "doc_id": i, "text": f"<d>{i}</d>"}
                   for i in range(4)]
        lsns = [wal.append(record) for record in records]
        assert lsns == [1, 2, 3, 4]
        wal.close()
        replay = replay_wal(path)
        assert [frame.record for frame in replay.frames] == records
        assert [frame.lsn for frame in replay.frames] == lsns
        assert replay.torn_bytes == 0

    def test_reopen_continues_lsns(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(path)
        wal.append({"op": "add", "doc_id": 0})
        wal.close()
        wal, replay = WriteAheadLog.open(path)
        assert replay.last_lsn == 1
        assert wal.append({"op": "add", "doc_id": 1}) == 2
        wal.close()

    def test_truncation_at_every_byte_is_a_prefix(self, tmp_path):
        """The torn-tail contract, exhaustively: cutting the log at any
        byte offset replays some prefix of the appended frames and never
        raises."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(path)
        records = [{"op": "add", "doc_id": i, "text": "x" * (i + 1)}
                   for i in range(3)]
        for record in records:
            wal.append(record)
        wal.close()
        data = path.read_bytes()
        torn = tmp_path / "torn.log"
        for cut in range(len(data)):
            torn.write_bytes(data[:cut])
            replay = replay_wal(torn)
            survived = [frame.record for frame in replay.frames]
            assert survived == records[:len(survived)]
            assert replay.valid_bytes + replay.torn_bytes == cut

    def test_open_truncates_torn_tail_and_appends(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(path)
        wal.append({"op": "add", "doc_id": 0})
        wal.append({"op": "add", "doc_id": 1})
        wal.close()
        TornWriter(seed=3).tear(path, fraction=0.8)
        wal, replay = WriteAheadLog.open(path)
        wal.append({"op": "add", "doc_id": len(replay.frames)})
        wal.close()
        clean = replay_wal(path)
        assert clean.torn_bytes == 0
        assert [frame.lsn for frame in clean.frames] == \
            list(range(1, len(clean.frames) + 1))

    def test_truncate_through_keeps_lsns(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(path)
        for i in range(4):
            wal.append({"doc_id": i})
        wal.truncate_through(2)
        wal.append({"doc_id": 4})
        wal.close()
        replay = replay_wal(path)
        assert [frame.lsn for frame in replay.frames] == [3, 4, 5]

    def test_bad_magic_is_structural(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWAL!" + b"x" * 32)
        with pytest.raises(StorageError) as excinfo:
            replay_wal(path)
        assert excinfo.value.diagnosis == "corrupted"

    @settings(max_examples=25, deadline=None)
    @given(count=st.integers(min_value=0, max_value=5),
           keep=st.integers(min_value=0, max_value=5))
    def test_frame_boundary_truncation_property(self, tmp_path_factory,
                                                count, keep):
        """Truncating exactly at a frame boundary replays exactly the
        frames before the cut — byte-exact replay equivalence."""
        tmp_path = tmp_path_factory.mktemp("walprop")
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(path)
        records = [{"op": "add", "doc_id": i, "text": f"t{i}"}
                   for i in range(count)]
        boundaries = [len(WAL_MAGIC)]
        for record in records:
            wal.append(record)
            boundaries.append(path.stat().st_size)
        wal.close()
        cut = boundaries[min(keep, count)]
        data = path.read_bytes()
        path.write_bytes(data[:cut])
        replay = replay_wal(path)
        assert [frame.record for frame in replay.frames] == \
            records[:min(keep, count)]
        assert replay.torn_bytes == 0


# ----------------------------------------------------------------------
# Segmented store + engine recovery
# ----------------------------------------------------------------------

# the shards-only ids of the raw rows predate the codec parameter
@pytest.mark.parametrize("shards, codec", [
    pytest.param(shards, codec,
                 id=str(shards) if codec == "raw" else f"{shards}-{codec}")
    for codec in CODEC_NAMES for shards in (1, 2)])
class TestRecovery:
    def test_reopen_equals_rebuild(self, tmp_path, shards, codec):
        config = _config(tmp_path, shards=shards, codec=codec)
        engine = GKSEngine.open(Texts(BASE), config=config)
        for i, text in enumerate(EXTRA):
            engine.add_document(text, name=f"extra{i}.xml")
        expected = _signature(engine, QUERIES)
        engine.close()
        store_dir = tmp_path / "store"
        assert describe_layout(store_dir)["codec"] == codec

        recovered = GKSEngine.open(Texts(BASE), config=config)
        assert _signature(recovered, QUERIES) == expected
        assert len(recovered.repository) == len(BASE) + len(EXTRA)
        recovered.close()

        reference = _reference(BASE + EXTRA, shards=shards)
        assert _signature(reference, QUERIES) == expected

        # the codec only selects what new segments are written in: the
        # same store reopened under the other one keeps its old segments
        # and flushes new ones beside them
        other, = set(CODEC_NAMES) - {codec}
        mixed = GKSEngine.open(Texts(BASE), config=_config(
            tmp_path, shards=shards, codec=other, compact_segments=100))
        for i, text in enumerate(LATE):
            mixed.add_document(text, name=f"late{i}.xml")
        assert describe_layout(store_dir)["codec"] == "raw,varint-dag"
        reference = _reference(BASE + EXTRA + LATE, shards=shards)
        assert _signature(mixed, QUERIES) == _signature(reference, QUERIES)
        mixed.close()
        assert verify_segmented_store(store_dir) == []
        StoreCorruptor(seed=17).corrupt_segment_postings(store_dir)
        assert "postings-sorted" in {
            violation.invariant
            for violation in verify_segmented_store(store_dir)}

    def test_wal_torn_at_every_frame_boundary(self, tmp_path, shards,
                                              codec):
        """Crash the WAL tail at each frame boundary: recovery serves
        exactly the documents whose frames survived, node-for-node equal
        to a rebuild over that prefix."""
        config = _config(tmp_path, shards=shards, memtable_docs=100,
                         codec=codec)
        engine = GKSEngine.open(Texts(BASE), config=config)
        boundaries = []
        wal_path = tmp_path / "store" / "wal.log"
        for i, text in enumerate(EXTRA[:3]):
            engine.add_document(text, name=f"extra{i}.xml")
            boundaries.append(wal_path.stat().st_size)
        engine.close()
        data = wal_path.read_bytes()

        for keep, boundary in enumerate([len(WAL_MAGIC)] + boundaries):
            wal_path.write_bytes(data[:boundary])
            recovered = GKSEngine.open(Texts(BASE), config=config)
            reference = _reference(BASE + EXTRA[:keep], shards=shards)
            assert _signature(recovered, QUERIES) == \
                _signature(reference, QUERIES), f"keep={keep}"
            recovered.close()
            # recovery truncated the torn tail; restore the full log
            wal_path.write_bytes(data)

    def test_wal_torn_mid_frame_loses_only_the_tail(self, tmp_path,
                                                    shards, codec):
        config = _config(tmp_path, shards=shards, memtable_docs=100,
                         codec=codec)
        engine = GKSEngine.open(Texts(BASE), config=config)
        for i, text in enumerate(EXTRA[:2]):
            engine.add_document(text, name=f"extra{i}.xml")
        engine.close()
        wal_path = tmp_path / "store" / "wal.log"
        TornWriter(seed=11).tear(wal_path, fraction=0.99)
        recovered = GKSEngine.open(Texts(BASE), config=config)
        reference = _reference(BASE + EXTRA[:1], shards=shards)
        assert _signature(recovered, QUERIES) == \
            _signature(reference, QUERIES)
        recovered.close()

    def test_killed_compaction_residue_is_cleaned(self, tmp_path, shards,
                                                  codec):
        """A crash mid-compaction leaves tmp files and next-generation
        orphans; reopen must clean them and serve the manifest state."""
        config = _config(tmp_path, shards=shards, codec=codec)
        engine = GKSEngine.open(Texts(BASE), config=config)
        for i, text in enumerate(EXTRA):
            engine.add_document(text, name=f"extra{i}.xml")
        expected = _signature(engine, QUERIES)
        engine.close()
        store_dir = tmp_path / "store"
        manifest = read_manifest(store_dir)
        # simulate the torn residue of a compaction killed pre-manifest:
        # a half-written temp file and an unreferenced next-gen segment
        (store_dir / "MANIFEST.tmp").write_bytes(b"\x1f\x8b half")
        orphan_gen = manifest.generation + 1
        source = store_dir / manifest.segments[0].file
        orphan = store_dir / f"seg-g{orphan_gen:06d}-s0.gksindex"
        TornWriter(seed=5).torn_copy(source, orphan, fraction=0.5)

        recovered = GKSEngine.open(Texts(BASE), config=config)
        assert _signature(recovered, QUERIES) == expected
        recovered.close()
        assert not (store_dir / "MANIFEST.tmp").exists()
        assert not orphan.exists()
        assert verify_segmented_store(store_dir) == []

    def test_deep_invariants_hold_after_churn(self, tmp_path, shards,
                                              codec):
        config = _config(tmp_path, shards=shards, codec=codec)
        engine = GKSEngine.open(Texts(BASE), config=config)
        for i, text in enumerate(EXTRA[:5]):
            engine.add_document(text, name=f"extra{i}.xml")
        # a crash copy: the directory as a kill -9 would leave it, one
        # acknowledged document still only in the WAL
        shutil.copytree(tmp_path / "store", tmp_path / "crashed")
        expected = _signature(engine, QUERIES)
        engine.add_document(EXTRA[5], name="extra5.xml")
        engine.flush()
        engine.compact()
        engine.close()
        assert verify_segmented_store(tmp_path / "store") == []
        assert describe_layout(tmp_path / "store")["codec"] == codec

        recovered = GKSEngine.open(Texts(BASE), config=_config(
            tmp_path, shards=shards, codec=codec,
            store_path=tmp_path / "crashed"))
        assert _signature(recovered, QUERIES) == expected
        recovered.close()
        assert verify_segmented_store(tmp_path / "crashed") == []


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("store", [False, True], ids=["memory", "store"])
def test_add_document_never_touches_a_published_snapshot(tmp_path, store,
                                                         shards):
    """Searches read ``engine.index`` without the mutation lock, so an
    add must publish a *new* index and leave the captured one answering
    exactly as before — with a store or without."""
    engine = GKSEngine.open(Texts(BASE), config=_config(
        tmp_path, shards=shards, cache_size=0,
        store_path=tmp_path / "store" if store else None))
    snapshots = []
    for i, text in enumerate(EXTRA):
        captured = engine.index
        before = _index_signature(captured)
        engine.add_document(text, name=f"extra{i}.xml")
        assert engine.index is not captured
        assert _index_signature(captured) == before
        snapshots.append((captured, before))
    # ... and flushes/compactions along the way spared every one of them
    for captured, before in snapshots:
        assert _index_signature(captured) == before
    engine.close()


def _index_signature(index) -> list:
    """Node-for-node answers of a captured serving index."""
    from repro.core.query import Query
    from repro.core.search import search

    return [[(node.dewey, node.score) for node in search(
        index, Query.parse(raw)).nodes] for raw in QUERIES]


class TestStoreLifecycle:
    def test_flush_and_compact_generations_are_monotonic(self, tmp_path):
        config = _config(tmp_path, shards=2, memtable_docs=100,
                         compact_segments=100)
        engine = GKSEngine.open(Texts(BASE), config=config)
        generations = [read_manifest(tmp_path / "store").generation]
        for i, text in enumerate(EXTRA[:4]):
            engine.add_document(text, name=f"e{i}.xml")
            if i % 2 == 1:
                engine.flush()
                generations.append(
                    read_manifest(tmp_path / "store").generation)
        engine.compact()
        generations.append(read_manifest(tmp_path / "store").generation)
        engine.close()
        assert generations == sorted(set(generations))
        manifest = read_manifest(tmp_path / "store")
        runs_per_shard = {}
        for record in manifest.segments:
            runs_per_shard.setdefault(record.shard_id, 0)
            runs_per_shard[record.shard_id] += 1
        assert all(runs == 1 for runs in runs_per_shard.values())

    def test_torn_segment_refuses_to_open(self, tmp_path):
        config = _config(tmp_path)
        engine = GKSEngine.open(Texts(BASE), config=config)
        engine.add_document(EXTRA[0], name="e0.xml")
        engine.add_document(EXTRA[1], name="e1.xml")  # triggers flush
        engine.close()
        manifest = read_manifest(tmp_path / "store")
        segment = tmp_path / "store" / manifest.segments[-1].file
        TornWriter(seed=7).tear(segment, fraction=0.5)
        with pytest.raises(StorageError):
            GKSEngine.open(Texts(BASE), config=config)

    def test_compact_refuses_a_corrupted_segment(self, tmp_path):
        """Compaction merges the in-memory runs but still verifies every
        segment it is about to replace: rotted bytes stop it before the
        manifest moves."""
        config = _config(tmp_path, compact_segments=100)
        engine = GKSEngine.open(Texts(BASE), config=config)
        for i, text in enumerate(EXTRA[:4]):
            engine.add_document(text, name=f"e{i}.xml")
        store_dir = tmp_path / "store"
        manifest = read_manifest(store_dir)
        assert len(manifest.segments) >= 2
        victim = store_dir / manifest.segments[0].file
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        with pytest.raises(StorageError) as excinfo:
            engine.compact()
        assert excinfo.value.diagnosis == "corrupted"
        assert read_manifest(store_dir) == manifest
        assert _signature(engine, QUERIES) == _signature(
            _reference(BASE + EXTRA[:4]), QUERIES)
        engine.close()

    def test_missing_wal_refuses_to_open(self, tmp_path):
        config = _config(tmp_path)
        GKSEngine.open(Texts(BASE), config=config).close()
        (tmp_path / "store" / "wal.log").unlink()
        with pytest.raises(StorageError) as excinfo:
            GKSEngine.open(Texts(BASE), config=config)
        assert excinfo.value.diagnosis == "corrupted"

    def test_incompatible_config_refuses_to_open(self, tmp_path):
        config = _config(tmp_path, shards=2)
        GKSEngine.open(Texts(BASE), config=config).close()
        with pytest.raises(StorageError) as excinfo:
            GKSEngine.open(Texts(BASE), config=_config(tmp_path, shards=3))
        assert excinfo.value.diagnosis == "incompatible"

    def test_different_corpus_refuses_to_open(self, tmp_path):
        config = _config(tmp_path)
        GKSEngine.open(Texts(BASE), config=config).close()
        with pytest.raises(StorageError) as excinfo:
            GKSEngine.open(Texts(BASE + [EXTRA[0]]), config=config)
        assert excinfo.value.diagnosis == "incompatible"

    def test_no_lsn_reuse_after_full_checkpoint(self, tmp_path):
        """After a flush truncates every frame, new appends must keep
        counting upward — re-issued LSNs would be skipped on replay as
        already flushed (silent data loss)."""
        config = _config(tmp_path, memtable_docs=2)
        engine = GKSEngine.open(Texts(BASE), config=config)
        engine.add_document(EXTRA[0], name="e0.xml")
        engine.add_document(EXTRA[1], name="e1.xml")  # flush: WAL empty
        engine.close()
        engine = GKSEngine.open(Texts(BASE), config=config)
        info = engine.add_document(EXTRA[2], name="e2.xml")
        engine.close()
        manifest = read_manifest(tmp_path / "store")
        assert info["lsn"] > manifest.wal_lsn
        recovered = GKSEngine.open(Texts(BASE), config=config)
        assert len(recovered.repository) == len(BASE) + 3
        recovered.close()


# ----------------------------------------------------------------------
# Corruptor sweep → invariant audit
# ----------------------------------------------------------------------

class TestStoreCorruption:
    @staticmethod
    def _store(tmp_path, codec="raw"):
        config = _config(tmp_path, shards=2, codec=codec,
                         store_path=tmp_path / codec)
        engine = GKSEngine.open(Texts(BASE), config=config)
        for i, text in enumerate(EXTRA[:4]):
            engine.add_document(text, name=f"e{i}.xml")
        engine.close()
        return tmp_path / codec

    @pytest.fixture
    def store(self, tmp_path):
        return self._store(tmp_path)

    def test_clean_store_audits_clean(self, tmp_path):
        for codec in CODEC_NAMES:
            assert verify_segmented_store(self._store(tmp_path, codec)) == []

    # the raw rows keep the ids they had before the codec parameter
    @pytest.mark.parametrize("method,invariant,codec", [
        pytest.param(method, invariant, codec,
                     id=f"{method}-{invariant}"
                     + ("" if codec == "raw" else f"-{codec}"))
        for codec in CODEC_NAMES
        for method, invariant in [
            ("orphan_segment", "segment-orphan"),
            ("regress_generation", "manifest-generation"),
            ("corrupt_wal_magic", "wal-consistency"),
            ("corrupt_segment_postings", "postings-sorted")]])
    def test_corruptor_is_caught(self, tmp_path, method, invariant, codec):
        store = self._store(tmp_path, codec)
        getattr(StoreCorruptor(seed=13), method)(store)
        violated = {violation.invariant
                    for violation in verify_segmented_store(store)}
        assert invariant in violated

    def test_decoder_bug_cannot_turn_the_audit_green(self, store,
                                                     monkeypatch):
        from repro.index import codec

        def boom(*args):
            raise RuntimeError("decoder bug")
        monkeypatch.setattr(codec.RawCodec, "decode", boom)
        monkeypatch.setattr(codec.VarintDagCodec, "decode", boom)
        with pytest.raises(RuntimeError):
            verify_segmented_store(store)

    def test_check_index_cli_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        for codec in CODEC_NAMES:
            store = self._store(tmp_path, codec)
            assert main(["check-index", str(store), "--deep"]) == 0
            assert f" {codec} store(2)" in capsys.readouterr().out
            StoreCorruptor(seed=17).corrupt_segment_postings(store)
            # resealed CRCs: the structural pass still says OK ...
            assert main(["check-index", str(store)]) == 0
            capsys.readouterr()
            # ... only the deep audit catches it
            assert main(["check-index", str(store), "--deep"]) == 2
            out = capsys.readouterr().out
            assert "postings-sorted" in out


# ----------------------------------------------------------------------
# Serving: mutation, cache invalidation, retry, hot swap
# ----------------------------------------------------------------------

class TestServeMutation:
    def test_add_document_invalidates_the_result_cache(self, tmp_path):
        config = _config(tmp_path)
        engine = GKSEngine.open(Texts(BASE), config=config)
        with ServerCore(engine, ServeConfig()) as core:
            before = core.search("keys")
            cached = core.search("keys")
            # LRU hit: no recompute — the hit shares the entry's nodes
            # (restamped with the new request id, so not the same object)
            assert cached.nodes is before.nodes
            core.add_document(
                "<dblp><article><title>new keys paper</title>"
                "</article></dblp>", name="new.xml")
            after = core.search("keys")
            assert after is not before
            assert len(after.nodes) > len(before.nodes)
        engine.close()

    def test_add_document_sheds_while_draining(self, tmp_path):
        config = _config(tmp_path)
        engine = GKSEngine.open(Texts(BASE), config=config)
        core = ServerCore(engine, ServeConfig(workers=1))
        core.drain()
        with pytest.raises(Overloaded):
            core.add_document("<d>x</d>")
        core.close()
        engine.close()

    def test_swap_engine_publishes_atomically(self):
        old = GKSEngine.open(Texts(BASE), config=EngineConfig())
        new = GKSEngine.open(Texts(BASE + [EXTRA[0]]),
                             config=EngineConfig())
        with ServerCore(old, ServeConfig()) as core:
            before = core.search("keys")
            assert core.search("keys").stats.cache_hit
            generation = core.generation
            assert core.swap_engine(new) > generation
            assert core.engine is new
            after = core.search("keys")
            assert len(after.nodes) > len(before.nodes)

    def test_swap_under_load_zero_failures(self, tmp_path):
        """The tentpole serving guarantee: closed-loop traffic across
        repeated engine swaps completes with no failed or shed request
        attributable to the swap."""
        config = _config(tmp_path)
        engine = GKSEngine.open(Texts(BASE), config=config)
        with ServerCore(engine, ServeConfig(workers=4,
                                            queue_capacity=256)) as core:
            stop = threading.Event()
            swaps = []

            def swapper() -> None:
                while not stop.is_set():
                    replacement = GKSEngine.open(Texts(BASE),
                                                 config=EngineConfig())
                    swaps.append(core.swap_engine(replacement))

            thread = threading.Thread(target=swapper, daemon=True)
            thread.start()
            try:
                report = LoadGenerator(core).run_closed(
                    QUERIES, concurrency=4, iterations=25)
            finally:
                stop.set()
                thread.join()
            assert report.errors == 0
            assert report.shed == 0
            assert report.timeouts == 0
            assert report.completed == report.submitted
            assert len(swaps) >= 1
        engine.close()

    def test_mutation_under_load_zero_failures(self, tmp_path):
        """Durable writes (including flushes and compactions) while a
        closed loop searches: every request completes."""
        config = _config(tmp_path, memtable_docs=2, compact_segments=2)
        engine = GKSEngine.open(Texts(BASE), config=config)
        with ServerCore(engine, ServeConfig(workers=4,
                                            queue_capacity=256)) as core:
            stop = threading.Event()
            added = []

            def writer() -> None:
                i = 0
                while not stop.is_set() and i < 20:
                    added.append(core.add_document(
                        f"<dblp><article><title>hot doc {i}</title>"
                        f"</article></dblp>", name=f"hot{i}.xml"))
                    i += 1

            thread = threading.Thread(target=writer, daemon=True)
            thread.start()
            try:
                report = LoadGenerator(core).run_closed(
                    QUERIES, concurrency=4, iterations=25)
            finally:
                stop.set()
                thread.join()
            assert report.errors == 0
            assert report.shed == 0
            assert report.completed == report.submitted
            assert len(added) >= 1
        engine.close()
        # and what was acknowledged under load survives a restart
        recovered = GKSEngine.open(Texts(BASE), config=config)
        assert len(recovered.repository) == len(BASE) + len(added)
        recovered.close()


# ----------------------------------------------------------------------
# Durability-path metrics
# ----------------------------------------------------------------------
class TestDurabilityMetrics:
    def test_wal_flush_and_store_metrics_reach_the_exposition(
            self, tmp_path):
        registry = global_registry()
        appends = registry.counter("gks_wal_appends_total")
        fsyncs = registry.histogram("gks_wal_fsync_seconds")
        flushed = registry.counter("gks_store_flushed_documents_total")
        appends_0 = appends.total()
        fsyncs_0 = fsyncs.count()
        flushed_0 = flushed.value()

        engine = GKSEngine.open(Texts(BASE), store_path=tmp_path / "store")
        engine.add_document("<doc><x>fresh words here</x></doc>",
                            name="extra.xml")
        assert appends.total() == appends_0 + 1
        assert fsyncs.count() >= fsyncs_0 + 1
        assert registry.gauge("gks_store_documents").value() >= 1

        engine.flush()
        assert flushed.value() == flushed_0 + 1
        own = engine.metrics_registry
        assert own.histogram("gks_store_flush_seconds").count() >= 1
        assert own.gauge("gks_memtable_pending").value() == 0
        assert own.gauge("gks_engine_generation").value() >= 1
        # the flush span is retained for trace inspection
        assert any(span.name == "flush"
                   for span in engine.recent_traces())
        # and everything renders into the text exposition
        text = registry.render_prometheus()
        assert "gks_wal_append_seconds" in text
        assert "gks_wal_appended_bytes_total" in text
        assert registry.counter("gks_wal_appends_total").total() >= 1
        assert any(line.startswith("gks_wal_appends_total")
                   for line in text.splitlines())

    def test_swap_engine_records_duration(self):
        registry = MetricsRegistry()
        engine = GKSEngine.open(Texts(BASE))
        with ServerCore(engine, ServeConfig(workers=1),
                        registry=registry) as core:
            core.swap_engine(GKSEngine.open(Texts(BASE)))
            histogram = registry.histogram("gks_serve_swap_seconds")
            assert histogram.count() == 1


class _FlakyCore:
    """Sheds the first N submits with a Retry-After, then succeeds."""

    def __init__(self, sheds: int, retry_after_s: float = 0.25) -> None:
        self.sheds = sheds
        self.retry_after_s = retry_after_s
        self.submits = 0

    def submit(self, query, s=None, *, k=None, deadline_s=None):
        from concurrent.futures import Future

        self.submits += 1
        if self.submits <= self.sheds:
            raise Overloaded("queue full", reason="queue-full",
                             retry_after_s=self.retry_after_s)
        future: Future = Future()
        future.set_result(object())
        return future


class TestRetryPolicy:
    def test_honors_retry_after(self):
        core = _FlakyCore(sheds=2)
        sleeps: list[float] = []
        generator = LoadGenerator(core, clock=FakeClock(),
                                  sleeper=sleeps.append,
                                  retry=RetryPolicy(attempts=3))
        report = generator.run_closed(["q"], concurrency=1, iterations=1)
        assert sleeps == [0.25, 0.25]
        assert core.submits == 3
        assert report.completed == 1
        assert report.retries == 2
        assert report.outcomes[0].attempts == 3

    def test_exponential_backoff_without_hint(self):
        core = _FlakyCore(sheds=5, retry_after_s=None)
        sleeps: list[float] = []
        generator = LoadGenerator(
            core, clock=FakeClock(), sleeper=sleeps.append,
            retry=RetryPolicy(attempts=3, backoff_s=0.1, multiplier=2.0))
        report = generator.run_closed(["q"], concurrency=1, iterations=1)
        assert sleeps == [0.1, 0.2]
        assert report.shed == 1
        assert report.retries == 2

    def test_no_policy_means_single_attempt(self):
        core = _FlakyCore(sheds=1)
        report = LoadGenerator(core, clock=FakeClock(),
                               sleeper=lambda _s: None).run_closed(
            ["q"], concurrency=1, iterations=1)
        assert core.submits == 1
        assert report.shed == 1
        assert report.retries == 0

    def test_policy_validation(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(multiplier=0.5)


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------

class TestHTTPMutation:
    @pytest.fixture
    def served(self, tmp_path):
        config = _config(tmp_path, memtable_docs=2)
        engine = GKSEngine.open(Texts(BASE), config=config)
        core = ServerCore(engine, ServeConfig(workers=2))
        httpd = serve_http(core, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base_url = f"http://127.0.0.1:{httpd.server_address[1]}"
        yield base_url, tmp_path / "store"
        httpd.shutdown()
        httpd.server_close()
        core.close()
        engine.close()

    @staticmethod
    def _post(url: str, payload: dict | None = None) -> tuple[int, dict]:
        body = json.dumps(payload or {}).encode("utf-8")
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())

    def test_post_documents_flush_compact_search(self, served):
        base_url, store_dir = served
        status, info = self._post(f"{base_url}/documents", {
            "text": "<dblp><article><title>posted keys</title>"
                    "</article></dblp>",
            "name": "posted.xml"})
        assert status == 200
        assert info["durable"] is True
        assert info["doc_id"] == len(BASE)

        status, flushed = self._post(f"{base_url}/admin/flush")
        assert status == 200
        status, compacted = self._post(f"{base_url}/admin/compact")
        assert status == 200

        with urllib.request.urlopen(f"{base_url}/search?q=posted") as resp:
            payload = json.loads(resp.read())
        assert len(payload["nodes"]) >= 1
        assert verify_segmented_store(store_dir) == []

    def test_post_documents_rejects_malformed_xml(self, served):
        base_url, _store_dir = served
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(f"{base_url}/documents", {"text": "<broken"})
        assert excinfo.value.code == 400

    def test_post_documents_requires_text(self, served):
        base_url, _store_dir = served
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(f"{base_url}/documents", {"name": "x.xml"})
        assert excinfo.value.code == 400
