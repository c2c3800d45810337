"""Size-tiered automatic compaction and the store's suffix contract.

An automatic compaction merges the newest size tier of a shard's run
chain (:func:`repro.core.durable.tier_start`), not the whole chain: the
base corpus and every earlier merge that outweighs the runs after it
stay on disk as they are.  An explicit ``compact()`` still merges every
chain down to one run (``tests/test_durability.py``
``test_flush_and_compact_generations_are_monotonic``).
"""

from __future__ import annotations

import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import verify_segmented_store
from repro.core.config import Texts
from repro.core.durable import compaction_start, tier_start
from repro.core.engine import GKSEngine
from repro.errors import StorageError, ValidationError
from repro.index.composite import merge_indexes
from repro.index.segments import file_crc32, read_manifest

from tests.test_durability import BASE, QUERIES, _config, _reference, \
    _signature

pytestmark = pytest.mark.durability


# ----------------------------------------------------------------------
# the tier rule on hand-made sizes
# ----------------------------------------------------------------------
class TestTierStart:
    def test_a_heavy_base_stays_out_of_the_tier(self):
        assert tier_start([1000, 10, 10, 10]) == 1
        assert tier_start([1000, 10, 10]) == 1

    def test_equal_runs_merge_whole(self):
        assert tier_start([10, 10, 10, 10]) == 0

    def test_a_geometric_chain(self):
        # each run weighs what everything after it weighs: one tier
        assert tier_start([80, 40, 20, 10, 10]) == 0
        # each run outweighs everything after it: only the newest two
        assert tier_start([80, 40, 20, 10, 5]) == 3
        # a heavier earlier merge ends the tier
        assert tier_start([500, 160, 10, 10, 10]) == 2

    def test_a_two_run_chain_merges_whole(self):
        assert tier_start([1000, 1]) == 0
        assert tier_start([1, 1000]) == 0

    def test_short_chains(self):
        assert tier_start([7]) == 0
        assert tier_start([]) == 0


class TestCompactionStart:
    def test_no_full_tier_compacts_nothing(self):
        assert compaction_start([1000, 10, 10], 3) == 3
        assert compaction_start([7], 2) == 1

    def test_the_newest_full_tier(self):
        assert compaction_start([1000, 10, 10, 10], 3) == 1
        assert compaction_start([1000, 10, 10, 10], 4) == 4
        assert compaction_start([10, 10], 2) == 0

    def test_a_cascade_is_one_merge(self):
        # [4, 4, 19] fills a tier; its 27 completes [57, 30, 27]
        assert compaction_start([57, 30, 4, 4, 19], 3) == 0
        # ... but not when the older runs outweigh it
        assert compaction_start([100, 30, 4, 4, 19], 3) == 2


def _doc(number: int, records: int) -> str:
    body = "".join(f"<article><author>Author{number}x{r}</author>"
                   f"<title>paper {number} keys {r}</title></article>"
                   for r in range(records))
    return f"<dblp>{body}</dblp>"


def test_tiers_reports_where_each_full_tier_starts(tmp_path):
    config = _config(tmp_path, memtable_docs=1, compact_segments=10 ** 6)
    engine = GKSEngine.open(Texts([_doc(100, 40)]), config=config)
    for number in range(4):
        engine.add_document(_doc(number, 1))
    writes = engine._writes
    assert len(writes.chains[0]) == 5
    assert writes.tiers() == {}
    writes.compact_segments = 4
    assert writes.tiers() == {0: 1}
    writes.compact_segments = 5
    assert writes.tiers() == {}
    engine.close()


def test_an_automatic_compaction_keeps_the_base_segment(tmp_path):
    config = _config(tmp_path, memtable_docs=1, compact_segments=3)
    engine = GKSEngine.open(Texts([_doc(100, 40)]), config=config)
    store = tmp_path / "store"
    base = read_manifest(store).segments[0]
    base_bytes = (store / base.file).read_bytes()
    for number in range(3):
        engine.add_document(_doc(number, 1))
    manifest = read_manifest(store)
    assert base in manifest.segments
    assert (store / base.file).read_bytes() == base_bytes
    assert [record.doc_ids for record in manifest.segments] == [
        (0,), (1, 2, 3)]
    # an explicit compaction still merges the chain whole
    engine.compact()
    assert [record.doc_ids for record in read_manifest(store).segments] \
        == [(0, 1, 2, 3)]
    engine.close()


# ----------------------------------------------------------------------
# a schedule of adds and flushes, checked after every compaction
# ----------------------------------------------------------------------
_STEPS = st.lists(
    st.one_of(st.tuples(st.just("add"), st.integers(1, 12)),
              st.just(("flush", 0))),
    min_size=4, max_size=14)


def _base_records(directory) -> dict:
    """Per shard, the generation-1 segment record and its bytes."""
    return {record.shard_id: (record, (directory / record.file).read_bytes())
            for record in read_manifest(directory).segments
            if record.generation == 1}


def _shape(engine) -> tuple:
    writes = engine._writes
    return ({shard_id: [doc_ids for doc_ids, _ in chain]
             for shard_id, chain in writes.chains.items()},
            [doc.doc_id for doc in writes.pending])


@pytest.mark.parametrize("codec", ["raw", "varint-dag"])
@pytest.mark.parametrize("shards", [1, 2])
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=_STEPS, compact_segments=st.integers(3, 4),
       memtable_docs=st.integers(1, 2))
def test_every_automatic_compaction_keeps_the_invariants(
        tmp_path_factory, codec, shards, steps, compact_segments,
        memtable_docs):
    root = tmp_path_factory.mktemp("tiers")
    store = root / "store"
    config = _config(root, shards=shards, codec=codec,
                     memtable_docs=memtable_docs,
                     compact_segments=compact_segments)
    # one heavy base document beside two light ones: a shard whose base
    # outweighs its feed and one whose base does not
    corpus = BASE + [_doc(100, 16)]
    engine = GKSEngine.open(Texts(corpus), config=config)
    base = _base_records(store)
    base_nodes = {shard_id: chain[0][1].stats.total_nodes
                  for shard_id, chain in engine._writes.chains.items()}
    texts = list(corpus)
    seen = set()
    try:
        for number, (kind, records) in enumerate(steps):
            if kind == "add":
                text = _doc(number, records)
                engine.add_document(text, name=f"d{number}.xml")
                texts.append(text)
            else:
                engine.flush()
            fresh = [trace for trace in engine.recent_traces()
                     if id(trace) not in seen]
            seen.update(map(id, fresh))
            if not any(trace.name == "compact" for trace in fresh):
                continue
            writes = engine._writes
            assert writes.tiers() == {}
            segments = read_manifest(store).segments
            for shard_id, (record, data) in base.items():
                if record in segments:
                    assert (store / record.file).read_bytes() == data
                    assert file_crc32(store / record.file) == record.crc32
                else:
                    # merged only once the newer runs outweighed it (a
                    # tier of three or more runs grows past the newest
                    # two only onto a run no heavier than it holds)
                    first = writes.chains[shard_id][0][1]
                    assert (first.stats.total_nodes
                            >= 2 * base_nodes[shard_id])
            assert _signature(engine, QUERIES) == _signature(
                _reference(texts, shards=shards), QUERIES)
            crash = root / f"crash{number}"
            shutil.copytree(store, crash)
            assert verify_segmented_store(crash) == []
            recovered = GKSEngine.open(Texts(corpus), config=config.replace(
                store_path=crash))
            try:
                assert _shape(recovered) == _shape(engine)
                assert _signature(recovered, QUERIES) == _signature(
                    engine, QUERIES)
            finally:
                recovered.close()
    finally:
        engine.close()


# ----------------------------------------------------------------------
# SegmentStore.compact: a run replaces a suffix of its shard's chain
# ----------------------------------------------------------------------
def _stacked(tmp_path):
    """A one-shard store holding four segments: base + three flushes."""
    config = _config(tmp_path, memtable_docs=1, compact_segments=10 ** 6)
    engine = GKSEngine.open(Texts([_doc(100, 20)]), config=config)
    for number in range(3):
        engine.add_document(_doc(number, 1))
    return engine, tmp_path / "store"


def _listing(directory) -> dict:
    return {entry.name: entry.read_bytes()
            for entry in sorted(directory.iterdir())}


@pytest.mark.parametrize("doc_ids", [
    (2,),          # a middle segment
    (0, 3),        # base and newest: not a suffix
    (2, 3, 4),     # a suffix plus a document no segment holds
    (1, 2),        # a suffix with its newest document missing
    (),            # nothing
], ids=["middle", "gap", "extra", "short", "empty"])
def test_a_run_that_is_not_a_suffix_is_refused(tmp_path, doc_ids):
    engine, store = _stacked(tmp_path)
    chain = engine._writes.chains[0]
    before = _listing(store)
    manifest = read_manifest(store)
    with pytest.raises(ValidationError):
        engine._writes.store.compact({0: (doc_ids, chain[-1][1])})
    assert read_manifest(store) == manifest
    assert _listing(store) == before
    engine.close()


def test_a_suffix_is_replaced_and_older_segments_stay(tmp_path):
    engine, store = _stacked(tmp_path)
    chain = engine._writes.chains[0]
    older = read_manifest(store).segments[:2]
    engine._writes.store.compact(
        {0: ((2, 3), merge_indexes(chain[2:]))})
    segments = read_manifest(store).segments
    assert segments[:2] == older
    assert [record.doc_ids for record in segments] == [(0,), (1,), (2, 3)]
    assert verify_segmented_store(store) == []
    engine.close()


def test_only_the_replaced_segments_are_verified(tmp_path):
    engine, store = _stacked(tmp_path)
    chain = engine._writes.chains[0]
    base = read_manifest(store).segments[0]
    victim = store / base.file
    rotted = bytearray(victim.read_bytes())
    rotted[len(rotted) // 2] ^= 0xFF
    victim.write_bytes(bytes(rotted))
    # the rotted base is not replaced, so it is not read
    engine._writes.store.compact({0: ((2, 3), merge_indexes(chain[2:]))})
    assert base in read_manifest(store).segments
    assert victim.read_bytes() == bytes(rotted)
    # a run that replaces it verifies it, and stops before writing
    manifest = read_manifest(store)
    before = _listing(store)
    with pytest.raises(StorageError) as excinfo:
        engine._writes.store.compact(
            {0: ((0, 1, 2, 3), merge_indexes(chain))})
    assert excinfo.value.diagnosis == "corrupted"
    assert read_manifest(store) == manifest
    assert _listing(store) == before
    engine.close()
