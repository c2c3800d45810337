"""The write path of the raw codec and the segmented store (PR 24).

Same format, cheaper bytes: files the parent wrote (gzip level 9,
payload keys in insertion order) stay readable; the new writer's output
is the same v2/v3 structure, deterministic, and equal to the un-memo'd
reference; malformed Dewey text and non-integer hash counts are typed
``StorageError``\\ s on every door; flush, compaction and recovery carry
inner spans.
"""

from __future__ import annotations

import gzip
import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_segmented_store, verify_store
from repro.cli import main
from repro.core.config import EngineConfig, Texts
from repro.core.engine import GKSEngine
from repro.errors import StorageError
from repro.index.builder import build_index
from repro.index.codec import (CODECS, FORMAT_VERSION,
                               FORMAT_VERSION_SHARDED, DecodedIndex,
                               _Directory, _posting_fragment, read_uvarint)
from repro.index.segments import SegmentStore, read_manifest
from repro.index.sharding import build_sharded_index
from repro.index.storage import (DEFLATE_LEVEL, canonical_json,
                                 check_index, load_index, payload_crc32,
                                 read_json_gz, save_index)
from repro.obs.metrics import global_registry
from repro.obs.trace import Tracer
from repro.testing import pdoc_corpus
from repro.xmltree.dewey import format_dewey, parse_dewey
from repro.xmltree.node import build_tree
from repro.xmltree.repository import Repository

from tests.test_codec import (CORPUS, V4_FIXTURE, _directory_payloads,
                              _index_fingerprint, _mirrors_repo,
                              _read_dewey, spec_strategy)
from tests.test_durability import BASE, EXTRA, _config, _signature

RAW = CODECS["raw"]


def _rewrite_like_parent(path, envelope=None) -> None:
    """Rewrite a gzip+JSON artefact the way the parent commit wrote it:
    level 9 (``GzipFile``'s default, file name in the header) and object
    keys in insertion order, not sorted."""
    if envelope is None:
        envelope = read_json_gz(path)
    with open(path, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
            handle.write(json.dumps(envelope,
                                    separators=(",", ":")).encode())


def _unsorted(payload: dict) -> dict:
    """*payload* with its keys (and its tables' keys) reversed: no longer
    canonical, same content."""
    return {key: (dict(reversed(value.items()))
                  if isinstance(value, dict) else value)
            for key, value in reversed(payload.items())}


def _index(shards: int = 1):
    repository = Repository.from_texts(CORPUS)
    return (build_index(repository) if shards == 1
            else build_sharded_index(repository, shards=shards))


# ----------------------------------------------------------------------
# (a) the parent's bytes stay readable
# ----------------------------------------------------------------------
class TestParentFilesStayReadable:
    def test_level_nine_is_not_the_level_written(self):
        assert DEFLATE_LEVEL != 9  # else these tests prove nothing

    @pytest.mark.parametrize("shards", [1, 2])
    def test_level_nine_unsorted_index_file_loads(self, tmp_path, shards):
        index = _index(shards)
        path = save_index(index, tmp_path / "idx.gz")
        envelope = read_json_gz(path)
        if shards == 1:
            envelope["payload"] = _unsorted(envelope["payload"])
        else:
            envelope["shards"] = [_unsorted(p) for p in envelope["shards"]]
        _rewrite_like_parent(path, envelope)
        assert _index_fingerprint(load_index(path)) == \
            _index_fingerprint(index)
        assert verify_store(path) == []
        assert check_index(path)["ok"]

    def test_level_nine_store_recovers_and_audits_clean(self, tmp_path):
        config = _config(tmp_path, shards=2)
        engine = GKSEngine.open(Texts(BASE), config=config)
        for i, text in enumerate(EXTRA[:5]):
            engine.add_document(text, name=f"e{i}.xml")
        expected = _signature(engine)
        engine.close()
        # rewrite every gzip artefact, then re-seal the manifest's
        # per-file CRCs over the rewritten bytes as the parent would have
        store = config.store_path
        manifest = read_json_gz(store / "MANIFEST")
        body = manifest["manifest"]
        assert body["segments"] and body["texts"]
        for record in body["segments"] + body["texts"]:
            _rewrite_like_parent(store / record["file"])
            record["crc32"] = zlib.crc32(
                (store / record["file"]).read_bytes()) & 0xFFFFFFFF
        manifest["crc32"] = payload_crc32(body)
        _rewrite_like_parent(store / "MANIFEST", manifest)
        recovered = GKSEngine.open(Texts(BASE), config=config)
        try:
            assert _signature(recovered) == expected
            assert len(recovered.repository) == len(BASE) + 5
        finally:
            recovered.close()
        assert verify_segmented_store(store) == []


# ----------------------------------------------------------------------
# (b) the new writer: same structure, sealed regions, deterministic
# ----------------------------------------------------------------------
class TestWriterOutput:
    def test_v2_structure_and_crc(self, tmp_path):
        envelope = read_json_gz(save_index(_index(), tmp_path / "idx.gz"))
        assert list(envelope) == ["version", "crc32", "payload"]
        assert envelope["version"] == FORMAT_VERSION
        assert payload_crc32(envelope["payload"]) == envelope["crc32"]
        assert {"analyzer", "document_names", "stats", "entity_hash",
                "element_hash", "postings",
                "dewey_widths"} == set(envelope["payload"])

    def test_v3_structure_and_crcs(self, tmp_path):
        envelope = read_json_gz(save_index(_index(2), tmp_path / "idx.gz"))
        assert list(envelope) == ["version", "crc32", "manifest", "shards"]
        assert envelope["version"] == FORMAT_VERSION_SHARDED
        manifest = envelope["manifest"]
        assert payload_crc32(manifest) == envelope["crc32"]
        assert len(manifest["shards"]) == len(envelope["shards"]) == 2
        for entry, payload in zip(manifest["shards"], envelope["shards"]):
            assert payload_crc32(payload) == entry["crc32"]

    def test_postings_keep_index_order_on_disk(self, tmp_path):
        # sorted keywords deflate ~5 % larger; only the CRC is canonical
        index = build_index(_mirrors_repo())
        stored = read_json_gz(save_index(index, tmp_path / "idx.gz"))
        keywords = list(stored["payload"]["postings"])
        assert keywords == [keyword for keyword, _ in index.inverted.items()]
        assert keywords != sorted(keywords)

    def test_names_that_need_escaping_survive(self, tmp_path):
        repository = Repository()
        repository.parse("<a><b>x %b %d é \" \\ </b></a>",
                         name='we"ird %b\\né.xml')
        index = build_index(repository)
        loaded = load_index(save_index(index, tmp_path / "idx.gz"))
        assert loaded.document_names == index.document_names
        assert _index_fingerprint(loaded) == _index_fingerprint(index)

    @pytest.mark.parametrize("keyword", [
        "plain", 'qu"ote', "back\\slash", "ctl\x00\x1f\n\t\x7f",
        "caf\u00e9", "\u65e5\u672c", "\U0001f600", ""])
    @pytest.mark.parametrize("ids", [[], ["0"], ["0.1.2", "3", "12.0.7"]],
                             ids=["empty", "one", "three"])
    def test_a_posting_fragment_is_its_canonical_json(self, keyword, ids):
        assert _posting_fragment(keyword, iter(ids)) == \
            canonical_json({keyword: ids})[1:-1]

    @settings(max_examples=200, deadline=None)
    @given(keyword=st.text(),
           ids=st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1,
                                 max_size=6).map(format_dewey)))
    def test_any_keyword_and_ids_join_like_the_encoder(self, keyword, ids):
        assert _posting_fragment(keyword, iter(ids)) == \
            canonical_json({keyword: ids})[1:-1]

    @pytest.mark.parametrize("codec", sorted(CODECS))
    @pytest.mark.parametrize("shards", [1, 2])
    def test_two_saves_are_byte_identical(self, tmp_path, codec, shards):
        index = _index(shards)
        first = save_index(index, tmp_path / "one.idx", codec=codec)
        second = save_index(index, tmp_path / "elsewhere.gksindex",
                            codec=codec)
        assert first.read_bytes() == second.read_bytes()

    def test_gzip_header_carries_no_time_or_name(self, tmp_path):
        data = save_index(_index(), tmp_path / "idx.gz").read_bytes()
        assert data[:2] == b"\x1f\x8b"
        assert data[3] == 0                     # FLG: no FNAME
        assert data[4:8] == b"\x00\x00\x00\x00"  # MTIME


# ----------------------------------------------------------------------
# (c) memo'd encode -> decode equals the un-memo'd reference
# ----------------------------------------------------------------------
def _reference_payload(decoded: DecodedIndex, shard) -> dict:
    """The parent's encoder: ``format_dewey`` per entry."""
    payload = {
        "analyzer": dict(decoded.analyzer),
        "document_names": list(shard.document_names),
        "stats": shard.stats,
        "entity_hash": {format_dewey(dewey): count
                        for dewey, count in shard.entity.items()},
        "element_hash": {format_dewey(dewey): count
                         for dewey, count in shard.element.items()},
        "postings": {keyword: [format_dewey(dewey) for dewey in postings]
                     for keyword, postings in shard.postings.items()},
    }
    if decoded.dewey_widths is not None:  # the additive layout key
        payload["dewey_widths"] = list(decoded.dewey_widths)
    return payload


def _assert_equals_reference(index, directory) -> None:
    decoded = DecodedIndex.of(index)
    path = RAW.encode(decoded, directory / "memo.gz")
    envelope = read_json_gz(path)
    payloads = (envelope["shards"] if decoded.layout == "sharded"
                else [envelope["payload"]])
    # written == the reference encoder's payload, entry for entry
    # (through JSON, which turns tuples into lists)
    assert payloads == [
        json.loads(json.dumps(_reference_payload(decoded, shard)))
        for shard in decoded.shards]
    # read back == the reference decoder (``parse_dewey`` per entry)
    again = RAW.decode(path)
    assert again.layout == decoded.layout
    assert again.document_names == decoded.document_names
    for got, want, payload in zip(again.shards, decoded.shards, payloads):
        assert got.postings == {
            keyword: [parse_dewey(text) for text in texts]
            for keyword, texts in payload["postings"].items()}
        assert got.postings == want.postings
        assert got.entity == want.entity and got.element == want.element
        assert list(got.postings) == list(want.postings)  # stored order
        assert got.shard_id == want.shard_id
        assert got.doc_ids == want.doc_ids


class TestMemoEqualsReference:
    @settings(max_examples=40, deadline=None)
    @given(specs=st.lists(spec_strategy(), min_size=1, max_size=4),
           shards=st.sampled_from([1, 2]))
    def test_strict(self, specs, shards, tmp_path_factory):
        repository = Repository()
        for spec in specs:
            repository.add_root(build_tree(spec))
        index = (build_index(repository) if shards == 1
                 else build_sharded_index(repository, shards=shards))
        _assert_equals_reference(index, tmp_path_factory.mktemp("memo"))

    @settings(max_examples=15, deadline=None)
    @given(documents=pdoc_corpus(max_documents=2, max_uncertain=5),
           shards=st.sampled_from([1, 2]))
    def test_probabilistic(self, documents, shards, tmp_path_factory):
        engine = GKSEngine.open(
            Texts(documents),
            EngineConfig(mode="probabilistic", shards=shards))
        _assert_equals_reference(engine.index,
                                 tmp_path_factory.mktemp("memo"))

    def test_decoded_tables_share_one_tuple_per_node(self, tmp_path):
        path = save_index(_index(), tmp_path / "idx.gz")
        shard = RAW.decode(path).shards[0]
        keys = {dewey: dewey for dewey in shard.element}
        assert any(dewey in keys for postings in shard.postings.values()
                   for dewey in postings)
        for postings in shard.postings.values():
            for dewey in postings:
                if dewey in keys:
                    assert dewey is keys[dewey]


# ----------------------------------------------------------------------
# (d) malformed Dewey text / hash counts are typed errors on every door
# ----------------------------------------------------------------------
def _damage(payload: dict, case: str) -> None:
    if case == "count":
        dewey = next(iter(payload["element_hash"]))
        payload["element_hash"][dewey] = "three"
    elif case.startswith("key:"):
        table = payload["entity_hash"] or payload["element_hash"]
        table[case[4:]] = table.pop(next(iter(table)))
    else:
        keyword = next(iter(payload["postings"]))
        payload["postings"][keyword][0] = case


def _reseal(path, case: str) -> None:
    """Damage the file's first payload and re-seal it: CRC-consistent,
    content malformed."""
    envelope = read_json_gz(path)
    if envelope["version"] == FORMAT_VERSION:
        _damage(envelope["payload"], case)
        envelope["crc32"] = payload_crc32(envelope["payload"])
    else:
        _damage(envelope["shards"][0], case)
        entry = envelope["manifest"]["shards"][0]
        entry["crc32"] = payload_crc32(envelope["shards"][0])
        envelope["crc32"] = payload_crc32(envelope["manifest"])
    _rewrite_like_parent(path, envelope)


MALFORMED = ["0.x.1", "", "0.-1", "key:0.x.1", "key:", "key:0.-1", "count"]


class TestMalformedContentIsTyped:
    @pytest.mark.parametrize("case", MALFORMED)
    @pytest.mark.parametrize("shards", [1, 2])
    def test_load_index_and_check_index(self, tmp_path, case, shards):
        path = save_index(_index(shards), tmp_path / "idx.gz")
        _reseal(path, case)
        with pytest.raises(StorageError) as excinfo:
            load_index(path)
        assert excinfo.value.diagnosis == "corrupted"
        assert str(excinfo.value.path) == str(path)
        summary = check_index(path)
        assert not summary["ok"] and summary["diagnosis"] == "corrupted"

    @pytest.mark.parametrize("case", ["0.x.1", "count"])
    def test_check_index_cli_prints_a_verdict(self, tmp_path, capsys, case):
        path = save_index(_index(), tmp_path / "idx.gz")
        _reseal(path, case)
        assert main(["check-index", str(path)]) == 1
        out = capsys.readouterr().out
        assert "BAD" in out and "corrupted" in out

    @pytest.mark.parametrize("case", ["0.x.1", "key:0.-1", "count"])
    def test_store_recovery_names_the_diagnosis(self, tmp_path, case):
        config = _config(tmp_path)
        engine = GKSEngine.open(Texts(BASE), config=config)
        engine.close()
        store = config.store_path
        manifest = read_json_gz(store / "MANIFEST")
        record = manifest["manifest"]["segments"][0]
        _reseal(store / record["file"], case)
        record["crc32"] = zlib.crc32(
            (store / record["file"]).read_bytes()) & 0xFFFFFFFF
        manifest["crc32"] = payload_crc32(manifest["manifest"])
        _rewrite_like_parent(store / "MANIFEST", manifest)
        with pytest.raises(StorageError) as excinfo:
            GKSEngine.open(Texts(BASE), config=config)
        assert excinfo.value.diagnosis == "corrupted"
        assert main(["check-index", str(store)]) == 1


# ----------------------------------------------------------------------
# (e) span shape of a flush, a compaction and a recovery
# ----------------------------------------------------------------------
def _children(span) -> list[str]:
    return [child.name for child in span.children]


class TestWritePathSpans:
    @pytest.mark.parametrize("codec", sorted(CODECS))
    def test_flush_compaction_and_recovery(self, tmp_path, codec):
        config = _config(tmp_path, shards=2, memtable_docs=2,
                         compact_segments=2, codec=codec)
        histogram = global_registry().histogram(
            "gks_store_segment_write_seconds")
        written = histogram.count()
        engine = GKSEngine.open(Texts(BASE), config=config)
        assert histogram.count() == written + 2  # the base segments
        for i, text in enumerate(EXTRA[:5]):
            engine.add_document(text, name=f"e{i}.xml")
        traces = engine.recent_traces()
        engine.close()

        flush = next(t for t in traces if t.name == "flush")
        assert _children(flush) == ["segments", "recompose"]
        assert _children(flush.find("segments")) == [
            "merge", "encode", "write", "encode", "write", "texts",
            "commit"]
        # a varint-dag segment's encode shows its planning
        assert [_children(span) for span in flush.find("segments").children
                if span.name == "encode"] == \
            [["plan"] if codec == "varint-dag" else []] * 2
        compact = next(t for t in traces if t.name == "compact")
        inner = _children(compact.find("segments"))
        assert inner[:2] == ["merge", "verify"]
        assert inner[2:4] == ["encode", "write"]
        assert inner[-1] == "commit"
        assert set(inner) <= {"merge", "verify", "encode", "write",
                              "texts", "commit"}
        # one observation per segment file written, and the inner spans
        # account for the time of the span that holds them
        segments = sum(_children(t.find("segments")).count("encode")
                       for t in traces if t.name in ("flush", "compact"))
        assert histogram.count() == written + 2 + segments
        held = flush.find("segments")
        assert sum(c.duration_s for c in held.children) <= held.duration_s

        tracer = Tracer()
        recovered = GKSEngine.open(Texts(BASE), config=config,
                                   tracer=tracer)
        try:
            store = tracer.roots[-1].find("store")
            assert _children(store) == ["manifest", "texts", "segments",
                                        "wal_tail"]
            assert store.find("wal_tail").attributes["frames"] == 1
            assert store.find("texts").attributes["documents"] == 4
            assert store.find("segments").attributes["files"] == len(
                read_manifest(config.store_path).segments)
        finally:
            recovered.close()

    def test_a_fresh_store_records_a_build_not_a_recovery(self, tmp_path):
        tracer = Tracer()
        GKSEngine.open(Texts(BASE), config=_config(tmp_path),
                       tracer=tracer).close()
        assert _children(tracer.roots[-1].find("store")) == ["build"]

    def test_the_store_takes_no_tracer_by_default(self, tmp_path):
        config = _config(tmp_path)
        GKSEngine.open(Texts(BASE), config=config).close()
        store = SegmentStore.open(config.store_path)
        try:
            store.compact({})  # nothing to replace: a no-op, untraced
        finally:
            store.close()


# ----------------------------------------------------------------------
# the directory kernel against a per-field reference of each format
# ----------------------------------------------------------------------
def _field_reader(payload: bytes):
    """``(field, dewey, at)``: one ``read_uvarint`` per varint, one
    ``_read_dewey`` per front-coded id, and the current position."""
    cursor = [0]

    def field():
        value, cursor[0] = read_uvarint(payload, cursor[0])
        return value

    def dewey(previous):
        value, cursor[0] = _read_dewey(payload, cursor[0], previous)
        return value

    def at(pos=None):
        if pos is not None:
            cursor[0] = pos
        return cursor[0]

    return field, dewey, at


def _reference_literals(field, out) -> None:
    for name in ("entity_literal", "element_literal"):
        count, frame, offset, length, crc = (field() for _ in range(5))
        out[name] = ((frame, offset, length), count, crc)


def _reference_hash_locs(field, out, dag_id) -> None:
    for which in (0, 1):
        count = field()
        if count:
            frame, offset, length, crc = (field() for _ in range(4))
            out["hash_locs"][(dag_id, which)] = (
                (frame, offset, length), count, crc)


def _reference_directory(payload: bytes) -> dict:
    """A v5 ``_Directory``, every entry forced, read one field at a
    time: ``int.from_bytes`` per offset, ``read_uvarint`` per varint."""
    def word(index):
        return int.from_bytes(payload[4 * index:4 * index + 4], "little")

    n_keywords = word(0)
    word_ends = [word(1 + i) for i in range(n_keywords + 1)]
    entry_ends = [word(n_keywords + 2 + i) for i in range(n_keywords + 1)]
    start = 4 + 8 * (n_keywords + 1)
    keywords = [payload[start + a:start + b].decode("utf-8")
                for a, b in zip(word_ends, word_ends[1:])]
    base = start + word_ends[-1]
    field, dewey, at = _field_reader(payload)
    out = {"keywords": keywords,
           "keyword_ids": {k: i for i, k in enumerate(keywords)},
           "entries": {}, "occurrences": [], "hash_locs": {}}
    for index, keyword in enumerate(keywords):
        at(base + entry_ends[index])
        blocks, first = [], ()
        for _ in range(field()):
            row = [field() for _ in range(5)]
            first = dewey(first)
            blocks.append((*row, first))
        dags, dag_id = [], 0
        for _ in range(field()):
            dag_id += field()
            frame, offset, length, count, crc = (field() for _ in range(5))
            dags.append((dag_id, ((frame, offset, length), count, crc)))
        assert at() == base + entry_ends[index + 1]
        out["entries"][keyword] = (blocks, dags)
    at(base + entry_ends[-1])
    n_nodes, run_length = field(), field()
    counts = [field() for _ in range(n_nodes)]
    run_end = at() + run_length
    prefix = ()
    for count in counts:
        prefixes = []
        for _ in range(count):
            prefix = dewey(prefix)
            prefixes.append(prefix)
        out["occurrences"].append(prefixes)
    assert at() == run_end
    for dag_id in range(n_nodes):
        _reference_hash_locs(field, out, dag_id)
    _reference_literals(field, out)
    assert at() == len(payload)
    return out


def _reference_directory_v4(payload: bytes) -> dict:
    """A v4 ``_Directory`` read one field at a time."""
    field, dewey, at = _field_reader(payload)
    out = {"keywords": [], "entries": {}, "occurrences": [],
           "hash_locs": {}}
    plans, suffix_locs = [], {}
    previous_kw = b""
    for _ in range(field()):
        lcp, suffix_len = field(), field()
        previous_kw = previous_kw[:lcp] + payload[at():at() + suffix_len]
        at(at() + suffix_len)
        out["keywords"].append(previous_kw.decode("utf-8"))
        blocks, first = [], ()
        for _ in range(field()):
            row = [field() for _ in range(5)]
            first = dewey(first)
            blocks.append((*row, first))
        dag_ids, current = [], 0
        for _ in range(field()):
            current += field()
            dag_ids.append(current)
        plans.append((blocks, dag_ids))
    out["keyword_ids"] = {k: i for i, k in enumerate(out["keywords"])}
    for dag_id in range(field()):
        prefixes, prefix = [], ()
        for _ in range(field()):
            prefix = dewey(prefix)
            prefixes.append(prefix)
        out["occurrences"].append(prefixes)
        keyword_index = 0
        for _ in range(field()):
            keyword_index += field()
            frame, offset, length, count, crc = (field() for _ in range(5))
            suffix_locs[(dag_id, keyword_index)] = (
                (frame, offset, length), count, crc)
        _reference_hash_locs(field, out, dag_id)
    _reference_literals(field, out)
    assert at() == len(payload)
    for index, (keyword, (blocks, dag_ids)) in enumerate(
            zip(out["keywords"], plans)):
        out["entries"][keyword] = (blocks, [
            (dag_id, suffix_locs.get((dag_id, index))) for dag_id in dag_ids])
    return out


def _assert_parsed_like(parsed: _Directory, reference: dict) -> None:
    for name in ("keywords", "keyword_ids", "occurrences", "hash_locs",
                 "entity_literal", "element_literal"):
        assert getattr(parsed, name) == reference[name], name
    assert {keyword: parsed.entry(keyword)
            for keyword in parsed.keywords} == reference["entries"]


def _payloads(index, directory) -> list[bytes]:
    """The directory payloads of *index* saved as varint-dag."""
    return _directory_payloads(save_index(
        index, directory / "dir.gksindex", codec="varint-dag"))


class TestDirectoryKernel:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_equals_the_per_field_reference(self, tmp_path, shards):
        repository = _mirrors_repo()
        index = (build_index(repository) if shards == 1
                 else build_sharded_index(repository, shards=shards))
        payloads = _payloads(index, tmp_path)
        assert len(payloads) == shards
        for payload in payloads:
            reference = _reference_directory(payload)
            # the DAG section is exercised
            assert any(dags for _, dags in reference["entries"].values())
            _assert_parsed_like(_Directory(payload, tmp_path), reference)

    def test_a_v4_payload_equals_the_v4_reference(self):
        payload, = _directory_payloads(V4_FIXTURE)
        reference = _reference_directory_v4(payload)
        assert any(dags for _, dags in reference["entries"].values())
        _assert_parsed_like(_Directory(payload, V4_FIXTURE, 4), reference)

    def test_every_truncation_is_a_storage_error(self, tmp_path):
        payload, = _payloads(build_index(_mirrors_repo()), tmp_path)
        for cut in range(len(payload)):
            with pytest.raises(StorageError) as excinfo:
                _Directory(payload[:cut], tmp_path)
            assert excinfo.value.diagnosis in ("truncated", "corrupted")

    def test_overlong_input_is_a_storage_error(self, tmp_path):
        payload, = _payloads(build_index(_mirrors_repo()), tmp_path)
        with pytest.raises(StorageError) as excinfo:
            _Directory(payload + b"\x00", tmp_path)
        assert excinfo.value.diagnosis == "corrupted"
        # a keyword count no payload can hold
        with pytest.raises(StorageError) as excinfo:
            _Directory(b"\xff" * 4 + payload[4:], tmp_path)
        assert excinfo.value.diagnosis == "truncated"

    def test_a_short_all_ascii_run_is_truncated(self, tmp_path):
        # a slice of one-byte values that is shorter than the run asked
        # for must fall through to the checked path
        for version in (4, 5):
            with pytest.raises(StorageError) as excinfo:
                _Directory(b"\x01\x00", tmp_path, version)
            assert excinfo.value.diagnosis == "truncated"
