"""The v4 binary codec: round-trips, raw equivalence, deep audits.

The load-bearing guarantee mirrors the sharding suite's: the codec is
an implementation detail no caller can observe through results.  For
every corpus — including adversarial near-duplicate subtrees built to
stress the DAG sharing — a ``varint-dag`` index must answer every
query node-for-node, score-for-score identically to the ``raw``
envelope, across shard counts and under budget degradation.  On top of
that: semantic corruption sealed behind fresh block CRCs must be
invisible to the structural check and caught by ``--deep``, and the
:class:`~repro.core.config.SearchOptions` record must mean the same
thing at the engine, broker and HTTP surfaces.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cli import main
from repro.core.budget import SearchBudget
from repro.core.config import EngineConfig, SearchOptions, Texts
from repro.core.engine import GKSEngine
from repro.errors import ConfigError, StorageError, ValidationError
from repro.index.builder import IndexBuilder, build_index
from repro.index.codec import (CODEC_NAMES, Codec, RawCodec, VarintDagCodec,
                               decode_file, is_binary_index,
                               load_binary_index, resolve_codec,
                               write_binary_index)
from repro.index.sharding import build_sharded_index
from repro.index.storage import check_index, describe_layout, load_index
from repro.analysis.invariants import INVARIANT_NAMES, verify_store
from repro.testing.faults import FakeClock, IndexCorruptor, TornWriter
from repro.xmltree.node import build_tree
from repro.xmltree.repository import Repository

pytestmark = pytest.mark.codec

KEYWORDS = ["kilo", "lima", "mike", "november", "oscar"]
TAGS = ["va", "vb", "vc", "vd"]

CORPUS = [
    "<bib><paper><author>Peter Buneman</author>"
    "<title>keyword search</title></paper></bib>",
    "<bib><paper><author>Wenfei Fan</author>"
    "<title>graph search</title></paper>"
    "<paper><author>Peter Buneman</author>"
    "<title>archiving data</title></paper></bib>",
    "<bib><paper><author>Karen Smith</author>"
    "<title>data mining keyword</title></paper></bib>",
    "<bib><book><author>Wenfei Fan</author>"
    "<title>keyword mining</title></book></bib>",
    "<bib><paper><title>search engines</title></paper></bib>",
]

QUERIES = ["keyword", "keyword search", "buneman fan",
           "data mining search"]


def _signature(response):
    """Everything a caller can observe about a response's content."""
    return (
        tuple((node.dewey, node.score, node.distinct_keywords,
               node.matched_keywords, node.is_lce, node.estimated_keywords)
              for node in response.nodes),
        response.degraded,
    )


def _index_fingerprint(index):
    """Full observable content of a (possibly lazy) loaded index."""
    if hasattr(index, "shards"):
        return (index.strategy, tuple(index.document_names),
                tuple(_index_fingerprint(shard.index)
                      for shard in index.shards))
    return (
        tuple(sorted((kw, tuple(map(tuple, postings)))
                     for kw, postings in index.inverted.items())),
        tuple(sorted(index.hashes.entity_table.items())),
        tuple(sorted(index.hashes.element_table.items())),
        tuple(index.document_names),
    )


def spec_strategy():
    """Nested (tag, text?, children?) specs for build_tree."""
    leaf = st.tuples(st.sampled_from(TAGS), st.sampled_from(KEYWORDS))
    return st.recursive(
        leaf,
        lambda children: st.tuples(
            st.sampled_from(TAGS),
            st.lists(children, min_size=1, max_size=4)),
        max_leaves=16,
    ).map(lambda spec: ("root", [spec]) if not isinstance(spec[1], list)
          else ("root", spec[1]))


def _roundtrip(index, tmp_path, name="rt.gksindex"):
    path = tmp_path / name
    write_binary_index(index, path)
    assert is_binary_index(path)
    return load_binary_index(path)


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(specs=st.lists(spec_strategy(), min_size=1, max_size=4))
    def test_random_trees_roundtrip(self, specs, tmp_path_factory):
        repo = Repository()
        for spec in specs:
            repo.add_root(build_tree(spec))
        index = build_index(repo)
        tmp_path = tmp_path_factory.mktemp("codec")
        loaded = _roundtrip(index, tmp_path)
        assert _index_fingerprint(loaded) == _index_fingerprint(index)

    def test_empty_index_roundtrip(self, tmp_path):
        index = IndexBuilder().build()
        loaded = _roundtrip(index, tmp_path)
        assert _index_fingerprint(loaded) == _index_fingerprint(index)
        assert len(loaded.inverted) == 0

    def test_single_document_roundtrip(self, tmp_path):
        index = build_index(Repository.from_texts([CORPUS[0]]))
        loaded = _roundtrip(index, tmp_path)
        assert _index_fingerprint(loaded) == _index_fingerprint(index)

    @settings(max_examples=20, deadline=None)
    @given(depth=st.integers(min_value=10, max_value=60))
    def test_deep_dewey_paths_roundtrip(self, depth, tmp_path_factory):
        text = ("".join(f"<d{i}>" for i in range(depth))
                + "kilo lima"
                + "".join(f"</d{i}>" for i in reversed(range(depth))))
        index = build_index(Repository.from_texts([f"<r>{text}</r>"]))
        tmp_path = tmp_path_factory.mktemp("deep")
        loaded = _roundtrip(index, tmp_path)
        assert _index_fingerprint(loaded) == _index_fingerprint(index)

    @settings(max_examples=20, deadline=None)
    @given(copies=st.integers(min_value=2, max_value=8),
           twist=st.integers(min_value=0, max_value=7))
    def test_near_duplicate_subtrees_roundtrip(self, copies, twist,
                                               tmp_path_factory):
        # many repeats of one subtree plus a near-duplicate differing in
        # exactly one keyword — the adversarial case for DAG sharing:
        # the codec must never conflate the twisted copy with the rest
        block = ("<rec><name>kilo lima</name>"
                 "<note>mike november</note></rec>")
        twisted = ("<rec><name>kilo oscar</name>"
                   "<note>mike november</note></rec>")
        parts = [block] * copies
        parts.insert(twist % (copies + 1), twisted)
        index = build_index(Repository.from_texts(
            ["<r>" + "".join(parts) + "</r>"]))
        tmp_path = tmp_path_factory.mktemp("dup")
        loaded = _roundtrip(index, tmp_path)
        assert _index_fingerprint(loaded) == _index_fingerprint(index)

    def test_sharded_roundtrip(self, tmp_path):
        sharded = build_sharded_index(Repository.from_texts(CORPUS),
                                      shards=3)
        loaded = _roundtrip(sharded, tmp_path)
        assert _index_fingerprint(loaded) == _index_fingerprint(sharded)

    def test_no_dag_roundtrip(self, tmp_path):
        index = build_index(Repository.from_texts(CORPUS))
        path = tmp_path / "nodag.gksindex"
        write_binary_index(index, path, use_dag=False)
        loaded = load_binary_index(path)
        assert _index_fingerprint(loaded) == _index_fingerprint(index)


# ---------------------------------------------------------------------------
# Codec registry and EngineConfig surface
# ---------------------------------------------------------------------------
class TestCodecAPI:
    def test_registry_names(self):
        assert CODEC_NAMES == ("raw", "varint-dag")
        for name in CODEC_NAMES:
            codec = resolve_codec(name)
            assert isinstance(codec, Codec)
            assert codec.name == name

    def test_unknown_codec_is_config_error(self):
        with pytest.raises(ConfigError):
            resolve_codec("lz4-of-the-future")
        with pytest.raises(ConfigError):
            EngineConfig(codec="lz4-of-the-future")

    def test_sniff_disambiguates(self, tmp_path):
        index = build_index(Repository.from_texts(CORPUS))
        raw_path, v4_path = tmp_path / "raw.idx", tmp_path / "v4.idx"
        RawCodec().save(index, raw_path)
        VarintDagCodec().save(index, v4_path)
        assert not RawCodec().sniff(v4_path)
        assert RawCodec().sniff(raw_path)
        assert VarintDagCodec().sniff(v4_path)
        assert not VarintDagCodec().sniff(raw_path)

    def test_describe_layout_reports_codec(self, tmp_path):
        index = build_index(Repository.from_texts(CORPUS))
        raw_path, v4_path = tmp_path / "raw.idx", tmp_path / "v4.idx"
        RawCodec().save(index, raw_path)
        VarintDagCodec().save(index, v4_path)
        raw_layout = describe_layout(raw_path)
        v4_layout = describe_layout(v4_path)
        assert raw_layout["codec"] == "raw"
        assert v4_layout["codec"] == "varint-dag"
        assert v4_layout["version"] == 4
        assert raw_layout["layout"] == v4_layout["layout"] == "monolithic"

    def test_either_codec_opens_the_other(self, tmp_path):
        index = build_index(Repository.from_texts(CORPUS))
        for writer in (RawCodec(), VarintDagCodec()):
            path = tmp_path / f"{writer.name}.idx"
            writer.save(index, path)
            assert _index_fingerprint(load_index(path)) == \
                _index_fingerprint(index)


# ---------------------------------------------------------------------------
# Node-for-node search equivalence
# ---------------------------------------------------------------------------
class TestEquivalence:
    @pytest.mark.parametrize("shards", (1, 2, 4))
    def test_codec_invisible_through_results(self, shards, tmp_path):
        raw = GKSEngine.open(Texts(CORPUS), shards=shards,
                             index_path=tmp_path / "raw.idx", codec="raw")
        dag = GKSEngine.open(Texts(CORPUS), shards=shards,
                             index_path=tmp_path / "dag.idx",
                             codec="varint-dag")
        assert describe_layout(tmp_path / "dag.idx")["codec"] == \
            "varint-dag"
        # the lazy reopen is the interesting path: query straight off
        # the mmap-backed index, nothing pre-materialized
        reopened = GKSEngine.open(Texts(CORPUS), shards=shards,
                                  index_path=tmp_path / "dag.idx",
                                  codec="varint-dag")
        for query in QUERIES:
            want = _signature(raw.search(query, use_cache=False))
            assert _signature(dag.search(query, use_cache=False)) == want
            assert _signature(
                reopened.search(query, use_cache=False)) == want

    @pytest.mark.parametrize("shards", (1, 2))
    def test_degraded_budget_path_equivalence(self, shards, tmp_path):
        raw = GKSEngine.open(Texts(CORPUS * 4), shards=shards)
        GKSEngine.open(Texts(CORPUS * 4), shards=shards,
                       index_path=tmp_path / "dag.idx", codec="varint-dag")
        lazy = GKSEngine.open(Texts(CORPUS * 4), shards=shards,
                              index_path=tmp_path / "dag.idx",
                              codec="varint-dag")
        budget = lambda: SearchBudget(max_sl=2)  # noqa: E731
        for query in QUERIES:
            want = raw.search(query, budget=budget(), use_cache=False)
            got = lazy.search(query, budget=budget(), use_cache=False)
            assert _signature(got) == _signature(want)
            assert got.degraded == want.degraded

    def test_codec_switch_rewrites_cache(self, tmp_path):
        path = tmp_path / "cache.idx"
        GKSEngine.open(Texts(CORPUS), index_path=path, codec="varint-dag")
        assert describe_layout(path)["codec"] == "varint-dag"
        GKSEngine.open(Texts(CORPUS), index_path=path, codec="raw")
        assert describe_layout(path)["codec"] == "raw"

    def test_top_k_equivalence_on_lazy_index(self, tmp_path):
        GKSEngine.open(Texts(CORPUS), index_path=tmp_path / "d.idx",
                       codec="varint-dag")
        lazy = GKSEngine.open(Texts(CORPUS), index_path=tmp_path / "d.idx",
                              codec="varint-dag")
        eager = GKSEngine.open(Texts(CORPUS))
        for query in QUERIES:
            assert _signature(lazy.search_top_k(query, 3)) == \
                _signature(eager.search_top_k(query, 3))


# ---------------------------------------------------------------------------
# Fault injection and the deep audit
# ---------------------------------------------------------------------------
class TestDeepAudit:
    def _binary_index(self, tmp_path, shards=1):
        repo = Repository.from_texts(CORPUS)
        index = (build_index(repo) if shards == 1
                 else build_sharded_index(repo, shards=shards))
        path = tmp_path / "audit.gksindex"
        write_binary_index(index, path)
        return path

    def test_codec_names_registered(self):
        for name in ("codec-block-crc", "codec-block-metadata",
                     "codec-dag-suffix"):
            assert name in INVARIANT_NAMES

    def test_healthy_binary_index_audits_clean(self, tmp_path):
        path = self._binary_index(tmp_path)
        assert check_index(path)["ok"]
        assert verify_store(path) == []

    def test_healthy_sharded_binary_audits_clean(self, tmp_path):
        path = self._binary_index(tmp_path, shards=3)
        assert verify_store(path) == []

    def test_corrupt_codec_block_is_deep_only(self, tmp_path):
        path = self._binary_index(tmp_path)
        IndexCorruptor(seed=11).corrupt_codec_block(path)
        # structural checks pass end to end: CRCs were resealed
        assert check_index(path)["ok"]
        load_binary_index(path)
        # only the deep audit can tell
        violations = {v.invariant for v in verify_store(path)}
        assert "postings-sorted" in violations

    def test_corrupt_codec_block_exits_2_from_cli(self, tmp_path, capsys):
        path = self._binary_index(tmp_path)
        IndexCorruptor(seed=11).corrupt_codec_block(path)
        assert main(["check-index", str(path)]) == 0
        assert main(["check-index", str(path), "--deep"]) == 2
        assert "postings-sorted" in capsys.readouterr().out

    def test_byte_corruption_is_structural(self, tmp_path):
        path = self._binary_index(tmp_path)
        TornWriter(seed=5).tear(path, fraction=0.6)
        # a torn binary file is a structural failure — exit 1 without
        # needing --deep (the bytes-level region audit catches it even
        # when the lazy loader has not touched the torn region yet)
        assert main(["check-index", str(path)]) == 1

    def test_torn_header_fails_at_load(self, tmp_path):
        path = self._binary_index(tmp_path)
        TornWriter(seed=5).tear(path, fraction=0.01)
        with pytest.raises(StorageError):
            load_binary_index(path)
        assert check_index(path)["ok"] is False

    def test_decode_file_collects_instead_of_raising(self, tmp_path):
        path = self._binary_index(tmp_path)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # flip a byte inside the last posting region
        path.write_bytes(bytes(data))
        collected: list[tuple[str, str]] = []
        decode_file(path, on_violation=lambda name, detail:
                    collected.append((name, detail)))
        assert collected, "tampered region must surface a codec violation"
        assert all(name.startswith("codec-") for name, _ in collected)


# ---------------------------------------------------------------------------
# check-index --json
# ---------------------------------------------------------------------------
class TestCheckIndexJson:
    def _report(self, capsys, *argv):
        exit_code = main(["check-index", *argv, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["exit"] == exit_code
        return report

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_json_reports_format_block(self, codec, tmp_path, capsys):
        index = build_index(Repository.from_texts(CORPUS))
        path = tmp_path / "idx"
        resolve_codec(codec).save(index, path)
        report = self._report(capsys, str(path))
        assert report["ok"] is True and report["exit"] == 0
        assert report["format"]["codec"] == codec
        assert report["format"]["layout"] == "monolithic"
        assert report["summary"]["documents"] == len(CORPUS)

    def test_json_is_stable(self, tmp_path, capsys):
        index = build_index(Repository.from_texts(CORPUS))
        path = tmp_path / "idx"
        VarintDagCodec().save(index, path)
        first = self._report(capsys, str(path))
        second = self._report(capsys, str(path))
        assert first == second

    def test_json_on_broken_file(self, tmp_path, capsys):
        path = tmp_path / "broken.idx"
        path.write_bytes(b"GKSIDX04 but not really")
        report = self._report(capsys, str(path))
        assert report["ok"] is False and report["exit"] == 1

    def test_json_on_store_directory(self, tmp_path, capsys):
        engine = GKSEngine.open(Texts(CORPUS),
                                store_path=tmp_path / "store")
        engine.close()
        report = self._report(capsys, str(tmp_path / "store"))
        assert report["ok"] is True
        assert report["format"]["layout"] == "store"
        assert report["format"]["codec"] == "raw"


# ---------------------------------------------------------------------------
# SearchOptions across every surface
# ---------------------------------------------------------------------------
class TestSearchOptions:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SearchOptions(s=0)
        with pytest.raises(ConfigError):
            SearchOptions(k=0)
        with pytest.raises(ConfigError):
            SearchOptions(deadline_s=-1)

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValidationError):
            SearchOptions.from_mapping({"strict": True})
        with pytest.raises(ValidationError):
            SearchOptions.from_mapping({"s": "not-a-number"})
        with pytest.raises(ValidationError):
            SearchOptions.from_mapping([1, 2])

    def test_from_mapping_validates_and_never_coerces(self):
        # query strings carry strings, bodies carry JSON types: each
        # field admits its type or that type's spelling, nothing else
        assert SearchOptions.from_mapping(
            {"use_cache": "false"}).use_cache is False
        assert SearchOptions.from_mapping(
            {"s": "2", "strict_deadline": "1", "threshold": 1}) == \
            SearchOptions(s=2, strict_deadline=True, threshold=1.0)
        for raw in ({"s": 1.9}, {"k": True}, {"s": None}, {"k": []},
                    {"use_cache": "yes"}, {"use_cache": 2},
                    {"deadline_ms": None}, {"deadline_ms": "nan"},
                    {"deadline_s": "inf"}, {"deadline_ms": {}},
                    {"threshold": "nan"}, {"mode": 5}):
            with pytest.raises(ValidationError):
                SearchOptions.from_mapping(raw)
        with pytest.raises(ConfigError):
            SearchOptions(deadline_s=float("nan"))

    def test_from_mapping_wire_spelling(self):
        options = SearchOptions.from_mapping(
            {"s": 2, "k": 3, "deadline_ms": 1500, "use_cache": False})
        assert options == SearchOptions(s=2, k=3, deadline_s=1.5,
                                        use_cache=False)

    def test_engine_options_equal_explicit_kwargs(self):
        engine = GKSEngine.open(Texts(CORPUS))
        via_kwargs = engine.search("keyword search", s=2, use_cache=False)
        via_options = engine.search(
            "keyword search",
            options=SearchOptions(s=2, use_cache=False))
        assert _signature(via_options) == _signature(via_kwargs)

    def test_explicit_kwargs_beat_options(self):
        engine = GKSEngine.open(Texts(CORPUS))
        response = engine.search("keyword search", s=1,
                                 options=SearchOptions(s=2))
        assert _signature(response) == \
            _signature(engine.search("keyword search", s=1))

    def test_top_k_via_options(self):
        engine = GKSEngine.open(Texts(CORPUS))
        via_options = engine.search_top_k("keyword",
                                          options=SearchOptions(k=2))
        assert _signature(via_options) == \
            _signature(engine.search_top_k("keyword", 2))
        with pytest.raises(ValidationError):
            engine.search_top_k("keyword")

    def test_strict_deadline_via_options(self):
        from repro.errors import SearchTimeout

        engine = GKSEngine.open(Texts(CORPUS * 4))
        clock = FakeClock(auto_advance=1.0)
        budget = SearchBudget(deadline_s=0.5, clock=clock)
        with pytest.raises(SearchTimeout):
            engine.search("keyword", budget=budget,
                          options=SearchOptions(strict_deadline=True))

    def test_server_core_accepts_options(self):
        from repro.serve.core import ServerCore

        engine = GKSEngine.open(Texts(CORPUS))
        core = ServerCore(engine)
        try:
            via_options = core.search("keyword",
                                      options=SearchOptions(k=1))
            assert len(via_options.nodes) <= 1
            assert _signature(via_options) == \
                _signature(core.search("keyword", k=1))
        finally:
            core.close()

    def test_option_requests_skip_the_engine_cache(self):
        from repro.serve.core import ServerCore

        engine = GKSEngine.open(Texts(CORPUS))
        core = ServerCore(engine)
        try:
            core.search("keyword")
            core.search("keyword")   # LRU hit: identical, option-less
            assert engine.cache_info()["hits"] == 1
            before = engine.cache_info()
            # the record reaches the engine as it came: use_cache=False
            # excludes the request in both directions — no hit, no store
            core.search("keyword", options=SearchOptions(use_cache=False))
            assert engine.cache_info() == before
        finally:
            core.close()


@pytest.fixture()
def http_server():
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.config import ServeConfig
    from repro.serve.core import ServerCore
    from repro.serve.http import serve_http

    engine = GKSEngine.open(Texts(CORPUS))
    core = ServerCore(engine, ServeConfig(workers=2),
                      registry=MetricsRegistry())
    server = serve_http(core)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    core.close()


class TestHTTPOptions:
    def _post(self, base, body: dict):
        request = urllib.request.Request(
            f"{base}/search", data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.load(response)

    def test_options_object_travels_to_the_engine(self, http_server):
        status, payload = self._post(
            http_server, {"q": "keyword", "options": {"k": 1, "s": 1}})
        assert status == 200
        assert len(payload["nodes"]) <= 1

    def test_unknown_option_is_400(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as caught:
            self._post(http_server,
                       {"q": "keyword", "options": {"turbo": True}})
        assert caught.value.code == 400

    def test_explicit_params_win_over_options(self, http_server):
        _, via_options = self._post(
            http_server, {"q": "keyword search", "s": 1,
                          "options": {"s": 2}})
        _, direct = self._post(http_server, {"q": "keyword search",
                                             "s": 1})
        assert [n["dewey"] for n in via_options["nodes"]] == \
            [n["dewey"] for n in direct["nodes"]]


# ---------------------------------------------------------------------------
# The api facade
# ---------------------------------------------------------------------------
class TestApiFacade:
    def test_every_name_resolves(self):
        import repro.api as api

        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_facade_is_the_real_surface(self):
        import repro.api as api

        assert api.GKSEngine is GKSEngine
        assert api.EngineConfig is EngineConfig
        assert api.SearchOptions is SearchOptions
        assert api.resolve_codec is resolve_codec

    def test_quickstart_works_end_to_end(self, tmp_path):
        from repro.api import EngineConfig as Config
        from repro.api import GKSEngine as Engine
        from repro.api import SearchOptions as Options

        config = Config(index_path=tmp_path / "q.idx", codec="varint-dag")
        engine = Engine.open(CORPUS, config=config)
        response = engine.search("keyword search", options=Options(s=2))
        assert response.nodes
