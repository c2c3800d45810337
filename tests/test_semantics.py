"""Query-modes subsystem: p-document probabilistic evaluation, proven
against a brute-force oracle.

The probabilistic engine is checked against possible-worlds enumeration
(``repro.baselines.pworlds``) on hypothesis-generated p-documents,
across shard counts and both on-disk codecs.  Strict mode must stay
byte-identical to its pre-semantics behaviour.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import possible_worlds_probabilities
from repro.core.config import EngineConfig, SearchOptions
from repro.core.engine import GKSEngine
from repro.core.export import response_to_dict
from repro.core.query import Query
from repro.errors import ConfigError, ValidationError
from repro.index.storage import (check_index, describe_layout, load_index,
                                 save_index)
from repro.obs.metrics import MetricsRegistry
from repro.semantics import compile_tables, extract_pdoc
from repro.testing import KEYWORD_POOL, pdoc_corpus, pdoc_documents
from repro.xmltree.repository import Repository

pytestmark = pytest.mark.semantics

TOLERANCE = 1e-9


def _repository(documents: list[str]) -> Repository:
    repository = Repository()
    for number, text in enumerate(documents):
        repository.parse(text, name=f"pdoc{number}.xml")
    return repository


def _engine(documents: list[str], shards: int = 1,
            threshold: float = 0.0) -> GKSEngine:
    return GKSEngine(_repository(documents),
                     config=EngineConfig(mode="probabilistic",
                                         threshold=threshold,
                                         shards=shards))


def _probability_map(response) -> dict:
    return {node.dewey: node.probability for node in response.nodes}


def _query(draw) -> Query:
    count = draw(st.integers(min_value=1, max_value=2))
    keywords = draw(st.lists(st.sampled_from(KEYWORD_POOL),
                             min_size=count, max_size=count, unique=True))
    s = draw(st.integers(min_value=1, max_value=count))
    return Query.of(keywords, s=s)


@st.composite
def corpus_and_query(draw):
    documents = draw(pdoc_corpus(max_documents=2, max_uncertain=5))
    return documents, _query(draw)


# ---------------------------------------------------------------------
# probabilistic mode vs the possible-worlds oracle
# ---------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(corpus_and_query(), st.sampled_from([1, 2, 4]))
def test_probabilistic_matches_possible_worlds(case, shards):
    documents, query = case
    _assert_matches_oracle(_engine(documents, shards=shards), query)


def _assert_matches_oracle(engine: GKSEngine, query: Query) -> None:
    oracle = possible_worlds_probabilities(engine.repository, query)
    response = engine.search(query)
    assert response.semantics is not None
    assert response.semantics.mode == "probabilistic"
    produced = _probability_map(response)
    for dewey, probability in produced.items():
        assert probability == pytest.approx(oracle.get(dewey, 0.0),
                                            abs=TOLERANCE)
    for dewey, probability in oracle.items():
        if probability > TOLERANCE:
            assert dewey in produced, (dewey, probability)


@settings(max_examples=15, deadline=None)
@given(documents=st.lists(pdoc_documents(max_uncertain=3),
                          min_size=2, max_size=4),
       query=st.composite(_query)(),
       shards=st.sampled_from([1, 2]), store=st.booleans())
def test_probabilistic_add_path_matches_possible_worlds(documents, query,
                                                        shards, store):
    """Tables are compiled from the repository, so a fed engine serves
    probabilistic queries — with a store through add → flush → compact
    → reopen, nothing about them persisted."""
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        config = EngineConfig(mode="probabilistic", shards=shards,
                              store_path=(Path(tmp) / "store" if store
                                          else None),
                              memtable_docs=2, compact_segments=2)
        engine = GKSEngine.open(_repository(documents[:1]), config=config)
        for number, text in enumerate(documents[1:], start=1):
            engine.add_document(text, name=f"pdoc{number}.xml")
            _assert_matches_oracle(engine, query)
        if not store:
            return
        engine.flush()
        _assert_matches_oracle(engine, query)
        engine.compact()
        _assert_matches_oracle(engine, query)
        engine.close()
        reopened = GKSEngine.open(_repository(documents[:1]),
                                  config=config)
        assert len(reopened.repository) == len(documents)
        _assert_matches_oracle(reopened, query)
        reopened.close()


@settings(max_examples=15, deadline=None)
@given(corpus_and_query(), st.floats(min_value=0.1, max_value=0.9))
def test_threshold_filters_consistently(case, threshold):
    documents, query = case
    engine = _engine(documents)
    full = _probability_map(engine.search(query))
    cut = _probability_map(engine.search(query, threshold=threshold))
    assert cut == {dewey: probability
                   for dewey, probability in full.items()
                   if probability >= threshold}


@settings(max_examples=15, deadline=None)
@given(case=corpus_and_query(),
       codec=st.sampled_from(["raw", "varint-dag"]),
       shards=st.sampled_from([1, 2]))
def test_probabilistic_survives_persistence(case, codec, shards):
    """Nothing probabilistic is saved: a probabilistic engine and a
    strict engine over a probabilistic engine's saved index answer
    probabilistic queries exactly as the possible-worlds oracle."""
    import tempfile
    from pathlib import Path

    documents, query = case
    with tempfile.TemporaryDirectory() as tmp:
        path = save_index(GKSEngine.open(
            _repository(documents),
            config=EngineConfig(mode="probabilistic", shards=shards)).index,
            Path(tmp) / f"index-{codec}-{shards}.idx", codec=codec)
        answers = [
            _probability_map(GKSEngine(
                _repository(documents), index=load_index(path),
                config=EngineConfig(mode=mode)
            ).search(query, mode="probabilistic"))
            for mode in ("probabilistic", "strict")]
    reopened, strict = answers
    assert list(reopened) == list(strict)
    oracle = possible_worlds_probabilities(_repository(documents), query)
    for dewey, probability in reopened.items():
        assert strict[dewey] == pytest.approx(probability, abs=TOLERANCE)
        assert probability == pytest.approx(oracle.get(dewey, 0.0),
                                            abs=TOLERANCE)
    assert {dewey for dewey, probability in oracle.items()
            if probability > TOLERANCE} <= set(reopened)


@settings(max_examples=20, deadline=None)
@given(corpus_and_query())
def test_sharded_equals_monolithic(case):
    documents, query = case
    flat = _probability_map(_engine(documents, shards=1).search(query))
    sharded = _probability_map(_engine(documents, shards=4).search(query))
    assert set(flat) == set(sharded)
    for dewey, probability in flat.items():
        assert sharded[dewey] == pytest.approx(probability, abs=TOLERANCE)


def test_probabilistic_budget_degrades_to_subset():
    from repro.core.budget import SearchBudget

    documents = ['<root><item p:type="IND">'
                 '<name p:p="0.5">apple</name><name>banana</name>'
                 '</item></root>'] * 3
    engine = _engine(documents)
    full = engine.search("apple")
    tight = engine.search("apple",
                          budget=SearchBudget(max_nodes=1))
    assert tight.degraded
    produced = _probability_map(tight)
    reference = _probability_map(full)
    assert set(produced) <= set(reference)
    for dewey, probability in produced.items():
        assert probability == pytest.approx(reference[dewey],
                                            abs=TOLERANCE)


def test_max_nodes_caps_the_whole_sharded_answer():
    """``max_nodes`` counts the answer, not each unit's part: two shards
    degrade to a capped part of the full answer, as one does."""
    from repro.core.budget import SearchBudget

    documents = ["<root><a>apple</a></root>"] * 4
    for shards in (1, 2):
        engine = _engine(documents, shards=shards)
        full = _probability_map(engine.search("apple"))
        response = engine.search("apple", budget=SearchBudget(max_nodes=4))
        assert response.degraded
        assert response.degradation.reason == "max_nodes"
        capped = _probability_map(response)
        assert len(capped) == 4 < len(full)
        assert capped.items() <= full.items()


@pytest.mark.parametrize("shards", [1, 2])
def test_probabilistic_search_applies_no_sl_cap(shards):
    """``max_sl`` caps the strict pipeline only: cutting a document's
    keyword list short would change the probabilities of the nodes
    kept, so a probabilistic answer under ``max_sl=1`` is the full one."""
    from repro.core.budget import SearchBudget
    from repro.core.config import Texts
    from tests.test_pdoc_golden import PDOC_CORPUS

    engine = GKSEngine.open(Texts(PDOC_CORPUS), config=EngineConfig(
        mode="probabilistic", shards=shards))
    budget = SearchBudget(max_sl=1)
    response = engine.search("apple banana", s=2, budget=budget)
    assert [(node.dewey, node.probability) for node in response.nodes] == [
        ((0,), 1.0), ((0, 0), 1.0), ((0, 0, 3), 1.0), ((0, 0, 3, 0), 1.0),
        ((1,), 0.6), ((2,), 0.3), ((2, 0), 0.3), ((2, 0, 0), 0.3),
        ((1, 0), 0.0)]
    assert not response.degraded
    assert response.degradation is None and budget.report is None
    assert (response.stats.postings_scanned,
            response.stats.semantics_candidates) == (8, 9)


# ---------------------------------------------------------------------
# there is no relaxed mode: every surface rejects it the same way
# ---------------------------------------------------------------------
def test_relaxed_mode_is_rejected_on_every_surface(tmp_path, capsys):
    import json
    import threading
    import urllib.error
    import urllib.request

    from repro.cli import main
    from repro.serve import ServeConfig, ServerCore, serve_http

    documents = ["<root><a>apple</a></root>"]
    engine = GKSEngine(_repository(documents))
    with pytest.raises(ConfigError, match="relaxed") as rejected:
        engine.search("apple", mode="relaxed")
    with pytest.raises(ConfigError, match="relaxed"):
        EngineConfig(mode="relaxed")

    corpus = tmp_path / "doc.xml"
    corpus.write_text(documents[0], encoding="utf-8")
    with pytest.raises(SystemExit) as caught:
        main(["search", str(corpus), "-q", "apple", "--mode", "relaxed"])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "'relaxed'" in errors[0]

    core = ServerCore(engine, ServeConfig(workers=1),
                      registry=MetricsRegistry())
    server = serve_http(core)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    url = (f"http://127.0.0.1:{server.server_address[1]}"
           "/search?q=apple&mode=relaxed")
    try:
        with pytest.raises(urllib.error.HTTPError) as failed:
            urllib.request.urlopen(url, timeout=10)
    finally:
        server.shutdown()
        server.server_close()
        core.close()
        thread.join(timeout=10)
    # the wire reports a bad option as a ValidationError, same message
    assert failed.value.code == 400
    assert json.load(failed.value) == {"error": str(rejected.value),
                                       "type": "ValidationError"}


# ---------------------------------------------------------------------
# strict mode stays byte-identical
# ---------------------------------------------------------------------
def test_strict_response_carries_no_semantics_keys(figure1_engine):
    response = figure1_engine.search("karen mike", s=2)
    assert response.semantics is None
    payload = response_to_dict(response,
                               repository=figure1_engine.repository)
    assert "semantics" not in payload
    for node, node_payload in zip(response.nodes, payload["nodes"]):
        assert node.probability is None
        assert "probability" not in node_payload
    stats = response.stats.to_dict()
    assert "mode" not in stats
    assert "semantics_candidates" not in stats


@pytest.mark.parametrize("codec", ["raw", "varint-dag"])
def test_index_files_record_no_mode(tmp_path, codec):
    documents = ['<root><item p:type="IND">'
                 '<name p:p="0.5">apple</name></item></root>']
    engine = GKSEngine.open(_repository(documents),
                            config=EngineConfig(mode="probabilistic"))
    path = save_index(engine.index, tmp_path / "prob.idx", codec=codec)
    assert "mode" not in describe_layout(path)
    assert "mode" not in check_index(path)


# ---------------------------------------------------------------------
# every engine serves every mode
# ---------------------------------------------------------------------
def test_strict_engine_answers_probabilistic_queries(figure1_engine):
    strict = figure1_engine.search("x1 x2", s=2)
    response = figure1_engine.search("x1 x2", s=2, mode="probabilistic")
    assert response.semantics.mode == "probabilistic"
    # a corpus without p: annotations is certain everywhere
    assert {node.probability for node in response.nodes} == {1.0}
    assert strict.nodes
    assert {node.dewey for node in strict.nodes} <= {
        node.dewey for node in response.nodes}


def test_strict_engine_opens_a_probabilistic_cache(tmp_path, monkeypatch):
    documents = ['<root><item p:type="IND">'
                 '<name p:p="0.5">apple</name></item></root>']
    engine = GKSEngine.open(_repository(documents),
                            config=EngineConfig(mode="probabilistic"))
    engine.search("apple")
    path = save_index(engine.index, tmp_path / "prob.idx")
    compiled = []

    def counting(repository, memo=None):
        compiled.append(repository)
        return compile_tables(repository, memo)

    monkeypatch.setattr("repro.semantics.compile_tables", counting)
    strict = GKSEngine(_repository(documents), index=load_index(path))
    assert strict.search("apple").semantics is None
    assert not compiled  # opening and strict queries compile nothing
    for _ in range(2):
        response = strict.search("apple", mode="probabilistic")
        assert {node.probability for node in response.nodes} == {0.5}
    assert len(compiled) == 1  # once per generation


def test_malformed_annotation_fails_the_first_probabilistic_query():
    documents = ['<root><a p:type="IND"><x p:p="nope">apple</x></a></root>']
    engine = _engine(documents)
    assert engine.search("apple", mode="strict").nodes
    for _ in range(2):
        with pytest.raises(ValidationError):
            engine.search("apple")


def test_search_options_validate_mode_and_threshold():
    with pytest.raises(ConfigError):
        SearchOptions(mode="fuzzy")
    with pytest.raises(ConfigError):
        SearchOptions(threshold=1.5)
    options = SearchOptions.from_mapping(
        {"mode": "probabilistic", "threshold": "0.25"})
    assert options.mode == "probabilistic"
    assert options.threshold == 0.25


# ---------------------------------------------------------------------
# p-document extraction
# ---------------------------------------------------------------------
def test_extract_ind_and_mux_normalisation():
    repository = _repository([
        '<root>'
        '<a p:type="IND"><x p:p="0.5">apple</x><y>banana</y></a>'
        '<b p:type="MUX"><x p:p="0.6">fig</x><y p:p="0.9">durian</y></b>'
        '</root>'])
    tables = compile_tables(repository)
    kinds = {dewey: kind for dewey, kind in tables.kinds.items()}
    assert sorted(kinds.values()) == ["IND", "MUX"]
    mux_parent = next(d for d, kind in kinds.items() if kind == "MUX")
    weights = sorted(tables.edge_p[m]
                     for m in tables.mux_siblings(mux_parent))
    # 0.6 + 0.9 > 1 normalises to 0.4 / 0.6
    assert weights == [pytest.approx(0.4), pytest.approx(0.6)]


def test_extract_rejects_malformed_probability():
    repository = _repository(
        ['<root><a p:type="IND"><x p:p="nope">apple</x></a></root>'])
    with pytest.raises(ValidationError):
        extract_pdoc(repository.documents[0].root)


def test_plain_document_has_empty_tables(figure1_repo):
    assert not compile_tables(figure1_repo)


def test_tables_may_hold_documents_the_index_does_not():
    """A search captures its index snapshot before the tables: a racing
    add can put a deeper document in the tables than the snapshot's
    layout holds.  Its nodes are skipped, not a ``DeweyError``."""
    from repro.semantics import probabilistic_search

    shallow = '<r><s p:type="IND"><i p:p="0.5">apple</i></s></r>'
    deep = ('<r><s><s><s><s p:type="IND"><i p:p="0.25">apple</i><i/><i/>'
            '<i/><i/><i/><i/><i/><i/></s></s></s></s></r>')
    engine = GKSEngine(_repository([shallow]))
    query = engine.parse_query("apple")
    alone = probabilistic_search(engine.index, query,
                                 compile_tables(_repository([shallow])))
    raced = probabilistic_search(engine.index, query,
                                 compile_tables(_repository([shallow, deep])))
    assert _probability_map(raced) == _probability_map(alone) == {
        (0,): 0.5, (0, 0): 0.5, (0, 0, 1): 0.5}


# ---------------------------------------------------------------------
# serve-layer plumbing and metrics
# ---------------------------------------------------------------------
def test_serve_core_threads_mode_options():
    documents = ['<root><item p:type="IND">'
                 '<name p:p="0.5">apple</name></item></root>']
    engine = _engine(documents)
    with engine.serve(workers=2) as core:
        response = core.search(
            "apple", None,
            options=SearchOptions(mode="probabilistic", threshold=0.4))
        assert response.semantics is not None
        assert {node.probability for node in response.nodes} == {0.5}
        strict = core.search("apple", None,
                             options=SearchOptions(mode="strict"))
        assert strict.semantics is None


def test_semantics_metrics_emitted():
    documents = ['<root><item p:type="IND">'
                 '<name p:p="0.5">apple</name></item></root>']
    engine = _engine(documents)
    engine.search("apple")
    snapshot = engine.metrics()
    names = {name.split("{")[0] for name in snapshot}
    assert "gks_semantics_searches_total" in names
    assert "gks_semantics_seconds" in names


@pytest.mark.parametrize("mode", ["probabilistic"])
def test_top_k_counts_the_nodes_it_returns(mode):
    """Stats, the emitted-nodes counter and the slow log of a
    probabilistic top-k request all count the head, not the full
    answer."""
    documents = ["<root><a>alpha beta</a></root>"] * 3
    registry = MetricsRegistry()
    engine = GKSEngine(_repository(documents), metrics=registry,
                       slow_query_threshold_s=0.0,
                       config=EngineConfig(mode=mode))
    assert len(engine.search("alpha beta", mode=mode, use_cache=False)) > 1
    registry.reset()
    response = engine.search("alpha beta", k=1, mode=mode)
    assert len(response) == 1
    assert response.stats.nodes_emitted == 1
    assert registry.counter("gks_search_nodes_emitted_total").value() == 1
    assert engine.slow_log.entries()[-1].stats.nodes_emitted == 1
