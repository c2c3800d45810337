"""The ``/search`` body is ``json.dumps`` of the library's dict view,
byte for byte, and a node's kept JSON fragment never leaks.

The server writes its body with :func:`repro.core.export.response_to_json`
and keeps each node's rendered JSON object on the node; the library's
:func:`~repro.core.export.response_to_dict` stays the reference.  Every
body here is read from a real ``serve_http`` socket and compared with
``json.dumps({**response_to_dict(r, repo), "serve": envelope})`` for the
very response ``r`` the server answered with.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import threading
import urllib.request
from contextlib import contextmanager
from urllib.parse import urlencode

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.budget import SearchBudget
from repro.core.config import EngineConfig, Texts
from repro.core.engine import GKSEngine
from repro.core.export import (node_to_dict, response_to_dict,
                               response_to_json)
from repro.core.results import RankedNode
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeConfig, ServerCore, serve_http
from repro.serve.http import _serve_envelope
from repro.xmltree.node import XMLNode
from repro.xmltree.repository import Repository
from tests.test_wire_golden import DOCUMENTS

pytestmark = pytest.mark.serve


class BudgetEngine:
    """Runs every search under a fresh ``SearchBudget(max_sl=3)``: the
    wire golden's degraded case, reached through the server."""

    def __init__(self, engine) -> None:
        self._engine = engine

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def search(self, *args, **kwargs):
        kwargs["budget"] = SearchBudget(max_sl=3)
        return self._engine.search(*args, **kwargs)


@contextmanager
def _served(engine):
    """A live ``serve_http`` over *engine*; yields ``fetch(params)`` →
    ``(body bytes, the response the server answered with)``."""
    core = ServerCore(engine, ServeConfig(workers=2),
                      registry=MetricsRegistry())
    answered = []
    search = core.search

    def recording(*args, **kwargs):
        response = search(*args, **kwargs)
        answered.append(response)
        return response

    core.search = recording
    server = serve_http(core)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"

    def fetch(params: dict) -> tuple[bytes, object]:
        with urllib.request.urlopen(f"{base}/search?{urlencode(params)}",
                                    timeout=10) as reply:
            assert reply.status == 200
            body = reply.read()
        return body, answered[-1]

    try:
        yield fetch
    finally:
        server.shutdown()
        server.server_close()
        core.close()


def _library_body(response, repository) -> bytes:
    return json.dumps({**response_to_dict(response, repository),
                       "serve": _serve_envelope(response)}).encode("utf-8")


def _nodes_text(body: bytes) -> bytes:
    """The raw ``"nodes"`` array of a body, as sent (the ``serve``
    envelope is the last key)."""
    return body[body.index(b'"nodes": ['):body.rindex(b', "serve": ')]


# ---------------------------------------------------------------------------
# served bodies against the library's dict view
# ---------------------------------------------------------------------------
#: the four ``tests/test_wire_golden.py`` answers, through a server
WIRE_CASES = {
    "strict": ({}, False),
    "sharded": ({"shards": 2}, False),
    "degraded": ({}, True),
    "probabilistic": ({"mode": "probabilistic", "threshold": 0.1}, False),
}


@pytest.mark.parametrize("case", sorted(WIRE_CASES))
def test_golden_cases_serve_the_library_bytes(case):
    config, budgeted = WIRE_CASES[case]
    engine = GKSEngine.open(Texts(DOCUMENTS), EngineConfig(**config))
    served = BudgetEngine(engine) if budgeted else engine
    s = 1 if budgeted else 2
    with _served(served) as fetch:
        body, response = fetch({"q": "apple banana", "s": s})
    assert body == _library_body(response, engine.repository)
    payload = json.loads(body)
    assert payload["nodes"]
    assert ("semantics" in payload) == (case == "probabilistic")
    assert payload["serve"]["degraded"] == budgeted


def _wide_engine(book: str = "book", **config) -> GKSEngine:
    """Five documents of six books; *book* names the book elements."""
    words = ["apple", "banana", "cherry", "date"]
    texts = [
        "<lib>" + "".join(
            f"<shelf><{book}><title>{words[i % 4]} {words[(i + j) % 4]}"
            f"</title><note>{words[(i * j) % 4]}</note></{book}></shelf>"
            for j in range(6)) + "</lib>"
        for i in range(5)]
    return GKSEngine.open(Texts(texts), EngineConfig(**config))


def test_top_k_request_serves_the_library_bytes():
    engine = _wide_engine(shards=2)
    with _served(engine) as fetch:
        body, response = fetch({"q": "apple banana", "s": 1, "k": 10})
    assert len(response) == 10
    assert body == _library_body(response, engine.repository)


def test_miss_then_hit_serve_the_same_nodes_bytes():
    engine = _wide_engine()
    with _served(engine) as fetch:
        miss, first = fetch({"q": "apple cherry", "s": 1})
        hit, second = fetch({"q": "apple cherry", "s": 1})
        head, third = fetch({"q": "apple cherry", "s": 1, "k": 3})
    assert json.loads(miss)["serve"]["cache_hit"] is False
    assert json.loads(hit)["serve"]["cache_hit"] is True
    assert miss == _library_body(first, engine.repository)
    assert hit == _library_body(second, engine.repository)
    assert head == _library_body(third, engine.repository)
    assert _nodes_text(miss) == _nodes_text(hit)
    # the hit and its head share the cached response's node objects
    assert all(a is b for a, b in zip(first.nodes, second.nodes))
    assert all(a is b for a, b in zip(first.nodes, third.nodes))


# ---------------------------------------------------------------------------
# escaping and numbers: hand-built tags, and a ranker's own evidence
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class _Evidence:
    """What a custom ranker returns: the fields ranking reads."""

    score: object
    initial_potential: object
    matched_keywords: tuple


class _ScriptedRanker:
    """Hands out scores, potentials and keyword tuples round-robin."""

    def __init__(self, scores, potentials, keywords) -> None:
        self.scores, self.potentials = scores, potentials
        self.keywords = keywords
        self.calls = 0

    def __call__(self, index, query, dewey):
        turn = self.calls
        self.calls += 1
        return _Evidence(self.scores[turn % len(self.scores)],
                         self.potentials[turn % len(self.potentials)],
                         self.keywords[turn % len(self.keywords)])


def _tree_repository(tags: list[str]) -> Repository:
    """One document labelled with *tags* (any string: the tree is built
    by hand, not parsed): a section per tag, each holding the query's
    words, so every section is an answer node."""
    repository = Repository()
    root = XMLNode(tags[0], (0,))
    for position, tag in enumerate(tags):
        section = root.add_child(tag)
        section.add_child(tags[position - 1], text="apple")
        section.add_child(tags[position - 2], text="banana cherry")
    repository.add_root(root)
    return repository


#: text with what JSON must escape: quotes, backslashes, control
#: characters, non-ASCII (including astral-plane) letters
_AWKWARD = st.text(
    alphabet=st.sampled_from(list('"\\\x00\x01\x1f\x7f\n\t/éü€中😀ab ')),
    min_size=1, max_size=8)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tags=st.lists(_AWKWARD, min_size=2, max_size=5),
       keywords=st.lists(st.lists(_AWKWARD, max_size=3).map(tuple),
                         min_size=1, max_size=3))
def test_awkward_tags_and_keywords_serve_the_library_bytes(tags, keywords):
    repository = _tree_repository(tags)
    ranker = _ScriptedRanker([0.5, 1.25], [1, 2], keywords)
    engine = GKSEngine(repository, config=EngineConfig(ranker=ranker))
    with _served(engine) as fetch:
        body, response = fetch({"q": "apple banana é", "s": 1})
    assert response.nodes
    assert body == _library_body(response, repository)
    payload = json.loads(body)
    assert {tuple(node["matched_keywords"]) for node in payload["nodes"]} \
        <= set(keywords)
    assert all(set(node["tag_path"]) <= set(tags)
               for node in payload["nodes"])


def test_non_finite_scores_and_non_int_potentials_print_as_json_does():
    scores = [math.inf, -math.inf, math.nan, 1e300, 0.1, -0.0, 7, True]
    potentials = [2.5, 3, True, 1e-7, -0.0, 2 ** 70, math.nan, False]
    ranker = _ScriptedRanker(scores, potentials, [("apple",)])
    repository = _tree_repository(list("abcdefgh"))
    engine = GKSEngine(repository, config=EngineConfig(ranker=ranker))
    with _served(engine) as fetch:
        body, response = fetch({"q": "apple banana", "s": 1})
    assert len(response) >= len(scores)
    assert body == _library_body(response, repository)
    for text in (b"Infinity", b"-Infinity", b"NaN", b"1e+300", b"2.5",
                 b"1e-07", b"-0.0", str(2 ** 70).encode()):
        assert text in body


# ---------------------------------------------------------------------------
# the fragment kept on a node
# ---------------------------------------------------------------------------
@pytest.fixture()
def cached():
    """An engine with its cache on, and one response rendered once."""
    engine = _wide_engine()
    response = engine.search("apple banana", s=1)
    response_to_json(response, engine.repository)
    return engine, response


def test_replace_renders_afresh(cached):
    engine, response = cached
    node = response.nodes[0]
    changed = dataclasses.replace(node, score=node.score + 1.0,
                                  dewey=response.nodes[-1].dewey)
    assert "_json" in node.__dict__
    assert "_json" not in changed.__dict__
    relaid = dataclasses.replace(response, nodes=(changed,))
    assert response_to_json(relaid, engine.repository) == json.dumps(
        response_to_dict(relaid, engine.repository)).encode("utf-8")
    assert json.loads(response_to_json(relaid, engine.repository))[
        "nodes"] == [node_to_dict(changed, engine.repository)]


def test_equality_hash_and_repr_ignore_the_fragment(cached):
    _engine, response = cached
    for node in response.nodes:
        fresh = dataclasses.replace(node)
        assert "_json" in node.__dict__ and "_json" not in fresh.__dict__
        assert node == fresh
        assert hash(node) == hash(fresh)
        assert repr(node) == repr(fresh)
        assert "_json" not in repr(node)


def test_other_repository_or_none_never_gets_the_fragment(cached):
    engine, response = cached
    # the same Dewey ids under other labels
    other = _wide_engine(book="renamed").repository
    for repository in (other, None, engine.repository, other, None):
        body = response_to_json(response, repository, {"serve": {}})
        assert body == json.dumps(
            {**response_to_dict(response, repository),
             "serve": {}}).encode("utf-8")
    assert b'"renamed"' in response_to_json(response, other)
    for node in response.nodes:
        assert node.__dict__["_json"][0] is engine.repository


def test_threads_encoding_one_cached_response_agree():
    engine = _wide_engine()
    engine.search("apple banana date", s=1)
    response = engine.search("apple banana date", s=1)  # the cached one
    assert response.stats.cache_hit
    assert not any("_json" in node.__dict__ for node in response.nodes)
    expected = json.dumps(response_to_dict(
        response, engine.repository)).encode("utf-8")
    barrier = threading.Barrier(4)
    bodies: list[list[bytes]] = [[] for _ in range(4)]

    def encode(slot: int) -> None:
        barrier.wait(timeout=10)
        for _ in range(20):
            bodies[slot].append(response_to_json(response,
                                                 engine.repository))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=encode, args=(slot,))
                   for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(body == expected for slot in bodies for body in slot)
    assert sum(map(len, bodies)) == 80


def test_search_without_export_keeps_no_fragment():
    engine = _wide_engine(shards=2)
    for k in (None, 3):
        response = engine.search("apple banana", s=1, k=k)
        assert response.nodes
        assert not any("_json" in node.__dict__ for node in response.nodes)
    assert all(set(node.__dict__) <= {f.name for f in dataclasses.fields(
        RankedNode)} | {"_terminals"} for node in response.nodes)


def test_a_hit_renders_no_node(cached, monkeypatch):
    engine, response = cached
    hit = engine.search("apple banana", s=1)
    assert hit.stats.cache_hit
    from repro.core import export

    rendered = []
    format_dewey = export.format_dewey
    monkeypatch.setattr(export, "format_dewey",
                        lambda dewey: rendered.append(dewey)
                        or format_dewey(dewey))
    response_to_json(hit, engine.repository)
    response_to_json(hit.head(2), engine.repository)
    assert rendered == []
    response_to_json(hit, None)  # another repository renders afresh
    assert len(rendered) == len(hit)
