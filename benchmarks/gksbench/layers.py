"""Traced-pass helpers shared by the workloads.

Every layer is measured from outside: a call into one of its public
functions, timed here, filed as a child span of the end-to-end call it
is part of.  A stage that cannot be observed *inside* its parent's
call (the parser inside ``GKSEngine.open``, ``merged_list`` inside
``search``) is replayed on the same input right after it and filed
with ``Spans.add``.
"""

from __future__ import annotations

import random
import time

from repro.core.lce import discover_lce
from repro.core.lcp import compute_lcp_list
from repro.core.merge import merged_list
from repro.core.ranking import rank_node
from repro.core.search import rank_response
from repro.index.builder import build_index
from repro.index.sharding import build_sharded_index
from repro.xmltree.repository import Repository

import common


def timed(function, *args, **kwargs):
    started = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - started


def zero_layers() -> dict[str, float]:
    return {name: 0.0 for name, _unit, _better in common.PER_LAYER}


def build_layers(spans: common.Spans, root: common.Span, corpus,
                 shards: int, layers: dict) -> Repository:
    """Replay the set-up of *corpus* layer by layer under *root*:
    parse, analyse, build (monolithic or sharded)."""
    repository, parse_s = timed(Repository.from_texts, corpus.texts)
    spans.add("xmltree.parser", parse_s, root)
    layers["xmltree.parser.parse_s"] = parse_s
    layers["xmltree.parser.mb_per_s"] = corpus.xml_bytes / 1e6 / parse_s

    if shards > 1:
        index, build_s = timed(build_sharded_index, repository,
                               shards=shards)
        name = "index.sharding"
        postings = [shard.index.inverted.total_postings
                    for shard in index.shards]
        layers["index.sharding.build_s"] = build_s
        layers["index.sharding.skew"] = (
            max(postings) / (sum(postings) / len(postings)))
        layers["index.builder.postings"] = float(sum(postings))
    else:
        index, build_s = timed(build_index, repository)
        name = "index.builder"
        layers["index.builder.build_s"] = build_s
        layers["index.builder.postings"] = float(
            index.inverted.total_postings)
    layers["index.builder.nodes_per_s"] = repository.total_nodes / build_s
    built = spans.add(name, build_s, root)

    analyzer = index.analyzer
    tokens = 0
    started = time.perf_counter()
    for node in repository.iter_nodes():
        tokens += len(analyzer.analyze_tag(node.tag))
        if node.has_text:
            tokens += len(analyzer.analyze(node.text))
    analyze_s = time.perf_counter() - started
    spans.add("text.analyzer", analyze_s, built)
    layers["text.analyzer.analyze_s"] = analyze_s
    layers["text.analyzer.tokens"] = float(tokens)
    return repository


class CountingRanker:
    """``rank_node`` behind a call counter and a stopwatch, passed as
    the public ``ranker=`` argument to see how many candidates a top-k
    search ranks in full."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, index, query, dewey):
        started = time.perf_counter()
        breakdown = rank_node(index, query, dewey)
        self.seconds += time.perf_counter() - started
        self.calls += 1
        return breakdown


class PipelineTotals:
    """Accumulates the stage replays of many queries."""

    def __init__(self) -> None:
        self.seconds = {"core.merge": [], "core.lcp": [], "core.lce": [],
                        "core.ranking": []}
        self.sl_entries = self.lcp_entries = self.lce_nodes = 0
        self.nodes_ranked = 0
        self.rank_seconds = 0.0

    def replay(self, spans: common.Spans, parent: common.Span, index,
               query):
        """Run *query* stage by stage on *index* (one shard, or the
        monolithic index); returns ``(ranked nodes, LCE result)``."""
        effective = query.with_s(query.effective_s)
        sl, merge_s = timed(merged_list, index, effective)
        lcp, lcp_s = timed(compute_lcp_list, sl, effective.s)
        lce, lce_s = timed(discover_lce, lcp, sl, index)
        nodes, rank_s = timed(rank_response, index, effective, lce,
                              rank_node)
        for name, seconds in (("core.merge", merge_s), ("core.lcp", lcp_s),
                              ("core.lce", lce_s), ("core.ranking", rank_s)):
            spans.add(name, seconds, parent)
            self.seconds[name].append(seconds)
        self.sl_entries += len(sl)
        self.lcp_entries += len(lcp)
        self.lce_nodes += len(lce.lce)
        self.nodes_ranked += len(nodes)
        self.rank_seconds += rank_s
        return nodes, lce

    def replay_shards(self, spans: common.Spans, parent: common.Span,
                      sharded, query):
        """Replay *query* on every shard of *sharded* and merge the
        rankings; returns ``(nodes, stage seconds, shards that answered)``."""
        assembled, seconds, hit = [], 0.0, 0
        for shard in sharded.shards:
            nodes, _ = self.replay(spans, parent, shard.index, query)
            seconds += sum(values[-1] for values in self.seconds.values())
            hit += bool(nodes)
            assembled += nodes
        assembled.sort(key=lambda node: node.sort_key())
        return assembled, seconds, hit

    def into(self, layers: dict) -> None:
        for name, values in self.seconds.items():
            layers[f"{name}.self_ms"] = common.ms(common.median(values))
        layers["core.merge.sl_entries"] = float(self.sl_entries)
        layers["core.lcp.entries"] = float(self.lcp_entries)
        layers["core.lce.nodes"] = float(self.lce_nodes)
        layers["core.ranking.nodes_ranked"] = float(self.nodes_ranked)
        if self.nodes_ranked:
            layers["core.ranking.us_per_node"] = (
                self.rank_seconds * 1e6 / self.nodes_ranked)


class Overhead:
    """What a span around a call costs: each call is made twice, with
    and without one, in an order drawn per call; ``ratio`` is traced ÷
    untraced ops/s over all of them."""

    def __init__(self, spans: common.Spans) -> None:
        self.spans = spans
        self.plain = self.traced = 0.0
        self._order = random.Random(0)

    def both(self, name: str, call):
        """Returns ``(result, span)`` of the run that had the span."""
        order = (True, False) if self._order.random() < 0.5 else (False, True)
        for with_span in order:
            begin = time.perf_counter()
            if with_span:
                self.spans.new_op()
                with self.spans.span(name) as span:
                    result = call()
                self.traced += time.perf_counter() - begin
            else:
                call()
                self.plain += time.perf_counter() - begin
        return result, span

    @property
    def ratio(self) -> float:
        return self.plain / self.traced if self.traced else 0.0
