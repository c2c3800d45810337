"""No-but-semantic-match relaxation for empty strict results.

When strict ``min(s, |Q|)`` search returns nothing, this pipeline
rewrites the query with *single-edit* relaxations drawn from a
vocabulary derived from the corpus itself — the same attribute
co-occurrence structure the §6 data-independence analysis mines — and
serves the union of the rewrites' strict results, penalty-ranked and
provenance-marked:

* **tag generalization** (penalty 0.25): a query keyword that names an
  element tag is replaced by a parent tag's keyword — climbing the
  schema one level (``title`` → ``book``).
* **sibling-term substitution** (penalty 0.30): a keyword is replaced
  by a term that co-occurs in a *sibling* element somewhere in the
  corpus — the DI intuition that siblings of a match carry the
  semantically adjacent vocabulary.
* **keyword drop** (penalty 0.40): one keyword is removed (only for
  ``|Q| > 1``); the cheapest edit semantically but the costliest in
  precision, hence the highest penalty.

Candidates are enumerated exhaustively (no sampling, no caps — the
brute-force oracle in ``repro.baselines.relaxation`` re-derives the
same set independently), evaluated in deterministic ``(penalty, op,
source, replacement)`` order through the caller-supplied strict search
function, deduplicated per result node keeping the cheapest edit, and
ranked by ``(penalty, -score, dewey)``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable

from repro.core.budget import SearchBudget
from repro.core.query import Query
from repro.core.results import (GKSResponse, RankedNode, RelaxationStep,
                                SemanticsInfo, respond)
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.trace import NOOP_TRACER
from repro.text.analyzer import Analyzer
from repro.xmltree.repository import Repository
from repro.xmltree.tree import XMLDocument

#: Fixed edit penalties; cheaper edits always outrank costlier ones.
PENALTIES = {"generalize": 0.25, "substitute": 0.30, "drop": 0.40}

SearchFn = Callable[[Query], GKSResponse]


@dataclasses.dataclass(frozen=True)
class RelaxVocabulary:
    """The corpus-derived rewrite vocabulary.

    ``tag_parents`` maps a tag keyword to the tag keywords of elements
    it appears *under*; ``siblings`` maps a directly-contained keyword
    to the keywords directly contained by its sibling elements.
    """

    tag_parents: dict[str, frozenset[str]]
    siblings: dict[str, frozenset[str]]


def document_vocabulary(document: XMLDocument, analyzer: Analyzer
                        ) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """One document's ``(tag_parents, siblings)`` from its element stream:
    an element relates its children's keywords when it closes."""
    tag_parents: dict[str, set[str]] = {}
    siblings: dict[str, set[str]] = {}
    # per open element: its closed children's (tag keywords, keywords)
    families: list[list[tuple]] = [[]]

    def start(dewey, tag):
        families.append([])

    def end(dewey, tag, text):
        children = families.pop()
        tags = analyzer.analyze_tag(tag)
        keywords = set(tags)
        if text and text.strip():
            keywords.update(analyzer.analyze(text))
        families[-1].append((tags, keywords))
        if not children:
            return
        counts: dict[str, int] = {}
        for _, terms in children:
            for term in terms:
                counts[term] = counts.get(term, 0) + 1
        for child_tags, terms in children:
            for keyword in child_tags:
                tag_parents.setdefault(keyword, set()).update(tags)
            # Terms in other children: count≥2 means the term also occurs
            # outside this child; count==1 outside means it occurs only
            # elsewhere.
            others = {term for term, count in counts.items()
                      if count >= 2 or term not in terms}
            for keyword in terms:
                siblings.setdefault(keyword, set()).update(
                    others - {keyword})

    document.stream(start, end)
    return tag_parents, siblings


def relaxation_vocabulary(repository: Repository, analyzer: Analyzer,
                          memo: dict | None = None) -> RelaxVocabulary:
    """Merge the documents' vocabularies into the single-edit one.

    A term ``t`` is a sibling term of ``k`` iff some parent has two
    distinct children ``a ≠ b`` with ``k`` directly in ``a`` and ``t``
    directly in ``b``; a tag keyword ``g`` generalizes ``k`` iff some
    element whose tag analyzes to ``k`` sits under an element whose tag
    analyzes to ``g``.  *memo* (doc id → :func:`document_vocabulary`)
    keeps each document's part across calls.
    """
    tag_parents: dict[str, set[str]] = {}
    siblings: dict[str, set[str]] = {}
    memo = {} if memo is None else memo
    for document in repository:
        part = memo.get(document.doc_id)
        if part is None:
            part = memo[document.doc_id] = document_vocabulary(document,
                                                               analyzer)
        for merged, found in zip((tag_parents, siblings), part):
            for keyword, terms in found.items():
                merged.setdefault(keyword, set()).update(terms)
    return RelaxVocabulary(
        tag_parents={k: frozenset(v - {k}) for k, v in tag_parents.items()},
        siblings={k: frozenset(v) for k, v in siblings.items()})


def relaxation_candidates(vocabulary: RelaxVocabulary,
                          query: Query) -> list[RelaxationStep]:
    """Every single-edit rewrite of *query*, cheapest first.

    Rewrites that collapse onto an existing query keyword are skipped;
    duplicate keyword tuples keep only their cheapest edit.  The order —
    ``(penalty, op, source, replacement)`` — is total and deterministic,
    and the exhaustive-relaxation oracle reproduces it.
    """
    keywords = query.keywords
    steps: list[RelaxationStep] = []
    for keyword in keywords:
        rest = tuple(k for k in keywords if k != keyword)
        for parent in sorted(vocabulary.tag_parents.get(keyword, ())):
            if parent not in keywords:
                steps.append(RelaxationStep(
                    op="generalize", source=keyword, replacement=parent,
                    keywords=tuple(parent if k == keyword else k
                                   for k in keywords),
                    penalty=PENALTIES["generalize"]))
        for term in sorted(vocabulary.siblings.get(keyword, ())):
            if term not in keywords:
                steps.append(RelaxationStep(
                    op="substitute", source=keyword, replacement=term,
                    keywords=tuple(term if k == keyword else k
                                   for k in keywords),
                    penalty=PENALTIES["substitute"]))
        if len(keywords) > 1:
            steps.append(RelaxationStep(
                op="drop", source=keyword, replacement=None, keywords=rest,
                penalty=PENALTIES["drop"]))
    steps.sort(key=lambda step: (step.penalty, step.op, step.source,
                                 step.replacement or ""))
    deduped: dict[tuple[str, ...], RelaxationStep] = {}
    for step in steps:
        deduped.setdefault(step.keywords, step)
    return sorted(deduped.values(),
                  key=lambda step: (step.penalty, step.op, step.source,
                                    step.replacement or ""))


def merge_relaxed(results: Iterable[tuple[RelaxationStep, GKSResponse]]
                  ) -> list[RankedNode]:
    """Dedup per-rewrite results by node, keeping the cheapest edit.

    *results* must already be in candidate (cheapest-first) order; ties
    on a node therefore resolve to the earlier candidate.  The merged
    list ranks by ``(penalty, -score, dewey)``.
    """
    merged: dict[tuple, RankedNode] = {}
    for step, response in results:
        for node in response.nodes:
            if node.dewey not in merged:
                merged[node.dewey] = dataclasses.replace(
                    node, relaxation=step)
    return sorted(merged.values(),
                  key=lambda node: (node.relaxation.penalty, -node.score,
                                    node.dewey))


def relax_search(query: Query, vocabulary: RelaxVocabulary,
                 search_fn: SearchFn, *,
                 budget: SearchBudget | None = None,
                 tracer=None,
                 registry: MetricsRegistry | None = None) -> GKSResponse:
    """Rescue an empty strict result via single-edit relaxations.

    The caller has already established that strict search over *query*
    is empty; *search_fn* runs one strict query (the engine passes its
    own monolithic/sharded pipeline).  Under a tripped *budget* the
    candidate sweep stops early and the response degrades with whatever
    rewrites completed — a strict subset of the unbudgeted answer.
    """
    if tracer is None:
        tracer = NOOP_TRACER
    if registry is None:
        registry = global_registry()
    clock = tracer.clock
    effective = query.with_s(query.effective_s)
    # The budget is deliberately NOT (re)armed here: the engine's relaxed
    # flow passes the budget that already timed the strict phase, and
    # restarting it would hand the sweep a fresh deadline.  A cold budget
    # auto-arms at the first checkpoint.

    candidates = relaxation_candidates(vocabulary, effective)
    hits: list[tuple[RelaxationStep, GKSResponse]] = []
    with tracer.span("relax_search", query=" ".join(effective.keywords),
                     s=effective.s, candidates=len(candidates)) as root:
        started = clock()
        for processed, step in enumerate(candidates):
            if budget is not None and budget.checkpoint(
                    "relax", processed, len(candidates)):
                break
            rewritten = Query.of(step.keywords, s=effective.s)
            with tracer.span("candidate", op=step.op,
                             rewrite=" ".join(step.keywords)) as span:
                response = search_fn(rewritten)
                span.add("nodes", len(response))
            registry.counter(
                "gks_semantics_relaxations_total",
                help="Relaxation rewrites evaluated, by operator."
            ).inc(labels={"op": step.op})
            if response.nodes:
                hits.append((step, response))
        nodes = merge_relaxed(hits)
        finished = clock()
        root.set(mode="relaxed", emitted=len(nodes))

    seconds = finished - started
    applied = []
    for node in nodes:
        if node.relaxation not in applied:
            applied.append(node.relaxation)
    registry.counter(
        "gks_semantics_searches_total",
        help="Searches served by the repro.semantics subsystem."
    ).inc(labels={"mode": "relaxed"})
    registry.counter(
        "gks_semantics_relaxation_triggered_total",
        help="Empty strict results rescued by the relaxation pipeline."
    ).inc()
    registry.histogram(
        "gks_semantics_seconds",
        help="Wall time of semantics-mode searches."
    ).observe(seconds, labels={"mode": "relaxed"})

    return respond(effective, nodes, budget, root,
                   semantics=SemanticsInfo(mode="relaxed", relaxed=True,
                                           relaxations=tuple(applied)),
                   total_seconds=seconds, rank_seconds=seconds,
                   mode="relaxed", semantics_candidates=len(candidates),
                   relaxed=True)
