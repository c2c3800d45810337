"""Possible-worlds enumeration oracle for probabilistic search.

The reference semantics, applied literally: materialise **every** random
instance of the p-document (one per combination of IND child choices ×
MUX alternatives), walk each instance's surviving trees, and accumulate
each world's probability onto every present node whose subtree holds
≥ ``min(s, |Q|)`` distinct query keywords.  Exponential on purpose —
its only job is to catch bugs in the polynomial subset-distribution
evaluation in :mod:`repro.semantics.prob`, which the test suite
cross-validates against it on randomized p-documents.
"""

from __future__ import annotations

import itertools

from repro.baselines.bruteforce import node_keywords
from repro.core.query import Query
from repro.errors import ValidationError
from repro.semantics.pdoc import ProbTables, compile_tables
from repro.text.analyzer import DEFAULT_ANALYZER, Analyzer
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.repository import Repository


def world_choices(tables: ProbTables
                  ) -> list[list[tuple[frozenset[Dewey], float]]]:
    """The independent choice points of a p-document.

    Each point is a list of ``(present children, probability)``
    alternatives: an IND node's annotated child is its own two-way
    point; a MUX node is one point over its alternatives plus the
    "none" residual.  A world is one alternative per point; its
    probability is the product.
    """
    points: list[list[tuple[frozenset[Dewey], float]]] = []
    for parent, kind in sorted(tables.kinds.items()):
        members = tables.mux_siblings(parent) if kind == "MUX" else sorted(
            d for d in tables.edge_p
            if len(d) == len(parent) + 1 and d[:-1] == parent)
        if kind == "MUX":
            residual = 1.0 - sum(tables.edge_p[m] for m in members)
            point = [(frozenset({m}), tables.edge_p[m]) for m in members]
            point.append((frozenset(), residual))
            points.append(point)
        else:
            for member in members:
                prob = tables.edge_p[member]
                points.append([(frozenset({member}), prob),
                               (frozenset(), 1.0 - prob)])
    return points


def _accumulate(node: XMLNode, absent: set[Dewey], wanted: set[str],
                threshold: int, prob: float, analyzer: Analyzer,
                out: dict[Dewey, float]) -> set[str]:
    """Walk one world's surviving tree; returns the subtree keyword set."""
    found = node_keywords(node, analyzer) & wanted
    for child in node.children:
        if child.dewey in absent:
            continue
        found |= _accumulate(child, absent, wanted, threshold, prob,
                             analyzer, out)
    if len(found) >= threshold:
        out[node.dewey] = out.get(node.dewey, 0.0) + prob
    return found


def possible_worlds_probabilities(repository: Repository, query: Query,
                                  analyzer: Analyzer = DEFAULT_ANALYZER,
                                  max_worlds: int = 262144
                                  ) -> dict[Dewey, float]:
    """Dewey → P(node exists ∧ subtree meets the ``min(s,|Q|)`` bar).

    Nodes with probability zero may be absent from the mapping; treat
    missing keys as 0.  Raises :class:`ValidationError` when the
    p-document has more than *max_worlds* instances (a test-suite
    guard, not a semantic limit).
    """
    tables = compile_tables(repository)
    points = world_choices(tables)
    world_count = 1
    for point in points:
        world_count *= len(point)
    if world_count > max_worlds:
        raise ValidationError(
            f"p-document has {world_count} possible worlds "
            f"(> {max_worlds}); shrink the document")

    wanted = set(query.keywords)
    threshold = query.effective_s
    members = set(tables.edge_p)
    out: dict[Dewey, float] = {}
    for assignment in itertools.product(*points) if points else [()]:
        prob = 1.0
        present: set[Dewey] = set()
        for chosen, share in assignment:
            prob *= share
            present |= chosen
        if prob == 0.0:
            continue
        absent = members - present
        for document in repository:
            _accumulate(document.root, absent, wanted, threshold, prob,
                        analyzer, out)
    return out
