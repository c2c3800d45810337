"""Result-type deduction (paper §3: XReal [9] / XBridge [4]).

"For most keyword queries, users target certain node types."  The
deducers here score every *entity type* (tag path from the inferred
schema) by how well the query keywords distribute over its instances and
return the most confident type — the paper's `<inproceedings>` for the
Example 2 query.

The confidence formula follows XReal's spirit: a type ``T`` scores the
product over query keywords of ``1 + f(k, T)`` where ``f(k, T)`` is the
fraction of ``T``-instances whose subtree contains ``k``, scaled by the
type's instance count (log-damped) so tiny types do not win on flukes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.baselines.lca import dewey_postings
from repro.core.query import Query
from repro.index.builder import GKSIndex
from repro.index.postings import subtree_range
from repro.schema.categorize import categorize_schema
from repro.schema.inference import Schema, TagPath, infer_schema
from repro.index.categorize import NodeCategory
from repro.xmltree.dewey import Dewey
from repro.xmltree.repository import Repository


@dataclass(frozen=True)
class TypeScore:
    """Confidence of one candidate target type."""

    path: TagPath
    score: float
    instances: int
    keyword_coverage: dict[str, float]

    @property
    def tag(self) -> str:
        return self.path[-1]


def entity_type_instances(repository: Repository,
                          schema: Schema | None = None
                          ) -> dict[TagPath, list[Dewey]]:
    """Dewey ids of every instance of every *entity* type."""
    if schema is None:
        schema = infer_schema(repository)
    categories = categorize_schema(schema)
    entity_paths = {path for path, assignment in categories.items()
                    if assignment.category is NodeCategory.ENTITY}

    instances: dict[TagPath, list[Dewey]] = {path: []
                                             for path in entity_paths}
    for document in repository:
        stack = [(document.root, (document.root.tag,))]
        while stack:
            node, path = stack.pop()
            if path in entity_paths:
                instances[path].append(node.dewey)
            for child in node.children:
                stack.append((child, path + (child.tag,)))
    for deweys in instances.values():
        deweys.sort()
    return instances


def score_types(index: GKSIndex, query: Query,
                instances: dict[TagPath, list[Dewey]]) -> list[TypeScore]:
    """Score every entity type for *query*, best first."""
    scores: list[TypeScore] = []
    for path, deweys in instances.items():
        if not deweys:
            continue
        coverage: dict[str, float] = {}
        confidence = math.log(1 + len(deweys))
        for keyword in query.keywords:
            postings = dewey_postings(index, keyword)
            holding = sum(
                1 for dewey in deweys
                if subtree_range(postings, dewey)[0]
                != subtree_range(postings, dewey)[1])
            fraction = holding / len(deweys)
            coverage[keyword] = fraction
            confidence *= 1.0 + fraction
        scores.append(TypeScore(path=path, score=confidence,
                                instances=len(deweys),
                                keyword_coverage=coverage))
    scores.sort(key=lambda item: (-item.score, item.path))
    return scores


def deduce_target_type(repository: Repository, index: GKSIndex,
                       query: Query,
                       schema: Schema | None = None) -> TypeScore | None:
    """The most confident target entity type for *query* (or None)."""
    instances = entity_type_instances(repository, schema)
    scores = score_types(index, query, instances)
    for candidate in scores:
        if any(fraction > 0
               for fraction in candidate.keyword_coverage.values()):
            return candidate
    return None
