"""FSLCA — missing-element-conscious SLCA (paper ref [19], MESSIAH).

MESSIAH's premise: keyword queries target specific node types; when a
document instance lacks an optional element ("missing element"), strict
SLCA degrades to an unintended ancestor.  FSLCA repairs this by judging
containment *per target-type instance* and forgiving keywords the type
cannot supply.

This reproduction implements the behaviour the GKS paper measures
against (§7.3):

1. deduce the target entity type for the query (XReal-style scorer);
2. a target-type instance qualifies when it contains every query keyword
   that occurs under the target type *anywhere* in the corpus — a
   keyword that never occurs below the type is a "missing element" and
   is forgiven;
3. instances are returned in document order.

With a 'perfect' query this coincides with SLCA restricted to the target
type; with an 'imperfect' keyword (QM2's tag-only keywords, QD2's
Banerjee) it returns the intended nodes where SLCA collapses to the
root, and returns nothing when no target type covers the query at all —
the paper's "for QM2, no FSLCA node exists".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.lca import dewey_postings
from repro.baselines.target_type import (TypeScore, entity_type_instances,
                                         score_types)
from repro.core.query import Query
from repro.index.builder import GKSIndex
from repro.index.postings import subtree_range
from repro.schema.inference import Schema
from repro.xmltree.dewey import Dewey
from repro.xmltree.repository import Repository


@dataclass(frozen=True)
class FSLCAResult:
    """Outcome of an FSLCA query."""

    target: TypeScore | None
    nodes: tuple[Dewey, ...]
    forgiven_keywords: tuple[str, ...]   # the 'missing elements'

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)


def fslca(repository: Repository, index: GKSIndex, query: Query,
          schema: Schema | None = None,
          min_coverage: float = 0.0) -> FSLCAResult:
    """Run the FSLCA baseline for *query*.

    A keyword is forgiven ("missing element") for the target type when
    its coverage over the type's instances does not exceed
    ``min_coverage`` — with the default 0.0, only keywords that occur in
    *no* instance of the type are forgiven, the literal reading of a
    missing element.
    """
    instances = entity_type_instances(repository, schema)
    ranked_types = score_types(index, query, instances)

    for candidate in ranked_types:
        supported = [keyword for keyword, fraction
                     in candidate.keyword_coverage.items()
                     if fraction > min_coverage]
        if not supported:
            continue
        forgiven = tuple(keyword for keyword in query.keywords
                         if keyword not in supported)
        nodes = _instances_containing(index, instances[candidate.path],
                                      supported)
        if nodes:
            return FSLCAResult(target=candidate, nodes=tuple(nodes),
                               forgiven_keywords=forgiven)
    return FSLCAResult(target=None, nodes=(), forgiven_keywords=())


def _instances_containing(index: GKSIndex, deweys: list[Dewey],
                          keywords: list[str]) -> list[Dewey]:
    """Instances whose subtree holds every keyword in *keywords*."""
    survivors = []
    for dewey in deweys:
        if all(_occurs(index, keyword, dewey) for keyword in keywords):
            survivors.append(dewey)
    return survivors


def _occurs(index: GKSIndex, keyword: str, dewey: Dewey) -> bool:
    postings = dewey_postings(index, keyword)
    lo, hi = subtree_range(postings, dewey)
    return lo != hi
