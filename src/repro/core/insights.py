"""Deeper analytical Insights — DI (paper §2.3, Def 2.3.1, §6.2).

For the LCE nodes ``EQ`` in a query response, the Search Analysis Engine
"parses the LCE nodes" and extracts the text keywords of their *attribute
nodes* — the nodes that define each entity's context (R(e)).  Each keyword
is weighted by the summed rank of the LCE nodes whose attributes contain
it, so a keyword relevant to many high-ranked results outweighs one that is
merely frequent (the paper's ICPP-vs-SIGMOD-Record discussion).  Query
keywords are excluded.  The top-m weighted keywords, together with the
element path from the LCE node down to the keyword (the keyword's
*semantics*: ``<ip: year: 2001>``), form the DI.

DI can be applied recursively (§2.3): the top-m keywords are fed back to
GKS as a query, whose LCE nodes yield the next round of insights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError, ValidationError
from repro.core.query import Query
from repro.core.results import GKSResponse
from repro.text.analyzer import DEFAULT_ANALYZER, Analyzer
from repro.xmltree.node import XMLNode
from repro.xmltree.repository import Repository


@dataclass(frozen=True)
class Insight:
    """One DI item: a weighted attribute keyword with its semantics.

    ``path`` runs from the LCE node's tag down to the attribute tag, e.g.
    ``("inproceedings", "year")`` — rendered as ``<inproceedings: year:
    2001>``.
    """

    keyword: str          # analysed keyword (what recursion feeds back)
    value: str            # raw attribute text the keyword came from
    path: tuple[str, ...]
    weight: float
    supporting_nodes: int
    #: the whole attribute value as one analysed phrase keyword — what a
    #: query-expansion refinement should add ("marek rusinkiewicz")
    phrase_keyword: str = ""

    def render(self) -> str:
        """The paper's ``<tag: …: value>`` display form."""
        return f"<{': '.join(self.path)}: {self.value}>"


@dataclass(frozen=True)
class InsightReport:
    """DI for one response: top-m insights plus the full weighted set."""

    insights: tuple[Insight, ...]
    #: The weighted keyword set ``Sw_Q`` (analysed keyword → weight).
    weighted_keywords: dict[str, float] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.insights)

    def __len__(self) -> int:
        return len(self.insights)

    def top_keywords(self, count: int) -> list[str]:
        """Top-m keywords of ``Sw_Q`` — the recursive-DI query seed."""
        ordered = sorted(self.weighted_keywords.items(),
                         key=lambda item: (-item[1], item[0]))
        return [keyword for keyword, _ in ordered[:count]]


def attribute_nodes_of(entity: XMLNode,
                       mode: str = "context") -> list[XMLNode]:
    """The keyword-bearing nodes R(e) of an entity node.

    ``mode="attributes"`` is the strict Def 2.3.1 reading: attribute nodes
    only — leaf-with-text elements with no same-label sibling, reached
    without crossing a repeating node.

    ``mode="context"`` (default) matches the DI the paper actually reports
    (Example 2's ``<ip: author: Alok N Choudhary>``, Table 8's
    ``<author_list: Patthy L>``): every text-bearing element of the
    entity's own context, i.e. reached without crossing a *deeper entity
    node*.  Repeating leaves such as DBLP ``<author>`` are included; the
    attributes of nested entities are not — they belong to those entities.

    Entity boundaries are detected structurally (a local re-categorization
    of the subtree), so no index is needed.
    """
    if mode not in ("context", "attributes"):
        raise ValidationError(f"unknown R(e) mode {mode!r}")
    attributes: list[XMLNode] = []
    if mode == "attributes":
        _collect_strict(entity, attributes)
    else:
        from repro.index.categorize import categorize_tree
        records = categorize_tree(entity)
        _collect_context(entity, attributes, records, is_root=True)
    return attributes


def _collect_strict(node: XMLNode, out: list[XMLNode]) -> None:
    for child in node.children:
        if child.same_label_sibling_count() >= 1:
            continue  # repeating node: do not cross it
        if child.is_leaf and child.has_text:
            out.append(child)
        else:
            _collect_strict(child, out)


def _collect_context(node: XMLNode, out: list[XMLNode], records,
                     is_root: bool) -> None:
    if not is_root:
        record = records.get(node.dewey)
        if record is not None and record.is_entity:
            return  # a nested entity owns its own context
        if node.has_text:
            out.append(node)
    for child in node.children:
        _collect_context(child, out, records, is_root=False)


def discover_insights(repository: Repository, response: GKSResponse,
                      top: int = 10, analyzer: Analyzer = DEFAULT_ANALYZER,
                      mode: str = "context") -> InsightReport:
    """Compute the DI of a response (Def 2.3.1).

    Parameters
    ----------
    repository:
        The indexed data — DI extraction parses the LCE nodes (§6.2).
    response:
        A :class:`GKSResponse`; only its LCE nodes contribute.
    top:
        The tunable ``m``: how many insights to report.
    mode:
        R(e) extraction mode — see :func:`attribute_nodes_of`.
    """
    if top < 1:
        raise ConfigError(f"top must be positive: {top}")
    query_keywords = response.query.word_set()
    weighted: dict[str, float] = {}
    # (path, value) → [weight, supporting node count, analysed keyword]
    items: dict[tuple[tuple[str, ...], str], list] = {}

    for ranked in response.lce_nodes:
        entity = repository.node_at(ranked.dewey)
        if entity is None:
            continue
        for attribute in attribute_nodes_of(entity, mode=mode):
            assert attribute.text is not None
            value = attribute.text.strip()
            keywords = [keyword for keyword in analyzer.analyze(value)
                        if keyword not in query_keywords]
            if not keywords:
                continue  # entirely made of query keywords: excluded
            for keyword in keywords:
                weighted[keyword] = weighted.get(keyword, 0.0) + ranked.score
            path = _path_tags(entity, attribute)
            key = (path, value)
            if key in items:
                items[key][0] += ranked.score
                items[key][1] += 1
            else:
                items[key] = [ranked.score, 1, keywords[0]]

    ordered = sorted(items.items(),
                     key=lambda item: (-item[1][0], item[0]))
    insights = tuple(
        Insight(keyword=payload[2], value=value, path=path,
                weight=payload[0], supporting_nodes=payload[1],
                phrase_keyword=" ".join(analyzer.analyze(value)))
        for (path, value), payload in ordered[:top])
    return InsightReport(insights=insights, weighted_keywords=weighted)


def _path_tags(entity: XMLNode, attribute: XMLNode) -> tuple[str, ...]:
    """Element labels from the LCE node down to the attribute node."""
    return tuple(node.tag for node in attribute.path_from(entity))


def discover_recursive(repository: Repository, index, response: GKSResponse,
                       rounds: int = 1, top: int = 10, seed_keywords: int = 5,
                       analyzer: Analyzer = DEFAULT_ANALYZER
                       ) -> list[InsightReport]:
    """Recursive DI (§2.3): feed top-m keywords back as queries.

    Returns one report per round; round 0 is the plain DI of *response*.
    Recursion stops early when a round yields no keywords.
    """
    from repro.core.search import search  # local import: avoid cycle

    reports = [discover_insights(repository, response, top=top,
                                 analyzer=analyzer)]
    current = reports[0]
    for _ in range(rounds):
        seeds = current.top_keywords(seed_keywords)
        if not seeds:
            break
        next_query = Query.of(seeds, s=1)
        next_response = search(index, next_query)
        current = discover_insights(repository, next_response, top=top,
                                    analyzer=analyzer)
        reports.append(current)
    return reports
