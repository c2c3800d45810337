"""Exporting responses and reports as JSON.

Library clients (web frontends, notebooks) want plain data, not
dataclasses.  ``response_to_dict`` captures the ranked nodes with their
evidence; ``insights_to_dict`` the DI.  Everything nests only JSON
types, so ``json.dumps`` works directly.

``response_to_json`` is the ``/search`` body: the bytes of
``json.dumps({**response_to_dict(response, repository), **extra})``,
written without a dict per node.  Each node's JSON object is rendered
once per repository and kept on the node, so a cache hit or a top-k
head of a cached response re-renders nothing.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.insights import InsightReport
from repro.core.results import GKSResponse, RankedNode
from repro.xmltree.dewey import format_dewey
from repro.xmltree.repository import Repository

#: where ``response_to_json`` puts the node array among the top keys
_NODES = object()


def node_to_dict(node: RankedNode,
                 repository: Repository | None = None) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "dewey": format_dewey(node.dewey),
        "score": node.score,
        "distinct_keywords": node.distinct_keywords,
        "matched_keywords": list(node.matched_keywords),
        "is_lce": node.is_lce,
        "estimated_keywords": node.estimated_keywords,
    }
    # conditional keys: strict payloads stay byte-identical
    if node.probability is not None:
        payload["probability"] = node.probability
    if repository is not None:
        labels = repository.tag_path(node.dewey)
        if labels is not None:
            payload["tag"] = labels[-1]
            payload["tag_path"] = list(labels)
    return payload


def _frame(response: GKSResponse, nodes: Any) -> dict[str, Any]:
    """The top-level keys of a response payload, *nodes* in its place."""
    stats = response.stats
    payload: dict[str, Any] = {
        "query": {
            "keywords": list(response.query.keywords),
            "s": response.query.s,
            "raw": response.query.raw,
        },
        # the wire's "profile" block, read off the one stats record
        "profile": {
            "merged_list_size": stats.postings_scanned,
            "lcp_entries": stats.lcp_entries,
            "lce_nodes": stats.lce_nodes,
            "seconds": stats.total_seconds,
            "stages": stats.stage_breakdown(),
        },
        "nodes": nodes,
    }
    if response.semantics is not None:
        payload["semantics"] = response.semantics.to_dict()
    return payload


def response_to_dict(response: GKSResponse,
                     repository: Repository | None = None
                     ) -> dict[str, Any]:
    return _frame(response,
                  [node_to_dict(node, repository) for node in response])


def response_to_json(response: GKSResponse,
                     repository: Repository | None = None,
                     extra: dict[str, Any] | None = None) -> bytes:
    """``json.dumps({**response_to_dict(response, repository),
    **extra}).encode("utf-8")``, byte for byte.

    Only the small top-level blocks go through ``json.dumps``; each
    node is one string (see :func:`_node_json`), and the keyword and
    label-path fragments are rendered once per call.
    """
    payload = _frame(response, _NODES)
    if extra:
        payload.update(extra)
    keywords: dict = {}
    paths: dict = {}
    parts = []
    for key, value in payload.items():
        if value is _NODES:
            nodes = ", ".join([_node_json(node, repository, keywords, paths)
                               for node in response.nodes])
            parts.append(f'"nodes": [{nodes}]')
        else:
            parts.append(json.dumps({key: value})[1:-1])
    return ("{" + ", ".join(parts) + "}").encode("utf-8")


def _node_json(node: RankedNode, repository: Repository | None,
               keywords: dict, paths: dict) -> str:
    """``json.dumps(node_to_dict(node, repository))``, rendered once per
    repository: the text is kept in the node's instance dict, tagged
    with the repository it read its labels from (frozen fields never
    change, and ``dataclasses.replace`` builds a node without it)."""
    fields = node.__dict__
    kept = fields.get("_json")
    if kept is not None and kept[0] is repository:
        return kept[1]
    matched = node.matched_keywords
    matched_text = keywords.get(matched)
    if matched_text is None:
        matched_text = keywords[matched] = json.dumps(matched)
    text = (f'{{"dewey": "{format_dewey(node.dewey)}", '
            f'"score": {_scalar(node.score)}, '
            f'"distinct_keywords": {_scalar(node.distinct_keywords)}, '
            f'"matched_keywords": {matched_text}, '
            f'"is_lce": {_scalar(node.is_lce)}, '
            f'"estimated_keywords": {_scalar(node.estimated_keywords)}')
    if node.probability is not None:
        text += f', "probability": {_scalar(node.probability)}'
    if repository is not None:
        labels = repository.tag_path(node.dewey)
        if labels is not None:
            label_text = paths.get(labels)
            if label_text is None:
                label_text = paths[labels] = (
                    f', "tag": {json.dumps(labels[-1])}, '
                    f'"tag_path": {json.dumps(labels)}')
            text += label_text
    text += "}"
    # an atomic set-if-absent: a fragment kept for another repository
    # stays, and this call still answers with its own
    fields.setdefault("_json", (repository, text))
    return text


def _scalar(value: Any) -> str:
    """*value* as ``json.dumps`` prints it (finite floats and plain
    ints inline; ``Infinity``, ``NaN`` and the rest through json)."""
    kind = type(value)
    if kind is float and value - value == 0.0:
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    return json.dumps(value)


def insights_to_dict(report: InsightReport) -> dict[str, Any]:
    return {
        "insights": [
            {
                "render": insight.render(),
                "keyword": insight.keyword,
                "phrase_keyword": insight.phrase_keyword,
                "value": insight.value,
                "path": list(insight.path),
                "weight": insight.weight,
                "supporting_nodes": insight.supporting_nodes,
            }
            for insight in report
        ],
        "weighted_keywords": dict(report.weighted_keywords),
    }
