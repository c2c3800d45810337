"""Exporting responses and reports as JSON-ready dictionaries.

Library clients (web frontends, notebooks) want plain data, not
dataclasses.  ``response_to_dict`` captures the ranked nodes with their
evidence; ``insights_to_dict`` the DI.  Everything nests only JSON
types, so ``json.dumps`` works directly.
"""

from __future__ import annotations

from typing import Any

from repro.core.insights import InsightReport
from repro.core.results import GKSResponse, RankedNode
from repro.xmltree.dewey import format_dewey
from repro.xmltree.repository import Repository


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


def response_to_dict(response: GKSResponse,
                     repository: Repository | None = None
                     ) -> dict[str, Any]:
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
        "nodes": [node_to_dict(node, repository) for node in response],
    }
    if response.semantics is not None:
        payload["semantics"] = response.semantics.to_dict()
    return payload


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

