"""Tests for JSON export of responses and insights."""

import json

import pytest

from repro.core.engine import GKSEngine
from repro.core.export import (insights_to_dict, node_to_dict,
                               response_to_dict)
from repro.datasets.registry import load_dataset


@pytest.fixture(scope="module")
def engine():
    return GKSEngine(load_dataset("figure2a"))


@pytest.fixture(scope="module")
def response(engine):
    return engine.search("karen mike john student", s=2)


class TestNodeExport:
    def test_fields_present(self, engine, response):
        payload = node_to_dict(response[0], engine.repository)
        assert payload["dewey"] == "0.1.1.0"
        assert payload["tag"] == "Course"
        assert payload["tag_path"][0] == "Dept"
        assert payload["is_lce"] is True
        assert payload["score"] > 0

    def test_without_repository(self, response):
        payload = node_to_dict(response[0])
        assert "tag" not in payload
        assert "dewey" in payload


class TestResponseExport:
    def test_json_serializable(self, engine, response):
        payload = response_to_dict(response, engine.repository)
        text = json.dumps(payload)
        assert "karen" in text

    def test_structure(self, engine, response):
        payload = response_to_dict(response, engine.repository)
        assert payload["query"]["s"] == 2
        assert len(payload["nodes"]) == len(response)
        assert payload["profile"]["merged_list_size"] == \
            response.stats.postings_scanned
        assert set(payload["profile"]["stages"]) == \
            {"merge", "lcp", "lce", "rank"}


class TestInsightExport:
    def test_insights_payload(self, engine, response):
        report = engine.insights(response)
        payload = insights_to_dict(report)
        json.dumps(payload)
        assert payload["insights"]
        first = payload["insights"][0]
        assert "Data Mining" in first["render"]
        assert first["weight"] > 0
        assert payload["weighted_keywords"]

