"""Tests for JSON export of responses, insights and sessions."""

import json

import pytest

from repro.core.engine import GKSEngine
from repro.core.export import (insights_to_dict, node_to_dict,
                               response_to_dict, session_to_dict)
from repro.core.session import ExplorationSession
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


class TestSessionExport:
    def test_whole_session_round_trips_through_json(self, engine):
        session = ExplorationSession(engine)
        session.run("karen mike", note="start")
        session.drill_down()
        payload = session_to_dict(session, engine.repository)
        decoded = json.loads(json.dumps(payload))
        assert len(decoded["steps"]) == 2
        assert decoded["steps"][0]["note"] == "start"
        assert decoded["steps"][1]["response"]["nodes"]
