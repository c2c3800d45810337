"""Shared fixtures: the paper's toy documents, indexed and ready."""

from __future__ import annotations

import pytest

from repro.core.engine import GKSEngine
from repro.datasets.toy import figure1, figure2a
from repro.index.builder import build_index
from repro.xmltree.repository import Repository


@pytest.fixture(scope="session")
def figure1_repo() -> Repository:
    repository = Repository()
    repository.add_root(figure1())
    return repository


@pytest.fixture(scope="session")
def figure1_index(figure1_repo):
    return build_index(figure1_repo)


@pytest.fixture(scope="session")
def figure1_engine(figure1_repo) -> GKSEngine:
    return GKSEngine(figure1_repo)


@pytest.fixture(scope="session")
def figure2a_repo() -> Repository:
    repository = Repository()
    repository.add_root(figure2a())
    return repository


@pytest.fixture(scope="session")
def figure2a_index(figure2a_repo):
    return build_index(figure2a_repo)


@pytest.fixture(scope="session")
def figure2a_engine(figure2a_repo) -> GKSEngine:
    return GKSEngine(figure2a_repo)


# Dewey ids of the Figure 1 nodes, for readable assertions.
FIG1 = {
    "r": (0,),
    "x1": (0, 0),
    "x2": (0, 0, 3),
    "x3": (0, 1),
    "y": (0, 1, 2),
    "x4": (0, 2),
}


@pytest.fixture(scope="session")
def fig1_ids() -> dict:
    return dict(FIG1)


def unpacked(index, table: dict) -> dict:
    """A hash table of *index* keyed by Dewey tuples (ids are packed)."""
    return {index.layout.unpack(dewey): value
            for dewey, value in table.items()}


def tuple_postings(index, keyword: str) -> list:
    """*keyword*'s postings in *index* as Dewey tuples."""
    return list(map(index.layout.unpack, index.postings(keyword)))
