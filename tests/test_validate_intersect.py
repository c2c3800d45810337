"""Tests for the set-intersection SLCA and the index validator."""

import gzip
import json

import pytest

from repro.baselines.bruteforce import brute_slca
from repro.baselines.slca import slca_indexed_lookup_eager
from repro.baselines.slca_intersect import (ancestor_set,
                                            slca_set_intersection)
from repro.analysis import verify_against, verify_index
from repro.cli import main
from repro.core.query import Query
from repro.datasets.registry import load_dataset
from repro.index.builder import build_index
from repro.index.storage import save_index
from repro.xmltree.repository import Repository


class TestAncestorSet:
    def test_closure_contains_all_prefixes(self):
        closure = ancestor_set([(0, 1, 2), (0, 3)])
        assert closure == {(0,), (0, 1), (0, 1, 2), (0, 3)}

    def test_shared_prefix_shortcut_is_correct(self):
        # two postings sharing a deep prefix: the closure must still be
        # complete despite the early break
        closure = ancestor_set([(0, 1, 2, 3), (0, 1, 2, 4)])
        assert (0,) in closure and (0, 1) in closure
        assert (0, 1, 2, 3) in closure and (0, 1, 2, 4) in closure

    def test_empty(self):
        assert ancestor_set([]) == set()


class TestSetIntersectionSLCA:
    CASES = [
        ["a"], ["a", "b"], ["a", "b", "c"], ["a", "b", "c", "d"],
        ["d", "f"], ["c", "d"], ["a", "d"],
    ]

    @pytest.mark.parametrize("keywords", CASES)
    def test_agrees_with_eager_and_oracle(self, figure1_repo,
                                          figure1_index, keywords):
        query = Query.of(keywords)
        expected = brute_slca(figure1_repo, query)
        assert slca_set_intersection(figure1_index, query) == expected
        assert slca_indexed_lookup_eager(figure1_index, query) == expected

    def test_on_corpus(self):
        repository = load_dataset("figure2a")
        index = build_index(repository)
        query = Query.of(["karen", "mike"])
        assert slca_set_intersection(index, query) == \
            slca_indexed_lookup_eager(index, query)

    def test_missing_keyword_empty(self, figure1_index):
        assert slca_set_intersection(figure1_index,
                                     Query.of(["a", "zzz"])) == []


class TestValidator:
    """The deep audit is the one validator: ``verify_index`` in memory,
    ``check-index --deep`` / ``--against`` on a saved file."""

    @pytest.fixture
    def healthy(self):
        repository = load_dataset("figure2a")
        return repository, build_index(repository)

    @staticmethod
    def _invariants(violations) -> set[str]:
        return {violation.invariant for violation in violations}

    def test_healthy_index_has_no_problems(self, healthy, tmp_path):
        repository, index = healthy
        assert verify_index(index) == []
        path = save_index(index, tmp_path / "idx.gz")
        assert verify_against(path, repository) == []

    def test_unsorted_postings_detected(self, healthy):
        _, index = healthy
        postings = index.inverted.postings("karen")
        postings.reverse()
        assert "postings-sorted" in self._invariants(verify_index(index))

    def test_unknown_document_detected(self, healthy):
        _, index = healthy
        index.inverted.postings("karen").append(index.layout.pack((9, 0)))
        violations = verify_index(index)
        assert "postings-document" in self._invariants(violations)
        assert any("unknown document" in violation.detail
                   for violation in violations)

    def test_stale_index_detected_against_repository(self, healthy,
                                                     tmp_path):
        repository, _ = healthy
        other = Repository.from_texts(["<r><a>different</a></r>"])
        path = save_index(build_index(other), tmp_path / "stale.gz")
        assert "source-agreement" in self._invariants(
            verify_against(path, repository))

    def test_cli_against_matching_sources_exits_zero(self, tmp_path,
                                                     capsys):
        data = tmp_path / "data.xml"
        data.write_text("<r><a>x</a><b>y z</b></r>")
        path = save_index(build_index(Repository.from_paths([data])),
                          tmp_path / "idx.gz")
        assert main(["check-index", str(path), "--against",
                     str(data)]) == 0
        assert "index OK" in capsys.readouterr().out

    def test_cli_against_other_sources_exits_two(self, tmp_path, capsys):
        index = build_index(Repository.from_texts(["<r><a>x</a></r>"]))
        path = save_index(index, tmp_path / "idx.gz")
        data = tmp_path / "other.xml"
        data.write_text("<r><b>y</b></r>")
        assert main(["check-index", str(path), "--against",
                     str(data)]) == 2
        assert "source-agreement" in capsys.readouterr().out

    def test_corrupted_file_detected(self, tmp_path, capsys):
        import zlib

        repository = load_dataset("figure2a")
        index = build_index(repository)
        path = save_index(index, tmp_path / "idx.gz")
        with gzip.open(path, "rt") as handle:
            envelope = json.load(handle)
        # negative child count; re-stamp the checksum so the content
        # audit (not the CRC check) is what flags the file
        envelope["payload"]["entity_hash"]["0.1"] = -3
        canonical = json.dumps(envelope["payload"],
                               separators=(",", ":"), sort_keys=True)
        envelope["crc32"] = zlib.crc32(canonical.encode()) & 0xFFFFFFFF
        with gzip.open(path, "wt") as handle:
            json.dump(envelope, handle)
        assert main(["check-index", str(path)]) == 0
        capsys.readouterr()
        assert main(["check-index", str(path), "--deep"]) == 2
        out = capsys.readouterr().out
        assert "hash-cross-consistency" in out
        assert "negative child count" in out

    def test_cli_validate_is_gone(self, capsys):
        for argv in (["validate", "idx.gz"], ["--check-index", "idx.gz"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
