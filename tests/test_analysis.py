"""Static-analysis suite: lint rules, layering, deep invariants, CLI.

Every rule gets three fixtures — one that fires it (positive), one that
must stay silent (negative), and one where an inline ``# gks: ignore``
suppression waives the finding.  Layering runs over a synthetic module
graph; the invariant tests use :class:`repro.testing.faults.
IndexCorruptor` to produce consistent-but-wrong stores and assert the
deep audit catches what checksums and ``load_index`` cannot.
"""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (InvariantViolation, lint_paths, rule_catalog,
                            verify_index, verify_store)
from repro.analysis.lint import ModuleInfo, lint_modules
from repro.cli import main
from repro.datasets import load_dataset
from repro.errors import ConfigError, StorageError, ValidationError
from repro.index.builder import IndexBuilder, build_index
from repro.index import sharding
from repro.index.codec import CODEC_NAMES, sniff_codec
from repro.index.storage import load_index, save_index
from repro.testing.faults import IndexCorruptor, TornWriter
from repro.xmltree.parser import parse_document
from repro.xmltree.repository import Repository

pytestmark = pytest.mark.analysis

BOOKS = (
    "<bib><book><title>XML keyword search</title>"
    "<author>Liu</author></book>"
    "<book><title>query engines</title><author>Chen</author></book></bib>",
    "<bib><book><title>ranking with potential</title>"
    "<author>Agarwal</author></book>"
    "<book><title>keyword semantics</title><author>Kim</author>"
    "</book></bib>",
    "<bib><book><title>dewey encodings</title><author>Rantzau</author>"
    "</book></bib>",
)


def module_from(tmp_path: Path, relative: str, source: str) -> ModuleInfo:
    """Materialise *source* at *relative* under tmp_path and parse it."""
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return ModuleInfo.from_path(path)


def findings_for(tmp_path: Path, relative: str, source: str,
                 rule_id: str) -> list:
    module = module_from(tmp_path, relative, source)
    return [finding for finding in lint_modules([module])
            if finding.rule_id == rule_id]


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------

class TestEngine:
    def test_rule_catalog_ids(self):
        ids = [rule.rule_id for rule in rule_catalog()]
        assert len(ids) == len(set(ids))  # unique
        for expected in ("L001", "L002", "T001", "E001", "E002",
                         "M001", "M002", "I001", "C001", "C002", "C003"):
            assert expected in ids

    def test_module_roles(self, tmp_path):
        lib = module_from(tmp_path, "src/repro/index/x.py", "a = 1\n")
        assert lib.role == "library"
        assert lib.module == "repro.index.x"
        assert lib.package == "index"
        test = module_from(tmp_path, "tests/test_x.py", "a = 1\n")
        assert test.role == "tests" and test.package is None
        bench = module_from(tmp_path, "benchmarks/bench_x.py", "a = 1\n")
        assert bench.role == "benchmarks"

    def test_unparseable_file_yields_p001(self, tmp_path):
        module = module_from(tmp_path, "src/repro/index/bad.py",
                             "def broken(:\n")
        findings = lint_modules([module])
        assert [finding.rule_id for finding in findings] == ["P001"]

    def test_suppress_all_marker(self, tmp_path):
        findings = findings_for(
            tmp_path, "src/repro/core/x.py",
            "import time\n"
            "t = time.perf_counter()  # gks: ignore\n", "T001")
        assert findings == []

    def test_duplicate_rule_id_rejected(self):
        from repro.analysis.lint import Rule, register
        with pytest.raises(ConfigError):
            register(type("Dup", (Rule,), {"rule_id": "T001"}))


# ----------------------------------------------------------------------
# Rule fixtures: positive / negative / suppressed
# ----------------------------------------------------------------------

class TestAdHocClockRule:
    POSITIVE = "import time\n\nstart = time.perf_counter()\n"

    def test_fires_in_core(self, tmp_path):
        findings = findings_for(tmp_path, "src/repro/core/x.py",
                                self.POSITIVE, "T001")
        assert len(findings) == 1
        assert "tracer clock" in findings[0].message

    def test_fires_on_from_import(self, tmp_path):
        findings = findings_for(
            tmp_path, "src/repro/index/x.py",
            "from time import perf_counter\n", "T001")
        assert len(findings) == 1

    def test_silent_outside_disciplined_packages(self, tmp_path):
        assert findings_for(tmp_path, "src/repro/eval/x.py",
                            self.POSITIVE, "T001") == []
        assert findings_for(tmp_path, "benchmarks/bench_x.py",
                            self.POSITIVE, "T001") == []

    def test_silent_on_injected_clock(self, tmp_path):
        source = """\
            from repro.obs.trace import DEFAULT_CLOCK

            def f(clock=None):
                clock = clock if clock is not None else DEFAULT_CLOCK
                return clock()
            """
        assert findings_for(tmp_path, "src/repro/core/x.py",
                            source, "T001") == []

    def test_suppressed(self, tmp_path):
        findings = findings_for(
            tmp_path, "src/repro/core/x.py",
            "import time\n"
            "start = time.perf_counter()  # gks: ignore[T001]\n",
            "T001")
        assert findings == []


class TestBareExceptRule:
    def test_fires_everywhere(self, tmp_path):
        source = "try:\n    pass\nexcept:\n    pass\n"
        assert findings_for(tmp_path, "src/repro/eval/x.py",
                            source, "E001")
        assert findings_for(tmp_path, "tests/test_x.py", source, "E001")

    def test_silent_on_named_except(self, tmp_path):
        source = "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert findings_for(tmp_path, "src/repro/eval/x.py",
                            source, "E001") == []

    def test_suppressed(self, tmp_path):
        source = ("try:\n    pass\n"
                  "except:  # gks: ignore[E001]\n    pass\n")
        assert findings_for(tmp_path, "src/repro/eval/x.py",
                            source, "E001") == []


class TestBuiltinRaiseRule:
    POSITIVE = 'def f():\n    raise ValueError("bad")\n'

    def test_fires_in_library(self, tmp_path):
        findings = findings_for(tmp_path, "src/repro/text/x.py",
                                self.POSITIVE, "E002")
        assert len(findings) == 1
        assert "GKSError" in findings[0].message

    def test_fires_on_bare_name_runtime_error(self, tmp_path):
        assert findings_for(tmp_path, "src/repro/text/x.py",
                            "def f():\n    raise RuntimeError\n",
                            "E002")

    def test_silent_in_tests_and_on_typed_errors(self, tmp_path):
        assert findings_for(tmp_path, "tests/test_x.py",
                            self.POSITIVE, "E002") == []
        source = ("from repro.errors import ValidationError\n"
                  "def f():\n"
                  '    raise ValidationError("bad")\n')
        assert findings_for(tmp_path, "src/repro/text/x.py",
                            source, "E002") == []

    def test_suppressed(self, tmp_path):
        source = ("def f():\n"
                  '    raise ValueError("bad")  # gks: ignore[E002]\n')
        assert findings_for(tmp_path, "src/repro/text/x.py",
                            source, "E002") == []


class TestMutableDefaultRule:
    def test_fires_on_list_dict_and_factory(self, tmp_path):
        source = ("def f(a=[], b={}, c=dict()):\n    return a, b, c\n")
        findings = findings_for(tmp_path, "src/repro/eval/x.py",
                                source, "M001")
        assert len(findings) == 3

    def test_fires_on_kwonly_and_lambda(self, tmp_path):
        source = ("def f(*, a=set()):\n    return a\n"
                  "g = lambda a=[]: a\n")
        assert len(findings_for(tmp_path, "src/repro/eval/x.py",
                                source, "M001")) == 2

    def test_silent_on_none_and_tuples(self, tmp_path):
        source = "def f(a=None, b=(), c=0):\n    return a, b, c\n"
        assert findings_for(tmp_path, "src/repro/eval/x.py",
                            source, "M001") == []

    def test_suppressed(self, tmp_path):
        source = "def f(a=[]):  # gks: ignore[M001]\n    return a\n"
        assert findings_for(tmp_path, "src/repro/eval/x.py",
                            source, "M001") == []


class TestFrozenDataclassRule:
    POSITIVE = """\
        from dataclasses import dataclass

        @dataclass
        class Config:
            value: int = 0
        """

    def test_fires_in_scoped_module(self, tmp_path):
        findings = findings_for(tmp_path, "src/repro/core/config.py",
                                self.POSITIVE, "M002")
        assert len(findings) == 1
        assert "frozen=True" in findings[0].message

    def test_fires_on_call_without_frozen(self, tmp_path):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass(order=True)\n"
                  "class Stats:\n    value: int = 0\n")
        assert findings_for(tmp_path, "src/repro/obs/stats.py",
                            source, "M002")

    def test_silent_when_frozen_or_out_of_scope(self, tmp_path):
        frozen = ("from dataclasses import dataclass\n"
                  "@dataclass(frozen=True)\n"
                  "class Config:\n    value: int = 0\n")
        assert findings_for(tmp_path, "src/repro/core/config.py",
                            frozen, "M002") == []
        assert findings_for(tmp_path, "src/repro/eval/other.py",
                            self.POSITIVE, "M002") == []

    def test_suppressed(self, tmp_path):
        source = ("from dataclasses import dataclass\n"
                  "@dataclass  # gks: ignore[M002]\n"
                  "class Config:\n    value: int = 0\n")
        # the finding anchors on the class line; suppress there too
        anchored = ("from dataclasses import dataclass\n"
                    "@dataclass\n"
                    "class Config:  # gks: ignore[M002]\n"
                    "    value: int = 0\n")
        assert findings_for(tmp_path, "src/repro/core/config.py",
                            anchored, "M002") == []
        del source


class TestUnusedImportRule:
    POSITIVE = """\
        import os.path
        from json import (dumps,
                          loads as parse)

        def f(text):
            return parse(text)
        """

    def test_fires_on_each_unread_binding(self, tmp_path):
        findings = findings_for(tmp_path, "tests/test_x.py",
                                self.POSITIVE, "I001")
        assert [(finding.line, "'os'" in finding.message)
                for finding in findings] == [(1, True), (2, False)]
        assert "'dumps'" in findings[1].message

    def test_silent_on_reads_all_and_facades(self, tmp_path):
        source = """\
            from __future__ import annotations

            import typing
            from pathlib import Path
            from repro.index.builder import GKSIndex
            from repro.errors import ConfigError

            __all__ = ["ConfigError"]

            def f(index: "GKSIndex | None" = None) -> typing.Any:
                return Path
            """
        assert findings_for(tmp_path, "src/repro/eval/x.py",
                            source, "I001") == []
        assert findings_for(tmp_path, "src/repro/eval/__init__.py",
                            self.POSITIVE, "I001") == []

    def test_ignores_function_level_imports(self, tmp_path):
        source = "def f():\n    import json\n"
        assert findings_for(tmp_path, "tests/test_x.py",
                            source, "I001") == []

    def test_suppressed(self, tmp_path):
        source = ("import os  # gks: ignore[I001]\n"
                  "from json import (dumps,  # gks: ignore[I001]\n"
                  "                  loads)  # gks: ignore[I001]\n")
        assert findings_for(tmp_path, "tests/test_x.py",
                            source, "I001") == []


# ----------------------------------------------------------------------
# Layering on a synthetic module graph
# ----------------------------------------------------------------------

class TestLayering:
    def test_upward_import_fires(self, tmp_path):
        module = module_from(tmp_path, "src/repro/xmltree/x.py",
                             "from repro.core.engine import GKSEngine\n")
        findings = [finding for finding in lint_modules([module])
                    if finding.rule_id == "L001"]
        assert len(findings) == 1
        assert "layer" in findings[0].message

    def test_downward_and_cross_cutting_imports_pass(self, tmp_path):
        modules = [
            module_from(tmp_path, "src/repro/core/x.py",
                        "from repro.index.builder import IndexBuilder\n"
                        "from repro.errors import GKSError\n"
                        "from repro.obs.trace import DEFAULT_CLOCK\n"),
            module_from(tmp_path, "src/repro/cli2.py",
                        "from repro.core.engine import GKSEngine\n"),
        ]
        findings = [finding for finding in lint_modules(modules)
                    if finding.rule_id == "L001"]
        assert findings == []

    def test_deferred_import_exempt(self, tmp_path):
        module = module_from(
            tmp_path, "src/repro/core/x.py",
            "def plug():\n"
            "    from repro.serve.core import ServerCore\n"
            "    return ServerCore\n")
        findings = [finding for finding in lint_modules([module])
                    if finding.rule_id == "L001"]
        assert findings == []

    def test_cycle_detected(self, tmp_path):
        modules = [
            module_from(tmp_path, "src/repro/text/x.py",
                        "import repro.xmltree.y\n"),
            module_from(tmp_path, "src/repro/xmltree/y.py",
                        "import repro.text.x\n"),
        ]
        findings = [finding for finding in lint_modules(modules)
                    if finding.rule_id == "L002"]
        assert len(findings) == 1
        assert "cycle" in findings[0].message

    def test_repo_itself_is_clean(self):
        findings = lint_paths(["src", "tests", "benchmarks"])
        assert findings == [], "\n".join(
            finding.render() for finding in findings)


# ----------------------------------------------------------------------
# Deep invariants
# ----------------------------------------------------------------------

def build_corpus_index():
    builder = IndexBuilder()
    for doc_id, text in enumerate(BOOKS):
        builder.add_document(parse_document(text, doc_id=doc_id,
                                            name=f"doc{doc_id}.xml"))
    return builder.build()


def build_sharded_index(shards: int = 2):
    return sharding.build_sharded_index(Repository.from_texts(BOOKS),
                                        shards=shards)


class TestInvariants:
    # every on-disk case below runs once per codec: the audit and the
    # fault injectors reach a file only through its codec's decode /
    # encode, so neither format is special

    def test_clean_indexes_have_no_violations(self, tmp_path):
        mono, sharded = build_corpus_index(), build_sharded_index()
        assert verify_index(mono) == []
        assert verify_index(sharded) == []
        for codec in CODEC_NAMES:
            for name, index in (("mono", mono), ("shard", sharded)):
                path = tmp_path / f"{name}.{codec}"
                save_index(index, path, codec=codec)
                assert verify_store(path) == []
                assert verify_index(load_index(path)) == []

    def test_violation_render_names_invariant(self):
        violation = InvariantViolation("postings-sorted", "detail")
        assert violation.render().startswith("postings-sorted:")

    def _assert_caught(self, fault, invariant, tmp_path):
        for codec in CODEC_NAMES:
            for index in (build_corpus_index(), build_sharded_index()):
                path = tmp_path / "index.gks"
                save_index(index, path, codec=codec)
                getattr(IndexCorruptor(seed=11), fault)(path)
                load_index(path)  # CRCs were resealed: it loads cleanly
                assert invariant in {
                    violation.invariant
                    for violation in verify_store(path)}, (codec, index)

    def test_corrupted_postings_detected(self, tmp_path):
        self._assert_caught("corrupt_postings", "postings-sorted", tmp_path)

    def test_manifest_drop_detected(self, tmp_path):
        path = tmp_path / "shard.gks"
        for codec in CODEC_NAMES:
            save_index(build_sharded_index(), path, codec=codec)
            IndexCorruptor(seed=11).drop_manifest_document(path)
            load_index(path)
            violations = verify_store(path)
            assert any(violation.invariant == "shard-partition"
                       for violation in violations)
            save_index(build_corpus_index(), path, codec=codec)
            with pytest.raises(ValidationError):   # no manifest to damage
                IndexCorruptor(seed=11).drop_manifest_document(path)

    def test_skewed_child_count_detected(self, tmp_path):
        self._assert_caught("skew_child_count", "hash-cross-consistency",
                            tmp_path)

    def test_on_disk_audit_runs_the_in_memory_checks(self, tmp_path):
        # an entity whose parent no table knows, postings outnumbering
        # the occurrences counted at build time
        path = tmp_path / "mono.gks"
        save_index(build_index(load_dataset("figure2a")), path)
        assert verify_store(path) == []
        codec = sniff_codec(path)
        decoded = codec.decode(path)
        shard = decoded.shards[0]
        victim = max(shard.entity, key=len)
        del shard.element[victim[:-1]]
        shard.entity.pop(victim[:-1], None)
        shard.stats["text_keywords"] = shard.stats["tag_keywords"] = 1
        codec.encode(decoded, path)
        details = " ".join(violation.render()
                           for violation in verify_store(path))
        assert "hash-cross-consistency" in details
        assert "unindexed parent" in details
        assert "stats-agreement" in details and "exceed" in details

    def test_implausible_category_counters_detected(self, tmp_path):
        for codec in CODEC_NAMES:
            path = tmp_path / f"mono.{codec}"
            save_index(build_corpus_index(), path, codec=codec)
            writer = sniff_codec(path)
            decoded = writer.decode(path)
            stats = decoded.shards[0].stats
            stats["connecting_nodes"] = 2 * stats["total_nodes"] + 1
            writer.encode(decoded, path)
            assert [violation.invariant for violation in verify_store(path)
                    if "category counters" in violation.detail] == \
                ["stats-agreement"]

    def test_in_memory_shard_misrouting_detected(self):
        sharded = build_sharded_index()
        # misdeclare the strategy: hash routing disagrees with the
        # round-robin placement the shards were actually built with
        # (CRC-hash routes every docN.xml to shard 0; round-robin put
        # doc1 on shard 1, so the disagreement is deterministic)
        sharded.strategy = "hash"
        violations = verify_index(sharded)
        assert any(violation.invariant == "shard-routing"
                   for violation in violations)
        sharded.strategy = "round_robin"
        assert verify_index(sharded) == []

    def test_torn_store_still_raises_storage_error(self, tmp_path):
        path = tmp_path / "mono.gks"
        save_index(build_corpus_index(), path)
        TornWriter(seed=1).tear(path, fraction=0.5)
        with pytest.raises(StorageError):
            verify_store(path)


# ----------------------------------------------------------------------
# CLI exit-code contract
# ----------------------------------------------------------------------

class TestCli:
    def test_lint_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0

    def test_lint_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "T001" in out

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("L001", "T001", "E002", "C001", "C002", "C003"):
            assert rule_id in out

    def test_check_index_deep_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "shard.gks"
        save_index(build_sharded_index(), path)
        assert main(["check-index", str(path), "--deep"]) == 0

        corrupted = tmp_path / "corrupted.gks"
        shutil.copy(path, corrupted)
        IndexCorruptor(seed=5).drop_manifest_document(corrupted)
        # shallow check cannot see it ...
        assert main(["check-index", str(corrupted)]) == 0
        # ... the deep audit exits 2 and names the invariant
        assert main(["check-index", str(corrupted), "--deep"]) == 2
        out = capsys.readouterr().out
        assert "invariant violated" in out
        assert "shard-partition" in out

    def test_check_index_structural_failure_still_exits_one(
            self, tmp_path, capsys):
        path = tmp_path / "mono.gks"
        save_index(build_corpus_index(), path)
        TornWriter(seed=1).tear(path, fraction=0.4)
        assert main(["check-index", str(path), "--deep"]) == 1

    @staticmethod
    def _saved(tmp_path, codec, shards, repository=None):
        repository = repository or Repository.from_texts(BOOKS)
        index = (build_index(repository) if shards == 1 else
                 sharding.build_sharded_index(repository, shards=shards))
        return save_index(index, tmp_path / "books.gks", codec=codec)

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    @pytest.mark.parametrize("shards", (1, 2))
    def test_resealed_negative_child_count_is_content_damage(
            self, tmp_path, capsys, codec, shards):
        # one verdict on every codec and layout: the bytes are what was
        # written (exit 0), the tables are wrong (--deep exits 2)
        path = self._saved(tmp_path, codec, shards)
        writer = sniff_codec(path)
        decoded = writer.decode(path)
        shard = decoded.shards[-1]
        shard.element[min(shard.element)] = -3
        writer.encode(decoded, path)
        assert main(["check-index", str(path)]) == 0
        capsys.readouterr()
        assert main(["check-index", str(path), "--deep"]) == 2
        out = capsys.readouterr().out
        assert "hash-cross-consistency" in out
        assert "negative child count -3" in out

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    @pytest.mark.parametrize("shards", (1, 2))
    def test_check_index_against_sources(self, tmp_path, capsys, codec,
                                         shards):
        sources = []
        for position, text in enumerate(BOOKS):
            source = tmp_path / f"doc{position}.xml"
            source.write_text(text)
            sources.append(str(source))
        path = self._saved(tmp_path, codec, shards,
                           Repository.from_paths(sources))
        assert main(["check-index", str(path), "--against", *sources]) == 0
        assert "deep audit" in capsys.readouterr().out
        other = tmp_path / "other.xml"
        other.write_text("<bib><book><title>other</title></book></bib>")
        assert main(["check-index", str(path), "--against",
                     *sources[:-1], str(other)]) == 2
        assert "source-agreement" in capsys.readouterr().out
        # a structurally broken file is exit 1 before any rebuild
        TornWriter(seed=1).tear(path, fraction=0.4)
        assert main(["check-index", str(path), "--against", *sources]) == 1
