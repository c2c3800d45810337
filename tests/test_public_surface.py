"""The surface the judge (``benchmarks/gksbench``) stands on.

gksbench is read here, never edited: these tests fail in the PR that
removes or renames something the benchmark imports, builds or spawns,
instead of in the benchmark run after it.
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro.cli import build_arg_parser
from repro.index.sharding import build_sharded_index
from repro.xmltree.repository import Repository

GKSBENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "gksbench"


def _repro_imports() -> set[tuple[str, str, str]]:
    """Every ``from repro… import name`` in gksbench: (file, module, name)."""
    return {(path.name, node.module, alias.name)
            for path in GKSBENCH.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "repro"
            for alias in node.names}


@pytest.mark.parametrize("source, module, name", sorted(_repro_imports()))
def test_every_name_gksbench_imports_resolves(source, module, name):
    assert hasattr(importlib.import_module(module), name)


def test_sharded_build_keeps_the_shape_gksbench_reads():
    repository = Repository.from_texts(
        ["<r><a>karen</a></r>", "<r><a>mike</a></r>", "<r><a>zoe</a></r>"])
    index = build_sharded_index(repository, shards=2)
    assert [shard.index.inverted.total_postings
            for shard in index.shards] == [6, 3]


def test_serve_command_line_gksbench_spawns_still_parses():
    args = build_arg_parser().parse_args(
        ["serve", "--port", "0", "--shards", "2", "--serve-workers", "4",
         "corpus.xml"])
    assert (args.port, args.shards, args.serve_workers) == (0, 2, 4)
