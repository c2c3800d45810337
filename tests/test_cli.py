"""Tests for the command-line interface."""

from dataclasses import fields

import pytest

from repro import cli
from repro.cli import build_arg_parser, main
from repro.core.config import MODES, EngineConfig, Paths
from repro.core.engine import GKSEngine
from repro.index.codec import CODEC_NAMES
from repro.index.sharding import PARTITION_STRATEGIES


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "uni.xml"
    path.write_text(
        "<Dept><Dept_Name>CS</Dept_Name>"
        "<Area><Name>Databases</Name><Courses>"
        "<Course><Name>Data Mining</Name><Students>"
        "<Student>Karen</Student><Student>Mike</Student>"
        "</Students></Course>"
        "<Course><Name>AI</Name><Students>"
        "<Student>Karen</Student><Student>Zoe</Student>"
        "</Students></Course>"
        "</Courses></Area></Dept>")
    return path


class TestSearch:
    def test_search_prints_ranked_results(self, corpus, capsys):
        assert main(["search", str(corpus), "-q", "karen mike",
                     "-s", "2"]) == 0
        out = capsys.readouterr().out
        assert "node(s) for" in out
        assert "score=" in out

    def test_search_snippets(self, corpus, capsys):
        main(["search", str(corpus), "-q", "karen", "--snippets"])
        assert "<Course>" in capsys.readouterr().out

    def test_top_limits_output(self, corpus, capsys):
        main(["search", str(corpus), "-q", "karen", "-k", "1"])
        out = capsys.readouterr().out
        assert out.count("score=") == 1

    @pytest.mark.parametrize("count", ["0", "-1", "-2"])
    def test_top_below_one_is_an_error(self, corpus, capsys, count):
        # a count below 1 used to slice from the end: "3 node(s)" over
        # a listing of 2
        assert main(["search", str(corpus), "-q", "karen", "-k",
                     count]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gks: error: count must be positive: " \
                               f"{count}\n"

    def test_generous_deadline_stays_exact(self, corpus, capsys):
        assert main(["search", str(corpus), "-q", "karen mike",
                     "-s", "2", "--deadline-ms", "60000"]) == 0
        captured = capsys.readouterr()
        assert "node(s) for" in captured.out
        assert "warning:" not in captured.err

    def test_exhausted_deadline_warns_on_stderr(self, corpus, capsys):
        # 1 ns of budget trips on the first checkpoint; the query still
        # answers (degraded), so the exit code stays 0
        assert main(["search", str(corpus), "-q", "karen mike",
                     "-s", "2", "--deadline-ms", "0.000001"]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "deadline" in captured.err


class TestDI:
    def test_di_prints_insights(self, corpus, capsys):
        assert main(["di", str(corpus), "-q", "karen mike",
                     "-s", "2"]) == 0
        out = capsys.readouterr().out
        assert "Data Mining" in out

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_top_below_one_is_an_error(self, corpus, capsys, count):
        assert main(["di", str(corpus), "-q", "karen mike", "-s", "2",
                     "-m", count]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gks: error: top must be positive: " \
                               f"{count}\n"

    def test_di_without_lce_nodes(self, tmp_path, capsys):
        path = tmp_path / "flat.xml"
        path.write_text("<r><a>karen</a></r>")
        main(["di", str(path), "-q", "karen"])
        assert "no insights" in capsys.readouterr().out


class TestIndexAndCategorize:
    def test_index_writes_file(self, corpus, tmp_path, capsys):
        out_path = tmp_path / "idx.gz"
        assert main(["index", str(corpus), "-o", str(out_path)]) == 0
        assert out_path.exists()
        assert "indexed" in capsys.readouterr().out

    def test_categorize_prints_counts(self, corpus, capsys):
        assert main(["categorize", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "AN" in out and "EN" in out and "total nodes" in out


class TestCheckIndex:
    @pytest.fixture
    def index_path(self, corpus, tmp_path):
        path = tmp_path / "idx.gz"
        assert main(["index", str(corpus), "-o", str(path)]) == 0
        return path

    def test_healthy_index_exits_zero(self, index_path, capsys):
        assert main(["check-index", str(index_path)]) == 0
        out = capsys.readouterr().out
        assert "index OK" in out
        assert "documents" in out

    def test_corrupt_index_exits_nonzero(self, index_path, capsys):
        blob = bytearray(index_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        index_path.write_bytes(bytes(blob))
        assert main(["check-index", str(index_path)]) == 1
        assert "index BAD" in capsys.readouterr().out

    def test_garbage_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "noise.gz"
        path.write_bytes(b"this was never an index")
        assert main(["check-index", str(path)]) == 1
        assert "index BAD" in capsys.readouterr().out

    def test_missing_file_exits_nonzero(self, tmp_path):
        assert main(["check-index", str(tmp_path / "absent.gz")]) == 1

    def test_flag_spelling_works(self, index_path):
        assert main(["check-index", str(index_path)]) == 0


class TestObservabilityCLI:
    def test_search_trace_prints_span_tree(self, corpus, capsys):
        assert main(["search", str(corpus), "-q", "karen mike",
                     "-s", "2", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "search" in out
        for stage in ("merge", "lcp", "lce", "rank"):
            assert stage in out
        assert "ms" in out

    def test_search_metrics_json_writes_file(self, corpus, tmp_path,
                                             capsys):
        target = tmp_path / "metrics.json"
        assert main(["search", str(corpus), "-q", "karen",
                     "--metrics-json", str(target)]) == 0
        assert target.exists()
        import json
        snapshot = json.loads(target.read_text())
        assert "gks_searches_total" in snapshot

    def test_stats_human_report(self, corpus, capsys):
        assert main(["stats", str(corpus), "-q", "karen mike",
                     "-s", "2"]) == 0
        out = capsys.readouterr().out
        assert "corpus:" in out
        assert "query 'karen mike'" in out
        assert "cache:" in out
        assert "slow queries" in out

    def test_stats_prometheus_exposition(self, corpus, capsys):
        assert main(["stats", str(corpus), "-q", "karen",
                     "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE gks_searches_total counter" in out
        assert "gks_ingest_documents_total" in out

    def test_stats_json_exposition(self, corpus, capsys):
        import json

        assert main(["stats", str(corpus), "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "gks_index_builds_total" in snapshot


class TestDataset:
    def test_dataset_emits_xml(self, tmp_path, capsys):
        assert main(["dataset", "figure2a", "-o", str(tmp_path)]) == 0
        files = list(tmp_path.glob("figure2a_*.xml"))
        assert len(files) == 1
        assert "Karen" in files[0].read_text()

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["dataset", "nope", "-o", str(tmp_path)])


#: every subcommand that takes corpus files, with the arguments that
#: make it run to completion on a small corpus
FILE_COMMANDS = {
    "search": ["-q", "karen"],
    "di": ["-q", "karen"],
    "schema": [],
    "stats": ["-q", "karen"],
    "race": ["--scenario", "cache", "--threads", "2", "--rounds", "1",
             "--iterations", "2"],
    "categorize": [],
    "index": ["-o", "out.gks"],
    "serve": ["--port", "0"],
}


class TestOneCorpusLoader:
    """Every subcommand reads its files through ``Repository.from_paths``."""

    @pytest.fixture
    def json_corpus(self, tmp_path):
        path = tmp_path / "courses.json"
        path.write_text('{"catalog": [{"name": "AI", '
                        '"students": ["Karen", "Zoe"]}]}')
        return path

    def test_every_file_command_is_listed(self):
        subcommands = build_arg_parser()._subparsers._group_actions[0]
        assert set(FILE_COMMANDS) == {
            name for name, command in subcommands.choices.items()
            if any(action.dest == "files" for action in command._actions)}

    @pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
    def test_missing_file_is_a_typed_error(self, command, tmp_path,
                                           capsys):
        argv = [command, str(tmp_path / "missing.xml"),
                *FILE_COMMANDS[command]]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "gks: error: cannot read corpus file" in captured.err
        assert "Traceback" not in captured.err

    # every file is read as XML: JSON text is malformed input (serve
    # fails in the same _engine open, before it listens)
    @pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
    def test_json_file_is_a_typed_error(self, command, json_corpus,
                                        tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([command, str(json_corpus),
                     *FILE_COMMANDS[command]]) == 1
        captured = capsys.readouterr()
        assert "gks: error:" in captured.err
        assert "Traceback" not in captured.err

    def test_routes_list_identical_nodes(self, corpus, tmp_path, capsys):
        assert main(["search", str(corpus), "-q", "karen zoe"]) == 0
        printed = [line.strip() for line
                   in capsys.readouterr().out.splitlines()[1:]]
        engine = GKSEngine.open(Paths([corpus]))
        assert printed == [engine.describe(node)
                           for node in engine.search("karen zoe")]
        assert main(["index", str(corpus), "-o",
                     str(tmp_path / "out.gks")]) == 0
        assert (f"indexed {engine.index.stats.total_nodes} nodes"
                in capsys.readouterr().out)


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_workers_flag_is_gone(self, corpus, tmp_path):
        with pytest.raises(SystemExit):
            main(["index", str(corpus), "-o", str(tmp_path / "idx.gz"),
                  "--workers", "2"])

    def test_exp_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["exp", "run", "spec.json", "-o", "out"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'exp'" in capsys.readouterr().err

    def test_serve_delay_flag_is_named_for_what_it_does(self, corpus,
                                                        capsys):
        # ``--slow-ms`` is the slow-log threshold of ``gks stats``; the
        # serve flag injects a delay into every search
        parser = build_arg_parser()
        args = parser.parse_args(["serve", str(corpus),
                                  "--inject-delay-ms", "5"])
        assert args.inject_delay_ms == 5.0
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["serve", str(corpus), "--slow-ms", "5"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --slow-ms" in \
            capsys.readouterr().err
        assert parser.parse_args(["stats", str(corpus), "--slow-ms",
                                  "5"]).slow_ms == 5.0

    def test_topk_and_xpath_are_gone(self, corpus, capsys):
        # top-k is ``search -k``; there is no path language
        for argv in (["topk", str(corpus), "-q", "karen"],
                     ["xpath", str(corpus), "-p", "Dept"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err

    def test_config_flags_cannot_drift_from_engine_config(self):
        defaults = EngineConfig()
        backed = {field: flag for flag, (field, _, _)
                  in cli._CONFIG_FLAGS.items()}
        choices = {"--mode": MODES, "--codec": CODEC_NAMES,
                   "--strategy": PARTITION_STRATEGIES}
        subcommands = build_arg_parser()._subparsers._group_actions[0]
        seen = set()
        for name, command in subcommands.choices.items():
            for action in command._actions:
                if action.dest not in backed:
                    continue
                # a flag that sets a config field is declared in the table
                assert action.option_strings == [backed[action.dest]], name
                flag = action.option_strings[0]
                seen.add(flag)
                assert action.default == getattr(defaults, action.dest)
                if flag in choices:
                    assert tuple(action.choices) == tuple(choices[flag])
        assert seen == set(cli._CONFIG_FLAGS)
        assert set(backed) <= {field.name for field in fields(EngineConfig)}
