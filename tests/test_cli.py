"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_requires_query(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--dataset", "karate"])


class TestListingCommands:
    def test_datasets_lists_table1_names(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        for name in ("karate", "dolphin", "dblp"):
            assert name in output

    def test_algorithms_lists_proposed(self, capsys):
        assert main(["algorithms"]) == 0
        output = capsys.readouterr().out
        assert "FPA" in output and "NCA" in output and "kc" in output


class TestSearchCommand:
    def test_search_on_builtin_dataset(self, capsys):
        code = main(["search", "--dataset", "karate", "--algorithm", "FPA", "--query", "0"])
        assert code == 0
        output = capsys.readouterr().out
        assert "FPA" in output
        assert "density modularity" in output
        assert "NMI vs ground truth" in output

    def test_search_with_k_override(self, capsys):
        code = main(["search", "--dataset", "karate", "--algorithm", "kc", "--query", "0", "--k", "4"])
        assert code == 0
        assert "kc" in capsys.readouterr().out

    def test_search_failure_returns_nonzero(self, capsys):
        # node 11 is not in the 4-core, so the kc baseline fails
        code = main(["search", "--dataset", "karate", "--algorithm", "kc", "--query", "11", "--k", "4"])
        assert code == 1
        assert "no community" in capsys.readouterr().out

    def test_search_names_a_tuple_node(self, capsys):
        # ring-of-cliques names its nodes (clique, member); a JSON array
        # token is a tuple id, the same rule as the wire protocol
        code = main(
            ["search", "--dataset", "ring-of-cliques", "--algorithm", "NCA",
             "--query", "[0, 0]"]
        )
        assert code == 0
        members = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("members")
        )
        assert "(0, 0)" in members

    def test_search_on_edge_list_file(self, tmp_path, capsys, karate_graph):
        from repro.graph import write_edge_list

        path = tmp_path / "graph.txt"
        write_edge_list(karate_graph, path)
        code = main(["search", "--edge-list", str(path), "--query", "0"])
        assert code == 0
        assert "members" in capsys.readouterr().out

    def test_search_requires_some_graph_source(self):
        with pytest.raises(SystemExit):
            main(["search", "--query", "0"])

    def test_search_rejects_both_sources(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["search", "--dataset", "karate", "--edge-list", str(tmp_path / "x"), "--query", "0"])


class TestEvaluateCommand:
    def test_evaluate_prints_table(self, capsys):
        code = main(
            ["evaluate", "--dataset", "karate", "--algorithms", "FPA", "kc", "--queries", "3"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "FPA" in output and "kc" in output
        assert "NMI" in output


class TestStructuredErrors:
    """Unknown names and bad queries exit with code 2 and a one-line error
    on stderr — production-shaped, never a traceback."""

    def test_evaluate_unknown_dataset(self, capsys):
        assert main(["evaluate", "--dataset", "atlantis", "--algorithms", "kt"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown dataset" in err

    def test_evaluate_unknown_algorithm(self, capsys):
        assert main(["evaluate", "--dataset", "karate", "--algorithms", "quantum"]) == 2
        err = capsys.readouterr().err
        assert "unknown algorithm" in err

    def test_search_unknown_dataset(self, capsys):
        assert main(["search", "--dataset", "atlantis", "--query", "0"]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_search_unknown_algorithm(self, capsys):
        assert main(["search", "--dataset", "karate", "--algorithm", "nope", "--query", "0"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_search_missing_query_node(self, capsys):
        assert main(["search", "--dataset", "karate", "--algorithm", "kt", "--query", "999"]) == 2
        assert "not in the graph" in capsys.readouterr().err

    def test_search_malformed_array_node(self, capsys):
        for token in ("[0, 0", "[true]", "[0.5]"):
            assert main(
                ["search", "--dataset", "karate", "--algorithm", "kt", "--query", token]
            ) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --query") and "not a node id" in err

    def test_serve_unknown_dataset(self, capsys):
        assert main(["serve", "--datasets", "atlantis"]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_serve_rejects_bad_replica_specs(self, capsys):
        assert main(["serve", "--replicas", "0"]) == 2
        assert "--replicas must be a positive integer" in capsys.readouterr().err
        assert main(["serve", "--replicas", "two"]) == 2
        assert "--replicas expects an integer" in capsys.readouterr().err
        assert main(["serve", "--replicas", "atlantis=2"]) == 2
        assert "unknown dataset 'atlantis'" in capsys.readouterr().err
        assert main(["serve", "--replicas", "karate=nope"]) == 2
        assert "must look like name=N" in capsys.readouterr().err

    def test_serve_rejects_negative_max_queue(self, capsys):
        assert main(["serve", "--max-queue", "-1"]) == 2
        assert "--max-queue must be >= 0" in capsys.readouterr().err

    def test_serve_port_in_use_is_structured(self, capsys):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            code = main(["serve", "--port", str(port), "--datasets", "figure1"])
        finally:
            blocker.close()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "in use" in err


class TestIndexInspectJson:
    """`repro index inspect --json` is the machine-readable surface the
    benches and CI lean on — its schema is a contract."""

    EXPECTED_KEYS = {
        "index_file",
        "format_version",
        "digest",
        "dataset",
        "nodes",
        "edges",
        "core_kmax",
        "truss_kmax",
        "core_communities",
        "truss_communities",
        "kecc_cap",
        "kecc_communities",
        "serves",
        "region_bytes",
        "total_bytes",
        "build_seconds",
    }

    def test_inspect_json_schema(self, tmp_path, capsys):
        assert main(["index", "build", "karate", "--index-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(
            ["index", "inspect", "karate", "--json", "--index-dir", str(tmp_path)]
        ) == 0
        info = json.loads(capsys.readouterr().out)
        assert set(info) == self.EXPECTED_KEYS
        assert info["format_version"] == 3
        assert info["dataset"] == "karate"
        assert info["nodes"] == 34 and info["edges"] == 78
        assert info["index_file"].endswith("karate.idx")
        assert isinstance(info["digest"], str) and len(info["digest"]) == 64
        assert set(info["serves"]) == {"kc", "kt", "hightruss", "huang2015", "kecc"}
        assert info["kecc_cap"] == 400
        # region table covers the node hierarchies and the kecc labels, sizes
        # are positive bytes; format 3 stores no edge_* regions
        for region in ("node_core", "truss_order", "kecc_label"):
            assert info["region_bytes"][region] > 0
        assert not [name for name in info["region_bytes"] if name.startswith("edge_")]
        assert info["total_bytes"] == sum(info["region_bytes"].values())
        assert info["build_seconds"] >= 0.0

    def test_inspect_json_missing_index_is_exit_2(self, tmp_path, capsys):
        assert main(
            ["index", "inspect", "karate", "--json", "--index-dir", str(tmp_path)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # errors never pollute the JSON stream
        assert "no index file" in captured.err


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 7531
        assert args.datasets == ["karate"]
        assert args.cache_size == 1024
        assert args.max_batch == 64
        assert args.executor == "inline"
        assert args.replicas == ["1"]
        assert args.max_queue == 0

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--datasets", "karate", "dolphin",
             "--cache-size", "16", "--max-batch", "8"]
        )
        assert args.port == 0
        assert args.datasets == ["karate", "dolphin"]
        assert args.cache_size == 16
        assert args.max_batch == 8

    def test_serve_placement_flags(self):
        args = build_parser().parse_args(
            ["serve", "--executor", "process", "--replicas", "2", "dolphin=4",
             "--max-queue", "32"]
        )
        assert args.executor == "process"
        assert args.replicas == ["2", "dolphin=4"]
        assert args.max_queue == 32

    def test_serve_rejects_removed_pool_flags(self, capsys):
        # serving has two executors, inline and process; neither is sized
        for argv in (["serve", "--executor", "pool"], ["serve", "--workers", "2"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
            capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--snapshot", "private"],
            ["serve", "--routing", "round-robin"],
            ["serve", "--epoch-threshold", "3"],
            ["coordinator", "--datasets", "karate", "--routing", "round-robin"],
        ],
    )
    def test_removed_serving_knobs_exit_2(self, argv, capsys):
        # one serving configuration: shared snapshots, least-loaded routing
        # and the default epoch threshold are not options
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
