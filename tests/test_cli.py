"""Tests for the command-line interface."""

from __future__ import annotations

import importlib
import os

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11; pytest itself depends on tomli
    import tomli as tomllib

import repro
from repro import cli
from repro.graphs import io


#: The repository root, which holds ``pyproject.toml`` and ``setup.py``.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestPackaging:
    """The install metadata ships the package and the documented script."""

    def _pyproject(self):
        with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as handle:
            return tomllib.load(handle)

    def test_pyproject_declares_the_console_script(self):
        project = self._pyproject()["project"]
        assert project["name"] == "repro-nearclique"
        assert "networkx" in project["dependencies"]
        target = project["scripts"]["repro-nearclique"]
        module_name, _, attribute = target.partition(":")
        assert getattr(importlib.import_module(module_name), attribute) is cli.main

    def test_pyproject_finds_the_src_package_and_its_version(self):
        # ``setup.py`` is a shim that defers to this metadata; without it an
        # install reports UNKNOWN / 0.0.0 and ships no ``repro`` package.
        setuptools_table = self._pyproject()["tool"]["setuptools"]
        (where,) = setuptools_table["packages"]["find"]["where"]
        assert os.path.isfile(os.path.join(REPO_ROOT, where, "repro", "__init__.py"))
        module_name, _, attribute = setuptools_table["dynamic"]["version"][
            "attr"
        ].rpartition(".")
        version = getattr(importlib.import_module(module_name), attribute)
        assert version == repro.__version__ and version != "0.0.0"


class TestGenerateCommand:
    @pytest.mark.parametrize("family", ["planted", "figure1", "path-of-cliques", "web"])
    def test_generates_every_family(self, tmp_path, family):
        path = os.path.join(str(tmp_path), "%s.edges" % family)
        exit_code = cli.main(
            ["generate", path, "--family", family, "--n", "60", "--seed", "3"]
        )
        assert exit_code == 0
        graph, planted = io.read_edge_list(path)
        assert graph.number_of_nodes() >= 30
        assert planted


class TestFindCommand:
    def test_distributed_engine_on_generated_workload(self, capsys):
        exit_code = cli.main(
            [
                "find",
                "--n",
                "60",
                "--epsilon",
                "0.2",
                "--engine",
                "distributed",
                "--expected-sample",
                "6",
                "--seed",
                "5",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Discovered near-cliques" in captured.out
        assert "max message bits" in captured.out

    def test_centralized_engine_on_saved_graph(self, tmp_path, capsys):
        path = os.path.join(str(tmp_path), "workload.edges")
        cli.main(["generate", path, "--family", "planted", "--n", "50", "--seed", "1"])
        exit_code = cli.main(
            ["find", "--graph", path, "--engine", "centralized", "--epsilon", "0.2", "--seed", "2"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "recall of planted set" in captured.out

    @pytest.mark.parametrize(
        "congest_engine", ["reference", "batched", "async", "sharded"]
    )
    def test_congest_engine_selection(self, capsys, congest_engine):
        exit_code = cli.main(
            [
                "find",
                "--n",
                "60",
                "--epsilon",
                "0.2",
                "--engine",
                "distributed",
                "--congest-engine",
                congest_engine,
                "--expected-sample",
                "6",
                "--seed",
                "5",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Discovered near-cliques" in captured.out

    def test_congest_engines_print_identical_reports(self, capsys):
        reports = {}
        for congest_engine in ("reference", "batched", "async", "sharded"):
            exit_code = cli.main(
                [
                    "find",
                    "--n",
                    "50",
                    "--congest-engine",
                    congest_engine,
                    "--expected-sample",
                    "5",
                    "--seed",
                    "9",
                ]
            )
            assert exit_code == 0
            reports[congest_engine] = capsys.readouterr().out
        assert reports["reference"] == reports["batched"]
        assert reports["sharded"] == reports["batched"]
        # The async report additionally carries the synchronizer-overhead
        # row (which widens the table columns); every value above it —
        # clusters, sample, rounds, messages — is identical to the
        # synchronous engines, per the engine contract.
        def rows(report):
            return [
                " ".join(line.split())
                for line in report.splitlines()
                if line.strip()
                and not set(line) <= {"-", " "}  # column-width separator rows
                and "synchronizer control messages" not in line
            ]

        assert rows(reports["async"]) == rows(reports["reference"])

    @pytest.mark.parametrize("shards,workers", [("1", "0"), ("3", "0"), ("4", "2")])
    def test_sharded_engine_shard_flags(self, capsys, shards, workers):
        # Shard count and worker mode are report-invariant: the sharded
        # engine is bit-identical for every partition, so the CLI output
        # must not change either.
        reports = {}
        for name, extra in (
            ("batched", []),
            ("sharded", ["--shards", shards, "--shard-workers", workers]),
        ):
            exit_code = cli.main(
                [
                    "find",
                    "--n",
                    "50",
                    "--congest-engine",
                    name,
                    "--expected-sample",
                    "5",
                    "--seed",
                    "9",
                ]
                + extra
            )
            assert exit_code == 0
            reports[name] = capsys.readouterr().out
        assert reports["sharded"] == reports["batched"]

    def test_session_mode_process_backend_report(self, capsys):
        # The process backend's session must not change the finder's report
        # (engines are bit-identical in a session) and must append the
        # execution-session totals.
        reports = {}
        for name, extra in (
            ("batched", []),
            (
                "session",
                [
                    "--congest-engine",
                    "sharded",
                    "--shards",
                    "2",
                    "--shard-backend",
                    "process",
                ],
            ),
        ):
            exit_code = cli.main(
                ["find", "--n", "50", "--expected-sample", "5", "--seed", "9"]
                + extra
            )
            assert exit_code == 0
            reports[name] = capsys.readouterr().out
        session_report = reports["session"]
        assert "Execution-session report" in session_report
        assert "shm bytes mapped" in session_report
        assert "setup seconds / phase" in session_report
        # Everything before the session report matches the batched run.
        prefix = session_report.split("Execution-session report")[0].rstrip()
        assert prefix == reports["batched"].rstrip()
        assert "Execution-session report" not in reports["batched"]

    def test_boosted_engine(self, capsys):
        exit_code = cli.main(
            [
                "find",
                "--n",
                "50",
                "--engine",
                "boosted",
                "--repetitions",
                "3",
                "--expected-sample",
                "6",
                "--seed",
                "7",
            ]
        )
        assert exit_code == 0
        assert "Run summary" in capsys.readouterr().out

    def test_abort_reported_as_nonzero_exit(self, capsys):
        exit_code = cli.main(
            [
                "find",
                "--n",
                "40",
                "--expected-sample",
                "40",
                "--max-sample",
                "3",
                "--seed",
                "1",
            ]
        )
        assert exit_code == 1
        assert "aborted" in capsys.readouterr().out.lower()


class TestVerifyCommand:
    def test_verify_planted_set_passes(self, tmp_path, capsys):
        path = os.path.join(str(tmp_path), "workload.edges")
        cli.main(
            ["generate", path, "--family", "planted", "--n", "50", "--epsilon", "0.01", "--seed", "2"]
        )
        exit_code = cli.main(["verify", path, "--epsilon", "0.05"])
        assert exit_code == 0
        assert "yes" in capsys.readouterr().out

    def test_verify_explicit_sparse_set_fails(self, tmp_path, capsys):
        path = os.path.join(str(tmp_path), "workload.edges")
        cli.main(["generate", path, "--family", "planted", "--n", "50", "--seed", "2"])
        exit_code = cli.main(
            ["verify", path, "--epsilon", "0.0", "--nodes", "0,1,2,48,49"]
        )
        assert exit_code == 1

    def test_verify_without_nodes_or_planted_errors(self, tmp_path):
        import networkx as nx

        path = os.path.join(str(tmp_path), "plain.edges")
        io.write_edge_list(nx.path_graph(4), path)
        assert cli.main(["verify", path, "--epsilon", "0.1"]) == 2


class TestServeCommand:
    def _serve(self, monkeypatch, capsys, requests, argv=()):
        import io as _io
        import json
        import sys

        lines = "".join(json.dumps(r) + "\n" for r in requests)
        monkeypatch.setattr(sys, "stdin", _io.StringIO(lines))
        exit_code = cli.main(["serve", "--n", "48", "--seed", "1", *argv])
        captured = capsys.readouterr()
        responses = [json.loads(line) for line in captured.out.splitlines()]
        return exit_code, responses, captured.err

    def test_serve_answers_query_delta_query_and_shuts_down(
        self, monkeypatch, capsys
    ):
        exit_code, responses, err = self._serve(
            monkeypatch,
            capsys,
            [
                {"cmd": "query", "seed": 3},
                {"cmd": "delta", "remove": [[0, 1]]},
                {"cmd": "query", "seed": 3},
                {"cmd": "stats"},
                {"cmd": "shutdown"},
            ],
        )
        assert exit_code == 0
        assert [r["ok"] for r in responses] == [True] * 5
        assert responses[0]["query"]["kind"] == "full"
        assert responses[2]["query"]["kind"] == "incremental"
        assert responses[3]["deltas"] == 1
        assert "serving near-clique queries" in err
        assert "served 5 requests" in err

    def test_serve_survives_bad_requests_and_eof(self, monkeypatch, capsys):
        import io as _io
        import sys

        monkeypatch.setattr(
            sys, "stdin", _io.StringIO('garbage\n{"cmd": "stats"}\n')
        )
        exit_code = cli.main(["serve", "--n", "32", "--seed", "1"])
        captured = capsys.readouterr()
        import json

        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert exit_code == 0
        assert responses[0]["error"]["code"] == "bad-request"
        assert responses[1]["ok"] is True
