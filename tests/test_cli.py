"""Tests for repro.cli (the top-level command line)."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, load_update_file, main
from repro.exceptions import GraphError
from repro.graph.io import save_edge_list


@pytest.fixture
def edges_file(tmp_path, citation_graph):
    path = str(tmp_path / "graph.txt")
    save_edge_list(citation_graph, path)
    return path


@pytest.fixture
def updates_file(tmp_path, citation_graph):
    path = tmp_path / "updates.txt"
    existing = sorted(citation_graph.edge_set())
    source, target = existing[0]
    lines = [
        "# a comment",
        f"- {source} {target}",
        "+ 0 55",
        "+ 1 55",
        "+ 2 55",  # repeated target: exercises consolidation
    ]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestLoadUpdateFile:
    def test_parses_signs(self, updates_file):
        batch = load_update_file(updates_file)
        assert len(batch) == 4
        assert batch.num_deletions == 1
        assert batch.num_insertions == 3

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("* 0 1\n")
        with pytest.raises(GraphError):
            load_update_file(str(path))

    def test_rejects_wrong_arity(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+ 0\n")
        with pytest.raises(GraphError):
            load_update_file(str(path))


class TestCommands:
    def test_info(self, edges_file, capsys):
        assert main(["info", edges_file]) == 0
        out = capsys.readouterr().out
        assert "num_nodes" in out
        assert "in_degree_gini" in out

    def test_compute_with_output(self, edges_file, tmp_path, capsys):
        # The named path is the path written, suffix or not.
        for name in ("scores.npy", "scores"):
            out_path = str(tmp_path / name)
            code = main(
                ["--iterations", "5", "compute", edges_file, "-o", out_path, "-k", "3"]
            )
            assert code == 0
            scores = np.load(out_path)
            assert scores.shape[0] == scores.shape[1]
            out = capsys.readouterr().out
            assert "top-3 similar pairs" in out
            assert f"scores saved to {out_path}" in out

    def test_update_unit_path(self, edges_file, updates_file, capsys):
        code = main(
            ["--iterations", "5", "update", edges_file, updates_file, "-k", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "applied 4 unit updates" in out
        assert "pruned" in out

    def test_update_consolidated_path(self, edges_file, updates_file, capsys):
        code = main(
            [
                "--iterations",
                "5",
                "update",
                edges_file,
                updates_file,
                "--consolidate",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # 4 updates but at most 2 distinct target rows.
        assert "consolidated row updates" in out
        assert "as 2 consolidated" in out

    def test_consolidated_and_unit_agree(
        self, edges_file, updates_file, tmp_path, capsys
    ):
        unit_out = str(tmp_path / "unit.npy")
        cons_out = str(tmp_path / "cons.npy")
        main(["update", edges_file, updates_file, "-o", unit_out])
        main(["update", edges_file, updates_file, "--consolidate", "-o", cons_out])
        unit_scores = np.load(unit_out)
        cons_scores = np.load(cons_out)
        np.testing.assert_allclose(unit_scores, cons_scores, atol=1e-3)

    def test_similar(self, edges_file, capsys):
        assert main(["similar", edges_file, "5", "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "similar to 5" in out

    def test_serve(self, edges_file, updates_file, capsys):
        assert main(["serve", edges_file, updates_file, "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "consolidated row updates" in out
        assert "still serves the frozen version: yes" in out
        assert "fresh snapshot v1 top pairs" in out

    def test_serve_process_executor(self, edges_file, updates_file, capsys):
        """The process executor is gone: asking for shard workers must
        fail loudly instead of quietly serving in-process."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", edges_file, updates_file, "-k", "3", "--workers", "2"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--workers" in captured.err
        assert "still serves the frozen version" not in captured.out

    def test_serve_admission_window_is_gone(
        self, edges_file, updates_file, capsys
    ):
        """Admission is group commit with no timer: the old window flag
        is a usage error, not a silently ignored knob."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "serve", edges_file, updates_file,
                    "--http", "0", "--admission-window", "0",
                ]
            )
        assert excinfo.value.code == 2
        assert "--admission-window" in capsys.readouterr().err

    def test_serve_precision_auto_is_gone(
        self, edges_file, updates_file, capsys
    ):
        """The precision autotuner is gone: ``--precision`` takes a
        storage dtype only."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", edges_file, updates_file, "--precision", "auto"])
        assert excinfo.value.code == 2
        assert "--precision" in capsys.readouterr().err

    def test_serve_float32(self, edges_file, updates_file, capsys):
        assert main(
            ["serve", edges_file, updates_file, "--precision", "float32"]
        ) == 0
        out = capsys.readouterr().out
        assert "precision float32: score store dtype float32" in out
        assert "still serves the frozen version: yes" in out

    def test_serve_config_checks_root_flags(
        self, edges_file, updates_file, tmp_path, capsys
    ):
        config_path = tmp_path / "service.json"
        config_path.write_text('{"damping": 0.7, "iterations": 9}')
        serve = ["serve", edges_file, updates_file, "--config", str(config_path)]
        assert main(["--damping", "0.9", *serve]) == 1
        assert "damping" in capsys.readouterr().err
        assert main(["--iterations", "12", *serve]) == 1
        assert "iterations" in capsys.readouterr().err
        assert main(["--damping", "0.7", "--iterations", "9", *serve]) == 0
        assert "still serves the frozen version: yes" in capsys.readouterr().out

    def test_library_error_is_one_line(self, edges_file, tmp_path):
        """A ReproError exits 1 with one ``error:`` line, no traceback:
        here a float32 data dir reopened without ``--precision``."""
        data_dir = str(tmp_path / "data")
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        serve = [sys.executable, "-m", "repro", "serve", edges_file,
                 str(empty), "--data-dir", data_dir]
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [
                os.path.join(os.path.dirname(__file__), "..", "src"),
                os.environ.get("PYTHONPATH", ""),
            ])),
        }
        first = subprocess.run(
            [*serve, "--precision", "float32"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert first.returncode == 0, first.stderr
        reopen = subprocess.run(
            serve, capture_output=True, text=True, timeout=120, env=env
        )
        assert reopen.returncode == 1
        lines = reopen.stderr.splitlines()
        assert len(lines) == 1, reopen.stderr
        assert lines[0].startswith("error: ")
        assert "float32" in lines[0]
        assert "Traceback" not in reopen.stderr

    def test_import_leaves_scipy_linalg_unloaded(self):
        """The CLI (and so ``serve``) never loads ``scipy.linalg`` or
        ``scipy.sparse.linalg``, which only the exact Kronecker oracle
        needs; the paper's baselines still import from the package."""
        code = (
            "import sys\n"
            "import repro.cli\n"
            "loaded = [m for m in ('scipy.linalg', 'scipy.sparse.linalg')"
            " if m in sys.modules]\n"
            "assert not loaded, loaded\n"
            "from repro import IncSVDSimRank, exact_simrank\n"
            "from repro.incremental.inc_svd import IncSVDSimRank as direct\n"
            "assert IncSVDSimRank is direct\n"
            "assert callable(exact_simrank)\n"
        )
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [
                os.path.join(os.path.dirname(__file__), "..", "src"),
                os.environ.get("PYTHONPATH", ""),
            ])),
        }
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
