"""Smoke and end-to-end tests of the ``python -m repro`` CLI.

The end-to-end case is the ISSUE 4 acceptance scenario: a ``sweep
--model data-bit`` mini-grid must produce byte-identical stores on the
serial and process-pool executors, and later commands must pick the
model up from the store's metadata without re-specifying it.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from repro.core import ShardStore

SMOKE_COMMANDS = ["sweep", "serve", "submit", "status", "analyze", "tables",
                  "figures", "worker"]


def store_bytes(root):
    """Relative path -> file bytes for every file under ``root``."""
    store = ShardStore(root)
    return {
        str(path.relative_to(store.root)): path.read_bytes()
        for path in sorted(store.root.rglob("*")) if path.is_file()
    }


class TestHelpSmoke:
    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in SMOKE_COMMANDS:
            assert command in out

    @pytest.mark.parametrize("command", SMOKE_COMMANDS)
    def test_subcommand_help(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert command in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["sweep", "status", "tables", "figures"])
    def test_grid_commands_document_the_model_flag(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert "--model" in out
        assert "control-bit" in out

    def test_unknown_command_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code != 0

    def test_build_parser_is_reusable(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "--store", "x",
                                  "--model", "multi-bit"])
        assert args.model == "multi-bit"


MINI_GRID = ["--suite", "small", "--runs", "3", "--base-seed", "11",
             "--apps", "adpcm", "--errors", "0", "2", "--no-table2-points"]


class TestSweepModelEndToEnd:
    def test_data_bit_sweep_serial_vs_pool_byte_identical(self, tmp_path,
                                                          capsys):
        serial_root = tmp_path / "serial"
        pool_root = tmp_path / "pool"
        assert main(["sweep", "--store", str(serial_root),
                     "--model", "data-bit", *MINI_GRID]) == 0
        assert main(["sweep", "--store", str(pool_root),
                     "--model", "data-bit", "--parallel", "2",
                     *MINI_GRID]) == 0
        capsys.readouterr()  # drop progress output
        assert store_bytes(serial_root) == store_bytes(pool_root)
        # Shards are filed under the model-qualified name and the meta
        # pins the model.
        store = ShardStore(serial_root, model="data-bit")
        assert store.read_meta()["model"] == "data-bit"
        names = [shard[3].name for shard in store.shards()]
        assert names and all(name.endswith("@data-bit.jsonl")
                             for name in names)

    def test_status_reads_model_from_meta(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert main(["sweep", "--store", str(root), "--model", "data-bit",
                     *MINI_GRID]) == 0
        capsys.readouterr()
        # No --model flag: status must resolve data-bit from meta.json and
        # find the swept cells' records (a wrong model would look at the
        # unqualified shard names and report everything missing).
        assert main(["status", "--store", str(root), *MINI_GRID]) == 0
        assert "cells complete" in capsys.readouterr().out

    def test_table4_cross_model_breakdown(self, tmp_path, capsys):
        assert main(["tables", "--store", str(tmp_path / "unused"),
                     "--tables", "4", "--runs", "2", "--apps", "adpcm",
                     "--models", "control-bit", "memory-bit",
                     "--model-errors", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "memory-bit" in out and "control-bit" in out

    def test_resuming_under_another_model_is_refused(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert main(["sweep", "--store", str(root), "--model", "data-bit",
                     *MINI_GRID]) == 0
        # An explicit different model must hit the meta pin, not silently
        # mix records.
        assert main(["sweep", "--store", str(root), "--model", "control-bit",
                     *MINI_GRID]) == 1
        captured = capsys.readouterr()
        assert "refusing to resume" in captured.err


ADAPTIVE_GRID = ["--suite", "small", "--base-seed", "11", "--apps", "adpcm",
                 "--errors", "0", "2", "--no-table2-points"]
ADAPTIVE_FLAGS = ["--adaptive", "--ci-width", "25", "--min-runs", "2",
                  "--max-runs", "8"]


class TestAdaptiveSweepEndToEnd:
    """ISSUE 5 tentpole surfaced through the CLI."""

    def test_adaptive_sweep_pins_rule_and_resumes_flagless(self, tmp_path,
                                                           capsys):
        root = tmp_path / "adaptive"
        assert main(["sweep", "--store", str(root),
                     *ADAPTIVE_FLAGS, *ADAPTIVE_GRID]) == 0
        meta = ShardStore(root).read_meta()
        assert meta["schema"] == "sweep-store-v2-adaptive"
        assert meta["ci_width"] == 25.0
        assert "runs_per_cell" not in meta
        capsys.readouterr()
        # Resume with no adaptive flags at all: the rule comes from meta
        # and the complete store is a no-op.
        assert main(["sweep", "--store", str(root), *ADAPTIVE_GRID]) == 0
        assert "0 runs executed" in capsys.readouterr().out

    def test_adaptive_serial_vs_pool_byte_identical(self, tmp_path, capsys):
        serial_root = tmp_path / "serial"
        pool_root = tmp_path / "pool"
        assert main(["sweep", "--store", str(serial_root),
                     *ADAPTIVE_FLAGS, *ADAPTIVE_GRID]) == 0
        assert main(["sweep", "--store", str(pool_root),
                     "--parallel", "2", "--chunk-size", "3",
                     *ADAPTIVE_FLAGS, *ADAPTIVE_GRID]) == 0
        capsys.readouterr()
        assert store_bytes(serial_root) == store_bytes(pool_root)

    def test_status_shows_ci_widths(self, tmp_path, capsys):
        root = tmp_path / "adaptive"
        assert main(["sweep", "--store", str(root),
                     *ADAPTIVE_FLAGS, *ADAPTIVE_GRID]) == 0
        capsys.readouterr()
        assert main(["status", "--store", str(root), *ADAPTIVE_GRID]) == 0
        out = capsys.readouterr().out
        assert "failure CI ±" in out
        assert "target CI ±25" in out

    def test_explicit_runs_conflicts_with_adaptive_mode(self, tmp_path,
                                                        capsys):
        root = tmp_path / "adaptive"
        assert main(["sweep", "--store", str(root),
                     *ADAPTIVE_FLAGS, *ADAPTIVE_GRID]) == 0
        capsys.readouterr()
        # --runs on an adaptive store (or with --adaptive) must be refused,
        # not silently ignored: the stopping rule sizes the cells.
        assert main(["sweep", "--store", str(root), "--runs", "100",
                     *ADAPTIVE_GRID]) == 2
        assert "--min-runs/--max-runs" in capsys.readouterr().err
        assert main(["sweep", "--store", str(tmp_path / "fresh"),
                     "--runs", "20", *ADAPTIVE_FLAGS, *ADAPTIVE_GRID]) == 2
        capsys.readouterr()
        # status has the same trap: done/total would be read against the
        # rule's cap, not the requested count.
        assert main(["status", "--store", str(root), "--runs", "100",
                     *ADAPTIVE_GRID]) == 2
        assert "--min-runs/--max-runs" in capsys.readouterr().err
        # tables/figures would feed --runs into the completeness check and
        # reject converged cells with an unfollowable "resume" hint.
        assert main(["figures", "--store", str(root), "--runs", "100",
                     "--figures", "figure1", *ADAPTIVE_GRID]) == 2
        assert main(["tables", "--store", str(root), "--runs", "100",
                     "--tables", "2", *ADAPTIVE_GRID]) == 2
        assert "adaptive store" in capsys.readouterr().err

    def test_sweep_help_documents_adaptive_mode(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        out = capsys.readouterr().out
        assert "--adaptive" in out and "--ci-width" in out


class TestJsonOutput:
    """ISSUE 8 satellite: every subcommand is scriptable via --json."""

    def test_sweep_json_summary_is_the_job_payload(self, tmp_path, capsys):
        assert main(["sweep", "--store", str(tmp_path / "store"), "--json",
                     *MINI_GRID]) == 0
        job = json.loads(capsys.readouterr().out)
        assert job["state"] == "complete"
        assert job["report"]["runs_executed"] == 12
        assert job["executors_started"] >= 1
        assert job["spec"]["apps"] == ["adpcm"]

    def test_status_json_lists_cells(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert main(["sweep", "--store", str(root), *MINI_GRID]) == 0
        capsys.readouterr()
        assert main(["status", "--store", str(root), "--json",
                     *MINI_GRID]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells_complete"] == payload["cells_total"] == 4
        assert payload["adaptive"] is None

    def test_tables_and_figures_json(self, tmp_path, capsys):
        root = tmp_path / "store"
        grid = ["--suite", "small", "--runs", "2", "--base-seed", "11",
                "--apps", "susan", "--errors", "0", "--no-table2-points"]
        assert main(["sweep", "--store", str(root), *grid]) == 0
        capsys.readouterr()
        assert main(["figures", "--store", str(root), "--json",
                     "--figures", "figure1", *grid]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["figures"][0]["name"] == "figure1"
        assert main(["tables", "--store", str(root), "--json",
                     "--tables", "1", *grid]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "Table 1" in payload["tables"][0]["text"]

    def test_caught_errors_become_json_objects(self, tmp_path, capsys):
        # MissingCellError (exit 1): a table the store cannot render yet.
        assert main(["tables", "--store", str(tmp_path / "empty"),
                     "--tables", "2", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "MissingCellError"
        assert "sweep" in payload["error"]

    def test_usage_errors_become_json_objects(self, tmp_path, capsys):
        # Usage error (exit 2): --runs against adaptive mode.
        assert main(["sweep", "--store", str(tmp_path / "store"), "--json",
                     "--adaptive", "--runs", "5", *ADAPTIVE_GRID]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "UsageError"
        assert "--min-runs/--max-runs" in payload["error"]

    def test_unreachable_daemon_is_a_json_error(self, capsys):
        assert main(["submit", "--url", "http://127.0.0.1:9", "--json",
                     *MINI_GRID]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "ConnectionError"
        assert "unreachable" in payload["error"]


class TestAnalyzeCommand:
    """ISSUE 10: the static susceptibility oracle's CLI surface."""

    def test_json_report_is_byte_identical_across_invocations(self, capsys):
        assert main(["analyze", "--app", "susan", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", "--app", "susan", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["app"] == "susan"
        assert payload["schema_version"] == 1
        assert payload["site_count"] == len(payload["sites"])

    def test_text_mode_renders_a_ranked_site_table(self, capsys):
        assert main(["analyze", "--app", "adpcm", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "adpcm" in out
        assert "Fate" in out

    def test_ablation_flags_change_the_report(self, capsys):
        assert main(["analyze", "--app", "susan", "--json"]) == 0
        default = capsys.readouterr().out
        assert main(["analyze", "--app", "susan", "--json",
                     "--protect-addresses", "--track-memory"]) == 0
        ablated = capsys.readouterr().out
        assert default != ablated

    def test_unknown_app_is_a_caught_error(self, capsys):
        assert main(["analyze", "--app", "frobnicate", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "ValueError"
        assert "unknown app" in payload["error"]

    def test_state_kind_model_is_refused_by_the_parser(self, capsys):
        # memory-bit corrupts state, not results; the flag choices
        # deliberately include it so the refusal is a clear ValueError
        # from the oracle rather than an argparse usage blob.
        assert main(["analyze", "--app", "susan",
                     "--model", "memory-bit", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "ValueError"
        assert "state" in payload["error"]


class TestFlagUnification:
    """One --secret / --listen spelling everywhere."""

    def test_sweep_secret_is_silent(self, tmp_path, capsys):
        assert main(["sweep", "--store", str(tmp_path / "store"),
                     "--secret", "hunter2", *MINI_GRID]) == 0
        assert "deprecated" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["worker", "--host", "127.0.0.1"],
        ["worker", "--port", "0"],
        ["serve", "--store", "unused", "--port", "0"],
        ["sweep", "--store", "unused", "--executor", "pool"],
        ["sweep", "--store", "unused", "--batch-size", "8"],
        ["sweep", "--store", "unused", "--worker-secret", "s"],
    ])
    def test_removed_spellings_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_worker_rejects_malformed_listen(self, capsys):
        # A malformed --listen aborts before binding.
        assert main(["worker", "--listen", "not-an-address"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_worker_json_usage_error(self, capsys):
        assert main(["worker", "--json", "--advertise", "no-port"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "UsageError"
        assert "invalid worker address" in payload["error"]

    def test_module_worker_rejects_malformed_listen(self, capsys):
        from repro.exec.worker import main as worker_main

        assert worker_main(["--listen", "not-an-address"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_rejects_malformed_listen(self, tmp_path, capsys):
        assert main(["serve", "--store", str(tmp_path / "cache"),
                     "--listen", "nope"]) == 2
        assert "error:" in capsys.readouterr().err


class TestServeSubmitEndToEnd:
    """The service quickstart: `serve` in a subprocess, `submit` against
    it through the real CLI."""

    def test_submit_runs_a_campaign_through_a_live_daemon(self, tmp_path,
                                                          capsys):
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--store", str(tmp_path / "cache"), "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            banner = daemon.stdout.readline().strip()
            url = re.search(r"repro-service listening on (http://\S+)$",
                            banner).group(1)
            assert main(["submit", "--url", url, "--json", *MINI_GRID]) == 0
            job = json.loads(capsys.readouterr().out)
            assert job["state"] == "complete"
            assert job["report"]["cells_complete"] == 4
            # Resubmitting through the CLI coalesces server-side: the
            # daemon answers from its cache, no new runs.
            assert main(["submit", "--url", url, "--json", *MINI_GRID]) == 0
            job = json.loads(capsys.readouterr().out)
            assert job["report"]["runs_executed"] == 12  # same job payload
            assert job["state"] == "complete"
        finally:
            daemon.terminate()
            daemon.wait(timeout=10)
