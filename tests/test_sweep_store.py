"""Tests of the JSONL shard store and the resumable sweep orchestrator.

The headline contract (ISSUE 3 acceptance): a sweep interrupted mid-cell
and resumed on a *different* executor backend (serial -> socket) produces
a shard store byte-identical to one written by a single uninterrupted
serial sweep.
"""

import contextlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import create_app
from repro.core import (
    CampaignConfig,
    CampaignRunner,
    RunRecord,
    ShardStore,
    StoppingRule,
)
from repro.core.store import StoreMismatchError
from repro.experiments.sweep import SweepOrchestrator
from repro.experiments import (
    ExperimentConfig,
    figure3_mcf,
    grid_errors_axis,
    paper_grid,
    table2_catastrophic_failures,
)
from repro.sim import ProtectionMode

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@contextlib.contextmanager
def spawn_workers(count):
    """Run ``count`` TCP campaign workers; yields their addresses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    workers = []
    try:
        for _ in range(count):
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.exec.worker",
                 "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE, text=True, env=env,
            )
            banner = process.stdout.readline().strip()
            workers.append(
                (process, re.search(r"listening on (\S+:\d+)$", banner).group(1))
            )
        yield tuple(address for _, address in workers)
    finally:
        for process, _ in workers:
            process.terminate()
            process.wait(timeout=10)

#: Small, fast grid reused by most orchestrator tests: one app, both
#: modes, three error counts, four runs per cell.
CONFIG = ExperimentConfig(suite_name="small", runs_per_cell=4, base_seed=17)
GRID = {"apps": ["adpcm"], "errors_axis": [0, 2, 6], "include_table2": False}


def store_bytes(store: ShardStore):
    """Relative path -> file bytes for every file in the store.

    ``fleet.json`` is excluded: it is operational telemetry about *how*
    a distributed sweep ran (retries, reconnects, fallbacks), explicitly
    outside the byte-identity contract the records and meta carry.
    """
    return {
        str(path.relative_to(store.root)): path.read_bytes()
        for path in sorted(store.root.rglob("*"))
        if path.is_file() and path.name != "fleet.json"
    }


def run_sweep(root, campaign=None, chunk_size=2, progress=None, **overrides):
    grid = dict(GRID, **overrides)
    orchestrator = SweepOrchestrator(
        ShardStore(root), CONFIG, campaign=campaign, chunk_size=chunk_size,
        progress=progress, **grid,
    )
    return orchestrator, orchestrator.run()


@pytest.fixture(scope="module")
def reference_store(tmp_path_factory):
    """The uninterrupted serial sweep every other store is compared against."""
    root = tmp_path_factory.mktemp("reference-store")
    _, report = run_sweep(root)
    assert report.runs_executed == 6 * 4
    return ShardStore(root)


class TestRecordSerialization:
    def test_round_trip_is_exact(self, reference_store):
        for app, mode, errors, _path in reference_store.shards():
            for record in reference_store.load_records(app, mode, errors):
                encoded = json.dumps(record.to_json(), sort_keys=True)
                decoded = RunRecord.from_json(json.loads(encoded))
                assert decoded == record
                # A second encode must give the same bytes: floats survive
                # the repr round-trip exactly.
                assert json.dumps(decoded.to_json(), sort_keys=True) == encoded

    def test_fresh_records_with_numpy_fidelity_encode(self):
        """mcf's scorer returns numpy scalars; to_json must coerce them."""
        app = create_app("mcf", trips=6)
        runner = CampaignRunner(app, CampaignConfig(runs=1, base_seed=3))
        record = runner.run_campaign(2, ProtectionMode.PROTECTED).records[0]
        line = json.dumps(record.to_json())
        assert RunRecord.from_json(json.loads(line)) == record


class TestShardStore:
    def test_missing_indices(self, tmp_path, reference_store):
        store = ShardStore(tmp_path / "s")
        mode = ProtectionMode.PROTECTED
        assert store.missing_indices("adpcm", mode, 2, 4) == [0, 1, 2, 3]
        records = reference_store.load_records("adpcm", mode, 2)
        store.append_records("adpcm", mode, 2, records[:2])
        assert store.missing_indices("adpcm", mode, 2, 4) == [2, 3]
        store.append_records("adpcm", mode, 2, records[2:])
        assert store.missing_indices("adpcm", mode, 2, 4) == []
        assert store.load_records("adpcm", mode, 2) == records

    def test_repair_truncates_partial_trailing_line(self, tmp_path,
                                                    reference_store):
        store = ShardStore(tmp_path / "s")
        mode = ProtectionMode.PROTECTED
        records = reference_store.load_records("adpcm", mode, 2)
        store.append_records("adpcm", mode, 2, records[:3])
        path = store.shard_path("adpcm", mode, 2)
        # Simulate a kill mid-write: chop the last line in half.
        data = path.read_bytes()
        path.write_bytes(data[:-20])
        assert store.present_indices("adpcm", mode, 2) == {0, 1}
        store.append_records("adpcm", mode, 2, records[2:])
        full = ShardStore(tmp_path / "full")
        full.append_records("adpcm", mode, 2, records)
        assert path.read_bytes() == full.shard_path("adpcm", mode, 2).read_bytes()

    def test_meta_mismatch_refuses_resume(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        store.ensure_meta({"runs_per_cell": 4})
        store.ensure_meta({"runs_per_cell": 4})  # idempotent
        with pytest.raises(ValueError, match="refusing to resume"):
            store.ensure_meta({"runs_per_cell": 8})

    def test_load_campaign_missing_cell_names_the_sweep(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        with pytest.raises(KeyError, match="python -m repro sweep"):
            store.load_campaign("adpcm", ProtectionMode.PROTECTED, 2)

    def test_load_campaign_incomplete_cell_is_rejected(self, tmp_path,
                                                       reference_store):
        store = ShardStore(tmp_path / "s")
        mode = ProtectionMode.PROTECTED
        records = reference_store.load_records("adpcm", mode, 2)
        store.append_records("adpcm", mode, 2, records[:2])
        with pytest.raises(KeyError, match="incomplete"):
            store.load_campaign("adpcm", mode, 2, expect_runs=4)


class TestPaperGrid:
    def test_grid_covers_figure_and_table2_points(self):
        config = ExperimentConfig(suite_name="small", runs_per_cell=2)
        app = config.suite()["adpcm"]
        axis = grid_errors_axis(app)
        assert set(app.default_error_sweep) <= set(axis)
        assert {3, 56} <= set(axis)  # Table 2 operating points for adpcm
        cells = paper_grid(config)
        assert len(cells) == sum(
            2 * len(grid_errors_axis(config.suite()[name]))
            for name in config.suite()
        )

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError, match="unknown application"):
            paper_grid(CONFIG, apps=["dhrystone"])


class _InterruptAfter:
    """Progress hook that aborts the sweep after N chunk appends."""

    def __init__(self, chunks: int) -> None:
        self.remaining = chunks

    def __call__(self, message: str) -> None:
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt(f"injected interruption at {message!r}")


class TestResumableSweep:
    def test_completed_sweep_resumes_as_noop(self, tmp_path, reference_store):
        root = tmp_path / "noop"
        _, first = run_sweep(root)
        orchestrator, second = run_sweep(root)
        assert second.runs_executed == 0
        assert second.runs_reused == first.runs_executed
        assert second.cells_skipped == second.cells_total
        assert all(status.complete for status in orchestrator.status())
        assert store_bytes(ShardStore(root)) == store_bytes(reference_store)

    def test_interrupted_sweep_resumes_bit_identically(self, tmp_path,
                                                       reference_store):
        root = tmp_path / "interrupted"
        # Interrupt mid-cell: chunk_size=2 with 4 runs/cell means chunk 3
        # lands halfway through the second cell.
        with pytest.raises(KeyboardInterrupt):
            run_sweep(root, progress=_InterruptAfter(3))
        interrupted = ShardStore(root)
        assert store_bytes(interrupted) != store_bytes(reference_store)

        _, resumed = run_sweep(root)
        assert 0 < resumed.runs_executed < 6 * 4
        assert store_bytes(interrupted) == store_bytes(reference_store)

    def test_interrupted_serial_sweep_resumed_on_socket_backend(
            self, tmp_path, reference_store):
        """The ISSUE 3 acceptance scenario: kill a serial sweep mid-cell,
        resume it on TCP workers, and the store must come out byte-identical
        to the uninterrupted serial sweep."""
        root = tmp_path / "cross-backend"
        with pytest.raises(KeyboardInterrupt):
            run_sweep(root, progress=_InterruptAfter(5))

        with spawn_workers(2) as addresses:
            campaign = CampaignConfig(
                runs=CONFIG.runs_per_cell, base_seed=CONFIG.base_seed,
                workers=addresses,
            )
            _, resumed = run_sweep(root, campaign=campaign)

        assert 0 < resumed.runs_executed < 6 * 4
        assert store_bytes(ShardStore(root)) == store_bytes(reference_store)


#: Stopping rule for the adaptive tests: at ±25pp a clean (all-completed
#: or all-failed) cell converges at 4 runs, comfortably inside the cap.
ADAPTIVE_RULE = StoppingRule(ci_width=25.0, floor=2, cap=8)


def run_adaptive(root, campaign=None, chunk_size=2, progress=None,
                 rule=ADAPTIVE_RULE, **overrides):
    grid = dict(GRID, **overrides)
    orchestrator = SweepOrchestrator(
        ShardStore(root), CONFIG, campaign=campaign, chunk_size=chunk_size,
        stopping=rule, progress=progress, **grid,
    )
    return orchestrator, orchestrator.run()


@pytest.fixture(scope="module")
def adaptive_reference(tmp_path_factory):
    """The uninterrupted serial adaptive sweep the others are compared to."""
    root = tmp_path_factory.mktemp("adaptive-reference")
    run_adaptive(root)
    return ShardStore(root)


class TestAdaptiveSweep:
    """ISSUE 5 tentpole: CI-driven adaptive cell sampling."""

    def test_every_cell_converges_within_floor_and_cap(self, adaptive_reference):
        store = adaptive_reference
        counts = {}
        for app, mode, errors, _path in store.shards():
            count = len(store.load_records(app, mode, errors))
            counts[(mode.value, errors)] = count
            assert ADAPTIVE_RULE.floor <= count <= ADAPTIVE_RULE.cap
        assert len(counts) == 6
        # Zero-error cells are deterministic successes; adaptive sampling
        # visibly stops them before the cap.
        assert counts[("protected", 0)] < ADAPTIVE_RULE.cap

    def test_meta_pins_rule_not_an_exact_run_count(self, adaptive_reference):
        meta = adaptive_reference.read_meta()
        assert meta["schema"] == "sweep-store-v2-adaptive"
        assert "runs_per_cell" not in meta
        assert StoppingRule.from_meta(meta) == ADAPTIVE_RULE

    def test_completed_adaptive_sweep_resumes_as_noop(self, tmp_path,
                                                      adaptive_reference):
        root = tmp_path / "noop"
        run_adaptive(root)
        orchestrator, second = run_adaptive(root)
        assert second.runs_executed == 0
        assert second.cells_skipped == second.cells_total
        statuses = orchestrator.status()
        assert all(status.complete and status.converged
                   for status in statuses)
        assert all(status.ci_half_width is not None for status in statuses)
        assert store_bytes(ShardStore(root)) == store_bytes(adaptive_reference)

    def test_store_is_chunk_size_independent(self, tmp_path,
                                             adaptive_reference):
        """The canonical run count is the minimal converged prefix, so
        the persisted bytes cannot depend on the execution chunking."""
        for chunk_size in (1, 5):
            root = tmp_path / f"chunk{chunk_size}"
            run_adaptive(root, chunk_size=chunk_size)
            assert store_bytes(ShardStore(root)) == store_bytes(
                adaptive_reference)

    def test_interrupted_adaptive_sweep_resumed_on_socket_backend(
            self, tmp_path, adaptive_reference):
        """The ISSUE 5 acceptance scenario: kill an adaptive serial sweep
        mid-cell, resume it on TCP workers (and a different chunk size),
        and the store must come out byte-identical to the uninterrupted
        serial adaptive sweep."""
        root = tmp_path / "cross-backend"
        with pytest.raises(KeyboardInterrupt):
            run_adaptive(root, progress=_InterruptAfter(3))
        assert store_bytes(ShardStore(root)) != store_bytes(adaptive_reference)

        with spawn_workers(2) as addresses:
            campaign = CampaignConfig(
                runs=CONFIG.runs_per_cell, base_seed=CONFIG.base_seed,
                workers=addresses,
            )
            _, resumed = run_adaptive(root, campaign=campaign, chunk_size=3)
        assert resumed.runs_executed > 0
        assert store_bytes(ShardStore(root)) == store_bytes(adaptive_reference)

    def test_resuming_with_a_different_rule_is_refused(self, tmp_path):
        root = tmp_path / "pin"
        run_adaptive(root, errors_axis=[0])
        with pytest.raises(StoreMismatchError):
            run_adaptive(root, errors_axis=[0],
                         rule=StoppingRule(ci_width=5.0, floor=2, cap=8))

    def test_fixed_and_adaptive_stores_never_resume_each_other(self, tmp_path):
        fixed_root = tmp_path / "fixed"
        run_sweep(fixed_root, errors_axis=[0])
        with pytest.raises(StoreMismatchError):
            run_adaptive(fixed_root, errors_axis=[0])
        adaptive_root = tmp_path / "adaptive"
        run_adaptive(adaptive_root, errors_axis=[0])
        with pytest.raises(StoreMismatchError):
            run_sweep(adaptive_root, errors_axis=[0])

    def test_non_contiguous_prefix_is_rejected(self, tmp_path,
                                               reference_store):
        root = tmp_path / "holes"
        store = ShardStore(root)
        records = reference_store.load_records("adpcm",
                                               ProtectionMode.PROTECTED, 2)
        store.append_records("adpcm", ProtectionMode.PROTECTED, 2,
                             [records[0], records[2]])
        with pytest.raises(ValueError, match="non-contiguous"):
            run_adaptive(root, errors_axis=[2])

    def test_unconverged_adaptive_cell_refuses_artefacts(self, tmp_path):
        """A cell interrupted past the floor but before convergence must
        not silently feed tables/figures: the store's pinned rule is the
        completeness contract, not a bare record count."""
        root = tmp_path / "unconverged"
        # chunk_size=1 and an interrupt after 2 chunks leaves the first
        # cell with exactly floor (2) records — floor met, CI still wider
        # than the 25pp target.
        with pytest.raises(KeyboardInterrupt):
            run_adaptive(root, chunk_size=1, progress=_InterruptAfter(2))
        store = ShardStore(root)
        cell = store.load_records("adpcm", ProtectionMode.PROTECTED, 0)
        assert len(cell) == ADAPTIVE_RULE.floor
        with pytest.raises(KeyError, match="unconverged"):
            store.load_campaign("adpcm", ProtectionMode.PROTECTED, 0,
                                expect_runs=ADAPTIVE_RULE.floor)

    def test_artefacts_render_ci_from_adaptive_store(self, tmp_path):
        """Tables and figures regenerated from an adaptive store carry
        the ``±`` confidence annotations (ISSUE 5 acceptance)."""
        config = ExperimentConfig(suite_name="small",
                                  runs_per_cell=ADAPTIVE_RULE.floor,
                                  base_seed=CONFIG.base_seed)
        store = ShardStore(tmp_path / "mcf")
        SweepOrchestrator(store, config, apps=["mcf"], errors_axis=[1],
                          include_table2=False, stopping=ADAPTIVE_RULE).run()

        table = table2_catastrophic_failures(
            config, apps=["mcf"], error_counts={"mcf": (1,)}, store=store)
        assert "±95% (prot.)" in table.headers
        assert all(value is not None
                   for value in table.column("±95% (prot.)"))
        assert "±" in table.to_text()
        assert "adaptive runs per cell" in table.to_text()

        figure = figure3_mcf(config, errors_axis=[1], store=store)
        failed = figure.series_by_label("% failed executions")
        assert failed.error_values is not None
        assert all(value is not None for value in failed.error_values)
        assert "±" in figure.to_table()


class TestArtefactsFromStore:
    def test_figure_from_store_matches_live(self, tmp_path):
        config = ExperimentConfig(suite_name="small", runs_per_cell=2,
                                  base_seed=CONFIG.base_seed)
        store = ShardStore(tmp_path / "mcf")
        SweepOrchestrator(store, config, apps=["mcf"],
                          modes=(ProtectionMode.PROTECTED,),
                          errors_axis=[0, 2], include_table2=False).run()
        from_store = figure3_mcf(config, errors_axis=[0, 2], store=store)
        live = figure3_mcf(config, errors_axis=[0, 2])
        assert from_store.x_values == live.x_values
        for stored_series, live_series in zip(from_store.series, live.series):
            assert stored_series.label == live_series.label
            assert stored_series.values == live_series.values

    def test_table2_from_store_matches_live(self, tmp_path):
        config = ExperimentConfig(suite_name="small", runs_per_cell=2,
                                  base_seed=CONFIG.base_seed)
        store = ShardStore(tmp_path / "adpcm")
        SweepOrchestrator(store, config, apps=["adpcm"],
                          errors_axis=[3], include_table2=False).run()
        counts = {"adpcm": (3,)}
        from_store = table2_catastrophic_failures(
            config, apps=["adpcm"], error_counts=counts, store=store)
        live = table2_catastrophic_failures(
            config, apps=["adpcm"], error_counts=counts)
        assert from_store.rows == live.rows

    def test_missing_cell_raises_instead_of_resimulating(self, tmp_path):
        config = ExperimentConfig(suite_name="small", runs_per_cell=2)
        store = ShardStore(tmp_path / "empty")
        with pytest.raises(KeyError):
            figure3_mcf(config, errors_axis=[0, 2], store=store)
