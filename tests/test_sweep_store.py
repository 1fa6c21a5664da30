"""Tests of the JSONL shard store and the resumable sweep orchestrator.

The headline contract (ISSUE 3 acceptance): a sweep interrupted mid-cell
and resumed on a *different* executor backend (serial -> socket) produces
a shard store byte-identical to one written by a single uninterrupted
serial sweep.
"""

import contextlib
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import create_app, suite_apps
from repro.apps.adpcm.app import AdpcmApp
from repro.core import (
    CampaignConfig,
    RunRecord,
    ShardStore,
    StoppingRule,
)
from repro.core import store as store_module
from repro.core.store import StoreMismatchError
from repro.experiments.sweep import SweepOrchestrator
from repro.experiments import (
    TABLE2_ERROR_COUNTS,
    figure3_mcf,
    grid_errors_axis,
    live_campaign,
    table2_catastrophic_failures,
    table4_fault_models,
)
from repro.service.spec import SPEC_MODES, CampaignSpec
from repro.sim import MODEL_NAMES, ProtectionMode, get_model

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
SPEC = CampaignSpec(suite="small", runs_per_cell=4, base_seed=17,
                    apps=("adpcm",), errors=(0, 2, 6), include_table2=False)


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
    orchestrator = SweepOrchestrator(
        ShardStore(root), dataclasses.replace(SPEC, **overrides),
        campaign=campaign, chunk_size=chunk_size, progress=progress,
    )
    return orchestrator, orchestrator.run()


#: In-process execution options: the serial reference every default
#: (pool, on a multi-CPU host) sweep is compared against.
SERIAL = SPEC.campaign_config(parallel=1)


@pytest.fixture(scope="module")
def reference_store(tmp_path_factory):
    """The uninterrupted serial sweep every other store is compared against."""
    root = tmp_path_factory.mktemp("reference-store")
    _, report = run_sweep(root, campaign=SERIAL)
    assert report.runs_executed == 6 * 4
    return ShardStore(root)


def bytes_read() -> int:
    """Bytes this process has read so far (``rchar``)."""
    io_stats = Path("/proc/self/io").read_text().split()
    return int(io_stats[io_stats.index("rchar:") + 1])


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

    def test_fresh_mcf_records_round_trip(self):
        """A freshly scored mcf record survives to_json/from_json exactly."""
        app = create_app("mcf", trips=6)
        record = live_campaign(app, CampaignConfig(runs=1, base_seed=3), 2,
                               ProtectionMode.PROTECTED).records[0]
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

    @pytest.mark.skipif(not Path("/proc/self/io").exists(),
                        reason="counts bytes read through /proc/self/io")
    def test_an_append_reads_the_tail_not_the_file(self, tmp_path,
                                                   reference_store):
        from repro.service import JobJournal

        mode = ProtectionMode.PROTECTED
        records = reference_store.load_records("adpcm", mode, 2)
        spec = CampaignSpec(suite="small", apps=("adpcm",))
        store = ShardStore(tmp_path / "s")
        shard = store.shard_path("adpcm", mode, 2)
        journal = JobJournal(tmp_path / "jobs.jsonl")
        appends = [
            (shard, lambda: store.append_records("adpcm", mode, 2,
                                                 records[:1])),
            (journal.path, lambda: journal.record(
                "submit", spec.cache_key, spec=spec.to_json())),
        ]
        filler = b'{"pad":"' + b"x" * 1000 + b'"}\n'
        for path, append in appends:
            append()  # loads whatever an append imports
            intact = filler * 4096  # about 4 MB
            torn = b'{"pad":"' + b"y" * 150_000  # longer than a read block
            for tail in (b"", torn):
                path.write_bytes(intact + tail)
                before = bytes_read()
                append()
                # The last byte; for a torn tail, the blocks back to its
                # last newline (64 KiB each).
                limit = (16 << 10) + (len(tail) + (64 << 10) if tail else 0)
                assert bytes_read() - before < limit
                data = path.read_bytes()
                assert data.startswith(intact)
                assert data.endswith(b"\n") and data.count(b"\n") == 4097
                json.loads(data[len(intact):])

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
        suite = suite_apps("small")
        app = suite["adpcm"]
        axis = grid_errors_axis(app)
        assert set(app.default_error_sweep) <= set(axis)
        assert {3, 56} <= set(axis)  # Table 2 operating points for adpcm
        # The axis is class data: planning needs no application instance.
        assert grid_errors_axis(AdpcmApp) == axis
        cells = CampaignSpec(runs_per_cell=2).cells()
        assert len(cells) == sum(
            2 * len(grid_errors_axis(app)) for app in suite.values()
        )

    def test_a_cell_named_twice_is_planned_once(self):
        spec = dataclasses.replace(SPEC, apps=("adpcm", "adpcm"),
                                   errors=(2, 2))
        assert len(spec.cells()) == len(set(spec.cells())) == 2

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError, match="unknown application"):
            CampaignSpec(apps=("dhrystone",))


class _InterruptAfter:
    """Progress hook that aborts the sweep after N chunk appends."""

    def __init__(self, chunks: int) -> None:
        self.remaining = chunks

    def __call__(self, message: str) -> None:
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt(f"injected interruption at {message!r}")


class TestResumableSweep:
    def test_campaign_config_must_match_the_spec(self, tmp_path):
        # meta.json pins the spec; records derive from the campaign.
        with pytest.raises(ValueError, match="record-determining"):
            SweepOrchestrator(ShardStore(tmp_path), SPEC,
                              CampaignConfig(runs=5, base_seed=17))

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
            campaign = SPEC.campaign_config(workers=addresses)
            _, resumed = run_sweep(root, campaign=campaign)

        assert 0 < resumed.runs_executed < 6 * 4
        assert store_bytes(ShardStore(root)) == store_bytes(reference_store)


#: Three applications, so the pool sweep crosses application boundaries.
THREE_APPS = {"apps": ("adpcm", "gsm", "mcf"), "errors": (0, 3)}


@pytest.fixture(scope="module")
def three_app_serial_store(tmp_path_factory):
    """A serial three-application sweep appended in chunks of three."""
    root = tmp_path_factory.mktemp("three-app-serial")
    _, report = run_sweep(root, campaign=SERIAL, chunk_size=3, **THREE_APPS)
    assert report.runs_executed == 3 * 4 * 4
    return ShardStore(root)


class TestSweepPool:
    """One process pool serves the whole sweep, fed every pending run."""

    POOL = SPEC.campaign_config(parallel=2)

    def test_one_pool_per_sweep(self, tmp_path, monkeypatch,
                                three_app_serial_store):
        from repro.exec import local

        widths = []
        pool_class = local.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            widths.append(kwargs["max_workers"])
            return pool_class(*args, **kwargs)

        monkeypatch.setattr(local, "ProcessPoolExecutor", counting_pool)
        root = tmp_path / "pool"
        _, report = run_sweep(root, campaign=self.POOL, chunk_size=3,
                              **THREE_APPS)
        assert widths == [2]
        assert report.runs_executed == 3 * 4 * 4
        assert store_bytes(ShardStore(root)) == store_bytes(
            three_app_serial_store)

    def test_interrupted_pool_sweep_resumes_bit_identically(
            self, tmp_path, three_app_serial_store):
        root = tmp_path / "interrupted"
        with pytest.raises(KeyboardInterrupt):
            run_sweep(root, campaign=self.POOL, chunk_size=3,
                      progress=_InterruptAfter(1), **THREE_APPS)
        interrupted = ShardStore(root)
        assert len(store_bytes(interrupted)) == 2  # meta.json + one shard
        _, resumed = run_sweep(root, campaign=self.POOL, chunk_size=3,
                               **THREE_APPS)
        assert resumed.runs_executed == 3 * 4 * 4 - 3
        assert store_bytes(interrupted) == store_bytes(three_app_serial_store)

    def test_one_pending_run_runs_serially(self, tmp_path, reference_store):
        """The pool width is min(parallel, pending runs); 1 is serial."""
        import shutil

        root = tmp_path / "one-missing"
        shutil.copytree(reference_store.root, root)
        shard = ShardStore(root).shard_path("adpcm",
                                            ProtectionMode.PROTECTED, 2)
        lines = shard.read_bytes().splitlines(keepends=True)
        shard.write_bytes(b"".join(lines[:-1]))
        backends = []
        orchestrator = SweepOrchestrator(
            ShardStore(root), SPEC, self.POOL,
            on_executor=lambda executor: backends.append(executor.name))
        assert orchestrator.run().runs_executed == 1
        assert backends == ["serial"]
        assert store_bytes(ShardStore(root)) == store_bytes(reference_store)


class TestReportStatuses:
    """A submit reads each cell's shard once: the report's statuses come
    from the planning pass plus what the run appended."""

    def test_cached_resubmit_reads_each_cell_once(self, tmp_path,
                                                  monkeypatch,
                                                  reference_store):
        import shutil

        root = tmp_path / "cached"
        shutil.copytree(reference_store.root, root)
        reads = []
        complete_lines = store_module._complete_lines

        def counting_read(path):
            reads.append(path)
            return complete_lines(path)

        # Every shard read (records or run indices alone) goes through
        # this one helper.
        monkeypatch.setattr(store_module, "_complete_lines", counting_read)
        _, report = run_sweep(root)
        assert report.runs_executed == 0
        assert len(reads) == len(set(reads)) == report.cells_total == 6

    def test_executors_started_is_one_with_work_and_zero_cached(self,
                                                                 tmp_path):
        root = tmp_path / "executors"
        _, fresh = run_sweep(root, campaign=SERIAL, errors=(0,))
        assert fresh.runs_executed > 0 and fresh.executors_started == 1
        _, cached = run_sweep(root, campaign=SERIAL, errors=(0,))
        assert cached.runs_executed == 0 and cached.executors_started == 0

    @pytest.mark.parametrize("kind", ["fixed", "adaptive", "partial"])
    def test_statuses_match_a_fresh_status_read(self, tmp_path, kind):
        root = tmp_path / kind
        if kind == "adaptive":
            orchestrator, report = run_adaptive(root)
        else:
            if kind == "partial":
                # Sweep part of the grid first, then all of it.
                run_sweep(root, campaign=SERIAL, errors=(2,))
            orchestrator, report = run_sweep(root)
        assert report.statuses == orchestrator.status()
        assert all(status.complete for status in report.statuses)
        if kind == "partial":
            assert report.runs_reused == 2 * 4


#: Stopping rule for the adaptive tests: at ±25pp a clean (all-completed
#: or all-failed) cell converges at 4 runs, comfortably inside the cap.
ADAPTIVE_RULE = StoppingRule(ci_width=25.0, floor=2, cap=8)


def run_adaptive(root, campaign=None, chunk_size=2, progress=None,
                 rule=ADAPTIVE_RULE, **overrides):
    return run_sweep(root, campaign=campaign, chunk_size=chunk_size,
                     progress=progress, stopping=rule, **overrides)


@pytest.fixture(scope="module")
def adaptive_reference(tmp_path_factory):
    """The uninterrupted serial adaptive sweep the others are compared to."""
    root = tmp_path_factory.mktemp("adaptive-reference")
    run_adaptive(root, campaign=dataclasses.replace(
        SPEC, stopping=ADAPTIVE_RULE).campaign_config(parallel=1))
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
            campaign = dataclasses.replace(
                SPEC, stopping=ADAPTIVE_RULE).campaign_config(workers=addresses)
            _, resumed = run_adaptive(root, campaign=campaign, chunk_size=3)
        assert resumed.runs_executed > 0
        assert store_bytes(ShardStore(root)) == store_bytes(adaptive_reference)

    def test_resuming_with_a_different_rule_is_refused(self, tmp_path):
        root = tmp_path / "pin"
        run_adaptive(root, errors=(0,))
        with pytest.raises(StoreMismatchError):
            run_adaptive(root, errors=(0,),
                         rule=StoppingRule(ci_width=5.0, floor=2, cap=8))

    def test_fixed_and_adaptive_stores_never_resume_each_other(self, tmp_path):
        fixed_root = tmp_path / "fixed"
        run_sweep(fixed_root, errors=(0,))
        with pytest.raises(StoreMismatchError):
            run_adaptive(fixed_root, errors=(0,))
        adaptive_root = tmp_path / "adaptive"
        run_adaptive(adaptive_root, errors=(0,))
        with pytest.raises(StoreMismatchError):
            run_sweep(adaptive_root, errors=(0,))

    def test_non_contiguous_prefix_is_rejected(self, tmp_path,
                                               reference_store):
        root = tmp_path / "holes"
        store = ShardStore(root)
        records = reference_store.load_records("adpcm",
                                               ProtectionMode.PROTECTED, 2)
        store.append_records("adpcm", ProtectionMode.PROTECTED, 2,
                             [records[0], records[2]])
        with pytest.raises(ValueError, match="non-contiguous"):
            run_adaptive(root, errors=(2,))

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
        # The adaptive spec itself: artefacts expect the rule's floor.
        config = dataclasses.replace(SPEC, apps=("mcf",), errors=(1,),
                                     stopping=ADAPTIVE_RULE)
        store = ShardStore(tmp_path / "mcf")
        SweepOrchestrator(store, config).run()

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


def counting_runs(calls):
    """``on_executor`` hook that counts the executor's ``run`` calls."""
    def wrap(executor):
        run = executor.run

        def counted(tasks):
            calls.append(len(tasks))
            return run(tasks)

        executor.run = counted
    return wrap


class TestRoundLoop:
    """Every run a sweep requests goes through one round loop: one
    ``executor.run`` call per round, carrying every pending cell."""

    def test_fixed_sweep_is_one_call(self, tmp_path):
        calls = []
        SweepOrchestrator(ShardStore(tmp_path), SPEC, SERIAL, chunk_size=2,
                          on_executor=counting_runs(calls)).run()
        assert calls == [6 * 4]

    def test_adaptive_cells_share_rounds(self, tmp_path):
        spec = dataclasses.replace(SPEC, apps=("adpcm", "gsm"), errors=(0, 40),
                                   stopping=ADAPTIVE_RULE)
        chunk_size = 2
        assert ADAPTIVE_RULE.floor <= chunk_size
        calls = []
        store = ShardStore(tmp_path)
        report = SweepOrchestrator(
            store, spec, spec.campaign_config(parallel=1),
            chunk_size=chunk_size, on_executor=counting_runs(calls)).run()
        counts = [len(store.load_records(app, mode, errors))
                  for app, mode, errors, _ in store.shards()]
        assert len(counts) == 8 and len(set(counts)) > 1
        # A cell converging at n runs takes ceil(n / chunk_size) chunks,
        # one per round; the sweep runs until its slowest cell is done.
        chunks = [-(-count // chunk_size) for count in counts]
        assert len(calls) == max(chunks) < sum(chunks)
        assert sum(calls) == report.runs_executed + report.runs_discarded


@pytest.fixture
def executors_built(monkeypatch):
    """The executors sweeps build, counted where ``sweep.py`` looks
    ``create_executor`` up."""
    from repro.experiments import sweep

    built = []
    create = sweep.create_executor

    def counted(*args, **kwargs):
        built.append(create(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(sweep, "create_executor", counted)
    return built


class TestArtefactsFromStore:
    """Artefacts always read a store: without one, a builder sweeps the
    cells it needs into a temporary store, one executor per spec."""

    def test_figure_from_store_matches_storeless(self, tmp_path,
                                                 executors_built):
        config = dataclasses.replace(SPEC, runs_per_cell=2, apps=("mcf",),
                                     modes=("protected",), errors=(0, 2))
        store = ShardStore(tmp_path / "mcf")
        SweepOrchestrator(store, config).run()
        from_store = figure3_mcf(config, errors_axis=[0, 2], store=store)
        del executors_built[:]
        storeless = figure3_mcf(config, errors_axis=[0, 2])
        assert storeless.to_table() == from_store.to_table()
        assert len(executors_built) == 1

    @pytest.mark.parametrize("apps, error_counts", [
        (("adpcm",), {"adpcm": (3,)}),
        (("mcf", "adpcm"), None),  # the paper's Table 2 points
    ])
    def test_table2_from_store_matches_storeless(self, tmp_path, apps,
                                                 error_counts,
                                                 executors_built):
        config = dataclasses.replace(SPEC, runs_per_cell=2)
        points = error_counts or TABLE2_ERROR_COUNTS
        store = ShardStore(tmp_path / "table2")
        for name in apps:
            SweepOrchestrator(store, dataclasses.replace(
                config, apps=(name,), errors=points[name])).run()
        from_store = table2_catastrophic_failures(
            config, apps=apps, error_counts=error_counts, store=store)
        del executors_built[:]
        storeless = table2_catastrophic_failures(
            config, apps=apps, error_counts=error_counts)
        # Only the note naming the source differs.
        assert storeless.to_text() == from_store.to_text().replace(
            "source=shard store", "source=live simulation")
        assert len(executors_built) == len(apps)

    def test_table4_rows_match_per_model_stores(self, tmp_path,
                                                executors_built):
        config = dataclasses.replace(SPEC, runs_per_cell=2)
        table = table4_fault_models(config, apps=["adpcm"], errors=4)
        assert len(executors_built) == len(MODEL_NAMES)
        expected = []
        for model in MODEL_NAMES:
            modes = (SPEC_MODES if get_model(model).mode_sensitive
                     else SPEC_MODES[:1])
            store = ShardStore(tmp_path / model, model=model)
            SweepOrchestrator(store, dataclasses.replace(
                config, model=model, apps=("adpcm",), modes=modes,
                errors=(4,))).run()
            for mode in modes:
                cell = store.load_campaign("adpcm", ProtectionMode(mode), 4)
                expected.append([
                    "adpcm", model,
                    mode if len(modes) > 1 else "(mode-independent)",
                    cell.completed_percent, cell.crash_percent,
                    cell.hang_percent, cell.acceptable_percent])
        assert table.rows == expected

    def test_missing_cell_raises_instead_of_resimulating(self, tmp_path):
        config = CampaignSpec(runs_per_cell=2)
        store = ShardStore(tmp_path / "empty")
        with pytest.raises(KeyError):
            figure3_mcf(config, errors_axis=[0, 2], store=store)
