"""Batch-engine performance benchmark: lockstep cell vs the fork engine.

Times one injected campaign cell under ``engine="fork"`` (PR 2's
checkpoint-and-splice path, one run at a time) and ``engine="batch"`` (the
numpy lockstep engine of :mod:`repro.sim.batch`, which walks the golden
trace once and carries every run of the cell as a divergence column), and
writes the numbers to ``BENCH_batch.json`` at the repository root.

The two campaigns must produce **bit-identical** records (also asserted at
matrix scale in ``tests/test_fork_engine.py``); here the check guards the
timed configuration itself.  Smoke mode (``REPRO_BENCH_SMOKE=1``, used by
CI) shrinks the cell and relaxes the speedup floor; the full run uses the
24x24-pixel Susan cell of 240 runs — the same cell ``BENCH_campaign.json``
reports — and requires >=0.6x the fork engine.  That is no lead: on this
cell the fork engine runs basic blocks and fast-forwards the one-error
runs whose only divergence is memory the golden run overwrites unread,
so it keeps level with the lockstep walk.  The floor catches the walk
falling behind it.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.apps import create_app
from repro.core import CampaignConfig, CampaignRunner
from repro.exec.base import BATCH_SIZE
from repro.sim import ProtectionMode

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_batch.json"

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

#: Benchmark cell: identical to ``benchmarks/test_perf_campaign.py`` so the
#: fork timing is directly comparable across the two reports.
APP_NAME = "susan"
APP_KWARGS = {"width": 16, "height": 16} if SMOKE else {"width": 24, "height": 24}
RUNS = 60 if SMOKE else 240
ERRORS = 1
MODE = ProtectionMode.PROTECTED
MIN_SPEEDUP = 0.3 if SMOKE else 0.6


def _time_cell(engine: str):
    """Run the benchmark cell on a pre-warmed application under ``engine``.

    Compilation, tagging, the golden run, and the checkpoint-store capture
    happen *outside* the timed region: a sweep pays that setup once per
    application and then executes many cells against it, so per-cell
    throughput — the number this gate defends — is the cell alone.  (The
    cold-start comparison lives in ``benchmarks/test_perf_campaign.py``.)
    """
    app = create_app(APP_NAME, **APP_KWARGS)
    runner = CampaignRunner(
        app, CampaignConfig(runs=RUNS, base_seed=314, engine=engine)
    )
    runner.warm_goldens()
    start = time.perf_counter()
    cell = runner.run_campaign(ERRORS, MODE)
    elapsed = time.perf_counter() - start
    return cell, elapsed, app


def test_perf_batch_writes_benchmark_json(show):
    fork_cell, fork_s, _ = _time_cell("fork")
    batch_cell, batch_s, batch_app = _time_cell("batch")

    identical = batch_cell.records == fork_cell.records
    speedup = fork_s / batch_s
    store = batch_app.golden(0).checkpoint_store
    retired = store.batch_retired_runs if store is not None else 0

    report = {
        "schema": "batch-bench-v1",
        "smoke": SMOKE,
        "cell": {
            "app": APP_NAME,
            "app_kwargs": APP_KWARGS,
            "runs": RUNS,
            "errors": ERRORS,
            "mode": MODE.value,
            "golden_instructions": batch_app.golden(0).executed,
        },
        "fork_s": round(fork_s, 6),
        "batch_s": round(batch_s, 6),
        "speedup": round(speedup, 2),
        "identical_records": identical,
        "batch": {
            # Lanes the lockstep engine could not carry and handed to the
            # fork engine's scalar path (0 on this cell: every divergence
            # stays data-only, the paper's point about protecting control).
            "retired_runs": retired,
            "batch_size": BATCH_SIZE,
        },
        "outcomes": {
            "failures_pct": batch_cell.failure_percent,
            "acceptable_pct": batch_cell.acceptable_percent,
        },
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")

    show(
        f"batch cell: {APP_NAME}{APP_KWARGS} x {RUNS} runs, "
        f"{ERRORS} error(s), {MODE.value}\n"
        f"  fork  (checkpointed): {fork_s:8.3f}s\n"
        f"  batch (lockstep):     {batch_s:8.3f}s   -> {speedup:.2f}x\n"
        f"  retired {retired}/{RUNS} lanes to the scalar path, "
        f"identical={identical}"
    )

    assert identical, "batch campaign diverged from the fork runner"
    assert speedup >= MIN_SPEEDUP, (
        f"batch-engine campaign speedup regressed to {speedup:.2f}x "
        f"(floor {MIN_SPEEDUP}x, smoke={SMOKE})"
    )
