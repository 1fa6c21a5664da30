"""Campaign performance benchmark: fork engine vs the full-run decoded path.

Times one injected campaign cell — the unit of work behind every data point
in the paper's figures — under the decoded and fork engines and writes the
numbers side by side to ``BENCH_campaign.json`` at the repository root.
The fork engine restores the nearest golden checkpoint, replays only the
divergence, and splices the golden suffix back in on re-convergence, so
the cell cost scales with how much the injected faults actually change
instead of with program length.

The two campaigns must produce **bit-identical** records (also asserted at
matrix scale in ``tests/test_fork_engine.py``); here the check guards the
timed configuration itself.  Smoke mode (``REPRO_BENCH_SMOKE=1``, used by
CI) shrinks the cell and relaxes the speedup floor; the full run uses a
24x24-pixel Susan cell of 240 runs and requires the >=5x the fork engine
is built to deliver.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.apps import create_app
from repro.core import CampaignConfig
from repro.experiments import live_campaign
from repro.sim import ProtectionMode

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_campaign.json"

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

#: Benchmark cell: Susan edge detection, one soft error per run, control
#: data protected — the paper's central operating point, and a workload
#: where roughly half the faults are architecturally masked (so both the
#: checkpoint restore and the golden-suffix splice carry real weight).
APP_NAME = "susan"
APP_KWARGS = {"width": 16, "height": 16} if SMOKE else {"width": 24, "height": 24}
RUNS = 60 if SMOKE else 240
ERRORS = 1
MODE = ProtectionMode.PROTECTED
MIN_SPEEDUP = 1.5 if SMOKE else 5.0


def _time_cell(engine: str):
    """Run the benchmark cell on a cold application under ``engine``.

    The application is created fresh so each engine pays its own full
    setup: compilation, tagging, golden run, and (for the fork engine) the
    checkpoint-store capture are all inside the timed region.
    """
    app = create_app(APP_NAME, **APP_KWARGS)
    config = CampaignConfig(runs=RUNS, base_seed=314, engine=engine)
    start = time.perf_counter()
    cell = live_campaign(app, config, ERRORS, MODE)
    elapsed = time.perf_counter() - start
    return cell, elapsed, app


def test_perf_campaign_writes_benchmark_json(show):
    decoded_cell, decoded_s, _ = _time_cell("decoded")
    fork_cell, fork_s, fork_app = _time_cell("fork")

    identical = fork_cell.records == decoded_cell.records
    speedup = decoded_s / fork_s
    store = fork_app.golden(0).checkpoint_store
    golden_executed = fork_app.golden(0).executed
    replay_fraction = (
        store.replayed_instructions / (store.forked_runs * golden_executed)
        if store is not None and store.forked_runs else None
    )

    report = {
        "schema": "campaign-bench-v1",
        "smoke": SMOKE,
        "cell": {
            "app": APP_NAME,
            "app_kwargs": APP_KWARGS,
            "runs": RUNS,
            "errors": ERRORS,
            "mode": MODE.value,
            "golden_instructions": golden_executed,
        },
        "decoded_s": round(decoded_s, 6),
        "fork_s": round(fork_s, 6),
        "speedup": round(speedup, 2),
        "identical_records": identical,
        "fork": {
            "checkpoints": len(store.checkpoints) if store else 0,
            "interval": store.interval if store else 0,
            "forked_runs": store.forked_runs if store else 0,
            "spliced_runs": store.spliced_runs if store else 0,
            "replayed_instructions": store.replayed_instructions if store else 0,
            "replay_fraction": round(replay_fraction, 4) if replay_fraction is not None else None,
        },
        "outcomes": {
            "failures_pct": fork_cell.failure_percent,
            "acceptable_pct": fork_cell.acceptable_percent,
        },
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")

    show(
        f"campaign cell: {APP_NAME}{APP_KWARGS} x {RUNS} runs, "
        f"{ERRORS} error(s), {MODE.value}\n"
        f"  decoded (full runs): {decoded_s:8.3f}s\n"
        f"  fork (checkpointed): {fork_s:8.3f}s   -> {speedup:.2f}x\n"
        f"  spliced {store.spliced_runs}/{store.forked_runs} runs, "
        f"replayed {100 * (replay_fraction or 0):.1f}% of golden length per run, "
        f"identical={identical}"
    )

    assert identical, "fork campaign diverged from the decoded runner"
    assert speedup >= MIN_SPEEDUP, (
        f"fork-engine campaign speedup regressed to {speedup:.2f}x "
        f"(floor {MIN_SPEEDUP}x, smoke={SMOKE})"
    )
