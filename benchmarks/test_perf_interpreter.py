"""Interpreter performance benchmark: decoded engine vs the seed interpreter.

Times the golden run of all seven applications under both execution engines
(the pre-decoded threaded-code engine and the preserved seed ``if/elif``
interpreter) plus a small fault-injection campaign, and writes the numbers
to ``BENCH_interp.json`` at the repository root so the interpreter's
performance trajectory is tracked PR-over-PR.

Runs in smoke mode (one timing repetition) when ``REPRO_BENCH_SMOKE=1`` is
set, which is what CI uses; locally the default three repetitions give more
stable numbers.  The parallel campaign is also cross-checked against the
serial runner — the records must be bit-identical.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.apps import small_suite
from repro.core import CampaignConfig
from repro.experiments import live_campaign
from repro.sim import Machine, ProtectionMode

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_interp.json"

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
REPEATS = 1 if SMOKE else 3


def _time_golden(app, engine: str) -> float:
    """Best-of-N wall time of one golden run under ``engine``."""
    program = app.program()
    workload = app.generate_workload(0)
    best = float("inf")
    for _ in range(REPEATS):
        machine = Machine(program)
        app.apply_workload(machine, workload)
        start = time.perf_counter()
        result = machine.run(engine=engine)
        elapsed = time.perf_counter() - start
        assert result.outcome == "completed", (app.name, engine, result.fault)
        best = min(best, elapsed)
    return best


def test_perf_interpreter_writes_benchmark_json(show):
    suite = small_suite()
    apps = {}
    total_decoded = 0.0
    total_reference = 0.0
    total_instructions = 0
    for name, app in suite.items():
        decoded_s = _time_golden(app, "decoded")
        reference_s = _time_golden(app, "reference")
        executed = app.golden(0).executed
        apps[name] = {
            "instructions": executed,
            "decoded_s": round(decoded_s, 6),
            "reference_s": round(reference_s, 6),
            "decoded_mips": round(executed / decoded_s / 1e6, 3),
            "reference_mips": round(executed / reference_s / 1e6, 3),
            "speedup": round(reference_s / decoded_s, 2),
        }
        total_decoded += decoded_s
        total_reference += reference_s
        total_instructions += executed

    overall_speedup = total_reference / total_decoded

    # Small campaign: serial vs parallel timing + bit-identity check.  Both
    # use the full-run decoded engine (the fork engine has its own benchmark
    # in test_perf_campaign.py); the pool-startup overhead this cell
    # measures stays visible.
    adpcm = suite["adpcm"]
    runs, errors, workers = (4, 4, 2) if SMOKE else (12, 4, 4)
    start = time.perf_counter()
    serial = live_campaign(
        adpcm, CampaignConfig(runs=runs, base_seed=17, engine="decoded"),
        errors, ProtectionMode.PROTECTED)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = live_campaign(
        adpcm, CampaignConfig(runs=runs, base_seed=17, parallel=workers,
                              engine="decoded"),
        errors, ProtectionMode.PROTECTED)
    parallel_s = time.perf_counter() - start
    identical = parallel.records == serial.records

    report = {
        "schema": "interp-bench-v1",
        "suite": "small",
        "smoke": SMOKE,
        "repeats": REPEATS,
        "apps": apps,
        "total": {
            "instructions": total_instructions,
            "decoded_s": round(total_decoded, 6),
            "reference_s": round(total_reference, 6),
            "decoded_mips": round(total_instructions / total_decoded / 1e6, 3),
            "reference_mips": round(total_instructions / total_reference / 1e6, 3),
            "speedup": round(overall_speedup, 2),
        },
        "campaign": {
            "app": "adpcm",
            "runs": runs,
            "errors": errors,
            "mode": "protected",
            "serial_s": round(serial_s, 6),
            "parallel_s": round(parallel_s, 6),
            "parallel_workers": workers,
            "identical_to_serial": identical,
        },
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")

    lines = [f"{'app':10s} {'dyn instr':>10s} {'decoded':>9s} {'seed':>9s} {'speedup':>8s}"]
    for name, row in apps.items():
        lines.append(
            f"{name:10s} {row['instructions']:>10,} {row['decoded_s']:>8.3f}s "
            f"{row['reference_s']:>8.3f}s {row['speedup']:>7.2f}x"
        )
    lines.append(f"{'TOTAL':10s} {total_instructions:>10,} {total_decoded:>8.3f}s "
                 f"{total_reference:>8.3f}s {overall_speedup:>7.2f}x")
    lines.append(f"campaign ({runs} runs): serial {serial_s:.3f}s, "
                 f"parallel({workers}) {parallel_s:.3f}s, identical={identical}")
    show("\n".join(lines))

    assert identical, "parallel campaign diverged from the serial runner"
    # The decoded engine must be decisively faster than the seed interpreter
    # (the tracked JSON carries the precise number; >=3x expected, the
    # assertion leaves headroom for noisy CI machines).
    assert overall_speedup >= 2.0, f"speedup regressed to {overall_speedup:.2f}x"
