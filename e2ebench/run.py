"""End-to-end campaign benchmark: run one workload, check it, report.

Run from the repository root::

    python3 e2ebench/run.py --workload paper-sweep --seed 1 --seconds 20 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``paper-sweep`` — the default small paper grid through
  ``repro.api.submit`` on the default engine and serial executor;
* ``unprotected-batch`` — the grid's unprotected half through
  ``repro.api.submit`` with ``engine="batch"``;
* ``daemon-mixed`` — ``python -m repro serve --lanes 2`` driven by two
  closed-loop ``ServiceClient`` threads: fresh jobs, each followed by
  cached coverage-subset jobs that execute no runs.

Every repetition runs in a fresh interpreter (``rep.py``) against a fresh
store root.  ``--trace 0`` repeats the workload until ``--seconds`` have
passed (at least twice) and reports the end-to-end metrics as medians
over the repetitions; ``setup_s`` also counts one more set-up, timed on
its own in a fresh interpreter.  ``--trace 1`` runs it once untraced and
once with the layer tracer of ``tracer.py`` installed, and reports the
per-layer metrics plus the tracing overhead.  Either way the stores of all
repetitions must be byte-identical and imply identical counts, and a
fixed sample of records must re-derive identically on the decoded
engine; any miss makes ``correct`` false and the exit status 1.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it reports
the per-repetition timings and the deterministic counts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-sweep", "unprotected-batch", "daemon-mixed")

#: Every run must finish within this many seconds.
RUN_BUDGET_S = 170.0
#: Records re-derived on the decoded engine per run.
VERIFY_SAMPLE = 6
#: Set-ups timed on their own per untraced run, beside each repetition's.
SETUP_ONLY_REPS = 1


class RepFailed(RuntimeError):
    """A repetition crashed, timed out or printed no result."""


def run_rep(args, workdir: Path, name: str, deadline: float,
            *options: str) -> dict:
    """One repetition in a fresh interpreter, in its own process group
    so a timeout can stop the daemon it may have started too."""
    root = workdir / name
    command = [sys.executable, str(HERE / "rep.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--root", str(root), "--spawned", repr(time.time()), *options]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RepFailed(f"{name} timed out") from None
    finally:
        shutil.rmtree(root, ignore_errors=True)
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RepFailed(f"{name} exited {child.returncode}")
    return json.loads(lines[-1])


def same_outputs(rep: dict, first: dict) -> bool:
    """Byte-identical stores and identical deterministic counts."""
    engines = (rep["engine_counts"], first["engine_counts"])
    return (rep["digest"] == first["digest"] and rep["counts"] == first["counts"]
            and (None in engines or engines[0] == engines[1]))


def end_to_end(reps, setups, peak_rss_mb: float) -> dict:
    """The end-to-end metrics: medians over repetitions of each
    repetition's figures, each phase's times rescaled to the nominal speed
    by the slowdown its reference passes measured.  ``setup_s`` also
    counts the ``setups``.

    Latency percentiles are taken within a repetition, not over the pooled
    samples: a pooled tail would be decided by whichever repetition ran on
    the slower host."""
    walls = [rep["wall_s"] / rep["slowdown"] for rep in reps]
    return {
        "setup_s": statistics.median(rep["setup_s"] / rep["setup_slowdown"]
                                     for rep in reps + setups),
        "wall_s": statistics.median(walls),
        "runs_per_s": statistics.median(rep["runs_executed"] / wall
                                        for rep, wall in zip(reps, walls)),
        "logical_mips": statistics.median(
            rep["counts"]["logical_instr"] / 1e6 / wall
            for rep, wall in zip(reps, walls)),
        "peak_rss_mb": peak_rss_mb,
        "fresh_job_p50_s": statistics.median(
            rep["fresh_p50_s"] / rep["slowdown"] for rep in reps),
        "cached_job_p50_s": statistics.median(
            rep["cached_p50_s"] / rep["cached_slowdown"] for rep in reps),
        "cached_job_p90_s": statistics.median(
            rep["cached_p90_s"] / rep["cached_slowdown"] for rep in reps),
    }


def main() -> int:
    """Run one workload and print its report and result lines."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    checkout = Path.cwd()
    if not (checkout / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {checkout / 'src'}; run from "
              f"the repository root", file=sys.stderr)
        return 2
    started = time.time()
    deadline = started + RUN_BUDGET_S
    workdir = checkout / ".e2ebench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # The newest traced run's spans outlive the run, for inspection.
    spans = workdir.parent / f"{args.workload}-spans.jsonl"
    reps, setups, failures = [], [], []
    try:
        for index in range(0 if args.trace else SETUP_ONLY_REPS):
            setups.append(run_rep(args, workdir, f"setup{index}", deadline,
                                  "--setup-only"))
        last = 0.0
        for index in itertools.count():
            # Traced runs make exactly two repetitions: untraced, traced.
            if index >= 2 and (args.trace
                               or time.time() - started >= args.seconds
                               or time.time() + 1.5 * last > deadline):
                break
            options = []
            if index == 0:
                options += ["--verify", str(VERIFY_SAMPLE)]
            if args.trace and index == 1:
                options += ["--trace", str(spans)]
            began = time.time()
            reps.append(run_rep(args, workdir, f"rep{index}",
                                deadline, *options))
            last = time.time() - began
    except RepFailed as exc:
        failures.append(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = (sum(rep["attempted"] for rep in reps) + len(setups)
                 + len(failures))
    for rep in reps:
        failures.extend(rep["failures"])
    for index, rep in enumerate(reps[1:], start=1):
        attempted += 1
        if not same_outputs(rep, reps[0]):
            failures.append(f"repetition {index} stores or counts differ "
                            f"from repetition 0")
    if len(reps) < 2:
        attempted += 1
        failures.append(f"only {len(reps)} repetition(s) finished")

    metrics = {}
    if len(reps) >= 2 and not failures:
        if args.trace:
            values = dict(reps[1]["layers"])
            # At nominal speed, as end_to_end() rescales: host speed drifts
            # more between two repetitions than the tracing costs.
            values["trace.overhead_s"] = (
                reps[1]["wall_s"] / reps[1]["slowdown"]
                - reps[0]["wall_s"] / reps[0]["slowdown"])
        else:
            children = resource.getrusage(resource.RUSAGE_CHILDREN)
            own = resource.getrusage(resource.RUSAGE_SELF)
            peak = max(children.ru_maxrss, own.ru_maxrss) / 1024.0
            values = end_to_end(reps, setups, peak)
        declared = json.loads((checkout / "BENCHMARK.json").read_text())
        metrics = {metric["name"]: {"value": values[metric["name"]],
                                    "unit": metric["unit"]}
                   for metric in declared["per_layer" if args.trace
                                          else "end_to_end"]}

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setups": setups,
        "reps": [{key: rep[key] for key in ("setup_s", "setup_slowdown",
                                            "wall_s", "slowdown",
                                            "fresh_p50_s", "cached_p50_s",
                                            "cached_p90_s", "cached_slowdown",
                                            "runs_executed", "verified")}
                 for rep in reps],
        "counts": reps[0]["counts"] if reps else None,
        "engine_counts": next((rep["engine_counts"] for rep in reps
                               if rep["engine_counts"]), None),
        "failures": failures,
    }))
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
