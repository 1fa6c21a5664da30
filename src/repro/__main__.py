"""Command-line front end: ``python -m repro <command>``.

Commands:

* ``sweep``   — run (or resume) the paper's experiment grid into a shard
  store, on any executor backend and under any fault model (``--model``,
  see docs/FAULT_MODELS.md);
* ``serve``   — run the campaign daemon: accept campaign specs over
  HTTP/JSON, schedule them across registered workers, and serve
  already-computed cells straight from its content-addressed store;
* ``submit``  — submit a campaign spec to a running daemon;
* ``status``  — show per-cell progress of a store's grid;
* ``tables``  — regenerate the paper's tables from a store;
* ``analyze`` — static susceptibility analysis of one application
  (no store needed; see docs/STATIC_ANALYSIS.md);
* ``figures`` — regenerate the paper's figures from a store;
* ``worker``  — run a TCP campaign worker (alias of
  ``python -m repro.exec.worker``).

Every command builds a :class:`~repro.service.spec.CampaignSpec` from
its flags (and the store's pinned metadata) and acts through the
:mod:`repro.api` facade, so the CLI, the daemon's HTTP API and library
callers share one code path.  ``--json`` on any command switches both
success summaries and errors to machine-readable JSON on stdout.

A distributed sweep is two shell lines per host plus one orchestrator::

    host-a$ python -m repro worker --listen 0.0.0.0:7006
    host-b$ python -m repro worker --listen 0.0.0.0:7006
    main$   python -m repro sweep --store runs/ \\
                --workers host-a:7006 host-b:7006

or, as a service — workers find the daemon, clients only need the URL::

    main$   python -m repro serve --store cache/ --listen 0.0.0.0:8340
    host-a$ python -m repro worker --register http://main:8340 \\
                --listen 0.0.0.0:7006 --advertise host-a:7006
    any$    python -m repro submit --url http://main:8340 --suite small

Interrupt the orchestrator at any point and re-run the same command (or
the same command on a different backend): it resumes exactly where the
store left off.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from .api import build_orchestrator
from .api import figures as api_figures
from .api import submit as api_submit
from .api import tables as api_tables
from .apps import SUITES
from .core import ENGINES, ShardStore, StoppingRule
from .core.store import MissingCellError
from .exec import parse_listen_address
from .exec.worker import add_worker_arguments, run_worker
from .experiments import ALL_FIGURES
from .service.client import ServiceError
from .service.spec import SPEC_MODES, CampaignSpec
from .sim import FAULT_MODELS, MODEL_NAMES


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", required=True, metavar="DIR",
                        help="shard-store directory (created if missing)")


def _add_json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON summary (and "
                             "JSON errors) on stdout instead of prose")


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--suite", choices=list(SUITES), default=None,
                        help="workload suite (default: store meta or 'small')")
    parser.add_argument("--runs", type=int, default=None,
                        help="runs per cell (default: store meta or 8)")
    parser.add_argument("--base-seed", type=int, default=None,
                        help="campaign base seed (default: store meta or 2006)")
    parser.add_argument("--apps", nargs="*", default=None, metavar="APP",
                        help="subset of applications (default: all seven)")
    parser.add_argument("--modes", nargs="*", default=None,
                        choices=sorted(SPEC_MODES),
                        help="protection modes (default: protected unprotected)")
    parser.add_argument("--errors", nargs="*", type=int, default=None,
                        metavar="N",
                        help="explicit error-count axis for every app "
                             "(default: each app's figure series + Table 2 "
                             "points)")
    parser.add_argument("--no-table2-points", action="store_true",
                        help="sweep only the figure series, not the Table 2 "
                             "operating points")
    model_lines = "; ".join(f"'{name}': {FAULT_MODELS[name].summary}"
                            for name in MODEL_NAMES)
    parser.add_argument("--model", choices=MODEL_NAMES, default=None,
                        help="fault model injected runs use (default: store "
                             f"meta or 'control-bit'). {model_lines}. "
                             "See docs/FAULT_MODELS.md.")


def _add_adaptive_arguments(parser: argparse.ArgumentParser) -> None:
    adaptive = parser.add_argument_group(
        "adaptive sampling",
        "Spend runs per cell until the failure-rate and acceptable-rate "
        "Wilson intervals converge instead of using a fixed --runs; the "
        "store's meta.json pins the rule, so resuming an adaptive store "
        "needs no flags at all.  See docs/ARCHITECTURE.md.")
    adaptive.add_argument("--adaptive", action="store_true",
                          help="plan each cell adaptively with the "
                               "sequential stopping rule")
    adaptive.add_argument("--ci-width", type=float, default=None,
                          metavar="PP",
                          help="target CI half-width in percentage points "
                               "(default: store meta or 2.5; implies "
                               "--adaptive)")
    adaptive.add_argument("--min-runs", type=int, default=None, metavar="N",
                          help="run floor per cell before the rule may stop "
                               "(default: store meta or 8; implies "
                               "--adaptive)")
    adaptive.add_argument("--max-runs", type=int, default=None, metavar="N",
                          help="run cap per cell, converged or not "
                               "(default: store meta or 64; implies "
                               "--adaptive)")
    adaptive.add_argument("--confidence", type=float, default=None,
                          metavar="C",
                          help="two-sided confidence level of the monitored "
                               "intervals (default: store meta or 0.95; "
                               "implies --adaptive)")


def _stopping_rule(args, pinned: Optional[StoppingRule]) -> Optional[StoppingRule]:
    """The adaptive stopping rule the command runs under, if any.

    Adaptive mode engages when the user asks for it (``--adaptive`` or
    any adaptive flag) *or* the store's ``meta.json`` already pins a
    rule (``pinned``) — so ``status`` and a flagless resume of an
    adaptive sweep do the right thing without re-specifying parameters.
    Explicit flags win over the pinned rule; a genuinely different rule
    is then refused by the meta pin when the sweep tries to write.
    """
    flags = {"ci_width": getattr(args, "ci_width", None),
             "floor": getattr(args, "min_runs", None),
             "cap": getattr(args, "max_runs", None),
             "confidence": getattr(args, "confidence", None)}
    given = {name: value for name, value in flags.items() if value is not None}
    if not (getattr(args, "adaptive", False) or given):
        # Flagless invocation: the store's meta is authoritative — an
        # adaptive store resumes its pinned rule, anything else is fixed.
        return pinned
    # StoppingRule owns the defaults, so a fresh `--adaptive` with no
    # values cannot drift from StoppingRule() used elsewhere.
    if pinned is None:
        return StoppingRule(**given)
    return dataclasses.replace(pinned, **given)


def _resolve_spec(args, store: Optional[ShardStore] = None) -> CampaignSpec:
    """The :class:`CampaignSpec` a command's flags resolve to.

    The one place CLI flags become a spec — every command comes through
    here.  Resolution starts from the store's pinned spec
    (:meth:`CampaignSpec.from_store_meta`; ``CampaignSpec()`` without a
    store) and applies only the flags the user gave, so a flagless
    resume keeps every pinned field, ``workloads`` included, artefacts
    aggregate under the parameters the sweep persisted, and the spec
    ``submit --url`` sends describes exactly the campaign ``sweep``
    would run locally.  A given store is bound to the resolved fault
    model, so it looks up the shards that model wrote.
    """
    meta = store.read_meta() if store is not None else None
    pinned = CampaignSpec.from_store_meta(meta or {})
    # `is not None`, not truthiness: an explicit `--runs 0` must reach
    # spec validation, not silently fall back to the pinned value.
    flags = {"suite": args.suite, "runs_per_cell": args.runs,
             "base_seed": args.base_seed, "model": args.model}
    changes = {name: value for name, value in flags.items()
               if value is not None}
    for name in ("apps", "modes", "errors"):
        if getattr(args, name):
            changes[name] = tuple(getattr(args, name))
    spec = dataclasses.replace(
        pinned, **changes, include_table2=not args.no_table2_points,
        stopping=_stopping_rule(args, pinned.stopping))
    if store is not None:
        store.model = spec.model
    return spec


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _print_cli_error(error: Exception, as_json: bool = False) -> int:
    # The guidance message ("run `python -m repro sweep` first", "refusing
    # to resume with ...", config validation) is the whole point; a raw
    # traceback would bury it.  Under --json the same message ships as a
    # JSON object on stdout so pipelines always parse one stream.
    if as_json:
        _emit_json({"error": str(error), "kind": type(error).__name__})
    else:
        print(f"error: {error}", file=sys.stderr)
    return 1


def _usage_error(args, message: str) -> int:
    """Report a flag-level mistake (exit 2, JSON-aware)."""
    if getattr(args, "json", False):
        _emit_json({"error": message, "kind": "UsageError"})
    else:
        print(f"error: {message}", file=sys.stderr)
    return 2


def _refuse_runs_under_adaptive(args, adaptive: bool) -> bool:
    """True (after reporting) when ``--runs`` meets adaptive mode.

    Adaptive cell sizes come from the stopping rule; silently ignoring an
    explicit ``--runs`` would let the user believe they fixed (or queried
    progress toward) a cell size when they did not — and feeding it into
    the artefact commands' completeness check would reject converged
    cells with a "resume the sweep" hint that can never succeed.
    """
    if adaptive and args.runs is not None:
        _usage_error(args,
                     "--runs conflicts with an adaptive store (the pinned "
                     "stopping rule sizes each cell); drop --runs (sweep "
                     "takes --min-runs/--max-runs instead)")
        return True
    return False


def _print_fleet(fleet: dict) -> None:
    """Per-worker transport counters, one line per address (satellite of
    the robustness layer: fleet health must be visible without log-diving)."""
    if not fleet:
        return
    print("fleet health:")
    for address, counters in sorted((fleet.get("workers") or {}).items()):
        print(f"  {address}: {counters.get('chunks_ok', 0)} chunks ok, "
              f"{counters.get('retries', 0)} retries, "
              f"{counters.get('reconnects', 0)} reconnects, "
              f"{counters.get('failures', 0)} failures")
    fallback_runs = fleet.get("fallback_runs", 0)
    if fallback_runs:
        print(f"  local fallback executed {fallback_runs} run(s) after the "
              f"fleet was lost")


def _print_job_summary(job: dict) -> None:
    """Human one-liner for a job-status payload (sweep and submit)."""
    report = job.get("report") or {}
    discarded = (f", {report['runs_discarded']} past convergence discarded"
                 if report.get("runs_discarded") else "")
    print(f"sweep: {report.get('runs_executed', 0)} runs executed, "
          f"{report.get('runs_reused', 0)} reused from store{discarded}; "
          f"{report.get('cells_complete', 0)}/{report.get('cells_total', 0)} "
          f"cells complete")
    _print_fleet(report.get("fleet") or {})


def _cmd_sweep(args) -> int:
    store = ShardStore(args.store)
    spec = _resolve_spec(args, store)
    if _refuse_runs_under_adaptive(args, spec.stopping is not None):
        return 2
    progress = (None if args.json
                else lambda message: print(message, flush=True))
    execution = {} if args.parallel is None else {"parallel": args.parallel}
    job = api_submit(
        spec, store, progress=progress, chunk_size=args.chunk_size,
        engine=args.engine, workers=tuple(args.workers or ()),
        worker_secret=args.secret, fallback=not args.no_fallback,
        **execution,
    )
    if args.json:
        _emit_json(job)
    else:
        _print_job_summary(job)
    return 0 if job["state"] == "complete" else 1


def _cmd_status(args) -> int:
    store = ShardStore(args.store)
    spec = _resolve_spec(args, store)
    stopping = spec.stopping
    if _refuse_runs_under_adaptive(args, stopping is not None):
        return 2
    statuses = build_orchestrator(spec, store).status()
    adaptive = stopping is not None
    done_cells = sum(status.complete for status in statuses)
    if args.json:
        payload = {
            "cells": [status.to_json() for status in statuses],
            "cells_complete": done_cells,
            "cells_total": len(statuses),
            "adaptive": stopping.as_meta() if adaptive else None,
            "fleet": store.read_fleet_stats(),
        }
        _emit_json(payload)
        return 0 if done_cells == len(statuses) else 1
    for status in statuses:
        cell = status.cell
        marker = "done" if status.complete else "...."
        line = (f"  [{marker}] {cell.app_name:10s} {cell.mode.value:12s} "
                f"e={cell.errors:<6d} {status.done}/{status.total}")
        if adaptive:
            width = ("±?" if status.ci_half_width is None
                     else f"±{status.ci_half_width:.2f}")
            line += f"  failure CI {width}"
        print(line)
    if adaptive:
        print(f"adaptive: target CI ±{stopping.ci_width:g} pp at "
              f"{100 * stopping.confidence:g}% confidence, "
              f"{stopping.floor}..{stopping.cap} runs/cell")
    _print_fleet(store.read_fleet_stats())
    print(f"{done_cells}/{len(statuses)} cells complete")
    return 0 if done_cells == len(statuses) else 1


def _cmd_tables(args) -> int:
    store = ShardStore(args.store)
    spec = _resolve_spec(args, store)
    if _refuse_runs_under_adaptive(args, spec.stopping is not None):
        return 2
    selected = args.tables or [1, 2, 3]
    unknown = [number for number in selected if number not in (1, 2, 3, 4, 5)]
    if unknown:
        return _usage_error(args, f"unknown table {unknown[0]}")
    rendered = api_tables(store, selected, apps=args.apps,
                          models=args.models, model_errors=args.model_errors,
                          config=spec)
    if args.json:
        _emit_json({"tables": [{"number": number, "text": table.to_text()}
                               for number, table in zip(selected, rendered)]})
        return 0
    for table in rendered:
        print(table.to_text())
        print()
    return 0


def _cmd_analyze(args) -> int:
    from .api import analyze as api_analyze
    from .core import TableData

    report = api_analyze(
        args.app, suite=args.suite, model=args.model,
        protect_addresses=args.protect_addresses,
        track_memory=args.track_memory,
        respect_eligibility=not args.no_respect_eligibility,
        protect_stack_registers=not args.no_protect_stack_registers)
    if args.json:
        _emit_json(report.to_json())
        return 0
    fates = report.fate_counts()
    print(f"static susceptibility of {report.app!r} "
          f"(suite={report.suite!r}, model={report.model!r})")
    print(f"  {report.static_total} instructions, {len(report.sites)} "
          f"register-writing sites, {report.tagged_count()} tagged "
          f"low-reliability")
    print("  fates: " + ", ".join(f"{fate}={fates[fate]}"
                                  for fate in sorted(fates)))
    table = TableData(
        title=f"top {args.top} sites by susceptibility score",
        headers=["Site", "Op", "Function", "Dest", "Fate", "Depth",
                 "Window", "Risk", "Score"],
    )
    for site in report.top_sites(args.top):
        table.add_row([
            site.index, site.op, site.function or "-", site.dest, site.fate,
            site.loop_depth + site.call_depth, site.window, site.risk,
            site.score,
        ])
    print()
    print(table.to_text())
    return 0


def _cmd_figures(args) -> int:
    store = ShardStore(args.store)
    spec = _resolve_spec(args, store)
    if _refuse_runs_under_adaptive(args, spec.stopping is not None):
        return 2
    selected = args.figures or sorted(ALL_FIGURES)
    unknown = [name for name in selected if name not in ALL_FIGURES]
    if unknown:
        return _usage_error(args, f"unknown figure {unknown[0]!r}; expected "
                                  f"one of {sorted(ALL_FIGURES)}")
    rendered = api_figures(store, selected, errors=args.errors, config=spec)
    if args.json:
        _emit_json({"figures": [{"name": name, "text": figure.to_table()}
                                for name, figure in zip(selected, rendered)]})
        return 0
    for figure in rendered:
        print(figure.to_table())
        print()
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import os
    import signal

    from .service.daemon import CampaignService

    try:
        listen = (parse_listen_address(args.listen)
                  if args.listen is not None else ("127.0.0.1", 8340))
    except ValueError as error:
        return _usage_error(args, str(error))
    secret = args.secret
    if secret is None:
        secret = os.environ.get("REPRO_WORKER_SECRET") or None
    execution = {"engine": args.engine, "chunk_size": args.chunk_size}
    service = CampaignService(args.store, worker_ttl=args.worker_ttl,
                              secret=secret, execution=execution,
                              lanes=args.lanes)
    # SIGTERM, what service managers and `kill` send, stops the daemon as
    # Ctrl-C does (even where Ctrl-C is ignored, as in a background job):
    # serve() unwinds and stops the local pool's workers.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        asyncio.run(service.serve(*listen))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_submit(args) -> int:
    spec = _resolve_spec(args)
    if _refuse_runs_under_adaptive(args, spec.stopping is not None):
        return 2
    job = api_submit(spec, url=args.url, wait=not args.no_wait,
                     timeout=args.timeout)
    if args.json:
        _emit_json(job)
    elif job["state"] in ("queued", "running"):
        print(f"submitted: job {job['job']} is {job['state']} at {args.url} "
              f"(poll with `python -m repro submit --url {args.url} ...` or "
              f"the /v1/campaigns/{job['job']} endpoint)")
    else:
        _print_job_summary(job)
        if job["state"] == "failed" and job.get("error"):
            print(f"error: {job['error']}", file=sys.stderr)
    return 0 if job["state"] in ("complete", "queued", "running") else 1


def _cmd_worker(args) -> int:
    return run_worker(args, lambda message: _usage_error(args, message))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="paper-sweep orchestrator, campaign service and "
                    "experiment artefact CLI",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser(
        "sweep", help="run or resume the paper grid into a shard store")
    _add_store_argument(sweep)
    _add_grid_arguments(sweep)
    _add_json_argument(sweep)
    sweep.add_argument("--parallel", type=int, default=None,
                       help="local process-pool width: one pool of this "
                            "many workers serves the whole sweep (default: "
                            "the usable CPU count; 1 runs in-process)")
    sweep.add_argument("--workers", nargs="*", default=None, metavar="HOST:PORT",
                       help="socket-executor worker addresses; when given, "
                            "runs execute on these workers (bracket IPv6 "
                            "hosts: '[::1]:7006')")
    sweep.add_argument("--secret", default=None, metavar="SECRET",
                       help="shared secret authenticating the socket "
                            "handshake; must match the workers' --secret "
                            "(default: unauthenticated, loopback fleets "
                            "only)")
    sweep.add_argument("--no-fallback", action="store_true",
                       help="abort (resumably) instead of degrading to "
                            "local execution when the whole worker fleet "
                            "is lost mid-sweep")
    sweep.add_argument("--engine", default="fork", choices=ENGINES,
                       help="simulation engine (default fork)")
    sweep.add_argument("--chunk-size", type=int, default=16,
                       help="runs persisted per store append (default 16)")
    _add_adaptive_arguments(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    serve = commands.add_parser(
        "serve", help="run the campaign-as-a-service daemon (HTTP/JSON "
                      "API + content-addressed result cache)")
    serve.add_argument("--store", required=True, metavar="DIR",
                       help="cache root; each distinct campaign content "
                            "gets a shard store under DIR/stores/")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="address to bind (default 127.0.0.1:8340)")
    serve.add_argument("--secret", default=None, metavar="SECRET",
                       help="shared secret for the worker-fleet handshake "
                            "(default: $REPRO_WORKER_SECRET, else "
                            "unauthenticated)")
    serve.add_argument("--worker-ttl", type=float, default=30.0,
                       metavar="SECONDS",
                       help="drop workers whose last heartbeat is older "
                            "than this (default 30)")
    serve.add_argument("--lanes", type=int, default=None, metavar="N",
                       help="concurrent scheduler lanes: how many jobs "
                            "may run at once (same-store jobs still "
                            "serialize; default: one per core, max 4)")
    serve.add_argument("--engine", default="fork", choices=ENGINES,
                       help="simulation engine for daemon-run campaigns "
                            "(default fork)")
    serve.add_argument("--chunk-size", type=int, default=16,
                       help="runs persisted per store append (default 16)")
    _add_json_argument(serve)
    serve.set_defaults(handler=_cmd_serve)

    submit = commands.add_parser(
        "submit", help="submit a campaign spec to a running "
                       "`python -m repro serve` daemon")
    submit.add_argument("--url", required=True, metavar="URL",
                        help="campaign-service base URL, e.g. "
                             "http://127.0.0.1:8340")
    _add_grid_arguments(submit)
    _add_adaptive_arguments(submit)
    _add_json_argument(submit)
    submit.add_argument("--no-wait", action="store_true",
                        help="return after queueing instead of waiting for "
                             "the campaign to finish")
    submit.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="give up waiting after this long (default: "
                             "wait forever)")
    submit.set_defaults(handler=_cmd_submit)

    status = commands.add_parser(
        "status", help="show per-cell progress of a store's grid")
    _add_store_argument(status)
    _add_grid_arguments(status)
    _add_adaptive_arguments(status)
    _add_json_argument(status)
    status.set_defaults(handler=_cmd_status)

    tables = commands.add_parser(
        "tables", help="regenerate the paper's tables from a store")
    _add_store_argument(tables)
    _add_grid_arguments(tables)
    _add_json_argument(tables)
    tables.add_argument("--tables", nargs="*", type=int, default=None,
                        metavar="N",
                        help="table numbers (default: 1 2 3; table 4 is the "
                             "cross-fault-model outcome breakdown, table 5 "
                             "the static-oracle-vs-measured validation)")
    tables.add_argument("--models", nargs="*", default=None,
                        choices=MODEL_NAMES, metavar="MODEL",
                        help="fault models table 4 compares (default: all)")
    tables.add_argument("--model-errors", type=int, default=4, metavar="N",
                        help="errors per run for table 4 cells (default 4)")
    tables.set_defaults(handler=_cmd_tables)

    analyze = commands.add_parser(
        "analyze", help="static susceptibility analysis of one application")
    analyze.add_argument("--app", required=True, metavar="NAME",
                         help="application to analyze (e.g. susan)")
    analyze.add_argument("--suite", choices=list(SUITES),
                         default="small",
                         help="workload suite the app is drawn from "
                              "(default 'small'; the analysis itself is "
                              "static)")
    analyze.add_argument("--model", default="control-bit",
                         choices=MODEL_NAMES,
                         help="fault model whose site population is scored "
                              "(result-kind models only; default "
                              "control-bit)")
    analyze.add_argument("--top", type=int, default=10, metavar="N",
                         help="sites shown in the text ranking (default 10; "
                              "--json always emits all sites)")
    analyze.add_argument("--protect-addresses", action="store_true",
                         help="treat address operands as control uses "
                              "(tagging ablation axis)")
    analyze.add_argument("--track-memory", action="store_true",
                         help="propagate control taint through memory "
                              "(tagging ablation axis)")
    analyze.add_argument("--no-respect-eligibility", action="store_true",
                         help="tag inside functions the app excludes from "
                              "protection too")
    analyze.add_argument("--no-protect-stack-registers", action="store_true",
                         help="allow tagging stack/frame-pointer writes")
    _add_json_argument(analyze)
    analyze.set_defaults(handler=_cmd_analyze)

    figures = commands.add_parser(
        "figures", help="regenerate the paper's figures from a store")
    _add_store_argument(figures)
    _add_grid_arguments(figures)
    _add_json_argument(figures)
    figures.add_argument("--figures", nargs="*", default=None, metavar="NAME",
                         help="figure names, e.g. figure1 (default: all)")
    figures.set_defaults(handler=_cmd_figures)

    worker = commands.add_parser(
        "worker", help="run a TCP campaign worker "
                       "(alias of python -m repro.exec.worker)")
    add_worker_arguments(worker)
    _add_json_argument(worker)
    worker.set_defaults(handler=_cmd_worker)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (MissingCellError, ValueError, ConnectionError,
            ServiceError, TimeoutError) as error:
        # MissingCellError: a tables/figures cell the sweep has not produced
        # yet.  ValueError: user-input problems — meta mismatch on resume
        # (StoreMismatchError), campaign config validation, bad addresses.
        # ConnectionError/ServiceError/TimeoutError: the campaign daemon is
        # unreachable, refused the request, or took too long.
        return _print_cli_error(error, as_json=getattr(args, "json", False))


if __name__ == "__main__":
    raise SystemExit(main())
