"""Benchmark application interface.

Every application in :mod:`repro.apps` subclasses
:class:`ErrorTolerantApp`.  The base class owns compilation, control-data
tagging and golden-run caching so that fault-injection campaigns pay those
costs once per application instance.  The compiled program additionally
carries the simulator's decode cache (see :mod:`repro.sim.decode`): the
first run lowers it to threaded code once, and every subsequent run —
including runs in :class:`~repro.core.campaign.CampaignRunner` worker
processes, which receive the app pickled warm — reuses the decoded form.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..compiler.minic import compile_source
from ..compiler.passes import ControlTaggingPass, TaggingReport
from ..isa import Program
from ..sim import (
    CHECKPOINT_ENGINES,
    Machine,
    Outcome,
    ProtectionMode,
    RunResult,
    executing_engine,
)
from ..sim.fork import CheckpointStore, build_checkpoint_store
from .fidelity import FidelityMeasure, FidelityResult

#: Watchdog budget multiplier relative to the golden run length: a run that
#: executes this many times more instructions than the error-free run is
#: classified as an infinite run (the paper's "infinite execution time").
WATCHDOG_FACTOR = 8


@dataclass
class GoldenRun:
    """Cached error-free execution of an application on one workload."""

    result: RunResult
    reference_output: Any
    executed: int
    exposed_protected: int
    exposed_unprotected: int
    #: Lazily built golden checkpoint trace for the fork engine
    #: (:mod:`repro.sim.fork`).  Deliberately dropped when the golden run is
    #: pickled into campaign worker processes — the snapshots dwarf the rest
    #: of the payload and workers rebuild the store locally on first use.
    checkpoint_store: Optional[CheckpointStore] = None

    @property
    def watchdog_budget(self) -> int:
        return max(1000, self.executed * WATCHDOG_FACTOR)

    def exposed_count(self, mode: ProtectionMode) -> int:
        if mode is ProtectionMode.PROTECTED:
            return self.exposed_protected
        if mode is ProtectionMode.UNPROTECTED:
            return self.exposed_unprotected
        return 0

    def __getstate__(self):
        state = dict(self.__dict__)
        state["checkpoint_store"] = None
        return state


class ErrorTolerantApp(abc.ABC):
    """Base class for the paper's benchmark applications.

    Subclasses supply MiniC source, workload generation, output extraction
    and the fidelity measure.  The base class provides:

    * :meth:`program` — compiled and tagged program (cached);
    * :meth:`tagging_report` — the static analysis report;
    * :meth:`golden` — cached golden run per workload seed;
    * :meth:`run_once` — one (optionally fault-injected) run.
    """

    #: Short identifier, e.g. ``"susan"``.
    name: str = "app"
    #: One line description matching Table 1.
    description: str = ""
    #: Error counts swept by this application's paper figure.
    default_error_sweep: Sequence[int] = (0, 1, 2, 4, 8)

    def __init__(self) -> None:
        self._program: Optional[Program] = None
        self._tagging: Optional[TaggingReport] = None
        self._goldens: Dict[int, GoldenRun] = {}
        self._workloads: Dict[int, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Hooks implemented by concrete applications.
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def source(self) -> str:
        """Return the MiniC source of the benchmark."""

    @abc.abstractmethod
    def fidelity_measure(self) -> FidelityMeasure:
        """Describe the fidelity measure (Table 1)."""

    @abc.abstractmethod
    def generate_workload(self, seed: int) -> Dict[str, Any]:
        """Produce a deterministic workload for the given seed."""

    @abc.abstractmethod
    def apply_workload(self, machine: Machine, workload: Dict[str, Any]) -> None:
        """Write the workload into the machine's memory before execution."""

    @abc.abstractmethod
    def read_output(self, result: RunResult, workload: Dict[str, Any]) -> Any:
        """Extract the application output from a completed run."""

    @abc.abstractmethod
    def score(self, reference: Any, observed: Any, workload: Dict[str, Any]) -> FidelityResult:
        """Compare an observed output against the golden reference."""

    def eligible_functions(self) -> Optional[List[str]]:
        """Functions eligible for tagging; ``None`` keeps source annotations."""
        return None

    def wire_params(self) -> Dict[str, Any]:
        """Constructor kwargs that rebuild this instance via the registry.

        The socket executor's v2 wire protocol ships ``(name,
        wire_params())`` instead of a serialized object, and the worker
        calls ``create_app(name, **params)`` — so any subclass whose
        constructor takes workload-shaping parameters must return them
        here, JSON-safe, or remote workers will run the *default*
        workload and produce records from a different campaign.
        """
        return {}

    # ------------------------------------------------------------------
    # Compilation and tagging (cached).
    # ------------------------------------------------------------------
    def program(self) -> Program:
        if self._program is None:
            program = compile_source(self.source())
            eligible = self.eligible_functions()
            if eligible is not None:
                program.set_eligible_functions(eligible)
            self._tagging = ControlTaggingPass().run(program)
            self._program = program
        return self._program

    def tagging_report(self) -> TaggingReport:
        self.program()
        assert self._tagging is not None
        return self._tagging

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def workload(self, seed: int = 0) -> Dict[str, Any]:
        """Memoized workload for ``seed``.

        Workload generation is deterministic and every consumer
        (:meth:`apply_workload`, :meth:`read_output`, :meth:`score`) treats
        the dict as read-only, so a campaign's thousands of runs share one
        generated workload per seed instead of regenerating it per run.
        """
        cached = self._workloads.get(seed)
        if cached is None:
            cached = self.generate_workload(seed)
            self._workloads[seed] = cached
        return cached

    def _make_machine(self, workload: Dict[str, Any]) -> Machine:
        machine = Machine(self.program())
        self.apply_workload(machine, workload)
        return machine

    def golden(self, seed: int = 0) -> GoldenRun:
        """Run (and cache) the error-free execution for ``seed``."""
        cached = self._goldens.get(seed)
        if cached is not None:
            return cached
        workload = self.workload(seed)
        machine = self._make_machine(workload)
        result = machine.run()
        if result.outcome != Outcome.COMPLETED:
            raise RuntimeError(
                f"golden run of {self.name!r} did not complete: {result.outcome} "
                f"({result.fault})"
            )
        golden = GoldenRun(
            result=result,
            reference_output=self.read_output(result, workload),
            executed=result.executed,
            exposed_protected=result.statistics.exposed_protected,
            exposed_unprotected=result.statistics.exposed_unprotected,
        )
        self._goldens[seed] = golden
        return golden

    def warm(self, seeds: Sequence[int] = (0,), checkpoints: bool = False) -> None:
        """Pre-simulate golden runs (and optionally checkpoint stores).

        Campaign executors call this before fanning out so every injection
        plan of a cell reads the memoized exposed-dynamic counts, and —
        when ``checkpoints`` is set — so the fork engine never captures a
        store inside the timed run loop.
        """
        for seed in seeds:
            self.golden(seed)
            if checkpoints:
                self.checkpoint_store(seed)

    def checkpoint_store(self, seed: int = 0) -> CheckpointStore:
        """Golden checkpoint trace for ``seed``, built at most once.

        The capture re-executes the golden run with snapshotting enabled and
        verifies it against the memoized golden result; the cost (about two
        golden runs) is amortized over every forked run of a campaign cell.
        """
        golden = self.golden(seed)
        if golden.checkpoint_store is None:
            machine = self._make_machine(self.workload(seed))
            golden.checkpoint_store = build_checkpoint_store(machine, golden.result)
        return golden.checkpoint_store

    def run_once(self, injection=None, seed: int = 0,
                 max_instructions: Optional[int] = None,
                 engine: str = "decoded") -> RunResult:
        """Execute one run of the workload for ``seed`` with optional injection.

        ``engine="fork"`` resumes the run from the nearest golden checkpoint
        at or before the first injection site and splices the golden suffix
        back in on re-convergence (bit-identical results, O(divergence)
        cost); :func:`~repro.sim.machine.executing_engine` decides when it
        degrades to the decoded engine.  Campaigns select the engine via
        ``CampaignConfig.engine``.
        """
        golden = self.golden(seed)
        budget = max_instructions if max_instructions is not None else golden.watchdog_budget
        engine = executing_engine(engine, injection)
        if engine in CHECKPOINT_ENGINES:
            # The fork and batch engines restore memory wholesale from the
            # checkpoint store, so the machine is built bare: no workload
            # application, no golden prefix re-execution.
            machine = Machine(self.program())
            return machine.run(max_instructions=budget, injection=injection,
                               engine=engine, checkpoints=self.checkpoint_store(seed))
        machine = self._make_machine(self.workload(seed))
        return machine.run(max_instructions=budget, injection=injection,
                           engine=engine)

    def run_batched(self, plans, seed: int = 0,
                    max_instructions: Optional[int] = None) -> List[RunResult]:
        """Execute a whole cell of injection plans in numpy lockstep.

        All plans must share one protection mode and fault model, and each
        must have at least one target (callers route empty plans through
        :meth:`run_once`).  Returns one result per plan, in order, each
        bit-identical to running that plan alone on the decoded engine.
        """
        from ..sim.batch import run_batched
        golden = self.golden(seed)
        budget = max_instructions if max_instructions is not None else golden.watchdog_budget
        machine = Machine(self.program())
        return run_batched(machine, plans, self.checkpoint_store(seed), budget)

    def score_run(self, result: RunResult, seed: int = 0) -> Optional[FidelityResult]:
        """Score a completed run against the golden reference (None if it failed)."""
        if result.outcome != Outcome.COMPLETED:
            return None
        golden = self.golden(seed)
        workload = self.workload(seed)
        observed = self.read_output(result, workload)
        return self.score(golden.reference_output, observed, workload)
