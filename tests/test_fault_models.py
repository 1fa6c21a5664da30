"""Tests of the pluggable fault-model subsystem (ISSUE 4).

Covers: the registry and the determinism contract (bit-identical records
across engines and executor backends for every model), the default
model's backwards compatibility, model-specific corruption semantics,
fork-engine fallback for checkpoint-incompatible models, and the shard
store's model separation.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import create_app
from repro.core import CampaignConfig, CampaignRunner, RunRecord, ShardStore
from repro.core.store import StoreMismatchError
from repro.sim import (
    CONTROL_BIT,
    MODEL_NAMES,
    Machine,
    ProtectionMode,
    get_model,
    plan_injections,
)

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
NON_DEFAULT_MODELS = tuple(name for name in MODEL_NAMES if name != CONTROL_BIT)


@pytest.fixture(scope="module")
def adpcm():
    app = create_app("adpcm")
    app.golden(0)
    return app


def result_fields(run):
    """The comparable surface of a RunResult (everything observable)."""
    return (run.outcome, run.executed, run.exit_value, run.outputs,
            run.fault, run.fault_kind, run.exec_counts, run.memory.cells)


def make_plan(app, model_name, mode, errors, seed=1234):
    golden = app.golden(0)
    model = get_model(model_name)
    return plan_injections(errors, model.population(golden, mode), mode,
                           seed=seed, model=model_name)


class TestRegistry:
    def test_all_models_registered(self):
        assert set(MODEL_NAMES) == {
            "control-bit", "data-bit", "memory-bit", "multi-bit", "opcode",
        }

    def test_unknown_model_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            get_model("alpha-particle")
        with pytest.raises(ValueError, match="unknown fault model"):
            CampaignConfig(model="alpha-particle")

    def test_default_plan_is_control_bit(self, adpcm):
        golden = adpcm.golden(0)
        legacy = plan_injections(3, golden.exposed_protected,
                                 ProtectionMode.PROTECTED, seed=7)
        explicit = plan_injections(3, golden.exposed_protected,
                                   ProtectionMode.PROTECTED, seed=7,
                                   model=CONTROL_BIT)
        assert legacy.model == CONTROL_BIT
        assert legacy.targets == explicit.targets
        assert legacy.fork_compatible

    def test_reference_engine_rejects_non_default_models(self, adpcm):
        plan = make_plan(adpcm, "data-bit", ProtectionMode.UNPROTECTED, 2)
        machine = Machine(adpcm.program())
        with pytest.raises(ValueError, match="reference engine"):
            machine.run(injection=plan, engine="reference")
        with pytest.raises(ValueError, match="reference"):
            CampaignConfig(engine="reference", model="data-bit")


class TestDeterminismAcrossEngines:
    """Decoded and fork engines must agree for every model.

    Fork-compatible models actually resume from checkpoints; the
    memory-bit model exercises the full-run fallback — either way the
    observable RunResult must be identical to plain decoded execution.
    """

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    @pytest.mark.parametrize("mode", [ProtectionMode.PROTECTED,
                                      ProtectionMode.UNPROTECTED])
    @pytest.mark.parametrize("errors", [1, 8])
    def test_fork_matches_decoded(self, adpcm, model_name, mode, errors):
        decoded = adpcm.run_once(
            injection=make_plan(adpcm, model_name, mode, errors),
            seed=0, engine="decoded")
        forked = adpcm.run_once(
            injection=make_plan(adpcm, model_name, mode, errors),
            seed=0, engine="fork")
        assert result_fields(decoded) == result_fields(forked)

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_repeat_runs_are_identical(self, adpcm, model_name):
        runs = [
            adpcm.run_once(
                injection=make_plan(adpcm, model_name,
                                    ProtectionMode.UNPROTECTED, 4),
                seed=0)
            for _ in range(2)
        ]
        assert result_fields(runs[0]) == result_fields(runs[1])
        assert runs[0].injection.events == runs[1].injection.events

    def test_memory_bit_is_not_fork_compatible(self, adpcm):
        plan = make_plan(adpcm, "memory-bit", ProtectionMode.PROTECTED, 2)
        assert not plan.fork_compatible
        # The fallback must not require a checkpoint store at all.
        machine = Machine(adpcm.program())
        adpcm.apply_workload(machine, adpcm.workload(0))
        result = machine.run(injection=plan, engine="fork", checkpoints=None)
        assert result.outcome in ("completed", "crash", "hang")


class TestModelSemantics:
    def test_data_bit_only_hits_low_reliability_writes(self, adpcm):
        program = adpcm.program()
        plan = make_plan(adpcm, "data-bit", ProtectionMode.UNPROTECTED, 16)
        adpcm.run_once(injection=plan, seed=0)
        assert plan.events
        for event in plan.events:
            instruction = program.instructions[event.static_index]
            assert instruction.low_reliability
            assert instruction.writes_register

    def test_control_bit_unprotected_hits_control_writes_too(self, adpcm):
        """The contrast that motivates the data-bit model: unprotected
        control-bit exposure includes instructions the static analysis
        did NOT tag low-reliability."""
        program = adpcm.program()
        hit_protected = set()
        for seed in range(6):
            plan = plan_injections(
                16, adpcm.golden(0).exposed_unprotected,
                ProtectionMode.UNPROTECTED, seed=seed)
            adpcm.run_once(injection=plan, seed=0)
            hit_protected.update(
                event.static_index for event in plan.events
                if not program.instructions[event.static_index].low_reliability
            )
        assert hit_protected  # some flips landed on control data

    def test_memory_bit_events_carry_addresses(self, adpcm):
        plan = make_plan(adpcm, "memory-bit", ProtectionMode.PROTECTED, 4)
        adpcm.run_once(injection=plan, seed=0)
        assert plan.events
        for event in plan.events:
            assert event.address is not None
            assert event.static_index == -1
            assert event.opcode == "MEMORY"

    def test_multi_bit_flips_adjacent_burst(self, adpcm):
        plan = make_plan(adpcm, "multi-bit", ProtectionMode.UNPROTECTED, 12)
        adpcm.run_once(injection=plan, seed=0)
        assert plan.events
        for event in plan.events:
            if isinstance(event.original, int):
                diff = (event.original ^ event.corrupted) & 0xFFFFFFFF
            else:
                import struct
                diff = (struct.unpack("<Q", struct.pack("<d", event.original))[0]
                        ^ struct.unpack("<Q", struct.pack("<d", event.corrupted))[0])
            assert diff  # something flipped
            # The flipped bits are one contiguous burst of width 1-4
            # (bursts starting near the MSB are truncated at the word top).
            compact = diff >> ((diff & -diff).bit_length() - 1)
            assert compact & (compact + 1) == 0  # contiguous ones
            assert 1 <= bin(compact).count("1") <= 4
            assert event.detail.startswith("burst=")

    def test_opcode_substitution_events(self, adpcm):
        plan = make_plan(adpcm, "opcode", ProtectionMode.UNPROTECTED, 12)
        adpcm.run_once(injection=plan, seed=0)
        assert plan.events
        for event in plan.events:
            assert event.bit == -1
            assert (event.detail == "random-word"
                    or event.detail.startswith("op="))
            # The victim operation is replaced, not executed: there is no
            # "original result" at a fired occurrence.
            assert event.original is None


class TestDeterminismAcrossExecutors:
    """Acceptance: every model is deterministic across serial/pool/socket."""

    ERRORS = 3
    RUNS = 4

    def _records(self, app, model_name, parallel=1, workers=()):
        config = CampaignConfig(
            runs=self.RUNS, base_seed=31, model=model_name,
            parallel=parallel, workers=workers,
        )
        runner = CampaignRunner(app, config)
        return runner.run_records(self.ERRORS, ProtectionMode.UNPROTECTED)

    @pytest.mark.parametrize("model_name", NON_DEFAULT_MODELS)
    def test_pool_matches_serial(self, adpcm, model_name):
        serial = self._records(adpcm, model_name)
        pool = self._records(adpcm, model_name, parallel=2)
        assert serial == pool
        assert all(record.model == model_name for record in serial)

    def test_socket_matches_serial(self, adpcm):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.exec.worker",
             "--listen", "127.0.0.1:0",
             "--max-sessions", str(len(NON_DEFAULT_MODELS))],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = process.stdout.readline().strip()
            address = re.search(r"listening on (\S+:\d+)$", banner).group(1)
            for model_name in NON_DEFAULT_MODELS:
                serial = self._records(adpcm, model_name)
                remote = self._records(adpcm, model_name, workers=(address,))
                assert serial == remote, model_name
        finally:
            process.terminate()
            process.wait(timeout=10)


class TestRecordEncoding:
    def test_default_model_elided_from_json(self):
        record = RunRecord(run_index=0, seed=0, mode=ProtectionMode.PROTECTED,
                           errors_requested=1, errors_injected=1,
                           outcome="completed", executed=10)
        assert "model" not in record.to_json()
        assert RunRecord.from_json(record.to_json()) == record

    def test_non_default_model_round_trips(self):
        record = RunRecord(run_index=0, seed=0, mode=ProtectionMode.PROTECTED,
                           errors_requested=1, errors_injected=1,
                           outcome="completed", executed=10, model="memory-bit")
        data = json.loads(json.dumps(record.to_json()))
        assert data["model"] == "memory-bit"
        assert RunRecord.from_json(data) == record


class TestStoreModelSeparation:
    def _record(self, model, run_index=0):
        return RunRecord(run_index=run_index, seed=0,
                         mode=ProtectionMode.PROTECTED, errors_requested=2,
                         errors_injected=2, outcome="completed", executed=5,
                         model=model)

    def test_shard_paths_do_not_collide(self, tmp_path):
        default = ShardStore(tmp_path)
        data_bit = ShardStore(tmp_path, model="data-bit")
        mode = ProtectionMode.PROTECTED
        assert (default.shard_path("adpcm", mode, 2)
                != data_bit.shard_path("adpcm", mode, 2))
        assert default.shard_path("adpcm", mode, 2).name == "protected-e2.jsonl"
        assert "data-bit" in data_bit.shard_path("adpcm", mode, 2).name

    def test_stores_only_see_their_own_model(self, tmp_path):
        mode = ProtectionMode.PROTECTED
        default = ShardStore(tmp_path)
        data_bit = ShardStore(tmp_path, model="data-bit")
        default.append_records("adpcm", mode, 2, [self._record(CONTROL_BIT)])
        data_bit.append_records("adpcm", mode, 2, [self._record("data-bit"),
                                                   self._record("data-bit", 1)])
        assert len(default.load_records("adpcm", mode, 2)) == 1
        assert len(data_bit.load_records("adpcm", mode, 2)) == 2
        assert [shard[3].name for shard in default.shards()] == \
            ["protected-e2.jsonl"]
        assert [shard[3].name for shard in data_bit.shards()] == \
            ["protected-e2@data-bit.jsonl"]

    def test_legacy_meta_defaults_to_control_bit(self, tmp_path):
        store = ShardStore(tmp_path)
        store.ensure_meta({"runs_per_cell": 4})  # legacy: no model key
        # Resuming under the default model is fine...
        store.ensure_meta({"runs_per_cell": 4, "model": CONTROL_BIT})
        # ...but any other model is a mismatch.
        with pytest.raises(StoreMismatchError):
            store.ensure_meta({"runs_per_cell": 4, "model": "memory-bit"})
