"""Structure of the opcode semantics table and the families built from it.

:mod:`repro.sim.semantics` is the one place (beside the reference oracle)
that states what each opcode does; the decoded, compute, unit and
opcode-fault handler families are generated from it.  These tests pin the
table's shape; ``test_opcode_semantics.py`` checks the generated code's
behaviour against the reference interpreter.
"""

import inspect
from pathlib import Path

from repro.isa import Opcode
from repro.sim import decode, semantics
from repro.sim.models import opcode as opcode_model
from repro.sim.semantics import FLOAT, SEMANTICS

SIM_DIR = Path(semantics.__file__).resolve().parent


def test_every_opcode_has_exactly_one_row():
    assert set(SEMANTICS) == set(Opcode)
    assert all(row.op is op for op, row in SEMANTICS.items())


def test_compute_makers_are_the_rows_with_a_destination():
    assert set(decode.COMPUTE_MAKERS) == {
        op for op, row in SEMANTICS.items() if row.dest is not None}


def test_float_result_ops_are_the_rows_with_a_float_destination():
    assert decode.FLOAT_RESULT_OPS == {
        op for op, row in SEMANTICS.items() if row.dest == FLOAT}


def test_every_opcode_has_a_fast_maker():
    assert set(decode.FAST_MAKERS) == set(Opcode)


def test_decode_binds_the_generated_families():
    assert decode.FAST_MAKERS is semantics.FAST_MAKERS
    assert decode.COMPUTE_MAKERS is semantics.COMPUTE_MAKERS


def test_rows_are_results_branches_or_effects():
    for op, row in SEMANTICS.items():
        assert (row.result is not None) == (row.dest is not None), op
        assert not (row.cond is not None and row.dest is not None), op
        assert not (row.effect is not None and row.dest is not None), op


def test_opcode_model_pools_come_from_the_table():
    pools = {
        "INT_RR_POOL": semantics.INT_RR, "INT_RI_POOL": semantics.INT_RI,
        "FLOAT_RR_POOL": semantics.FLOAT_RR,
        "FLOAT_UN_POOL": semantics.FLOAT_UN,
        "FLOAT_CMP_POOL": semantics.FLOAT_CMP,
    }
    for name, pool in pools.items():
        assert getattr(opcode_model, name) is semantics.SUBSTITUTION_POOLS[pool]
        assert [op for op, _ in getattr(opcode_model, name)] == [
            op for op, row in SEMANTICS.items()
            if row.pool == pool and row.substitute]


def test_generated_source_is_inspectable():
    source = inspect.getsource(decode.FAST_MAKERS[Opcode.ADD])
    assert "ir[a] + ir[b]" in source
    assert "def fast_ADD(spec, m):" in source


def test_wrap_formula_lives_only_in_the_table():
    # The reference oracle wraps through isa.encoding.wrap_int instead.
    holders = sorted(path.relative_to(SIM_DIR).as_posix()
                     for path in SIM_DIR.rglob("*.py")
                     if "0x80000000" in path.read_text())
    assert holders == ["semantics.py"]
