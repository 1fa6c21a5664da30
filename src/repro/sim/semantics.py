"""One table of ISA semantics, compiled into every engine's handlers.

Every :class:`~repro.isa.Opcode` has exactly one :class:`Semantics` row in
:data:`SEMANTICS`.  A row states what the instruction does as Python source
fragments over the decoded operand tuple ``(i, d, a, b, imm, t, n)`` (static
index, destination, first and second source, immediate, resolved target,
fall-through index) and the register files ``ir``/``fr``:

* ``dest`` -- the register file the result goes to (``"int"``, ``"float"``)
  or ``None``;
* ``result`` -- the scalar result expression (ADD: the wrapped
  ``ir[a] + ir[b]``), or ``cond`` -- a branch condition (next pc ``t`` when
  true, ``n`` otherwise);
* ``guard`` -- an optional fault condition with its fault class and message
  (DIV: ``ir[b] == 0`` raises ``ArithmeticFault("integer division by
  zero")``);
* ``pool`` -- the opcode fault model's substitution pool (``None``: the
  random-word fallback), and whether the opcode is itself drawn from it;
* ``binds`` (run once per static instruction), ``lets`` (temporaries run
  before the guard), ``effect`` (the side effect of a no-result opcode),
  ``next`` (the next pc) and ``strict`` (still evaluate with no
  destination, because the evaluation itself can fault).

The rows fill source templates that are compiled once per handler family
at import, except the unit family, compiled once per unit shape on first
use:

* :data:`FAST_MAKERS` -- the decoded engine's threaded-code handlers;
* :data:`COMPUTE_MAKERS` -- raw-result closures for injection-exposed
  instructions;
* :func:`unit_maker` -- per unit *shape* (the tuple of ``(opcode name,
  destination absent)`` per row of a basic block extended along its
  unconditional jumps), one function that runs the whole unit and one
  that runs a span of its rows, each returning the next pc;
  :mod:`repro.sim.stepper` dispatches them;
* :data:`SUBSTITUTION_POOLS` -- the opcode fault model's pools, in table
  order, which is the order the substitute draw indexes.

Generated code comes only from the string constants in this module and
slot names (``d0``, ``a1``, ``imm2``), never from program data: operand
values reach it as maker arguments.  ``tools/lint_invariants.py`` rejects
``exec``, ``eval`` and ``compile`` anywhere else under ``src/repro``.
``sim/reference.py`` is *not* generated: it is the independently written
oracle that ``tests/test_opcode_semantics.py`` checks every family against.

Adding an opcode means one row here plus its branch in ``reference.py``.
"""

from __future__ import annotations

import ast
import itertools
import linecache
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..isa import Opcode
from .errors import ArithmeticFault, ControlFault, MemoryFault

INT = "int"
FLOAT = "float"

#: Substitution pools of the opcode fault model.
INT_RR, INT_RI, FLOAT_RR, FLOAT_UN, FLOAT_CMP = (
    "int_rr", "int_ri", "float_rr", "float_un", "float_cmp")

#: Register operands a row may read, in argument order.
_OPERANDS = ("ir[a]", "fr[a]", "ir[b]", "fr[b]")


def _slot(operand: str) -> str:
    """The spec field an operand indexes by: ``"fr[b]"`` -> ``"b"``."""
    return operand[3]


@dataclass(frozen=True)
class Semantics:
    """What one opcode does; see the module docstring for the fields."""

    op: Opcode
    dest: Optional[str] = None
    result: Optional[str] = None
    cond: Optional[str] = None
    guard: Optional[Tuple[str, str, str]] = None
    pool: Optional[str] = None
    substitute: bool = True
    binds: Tuple[str, ...] = ()
    lets: Tuple[str, ...] = ()
    effect: Optional[str] = None
    next: str = "n"
    strict: bool = False

    @property
    def code(self) -> str:
        """Every source fragment of the row, for operand scans."""
        parts = [*self.binds, *self.lets, self.result, self.cond, self.effect]
        if self.guard is not None:
            parts += [self.guard[0], self.guard[2]]
        return "\n".join(part for part in parts if part)

    @property
    def sources(self) -> List[str]:
        """Register operands read, e.g. ``["ir[a]", "ir[b]"]``."""
        code = self.code
        return [operand for operand in _OPERANDS if operand in code]

    @property
    def files(self) -> List[str]:
        """Register files the row reads or writes: ``"ir"``, ``"fr"``."""
        code = self.code
        return [file for file, kind in (("ir", INT), ("fr", FLOAT))
                if f"{file}[" in code or self.dest == kind]

    @property
    def runs_without_dest(self) -> bool:
        """Whether the row evaluates even when it has no destination."""
        return self.strict or self.guard is not None

    @property
    def ends_block(self) -> bool:
        """Whether the next pc can be anything but the fall-through."""
        return self.cond is not None or self.next != "n"

    def dest_absent(self, d: int) -> bool:
        """Whether destination index ``d`` discards the result (``$0`` is
        hard-wired and ``-1`` means no destination)."""
        if self.dest == INT:
            return d <= 0
        return self.dest == FLOAT and d < 0


def _wrap(expr: str) -> str:
    """Signed 32-bit wraparound: branchless, equal to ``wrap_int``."""
    return f"((({expr}) + 0x80000000) & 0xFFFFFFFF) - 0x80000000"


def _compare(op: Opcode, cond: str, **fields) -> Semantics:
    """A 0/1 integer result of a comparison."""
    return Semantics(op, INT, f"1 if {cond} else 0", **fields)


def _address_guard(access: str) -> Tuple[str, str, str]:
    return ("address < -2147483648 or address >= 2147483648", "MemoryFault",
            f'f"{access} invalid address {{address}}"')


_SHIFT = ("sh = imm & 31",)
_TEXT_LEN = ("text_len = len(m.program.instructions)",)
_O = Opcode

_ROWS = (
    # Integer ALU, register-register.
    Semantics(_O.ADD, INT, _wrap("ir[a] + ir[b]"), pool=INT_RR),
    Semantics(_O.SUB, INT, _wrap("ir[a] - ir[b]"), pool=INT_RR),
    Semantics(_O.MUL, INT, _wrap("ir[a] * ir[b]"), pool=INT_RR),
    # int32 / int32 through float64 truncation matches Python's
    # int(a / b) bit for bit: both operands convert exactly and the
    # correctly rounded IEEE quotient is shared.
    Semantics(_O.DIV, INT, _wrap("int(ir[a] / ir[b])"),
              guard=("ir[b] == 0", "ArithmeticFault",
                     '"integer division by zero"'),
              pool=INT_RR, substitute=False),
    Semantics(_O.REM, INT, _wrap("ir[a] - int(ir[a] / ir[b]) * ir[b]"),
              guard=("ir[b] == 0", "ArithmeticFault",
                     '"integer remainder by zero"'),
              pool=INT_RR, substitute=False),
    Semantics(_O.AND, INT, "ir[a] & ir[b]", pool=INT_RR),
    Semantics(_O.OR, INT, "ir[a] | ir[b]", pool=INT_RR),
    Semantics(_O.XOR, INT, "ir[a] ^ ir[b]", pool=INT_RR),
    Semantics(_O.NOR, INT, _wrap("~(ir[a] | ir[b])"), pool=INT_RR),
    Semantics(_O.SLL, INT, _wrap("ir[a] << (ir[b] & 31)"), pool=INT_RR),
    Semantics(_O.SRL, INT, _wrap("(ir[a] & 0xFFFFFFFF) >> (ir[b] & 31)"),
              pool=INT_RR),
    Semantics(_O.SRA, INT, _wrap("ir[a] >> (ir[b] & 31)"), pool=INT_RR),
    _compare(_O.SLT, "ir[a] < ir[b]", pool=INT_RR),
    _compare(_O.SLE, "ir[a] <= ir[b]", pool=INT_RR),
    _compare(_O.SEQ, "ir[a] == ir[b]", pool=INT_RR),
    _compare(_O.SNE, "ir[a] != ir[b]", pool=INT_RR),

    # Integer ALU, register-immediate (``Program.validate`` keeps imm in
    # int32; LI immediates are wrapped at decode time).
    Semantics(_O.ADDI, INT, "((ir[a] + k) & 0xFFFFFFFF) - 0x80000000",
              binds=("k = imm + 0x80000000",), pool=INT_RI),
    Semantics(_O.ANDI, INT, "ir[a] & imm", pool=INT_RI),
    Semantics(_O.ORI, INT, "ir[a] | imm", pool=INT_RI),
    Semantics(_O.XORI, INT, "ir[a] ^ imm", pool=INT_RI),
    Semantics(_O.SLLI, INT, _wrap("ir[a] << sh"), binds=_SHIFT, pool=INT_RI),
    Semantics(_O.SRLI, INT, _wrap("(ir[a] & 0xFFFFFFFF) >> sh"),
              binds=_SHIFT, pool=INT_RI),
    Semantics(_O.SRAI, INT, _wrap("ir[a] >> sh"), binds=_SHIFT, pool=INT_RI),
    _compare(_O.SLTI, "ir[a] < imm", pool=INT_RI),
    Semantics(_O.LI, INT, "imm"),

    # Floating point.
    Semantics(_O.FADD, FLOAT, "fr[a] + fr[b]", pool=FLOAT_RR),
    Semantics(_O.FSUB, FLOAT, "fr[a] - fr[b]", pool=FLOAT_RR),
    Semantics(_O.FMUL, FLOAT, "fr[a] * fr[b]", pool=FLOAT_RR),
    Semantics(_O.FDIV, FLOAT,
              "numerator / denominator if denominator != 0.0"
              ' else float("nan") if numerator == 0.0'
              " or numerator != numerator"
              ' else math.copysign(float("inf"), numerator)',
              lets=("numerator = fr[a]", "denominator = fr[b]"),
              pool=FLOAT_RR, substitute=False),
    Semantics(_O.FNEG, FLOAT, "-fr[a]", pool=FLOAT_UN),
    Semantics(_O.FABS, FLOAT, "abs(fr[a])", pool=FLOAT_UN),
    Semantics(_O.FMIN, FLOAT, "min(fr[a], fr[b])", pool=FLOAT_RR),
    Semantics(_O.FMAX, FLOAT, "max(fr[a], fr[b])", pool=FLOAT_RR),
    Semantics(_O.FSQRT, FLOAT,
              'sqrt(operand) if operand >= 0.0 else float("nan")',
              binds=("sqrt = math.sqrt",), lets=("operand = fr[a]",),
              pool=FLOAT_UN),
    Semantics(_O.FLI, FLOAT, "value", binds=("value = float(imm)",)),
    _compare(_O.FEQ, "fr[a] == fr[b]", pool=FLOAT_CMP),
    _compare(_O.FLT, "fr[a] < fr[b]", pool=FLOAT_CMP),
    _compare(_O.FLE, "fr[a] <= fr[b]", pool=FLOAT_CMP),
    # float() of a corrupted, very wide integer register can overflow.
    Semantics(_O.CVTIF, FLOAT, "float(ir[a])", strict=True),
    Semantics(_O.CVTFI, INT,
              "0 if operand != operand"
              " else 2147483647 if operand >= 2147483648.0"
              " else -2147483648 if operand <= -2147483649.0"
              " else int(operand)",
              lets=("operand = fr[a]",)),

    # Memory: the whole signed 32-bit word-address space is mapped.
    Semantics(_O.LW, INT, "value if isinstance(value, int) else int(value)",
              binds=("get = m.memory.cells.get",),
              lets=("address = ir[a] + imm", "value = get(address, 0)"),
              guard=_address_guard("load from")),
    Semantics(_O.SW, binds=("cells = m.memory.cells",),
              lets=("address = ir[a] + imm",), guard=_address_guard("store to"),
              effect="cells[address] = ir[b]"),
    Semantics(_O.FLW, FLOAT, "float(get(address, 0))",
              binds=("get = m.memory.cells.get",),
              lets=("address = ir[a] + imm",), guard=_address_guard("load from")),
    Semantics(_O.FSW, binds=("cells = m.memory.cells",),
              lets=("address = ir[a] + imm",), guard=_address_guard("store to"),
              effect="cells[address] = fr[b]"),
    Semantics(_O.LA, INT, "t"),

    # Control flow.
    Semantics(_O.BEQ, cond="ir[a] == ir[b]"),
    Semantics(_O.BNE, cond="ir[a] != ir[b]"),
    Semantics(_O.BLT, cond="ir[a] < ir[b]"),
    Semantics(_O.BLE, cond="ir[a] <= ir[b]"),
    Semantics(_O.BGT, cond="ir[a] > ir[b]"),
    Semantics(_O.BGE, cond="ir[a] >= ir[b]"),
    Semantics(_O.BEQZ, cond="ir[a] == 0"),
    Semantics(_O.BNEZ, cond="ir[a] != 0"),
    Semantics(_O.J, next="t"),
    Semantics(_O.JAL, INT, "n", next="t"),
    Semantics(_O.JR, binds=_TEXT_LEN, lets=("target = ir[a]",),
              guard=("not isinstance(target, int) or target < 0"
                     " or target > text_len", "ControlFault",
                     'f"jump to invalid address {target!r}"'),
              next="target"),

    # System.
    Semantics(_O.OUT, binds=("outputs = m.outputs",),
              effect="outputs.setdefault(imm, []).append(ir[a])"),
    Semantics(_O.FOUT, binds=("outputs = m.outputs",),
              effect="outputs.setdefault(imm, []).append(fr[a])"),
    Semantics(_O.HALT, binds=_TEXT_LEN, next="text_len"),
    Semantics(_O.NOP),
)

#: The table: one row per opcode.
SEMANTICS: Dict[Opcode, Semantics] = {row.op: row for row in _ROWS}

assert len(SEMANTICS) == len(_ROWS), "duplicate opcode semantics row"
assert set(SEMANTICS) == set(Opcode), "opcode semantics table incomplete"

#: Opcodes whose result is a float (written to the float register file and
#: flipped as a 64-bit IEEE-754 pattern under injection).
FLOAT_RESULT_OPS = frozenset(
    row.op for row in _ROWS if row.dest == FLOAT)

#: Opcodes whose int result wraps to int32 whatever their operands.
WRAPPED_OPS = frozenset(
    row.op for row in _ROWS
    if row.result and row.result.endswith("& 0xFFFFFFFF) - 0x80000000"))


# ----------------------------------------------------------------------
# Source templates.
# ----------------------------------------------------------------------

def _block(statements: Iterable[str], depth: int) -> List[str]:
    pad = " " * depth
    return [pad + line for statement in statements
            for line in statement.split("\n")]


def _prologue(row: Semantics) -> List[str]:
    """Temporaries, then the fault guard."""
    lines = list(row.lets)
    if row.guard is not None:
        condition, fault, message = row.guard
        lines.append(f"if {condition}:\n    raise {fault}({message}, i)")
    return lines


def _substitute(expr: str, names: Mapping[str, str]) -> str:
    for operand, name in names.items():
        expr = expr.replace(operand, name)
    return expr


def _header(kind: str, row: Semantics) -> List[str]:
    return [f"def {kind}_{row.op.name}(spec, m):",
            "    i, d, a, b, imm, t, n = spec"]


#: Machine attribute per register file's local name.
_REGISTER_FILES = {"ir": "int_regs", "fr": "float_regs"}


def _bind(row: Semantics) -> List[str]:
    """``ir = m.int_regs`` for each register file the row touches."""
    return [f"    {file} = m.{_REGISTER_FILES[file]}" for file in row.files]


def _absent(row: Semantics) -> str:
    """The condition under which the row has no destination register."""
    return "d <= 0" if row.dest == INT else "d < 0"


def _fast_source(row: Semantics) -> str:
    lines = _header("fast", row) + _bind(row)
    lines += _block(row.binds, 4)
    prologue = _prologue(row)
    if row.cond is not None:
        lines.append(f"    return lambda: t if {row.cond} else n")
    elif row.dest is None:
        body = prologue + ([row.effect] if row.effect else [])
        if not body:
            lines.append(f"    return lambda: {row.next}")
        else:
            lines += ["    def h():", *_block(body, 8),
                      f"        return {row.next}", "    return h"]
    else:
        lines.append(f"    if {_absent(row)}:")
        if row.runs_without_dest:
            lines += ["        def h():",
                      *_block(prologue + [row.result], 12),
                      f"            return {row.next}", "        return h"]
        else:
            lines.append(f"        return lambda: {row.next}")
        target = "ir" if row.dest == INT else "fr"
        lines += ["    def h():",
                  *_block(prologue + [f"{target}[d] = {row.result}"], 8),
                  f"        return {row.next}", "    return h"]
    return "\n".join(lines)


def _compute_source(row: Semantics) -> str:
    lines = _header("compute", row) + _bind(row)
    lines += _block(row.binds, 4)
    prologue = _prologue(row)
    if prologue:
        lines += ["    def c():", *_block(prologue, 8),
                  f"        return {row.result}", "    return c"]
    else:
        lines.append(f"    return lambda: {row.result}")
    return "\n".join(lines)


def _pool_source(row: Semantics) -> str:
    """A substitute as a plain function of its operand values."""
    names = {operand: "x" if _slot(operand) == "a" else "y"
             for operand in row.sources}
    params = list(names.values())
    if "imm" in row.code:
        params.append("imm")
    body = [_substitute(line, names)
            for line in (*row.binds, *row.lets, f"return {row.result}")]
    return "\n".join([f"def pool_{row.op.name}({', '.join(params)}):",
                      *_block(body, 4)])


def _compile(family: str, sources: Iterable[str]) -> Dict[str, object]:
    """Compile one family's generated source into a fresh namespace.

    The source is registered with :mod:`linecache`, so tracebacks and
    profilers show the generated lines.
    """
    source = "\n\n\n".join(sources) + "\n"
    filename = f"<repro.sim.semantics:{family}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace: Dict[str, object] = {
        "__name__": __name__, "math": math, "ArithmeticFault": ArithmeticFault,
        "ControlFault": ControlFault, "MemoryFault": MemoryFault}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def _family(kind: str, rows: Iterable[Semantics],
            template) -> Dict[Opcode, Callable]:
    rows = list(rows)
    namespace = _compile(kind, map(template, rows))
    return {row.op: namespace[f"{kind}_{row.op.name}"] for row in rows}


#: Opcode -> maker ``(spec, machine) -> handler``; a handler executes one
#: instruction against the bound machine and returns the next pc.
FAST_MAKERS: Dict[Opcode, Callable] = _family("fast", _ROWS, _fast_source)

#: Opcode -> maker ``(spec, machine) -> compute`` for every opcode with a
#: destination; ``compute()`` returns the raw result with the same value,
#: wrap and fault behaviour as the fast handler, leaving writeback to the
#: injection wrapper.
COMPUTE_MAKERS: Dict[Opcode, Callable] = _family(
    "compute", (row for row in _ROWS if row.dest is not None),
    _compute_source)


#: A unit's shape: ``(opcode name, destination absent)`` per row.  It is
#: all that unit source depends on; operand values are maker arguments.
#: A ``J`` anywhere but the last row is a fused jump: the unit continues
#: at its target, so the row keeps its slot but emits no code.
Shape = Tuple[Tuple[str, bool], ...]

#: The spec tuple's fields, in order.
_FIELDS = ("i", "d", "a", "b", "imm", "t", "n")


#: Stands for a row's slot number in its cached code.
_SLOT = "_SLOT"


class _Suffix(ast.NodeTransformer):
    """Renames one row's locals to slot names (``imm`` -> ``imm_SLOT``)."""

    def __init__(self, names: Iterable[str]) -> None:
        self.names = frozenset(names)

    def visit_Name(self, node: ast.Name) -> ast.Name:
        if node.id in self.names:
            node.id += _SLOT
        return node


def _row_locals(row: Semantics) -> List[str]:
    """The spec fields plus every name the row's binds and lets assign."""
    assigned = [node.id for statement in (*row.binds, *row.lets)
                for node in ast.walk(ast.parse(statement))
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
    return [*_FIELDS, *assigned]


@lru_cache(maxsize=None)
def _row_code(name: str, absent: bool,
              last: bool) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """One row's maker lines (its binds) and unit statements, with its
    locals renamed to slot names; ``_SLOT`` stands for the slot number."""
    row = SEMANTICS[Opcode[name]]
    if not last and row.ends_block:
        assert row.op is Opcode.J, name
        return (), ()  # a fused jump: the next row is its target
    prologue = _prologue(row)
    if row.cond is not None:
        code = prologue + [f"return t if {row.cond} else n"]
    elif row.dest is None:
        code = prologue + ([row.effect] if row.effect else [])
    elif absent:
        code = prologue + [row.result] if row.runs_without_dest else []
    else:
        target = "ir" if row.dest == INT else "fr"
        code = prologue + [f"{target}[d] = {row.result}"]
    if last and row.cond is None:
        code.append(f"return {row.next}")
    rename = _Suffix(_row_locals(row))

    def renamed(statements: Iterable[str]) -> List[str]:
        return [ast.unparse(rename.visit(ast.parse(statement)))
                for statement in statements]

    unpack = f"{', '.join(field + _SLOT for field in _FIELDS)} = specs[{_SLOT}]"
    return (unpack, *renamed(row.binds)), tuple(renamed(code))


def _unit_source(shape: Shape, span: bool) -> Tuple[str, List[int], List[int]]:
    """Source of a unit maker, and its line table: the lines on which a
    row's code starts, ascending, and each one's slot.

    The maker unpacks each row's spec into slot names (``d0``, ``a1``,
    ``imm2``, ...), runs the row's binds and returns a function over the
    bound operands: ``run()`` executes every row in order and returns the
    last row's next pc; with ``span``, ``span(lo, hi)`` executes rows
    ``lo`` to ``hi - 1`` and returns the next pc -- the last row's when
    ``hi`` is the unit's length, the static index of row ``hi`` otherwise.
    """
    head = ["def unit(specs, m):", "    ir = m.int_regs", "    fr = m.float_regs"]
    body: List[str] = []
    starts: List[Tuple[int, int]] = []
    for slot, (name, absent) in enumerate(shape):
        row_head, row_code = _row_code(name, absent, slot == len(shape) - 1)
        head += _block((line.replace(_SLOT, str(slot)) for line in row_head), 4)
        if not row_code:
            continue
        code = [line.replace(_SLOT, str(slot)) for line in row_code]
        starts.append((len(body), slot))
        if span:
            body += [f"if lo <= {slot} < hi:", *_block(code, 4)]
        else:
            body += _block(code, 0)
    if span:
        head.append("    rows = [spec[0] for spec in specs]")
        body.append("return rows[hi]")
    first = len(head) + 2  # the line after ``def run():``
    name = "span" if span else "run"
    lines = [*head, f"    def {name}({'lo, hi' if span else ''}):",
             *_block(body, 8), f"    return {name}"]
    return ("\n".join(lines), [first + start for start, _ in starts],
            [slot for _, slot in starts])


_UNIT_MAKERS: Dict[Tuple[Shape, bool], Callable] = {}
_UNIT_IDS = itertools.count()  # unique source names, also across threads


def unit_maker(shape: Shape, span: bool = False) -> Callable:
    """The maker ``(specs, machine) -> run`` for units of ``shape``, or
    with ``span`` the maker ``(specs, machine) -> span``.

    A unit is a basic block extended along its static unconditional
    edges (see :mod:`repro.sim.decode`); ``run`` executes all of its rows
    against the bound machine, ``span(lo, hi)`` some of them.  Each maker
    is compiled once per process, on first use, and shared by every
    program and machine (two threads racing on a new shape may both
    compile it; either maker is correct): it carries its ``source`` and
    the line table that :func:`unit_row` reads.
    """
    maker = _UNIT_MAKERS.get((shape, span))
    if maker is None:
        source, row_lines, row_slots = _unit_source(shape, span)
        family = f"{'span' if span else 'unit'}{next(_UNIT_IDS)}"
        maker = _compile(family, [source])["unit"]
        maker.source = source
        maker.filename = f"<repro.sim.semantics:{family}>"
        maker.row_lines = row_lines
        maker.row_slots = row_slots
        _UNIT_MAKERS[shape, span] = maker
    return maker


def unit_row(shape: Shape, exc: BaseException, span: bool = False) -> int:
    """The slot of the row that raised ``exc`` in a ``shape`` unit's
    ``run`` (or, with ``span``, its ``span``).

    Read from the traceback's line in the generated code, so the unit
    itself carries no bookkeeping.
    """
    maker = unit_maker(shape, span)
    line = None
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == maker.filename:
            line = tb.tb_lineno
        tb = tb.tb_next
    if line is None:
        raise ValueError(f"{exc!r} was not raised by a {shape} unit")
    return maker.row_slots[bisect_right(maker.row_lines, line) - 1]


def _pools() -> Dict[str, List[Tuple[Opcode, Callable]]]:
    members = [row for row in _ROWS if row.pool is not None and row.substitute]
    functions = _family("pool", members, _pool_source)
    pools: Dict[str, List[Tuple[Opcode, Callable]]] = {}
    for row in members:
        pools.setdefault(row.pool, []).append((row.op, functions[row.op]))
    for row in _ROWS:
        if row.pool is not None:
            assert row.guard is None or not row.substitute, row.op
            assert row.sources == SEMANTICS[pools[row.pool][0][0]].sources, row.op
    return pools


#: Pool name -> ``[(opcode, function of the operand values)]`` in table
#: order: the opcode fault model's substitute draw indexes these lists.
SUBSTITUTION_POOLS = _pools()
