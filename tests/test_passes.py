"""Tests for the compiler analyses: CFG, data-flow, call graph, control tagging."""

from repro.assembler import ProgramBuilder, parse_assembly
from repro.compiler.minic import compile_source
from repro.compiler.passes import (
    build_call_graph,
    build_cfg,
    clear_tags,
    compute_liveness,
    compute_reaching_definitions,
    tag_control_data,
)
from repro.isa import Opcode, R


def loop_program():
    """A small loop: i counts to 10, payload multiplications are pure data."""
    builder = ProgramBuilder()
    with builder.function("main"):
        builder.data("sink", 16)
        builder.la(R(10), "sink")
        builder.li(R(8), 0)          # i
        builder.li(R(9), 10)         # n
        builder.label("loop")
        builder.mul(R(11), R(8), R(8))   # payload (data only)
        builder.add(R(12), R(10), R(8))  # address
        builder.sw(R(11), R(12), 0)
        builder.addi(R(8), R(8), 1)      # induction variable
        builder.blt(R(8), R(9), "loop")
        builder.halt()
    return builder.build()


class TestCfg:
    def test_blocks_and_edges(self):
        cfg = build_cfg(loop_program())
        assert len(cfg.blocks) >= 2
        loop_block = cfg.blocks[cfg.block_of_index[loop_program().labels["loop"]]]
        # Find the block ending with the backward branch.
        branch_block = next(
            block for block in cfg.blocks
            if cfg.program.instructions[block.end - 1].op is Opcode.BLT
        ) if False else None
        # Simpler: every block's successors point at valid blocks.
        for block in cfg.blocks:
            for successor in block.successors:
                assert 0 <= successor < len(cfg.blocks)
        assert loop_block is not None

    def test_loop_has_back_edge(self):
        program = loop_program()
        cfg = build_cfg(program)
        loop_start = cfg.block_of_index[program.labels["loop"]]
        has_back_edge = any(
            loop_start in block.successors and block.start >= program.labels["loop"]
            for block in cfg.blocks
        )
        assert has_back_edge

    def test_interprocedural_call_and_return_edges(self):
        source = """
        int helper(int x) { return x + 1; }
        int main() { return helper(41); }
        """
        program = compile_source(source)
        cfg = build_cfg(program, interprocedural=True)
        assert "helper" in cfg.call_sites
        helper_entry_block = cfg.block_of_index[program.functions["helper"].start]
        callers = [
            block.index for block in cfg.blocks
            if helper_entry_block in block.successors and block.function == "main"
        ]
        assert callers, "JAL block should have an edge to the callee entry"


class TestDataflow:
    def test_liveness_of_loop_counter(self):
        program = loop_program()
        cfg = build_cfg(program)
        live_out = compute_liveness(cfg)
        branch_index = next(
            index for index, instruction in enumerate(program.instructions)
            if instruction.op is Opcode.BLT
        )
        mul_index = next(
            index for index, instruction in enumerate(program.instructions)
            if instruction.op is Opcode.MUL
        )
        # The induction variable is live around the loop body.
        assert R(8) in live_out[mul_index]
        # The payload register dies after the store.
        store_index = next(
            index for index, instruction in enumerate(program.instructions)
            if instruction.op is Opcode.SW
        )
        assert R(11) not in live_out[store_index]
        assert branch_index in live_out

    def test_reaching_definitions_def_use_chain(self):
        program = loop_program()
        cfg = build_cfg(program)
        chains = compute_reaching_definitions(cfg)
        mul_index = next(
            index for index, instruction in enumerate(program.instructions)
            if instruction.op is Opcode.MUL
        )
        store_index = next(
            index for index, instruction in enumerate(program.instructions)
            if instruction.op is Opcode.SW
        )
        assert store_index in chains.get(mul_index, [])


class TestCallGraph:
    def test_callers_and_callees(self):
        source = """
        int leaf(int x) { return x * 2; }
        int middle(int x) { return leaf(x) + 1; }
        int main() { return middle(5); }
        """
        program = compile_source(source)
        graph = build_call_graph(program)
        assert "leaf" in graph.callees["middle"]
        assert "middle" in graph.callees["main"]
        reachable, frontier = set(), ["main"]
        while frontier:
            name = frontier.pop()
            if name not in reachable:
                reachable.add(name)
                frontier.extend(graph.callees[name])
        assert reachable == {"main", "middle", "leaf"}
        assert not graph.callees["leaf"]


class TestControlTagging:
    def test_paper_example_tags_data_only_instructions(self):
        """The worked example from Section 3 of the paper.

        I0: $2 = $4 + 1      -> tagged
        I1: LD $3, addr
        I2: $2 = $3 + 2
        I3: $3 = $3 + 8
        I4: $10 = $8 - $4    -> tagged
        I5: $10 = $3 << $2
        I6: $4 = $3 + $6     -> tagged
        I7: $3 = $3 + 1
        I8: BNE $3, $10, label
        """
        source = """
        .data addr 4
        .func main
            addi $2, $4, 1
            la   $20, addr
            lw   $3, $20, 0
            addi $2, $3, 2
            addi $3, $3, 8
            sub  $10, $8, $4
            sll  $10, $3, $2
            add  $4, $3, $6
            addi $3, $3, 1
        target:
            bne  $3, $10, target
            halt
        .endfunc
        """
        program = parse_assembly(source)
        tag_control_data(program)
        mnemonic_tags = [
            (instruction.info.name, instruction.low_reliability)
            for instruction in program.instructions
        ]
        # I0 ($2 = $4 + 1), I4 ($10 = $8 - $4) and I6 ($4 = $3 + $6) are the
        # arithmetic instructions that do not influence the branch.
        assert mnemonic_tags[0] == ("addi", True)    # I0
        assert mnemonic_tags[3] == ("addi", False)   # I2 defines $2 used by I5
        assert mnemonic_tags[4] == ("addi", False)   # I3 feeds the branch
        assert mnemonic_tags[5] == ("sub", True)     # I4
        assert mnemonic_tags[6] == ("sll", False)    # I5 defines $10 (branch)
        assert mnemonic_tags[7] == ("add", True)     # I6
        assert mnemonic_tags[8] == ("addi", False)   # I7 feeds the branch

    def test_loop_counter_is_protected_and_payload_is_tagged(self):
        program = loop_program()
        report = tag_control_data(program)
        mul_index = next(
            index for index, instruction in enumerate(program.instructions)
            if instruction.op is Opcode.MUL
        )
        addi_index = next(
            index for index, instruction in enumerate(program.instructions)
            if instruction.op is Opcode.ADDI and instruction.rd == R(8)
        )
        assert program.instructions[mul_index].low_reliability
        assert not program.instructions[addi_index].low_reliability
        assert report.static_tagged > 0

    def test_protect_addresses_option_protects_address_chain(self):
        program = loop_program()
        report = tag_control_data(program, protect_addresses=True)
        add_index = next(
            index for index, instruction in enumerate(program.instructions)
            if instruction.op is Opcode.ADD and instruction.rd == R(12)
        )
        assert not program.instructions[add_index].low_reliability
        # The default (paper rule) tags the address computation.
        default_report = tag_control_data(program)
        assert program.instructions[add_index].low_reliability
        assert default_report.static_tagged >= report.static_tagged

    def test_eligibility_restricts_tagging(self):
        source = """
        reliable int data_path(int x) { return x * 3 + 1; }
        int main() { return data_path(4); }
        """
        program = compile_source(source)
        report = tag_control_data(program)
        data_path = program.functions["data_path"]
        tagged_inside = [
            index for index in report.tagged_indices
            if data_path.start <= index < data_path.end
        ]
        assert tagged_inside == []

    def test_clear_tags(self):
        program = loop_program()
        tag_control_data(program)
        assert program.tagged_indices()
        clear_tags(program)
        assert program.tagged_indices() == []

    def test_interprocedural_return_value_protection(self):
        # The callee's return value feeds a branch in the caller, so the
        # instruction computing it must stay protected across the call.
        source = """
        int classify(int x) { return x * 7; }
        int main() {
            if (classify(3) > 10) { return 1; }
            return 0;
        }
        """
        program = compile_source(source)
        tag_control_data(program)
        classify = program.functions["classify"]
        mul_instructions = [
            program.instructions[index]
            for index in range(classify.start, classify.end)
            if program.instructions[index].op is Opcode.MUL
        ]
        assert mul_instructions and all(
            not instruction.low_reliability for instruction in mul_instructions
        )

    def test_track_memory_is_more_conservative(self):
        program_a = loop_program()
        program_b = loop_program()
        default_report = tag_control_data(program_a)
        conservative_report = tag_control_data(program_b, track_memory=True,
                                                protect_addresses=True)
        assert conservative_report.static_tagged <= default_report.static_tagged


# ----------------------------------------------------------------------
# Property tests: the worklist fixpoints agree with a brute-force
# per-path oracle on randomized small CFGs.
# ----------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.passes import compute_def_use

#: Register pool for generated programs (well away from $0/$sp/$fp).
_REGS = [R(8), R(9), R(10), R(11)]


@st.composite
def _small_programs(draw):
    """A random single-function program: arithmetic + branches, no calls.

    Branches may jump forward or backward to any emitted label, so the
    generated CFGs include loops, unreachable tails and diamonds — the
    shapes that shake out iteration-order bugs in worklist solvers.
    """
    length = draw(st.integers(min_value=3, max_value=12))
    label_slots = draw(st.lists(st.integers(min_value=0, max_value=length - 1),
                                max_size=3, unique=True))
    slots = []
    for _ in range(length):
        kinds = ["add", "addi", "mul", "li"]
        if label_slots:
            kinds.append("branch")
        kind = draw(st.sampled_from(kinds))
        if kind == "branch":
            slots.append((kind, draw(st.sampled_from(_REGS)),
                          draw(st.sampled_from(_REGS)),
                          draw(st.sampled_from(sorted(label_slots)))))
        else:
            slots.append((kind, draw(st.sampled_from(_REGS)),
                          draw(st.sampled_from(_REGS)),
                          draw(st.sampled_from(_REGS))))

    builder = ProgramBuilder()
    with builder.function("main"):
        for slot, (kind, a, b, c) in enumerate(slots):
            if slot in label_slots:
                builder.label(f"L{slot}")
            if kind == "add":
                builder.add(a, b, c)
            elif kind == "mul":
                builder.mul(a, b, c)
            elif kind == "addi":
                builder.addi(a, b, 1)
            elif kind == "li":
                builder.li(a, 7)
            else:
                builder.bne(a, b, f"L{c}")
        builder.halt()
    return builder.build()


def _successors(program):
    """Instruction-level successor lists, straight from the ISA semantics
    (independent of the CFG builder under test)."""
    successors = []
    for index, instruction in enumerate(program.instructions):
        if instruction.op is Opcode.HALT:
            successors.append([])
        elif instruction.info.is_branch:
            successors.append(sorted({program.labels[instruction.label],
                                      index + 1}))
        elif instruction.op is Opcode.J:
            successors.append([program.labels[instruction.label]])
        else:
            successors.append([index + 1])
    return successors


def _brute_live_out(program, successors, index, register):
    """May-liveness by explicit DFS over simple paths.

    ``register`` is live-out of ``index`` iff some path from a successor
    reaches a use of it before any redefinition.  A shortest witness
    path never repeats a node, so restricting the search to simple paths
    is exact.
    """
    def reaches_use(node, path):
        instruction = program.instructions[node]
        if register in instruction.uses():
            return True
        if register in instruction.defs():
            return False
        return any(reaches_use(successor, path | {successor})
                   for successor in successors[node] if successor not in path)

    return any(reaches_use(successor, {successor})
               for successor in successors[index])


def _brute_chain(program, successors, def_index, register):
    """Reached uses of one definition by explicit DFS over simple paths."""
    reached = set()

    def walk(node, path):
        instruction = program.instructions[node]
        if register in instruction.uses():
            reached.add(node)
        if register in instruction.defs():
            return
        for successor in successors[node]:
            if successor not in path:
                walk(successor, path | {successor})

    for successor in successors[def_index]:
        walk(successor, {successor})
    return reached


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_small_programs())
def test_liveness_fixpoint_matches_per_path_oracle(program):
    cfg = build_cfg(program)
    live_out = compute_liveness(cfg)
    successors = _successors(program)
    for index in range(len(program.instructions)):
        for register in _REGS:
            expected = _brute_live_out(program, successors, index, register)
            actual = register in live_out.get(index, set())
            assert actual == expected, (
                f"live-out of {register} at {index}: "
                f"solver={actual} oracle={expected}\n{program.listing()}")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_small_programs())
def test_reaching_definitions_chains_match_per_path_oracle(program):
    cfg = build_cfg(program)
    chains = compute_reaching_definitions(cfg)
    successors = _successors(program)
    for index, instruction in enumerate(program.instructions):
        defs = instruction.defs()
        if not defs:
            continue
        expected = _brute_chain(program, successors, index, defs[0])
        actual = set(chains.get(index, ()))
        assert actual == expected, (
            f"def-use chain of {index} ({defs[0]}): "
            f"solver={sorted(actual)} oracle={sorted(expected)}\n"
            f"{program.listing()}")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_small_programs())
def test_def_use_facts_reproduce_tagging_on_random_programs(program):
    """The tentpole equivalence on random CFGs, not just the 7 apps."""
    defuse = compute_def_use(program)
    report = tag_control_data(program)
    assert defuse.tagged_sites() == frozenset(report.tagged_indices)
