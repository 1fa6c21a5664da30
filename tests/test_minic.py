"""Tests for the MiniC compiler: lexer, parser, semantics and code generation."""

import pytest

from repro.compiler.minic import (
    LexerError,
    ParseError,
    SemanticError,
    compile_source,
    parse_source,
    tokenize,
)
from repro.sim import Machine, Outcome


def run_main(source: str, setup=None):
    program = compile_source(source)
    machine = Machine(program)
    if setup:
        setup(machine)
    result = machine.run()
    assert result.outcome == Outcome.COMPLETED, result.fault
    return machine, result


class TestLexer:
    def test_tokenizes_keywords_and_identifiers(self):
        tokens = tokenize("int main() { return 0; }")
        kinds = [token.kind for token in tokens]
        assert kinds[0] == "keyword" and kinds[1] == "ident"
        assert kinds[-1] == "eof"

    def test_hex_and_float_literals(self):
        tokens = tokenize("0xFF 3.5 2e3")
        assert tokens[0].int_value == 255
        assert tokens[1].float_value == 3.5
        assert tokens[2].float_value == 2000.0

    def test_comments_are_skipped(self):
        tokens = tokenize("int x; // comment\n/* block\ncomment */ int y;")
        idents = [token.text for token in tokens if token.kind == "ident"]
        assert idents == ["x", "y"]

    def test_unknown_character_raises(self):
        with pytest.raises(LexerError):
            tokenize("int `x;")


class TestParser:
    def test_parses_function_with_params(self):
        unit = parse_source("int add(int a, int b) { return a + b; } int main() { return add(1, 2); }")
        assert [f.name for f in unit.functions] == ["add", "main"]
        assert len(unit.function("add").params) == 2

    def test_parses_global_array_with_initialiser(self):
        unit = parse_source("int table[4] = {1, 2, 3, 4}; int main() { return table[0]; }")
        assert unit.globals[0].size == 4
        assert list(unit.globals[0].init) == [1, 2, 3, 4]

    def test_reliability_qualifiers(self):
        unit = parse_source("reliable int main() { return 0; } tolerant void k() { }")
        assert not unit.function("main").eligible
        assert unit.function("k").eligible

    def test_missing_semicolon_raises(self):
        with pytest.raises(ParseError):
            parse_source("int main() { return 0 }")

    def test_compound_assignment_desugars(self):
        unit = parse_source("int main() { int x = 1; x += 2; return x; }")
        assert unit is not None


class TestSemantics:
    def test_undeclared_variable_rejected(self):
        with pytest.raises(SemanticError):
            compile_source("int main() { return nope; }")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SemanticError):
            compile_source("int f(int a) { return a; } int main() { return f(1, 2); }")

    def test_void_return_with_value_rejected(self):
        with pytest.raises(SemanticError):
            compile_source("void f() { return 3; } int main() { f(); return 0; }")

    def test_bitwise_on_floats_rejected(self):
        with pytest.raises(SemanticError):
            compile_source("int main() { float x = 1.0; return x & 1; }")

    def test_break_outside_loop_rejected(self):
        with pytest.raises(SemanticError):
            compile_source("int main() { break; return 0; }")

    def test_missing_main_rejected(self):
        with pytest.raises(SemanticError):
            compile_source("int helper() { return 1; }")


class TestCodegenExecution:
    def test_arithmetic_and_precedence(self):
        _, result = run_main("int main() { return 2 + 3 * 4 - 6 / 2; }")
        assert result.exit_value == 11

    def test_comparisons_and_logical_ops(self):
        source = """
        int main() {
            int a = 5;
            int b = 9;
            if (a < b && b % 2 == 1) { return 1; }
            return 0;
        }
        """
        _, result = run_main(source)
        assert result.exit_value == 1

    def test_short_circuit_avoids_side_conditions(self):
        source = """
        int guard(int x) {
            if (x == 0) { return 0; }
            return 10 / x;
        }
        int main() {
            int x = 0;
            if (x != 0 && guard(x) > 0) { return 1; }
            return 2;
        }
        """
        _, result = run_main(source)
        assert result.exit_value == 2

    def test_while_loop_factorial(self):
        source = """
        int main() {
            int n = 6;
            int acc = 1;
            while (n > 1) {
                acc = acc * n;
                n = n - 1;
            }
            return acc;
        }
        """
        _, result = run_main(source)
        assert result.exit_value == 720

    def test_for_loop_with_break_and_continue(self):
        source = """
        int main() {
            int total = 0;
            for (int i = 0; i < 100; i = i + 1) {
                if (i % 2 == 0) { continue; }
                if (i > 9) { break; }
                total = total + i;
            }
            return total;
        }
        """
        _, result = run_main(source)
        assert result.exit_value == 1 + 3 + 5 + 7 + 9

    def test_recursion(self):
        source = """
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main() { return fib(12); }
        """
        _, result = run_main(source)
        assert result.exit_value == 144

    def test_global_arrays_and_driver_io(self):
        source = """
        int values[16];
        int results[16];
        tolerant void square_all(int n) {
            for (int i = 0; i < n; i = i + 1) {
                results[i] = values[i] * values[i];
            }
        }
        int main() { square_all(16); return 0; }
        """
        machine, _ = run_main(
            source, setup=lambda m: m.write_global("values", list(range(16))))
        assert machine.memory.read_block(machine.data_address("results"),
                                         16) == [i * i for i in range(16)]

    def test_local_arrays(self):
        source = """
        int main() {
            int buf[8];
            for (int i = 0; i < 8; i = i + 1) { buf[i] = i * 3; }
            int total = 0;
            for (int i = 0; i < 8; i = i + 1) { total = total + buf[i]; }
            return total;
        }
        """
        _, result = run_main(source)
        assert result.exit_value == sum(i * 3 for i in range(8))

    def test_float_computation_and_intrinsics(self):
        source = """
        int main() {
            float x = 2.0;
            float y = sqrtf(x * 8.0);
            outf(y);
            outf(fabsf(-1.5));
            outf(fminf(3.0, 4.0));
            outf(fmaxf(3.0, 4.0));
            return (int) y;
        }
        """
        _, result = run_main(source)
        assert result.exit_value == 4
        assert result.output(0) == [4.0, 1.5, 3.0, 4.0]

    def test_int_float_conversions(self):
        source = """
        int main() {
            float ratio = (float) 7 / 2.0;
            return (int) (ratio * 10.0);
        }
        """
        _, result = run_main(source)
        assert result.exit_value == 35

    def test_array_parameters(self):
        source = """
        int total(int data[], int n) {
            int acc = 0;
            for (int i = 0; i < n; i = i + 1) { acc = acc + data[i]; }
            return acc;
        }
        int numbers[10];
        int main() { return total(numbers, 10); }
        """
        machine, result = run_main(
            source, setup=lambda m: m.write_global("numbers", list(range(10))))
        assert result.exit_value == 45

    def test_nested_calls_preserve_temporaries(self):
        source = """
        int add(int a, int b) { return a + b; }
        int main() { return add(add(1, 2), add(3, add(4, 5))); }
        """
        _, result = run_main(source)
        assert result.exit_value == 15

    def test_spilled_locals_are_correct(self):
        # More scalar locals than variable registers: the overflow spills to
        # the stack frame and must still behave correctly.
        decls = "\n".join(f"    int v{i} = {i};" for i in range(20))
        adds = " + ".join(f"v{i}" for i in range(20))
        source = f"int main() {{\n{decls}\n    return {adds};\n}}"
        _, result = run_main(source)
        assert result.exit_value == sum(range(20))

    def test_function_eligibility_is_propagated(self):
        source = """
        reliable int helper(int x) { return x + 1; }
        tolerant int kernel(int x) { return x * 2; }
        int main() { return helper(kernel(3)); }
        """
        program = compile_source(source)
        assert not program.functions["helper"].eligible
        assert program.functions["kernel"].eligible
        assert program.functions["main"].eligible
