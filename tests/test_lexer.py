"""The MiniC lexer against a character-at-a-time oracle.

``tokenize`` is one compiled master regex.  The oracle below is the
lexer it replaced: one Python loop iteration per character, written
straight from the rules.  Both must give the same ``(kind, text, line)``
stream, or the same ``LexerError`` message and line, on every app's
source in both suites, on every string literal in the test suite (the
MiniC the tests compile, and much that is not MiniC), and on edge cases.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.apps.registry import SUITES, suite_apps
from repro.compiler.minic import LexerError, tokenize
from repro.compiler.minic.lexer import KEYWORDS, OPERATORS

TESTS_DIR = Path(__file__).resolve().parent


def oracle_tokenize(source: str):
    """``(kind, text, line)`` triples, by the per-character rules."""
    tokens = []
    line = 1
    position = 0
    length = len(source)
    while position < length:
        char = source[position]
        if char == "\n":
            line += 1
            position += 1
            continue
        if char in " \t\r":
            position += 1
            continue
        if source.startswith("//", position):
            end = source.find("\n", position)
            position = length if end < 0 else end
            continue
        if source.startswith("/*", position):
            end = source.find("*/", position + 2)
            if end < 0:
                raise LexerError("unterminated block comment", line)
            line += source.count("\n", position, end)
            position = end + 2
            continue
        if char.isdigit() or (char == "." and position + 1 < length
                              and source[position + 1].isdigit()):
            start = position
            is_float = False
            if source.startswith(("0x", "0X"), position):
                position += 2
                while (position < length
                       and source[position] in "0123456789abcdefABCDEF"):
                    position += 1
            else:
                while position < length and (source[position].isdigit()
                                             or source[position] in ".eE+-"):
                    current = source[position]
                    if current in "+-" and source[position - 1] not in "eE":
                        break
                    if current in ".eE":
                        is_float = True
                    position += 1
            tokens.append(("float" if is_float else "int",
                           source[start:position], line))
            continue
        if char.isalpha() or char == "_":
            start = position
            while position < length and (source[position].isalnum()
                                         or source[position] == "_"):
                position += 1
            text = source[start:position]
            tokens.append(("keyword" if text in KEYWORDS else "ident",
                           text, line))
            continue
        for operator in OPERATORS:
            if source.startswith(operator, position):
                tokens.append(("op", operator, line))
                position += len(operator)
                break
        else:
            raise LexerError(f"unexpected character {char!r}", line)
    tokens.append(("eof", "", line))
    return tokens


def outcome(lex, source: str):
    """The token triples, or the error's message and line."""
    try:
        return [tuple(token) for token in lex(source)]
    except LexerError as exc:
        return ("LexerError", str(exc), exc.line)


def assert_same(source: str) -> None:
    assert outcome(tokenize, source) == outcome(oracle_tokenize, source)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_app_source_lexes_as_the_oracle_does(suite):
    for app in suite_apps(suite).values():
        source = app.source()
        assert outcome(tokenize, source)[-1][0] == "eof"
        assert_same(source)


def test_every_string_in_the_tests_lexes_as_the_oracle_does():
    strings = {node.value
               for path in sorted(TESTS_DIR.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str)}
    assert len(strings) > 500
    for source in sorted(strings):
        assert_same(source)


EDGES = [
    "",
    "int x; /* never closed\n\n",
    "int x;\n\n  /*/ still open",
    "a = b @ c;",
    "\n\n`",
    "x = 1.;\ny = .5;",
    "z = ..5;",
    "0x1F 0X 0xg 00x1 0e5 1e-5 1E+5 1e+-5 1.2.3e4e5 7-3 1e5-2",
    "x=1..2; y = 3 .4;",
    "int café = 1; float π = 2.0; 变量 = Ωmega_2;",
    "a² = ²3 + 1²e²;\n b = 2²;",
    "٣٤ + ٣.٥ + .٣ + x٣",
    "一二 = 2; ①② = 3; x① = ①x;",
    "x½ = 1;",
    "y = ½;",
    "ⅫⅪ = 1;",
    "int_ float2 returned if_else while(1){break;continue;}",
    "a<<=b>>=c==d!=e<=f>=g&&h||i<<j>>k+=l-=m*=n/=o%=p",
    "// only a comment",
    "x /* one */ /* two\nthree */ y // tail\nz",
    "\t\r\n \f",
    "x\vy",
    "a b",
]


@pytest.mark.parametrize("source", EDGES)
def test_edge_cases_lex_as_the_oracle_does(source):
    assert_same(source)


def test_errors_keep_their_messages_and_lines():
    with pytest.raises(LexerError, match="line 2: unterminated block"):
        tokenize("int x;\n/* open\n\n")
    with pytest.raises(LexerError, match="line 3: unexpected character '@'"):
        tokenize("int x;\n\nx = @;")
