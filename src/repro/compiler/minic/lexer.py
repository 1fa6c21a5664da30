"""Tokenizer for MiniC."""

from __future__ import annotations

import functools
import re
from typing import List, NamedTuple

KEYWORDS = {
    "int",
    "float",
    "void",
    "if",
    "else",
    "while",
    "for",
    "return",
    "break",
    "continue",
    "reliable",
    "tolerant",
}

# Multi-character operators must be matched before their prefixes.
OPERATORS = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ",", ";",
]


class LexerError(Exception):
    """Raised when the source contains characters that cannot be tokenised."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class Token(NamedTuple):
    kind: str      # "ident", "int", "float", "keyword", "op", "eof"
    text: str
    line: int

    @property
    def int_value(self) -> int:
        return int(self.text, 0)

    @property
    def float_value(self) -> float:
        return float(self.text)


@functools.lru_cache(maxsize=16)
def _token_pattern(odd_digits: str = "", odd_numerals: str = "") -> "re.Pattern":
    """The master regex, one named group per outcome of a token.

    Alternatives are tried in order, as the rules are: blanks and
    comments (``skip``), an unterminated ``/*`` (``open``), numbers,
    keywords, identifiers, operators longest first, and any other
    character (``bad``).  A number is a hex literal, or a greedy run of
    digits, ``.``, ``e`` and ``E`` (``+``/``-`` only right after an
    ``e``/``E``) starting at a digit or at a ``.`` before a digit; it is
    a float when that run holds a ``.``, ``e`` or ``E``.  Identifiers
    start at a letter or ``_`` and go on over letters, digits and ``_``.

    "Digit" and "letter" mean ``str.isdigit`` and ``str.isalpha``.  The
    regex's own ``\\d`` is ``str.isdecimal`` and ``\\w`` is ``str.isalnum``
    or ``_``, which agree with them on every character but two rare
    kinds: digits that are not decimal (``²``), passed as
    ``odd_digits``, and numerals that are neither digits nor letters
    (``½``), passed as ``odd_numerals``.
    """
    digit = rf"[\d{odd_digits}]"
    not_letter = rf"[\d{odd_digits}{odd_numerals}]"
    number_tail = rf"(?:{digit}|[.eE]|(?<=[eE])[+-])*"
    keywords = "|".join(sorted(KEYWORDS))
    operators = "|".join(map(re.escape, OPERATORS))
    return re.compile(
        rf"(?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)"
        rf"|(?P<open>/\*)"
        rf"|(?P<int>0[xX][0-9a-fA-F]*|{digit}+(?!{digit}|[.eE]))"
        rf"|(?P<float>(?:{digit}|\.{digit}){number_tail})"
        rf"|(?P<keyword>(?:{keywords})(?!\w))"
        rf"|(?P<ident>(?!{not_letter})[^\W]\w*)"
        rf"|(?P<op>{operators})"
        rf"|(?P<bad>.)",
        re.DOTALL)


def _pattern_for(source: str) -> "re.Pattern":
    if source.isascii():
        return _token_pattern()
    odd = sorted(char for char in set(source) if not char.isascii()
                 and char.isnumeric() and not char.isdecimal())
    return _token_pattern(
        re.escape("".join(char for char in odd if char.isdigit())),
        re.escape("".join(char for char in odd
                          if not char.isdigit() and not char.isalpha())))


def tokenize(source: str) -> List[Token]:
    """Tokenise MiniC source text."""
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    for match in _pattern_for(source).finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "skip":
            line += text.count("\n")
        elif kind == "open":
            raise LexerError("unterminated block comment", line)
        elif kind == "bad":
            raise LexerError(f"unexpected character {text!r}", line)
        else:
            append(Token(kind, text, line))
    tokens.append(Token("eof", "", line))
    return tokens
