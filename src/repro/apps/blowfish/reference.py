"""Pure-Python Blowfish reference implementation.

Used for two purposes:

* the application driver expands the key schedule here and hands the final
  P-array and S-boxes to the simulated program, so that the fault-injection
  run spends its time encrypting and decrypting data — on the paper's
  full-size input the key schedule is a negligible fraction of the 507M
  dynamic instructions, and pre-expanding keeps that balance at our reduced
  workload size;
* the unit tests use it as an oracle for the MiniC cipher.

The initial constants come from :func:`repro.apps.blowfish.app.initial_box_constants`
(the documented substitute for the hexadecimal digits of pi).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

MASK32 = 0xFFFFFFFF


def _unsigned(value: int) -> int:
    return value & MASK32


def _signed(value: int) -> int:
    value &= MASK32
    return value - (1 << 32) if value & 0x80000000 else value


class BlowfishReference:
    """Reference Blowfish cipher over 32-bit word pairs."""

    ROUNDS = 16

    def __init__(self, initial_p: Sequence[int], initial_s: Sequence[int],
                 key: Sequence[int]) -> None:
        if len(initial_p) != 18 or len(initial_s) != 1024:
            raise ValueError("Blowfish needs 18 P entries and 1024 S entries")
        self.p = [_unsigned(value) for value in initial_p]
        self.s = [_unsigned(value) for value in initial_s]
        self._expand_key(list(key))

    # ------------------------------------------------------------------
    # Key schedule.
    # ------------------------------------------------------------------
    def _expand_key(self, key: List[int]) -> None:
        position = 0
        for index in range(18):
            word = 0
            for _ in range(4):
                word = _unsigned((word << 8) | (key[position] & 0xFF))
                position = (position + 1) % len(key)
            self.p[index] ^= word
        left = right = 0
        for index in range(0, 18, 2):
            left, right = self.encrypt_block(left, right)
            self.p[index] = left
            self.p[index + 1] = right
        for index in range(0, 1024, 2):
            left, right = self.encrypt_block(left, right)
            self.s[index] = left
            self.s[index + 1] = right

    # ------------------------------------------------------------------
    # Core rounds.
    # ------------------------------------------------------------------
    def _feistel(self, value: int) -> int:
        a = (value >> 24) & 0xFF
        b = (value >> 16) & 0xFF
        c = (value >> 8) & 0xFF
        d = value & 0xFF
        result = _unsigned(self.s[a] + self.s[256 + b])
        result ^= self.s[512 + c]
        return _unsigned(result + self.s[768 + d])

    def encrypt_block(self, left: int, right: int) -> Tuple[int, int]:
        left, right = _unsigned(left), _unsigned(right)
        for round_index in range(self.ROUNDS):
            left ^= self.p[round_index]
            right ^= self._feistel(left)
            left, right = right, left
        left, right = right, left
        right ^= self.p[16]
        left ^= self.p[17]
        return left, right

    def decrypt_block(self, left: int, right: int) -> Tuple[int, int]:
        left, right = _unsigned(left), _unsigned(right)
        for round_index in range(17, 1, -1):
            left ^= self.p[round_index]
            right ^= self._feistel(left)
            left, right = right, left
        left, right = right, left
        right ^= self.p[1]
        left ^= self.p[0]
        return left, right

    # ------------------------------------------------------------------
    # Word-stream helpers (ECB, matching the MiniC program).
    # ------------------------------------------------------------------
    def expanded_p_signed(self) -> List[int]:
        return [_signed(value) for value in self.p]

    def expanded_s_signed(self) -> List[int]:
        return [_signed(value) for value in self.s]

    def encrypt_words(self, words: Sequence[int]) -> List[int]:
        output: List[int] = []
        for index in range(0, len(words), 2):
            left, right = self.encrypt_block(words[index], words[index + 1])
            output.extend([_signed(left), _signed(right)])
        return output
