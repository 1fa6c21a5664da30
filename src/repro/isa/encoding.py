"""Bit-level value encodings used by the soft-error model.

The paper's error model flips a single bit in the *result* of a dynamic
instruction.  Integer results are interpreted as 32-bit two's complement
words (matching the MIPS target of the original study); floating point
results are interpreted as IEEE-754 double precision words.

These helpers convert between Python values and their bit patterns and apply
single-bit flips, keeping the rest of the library free of bit-twiddling.
"""

from __future__ import annotations

import struct

INT_BITS = 32
FLOAT_BITS = 64

_INT_MASK = (1 << INT_BITS) - 1
_INT_SIGN = 1 << (INT_BITS - 1)


def wrap_int(value: int) -> int:
    """Wrap an arbitrary Python int to signed 32-bit two's complement."""
    value &= _INT_MASK
    if value & _INT_SIGN:
        value -= 1 << INT_BITS
    return value


def int_to_bits(value: int) -> int:
    """Return the unsigned 32-bit pattern of a signed integer value."""
    return value & _INT_MASK


def bits_to_int(bits: int) -> int:
    """Interpret an unsigned 32-bit pattern as a signed integer value."""
    return wrap_int(bits)


def flip_int_bit(value: int, bit: int) -> int:
    """Flip bit ``bit`` (0 = LSB) of the 32-bit encoding of ``value``."""
    if not 0 <= bit < INT_BITS:
        raise ValueError(f"bit index out of range for int: {bit}")
    return bits_to_int(int_to_bits(value) ^ (1 << bit))


def float_to_bits(value: float) -> int:
    """Return the unsigned 64-bit IEEE-754 pattern of ``value``."""
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_to_float(bits: int) -> float:
    """Interpret an unsigned 64-bit pattern as an IEEE-754 double."""
    return struct.unpack("<d", struct.pack("<Q", bits & ((1 << FLOAT_BITS) - 1)))[0]


def flip_float_bit(value: float, bit: int) -> float:
    """Flip bit ``bit`` (0 = LSB of mantissa) of the IEEE-754 encoding."""
    if not 0 <= bit < FLOAT_BITS:
        raise ValueError(f"bit index out of range for float: {bit}")
    flipped = bits_to_float(float_to_bits(value) ^ (1 << bit))
    # NaN / infinity are legal outcomes of a bit flip; the application sees
    # whatever the hardware would have produced.
    return flipped

