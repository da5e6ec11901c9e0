"""Bit-exact program encoding for the reference machine.

Every program is a self-delimiting string of "0"/"1" characters: a sequence
of instructions terminated by a single top-level END marker.  Opcodes are 4
bits wide, register operands 2 bits wide (registers r0..r3).  Loop bodies are
structured blocks (WHILE ... WEND), which is what makes the code prefix-free:
decoding is a single deterministic left-to-right pass that either consumes the
whole string or fails, so no valid program can be a proper prefix of another.

Opcode table, encoding "A" (the default):

    0000  HALT            0101+rr  WHILE r
    0001+rr  INC r        0110     WEND
    0010+rr  DEC r        0111     EXEC  (followed by an embedded program)
    0011+rr  OUT r        1000     DVT
    0100+rr  IN r         1111     END

Codes 1001..1110 are invalid.  Encoding "B" keeps the same semantics and
permutes four opcodes (HALT with DVT, INC with OUT); it exists so that
measure experiments can be repeated under a second, equally valid encoding.
"""

from __future__ import annotations

from typing import NamedTuple

OPCODE_BITS = 4
REGISTER_BITS = 2
MIN_PROGRAM_BITS = 4  # a lone END

HALT = "HALT"
INC = "INC"
DEC = "DEC"
OUT = "OUT"
IN = "IN"
WHILE = "WHILE"
WEND = "WEND"
EXEC = "EXEC"
DVT = "DVT"
END = "END"

_ASSIGNMENT_A = {
    "0000": HALT,
    "0001": INC,
    "0010": DEC,
    "0011": OUT,
    "0100": IN,
    "0101": WHILE,
    "0110": WEND,
    "0111": EXEC,
    "1000": DVT,
    "1111": END,
}

# Variant "B": HALT and DVT swap codes, as do INC and OUT.
_ASSIGNMENT_B = dict(_ASSIGNMENT_A)
_ASSIGNMENT_B["0000"] = DVT
_ASSIGNMENT_B["1000"] = HALT
_ASSIGNMENT_B["0001"] = OUT
_ASSIGNMENT_B["0011"] = INC


class DecodeError(ValueError):
    """A bit sequence does not decode to a valid self-delimiting program."""


class UnknownOpcode(DecodeError):
    """Opcode in the invalid range 1001..1110."""


class UnbalancedLoop(DecodeError):
    """WEND without an open WHILE, or a WHILE closed by END instead of WEND."""


class TrailingBits(DecodeError):
    """Decoding finished at the top-level END before consuming the input."""


class Truncated(DecodeError):
    """The input ended in the middle of an instruction or an open block."""


class EncodingTable:
    """One concrete opcode assignment (variant "A" or "B")."""

    __slots__ = ("variant_id", "name_by_code", "code_by_name")

    def __init__(self, variant_id: str, assignment: dict[str, str]) -> None:
        self.variant_id = variant_id
        self.name_by_code = dict(assignment)
        self.code_by_name = {name: code for code, name in assignment.items()}

    def __repr__(self) -> str:
        return f"EncodingTable({self.variant_id!r})"


TABLE_A = EncodingTable("A", _ASSIGNMENT_A)
TABLE_B = EncodingTable("B", _ASSIGNMENT_B)

_TABLES = {"A": TABLE_A, "B": TABLE_B}


def get_table(variant_id: str) -> EncodingTable:
    try:
        return _TABLES[variant_id]
    except KeyError:
        raise ValueError(f"unknown encoding variant {variant_id!r} (expected 'A' or 'B')") from None


class Program(NamedTuple):
    """A decoded program: its exact bits plus the structured instruction list.

    Instructions are plain tuples: ("HALT",), ("DVT",), ("INC", r), ("DEC", r),
    ("OUT", r), ("IN", r), ("WHILE", r, body) with body a tuple of
    instructions, and ("EXEC", Program) with a fully decoded embedded program.
    The terminating END is implicit.
    """

    bits: str
    instructions: tuple
    encoding: EncodingTable

    @property
    def length(self) -> int:
        return len(self.bits)

    @property
    def contains_meta(self) -> bool:
        """Whether any instruction, loop bodies included, is an EXEC or a DVT."""
        return _has_meta(self.instructions)

    def __repr__(self) -> str:
        return f"Program({self.bits!r}, encoding={self.encoding.variant_id!r})"


def _take(bits: str, pos: int, n: int) -> tuple[str, int]:
    if pos + n > len(bits):
        raise Truncated(f"input ends mid-instruction at bit {pos}")
    return bits[pos : pos + n], pos + n


def _parse_until(bits: str, pos: int, table: EncodingTable, terminator: str) -> tuple[tuple, int]:
    """Parse instructions until `terminator` (END or WEND) is consumed."""
    items: list[tuple] = []
    while True:
        code, pos = _take(bits, pos, OPCODE_BITS)
        name = table.name_by_code.get(code)
        if name is None:
            raise UnknownOpcode(f"opcode {code} at bit {pos - OPCODE_BITS} is invalid")
        if name == END:
            if terminator == END:
                return tuple(items), pos
            raise UnbalancedLoop(f"END at bit {pos - OPCODE_BITS} closes an open WHILE")
        if name == WEND:
            if terminator == WEND:
                return tuple(items), pos
            raise UnbalancedLoop(f"WEND at bit {pos - OPCODE_BITS} has no matching WHILE")
        if name in (HALT, DVT):
            items.append((name,))
        elif name in (INC, DEC, OUT, IN):
            reg_bits, pos = _take(bits, pos, REGISTER_BITS)
            items.append((name, int(reg_bits, 2)))
        elif name == WHILE:
            reg_bits, pos = _take(bits, pos, REGISTER_BITS)
            body, pos = _parse_until(bits, pos, table, WEND)
            items.append((WHILE, int(reg_bits, 2), body))
        else:  # EXEC: an embedded self-delimiting program follows
            start = pos
            sub_instrs, pos = _parse_until(bits, pos, table, END)
            items.append((EXEC, Program(bits[start:pos], sub_instrs, table)))


def _has_meta(instructions: tuple) -> bool:
    for instr in instructions:
        op = instr[0]
        if op in (EXEC, DVT):
            return True
        if op == WHILE and _has_meta(instr[2]):
            return True
    return False


def decode(bits: str, table: EncodingTable = TABLE_A) -> Program:
    """Decode a bit string into a Program, consuming every bit.

    Raises UnknownOpcode, UnbalancedLoop, TrailingBits or Truncated (all
    subclasses of DecodeError) when the string is not a valid program.
    """
    if not bits or any(c not in "01" for c in bits):
        raise DecodeError("program bits must be a nonempty string of '0'/'1'")
    instructions, pos = _parse_until(bits, 0, table, END)
    if pos != len(bits):
        raise TrailingBits(f"{len(bits) - pos} bits left after the top-level END")
    return Program(bits, instructions, table)

