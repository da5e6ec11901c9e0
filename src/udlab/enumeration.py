"""Canonical enumeration of the program set and its Kraft masses.

The canonical order is length first, then lexicographic on bits.  The
programs are generated straight from the code grammar

    Block(t) = Instr* t        (t is END, or WEND inside a loop)
    Instr    = HALT | DVT | INC r | DEC r | OUT r | IN r
             | WHILE r Block(WEND) | EXEC Block(END)

so the work is proportional to the output rather than to the 2**n candidate
strings of each length.  Every generated string still goes through the
strict decoder, which remains the single source of truth for what a string
means.  Streams cache per encoding variant and extend lazily, so the n-th
program is available without choosing a length bound up front.
"""

from __future__ import annotations

from bisect import bisect_right

from .encoding import (
    DEC,
    DVT,
    END,
    EXEC,
    HALT,
    IN,
    INC,
    MIN_PROGRAM_BITS,
    OPCODE_BITS,
    OUT,
    REGISTER_BITS,
    WEND,
    WHILE,
    EncodingTable,
    Program,
    TABLE_A,
    decode,
)

# A Program holds its bits, instruction tuples and nested EXEC programs, about
# 600 B each.  Generation is proportional to its output, so an oversized
# request would not hang but exhaust memory.  This limit admits every length
# up to 31 bits (454,169 programs, a few hundred MB) and refuses 32 bits
# (1,484,319 programs) and beyond with a ValueError before generating any.
MAX_PROGRAMS = 2**20

_REGISTER_OPERANDS = tuple(format(r, f"0{REGISTER_BITS}b") for r in range(2**REGISTER_BITS))
_OPERAND_OPS = (INC, DEC, OUT, IN)


def block_counts(max_len: int) -> list[int]:
    """counts[n] is the number of n-bit Block(t) strings, for n <= max_len.

    The count is the same for both terminators and both encoding tables: a
    table only permutes codes between names.  Top-level programs are the
    Block(END) strings, so counts[n] is also the number of n-bit programs.
    """
    counts = [0] * (max_len + 1)
    instrs = [0] * (max_len + 1)  # single instructions of exactly n bits
    for n in range(OPCODE_BITS, max_len + 1):
        if n == OPCODE_BITS:
            instrs[n] = 2  # HALT, DVT
        elif n == OPCODE_BITS + REGISTER_BITS:
            instrs[n] = len(_OPERAND_OPS) * len(_REGISTER_OPERANDS)
        else:
            instrs[n] = counts[n - OPCODE_BITS]  # EXEC Block(END)
            if n > OPCODE_BITS + REGISTER_BITS:  # WHILE r Block(WEND)
                instrs[n] += len(_REGISTER_OPERANDS) * counts[n - OPCODE_BITS - REGISTER_BITS]
        counts[n] = int(n == OPCODE_BITS) + sum(
            instrs[head] * counts[n - head] for head in range(OPCODE_BITS, n - OPCODE_BITS + 1)
        )
    return counts


class ProgramStream:
    """Lazily extended canonical enumeration for one encoding variant."""

    def __init__(self, table: EncodingTable) -> None:
        self.table = table
        self._programs: list[Program] = []
        self._lengths: list[int] = []
        self._generated_to = 0  # every length <= this has been generated
        self._blocks: dict[tuple[int, str], list[str]] = {}

    def _instructions(self, n: int) -> list[str]:
        """Every single instruction of exactly n bits."""
        code = self.table.code_by_name
        if n == OPCODE_BITS:
            return [code[HALT], code[DVT]]
        if n == OPCODE_BITS + REGISTER_BITS:
            return [code[op] + r for op in _OPERAND_OPS for r in _REGISTER_OPERANDS]
        loops = [
            code[WHILE] + r + body
            for r in _REGISTER_OPERANDS
            for body in self._block(n - OPCODE_BITS - REGISTER_BITS, WEND)
        ]
        return loops + [code[EXEC] + body for body in self._block(n - OPCODE_BITS, END)]

    def _block(self, n: int, terminator: str) -> list[str]:
        """Every n-bit string of Block(terminator), memoised."""
        found = self._blocks.get((n, terminator))
        if found is None:
            found = [self.table.code_by_name[terminator]] if n == OPCODE_BITS else []
            for head in range(OPCODE_BITS, n - OPCODE_BITS + 1):
                tails = self._block(n - head, terminator)
                if tails:
                    found.extend(h + t for h in self._instructions(head) for t in tails)
            self._blocks[(n, terminator)] = found
        return found

    def _extend_to_length(self, max_len: int) -> None:
        if max_len <= self._generated_to:
            return
        total = sum(block_counts(max_len))
        if total > MAX_PROGRAMS:
            raise ValueError(
                f"max_len {max_len} covers {total} programs, more than the "
                f"{MAX_PROGRAMS} that enumeration holds in memory"
            )
        for length in range(max(self._generated_to + 1, MIN_PROGRAM_BITS), max_len + 1):
            for bits in sorted(self._block(length, END)):
                self._programs.append(decode(bits, self.table))
                self._lengths.append(length)
        self._generated_to = max_len

    def up_to_length(self, max_len: int) -> list[Program]:
        if max_len < MIN_PROGRAM_BITS:
            raise ValueError(f"max_len must be >= {MIN_PROGRAM_BITS}")
        self._extend_to_length(max_len)
        return self._programs[: bisect_right(self._lengths, max_len)]

    def nth(self, n: int) -> Program:
        if n < 1:
            raise ValueError("program index is 1-based and must be >= 1")
        while len(self._programs) < n:
            self._extend_to_length(self._generated_to + 1)
        return self._programs[n - 1]


_STREAMS: dict[str, ProgramStream] = {}


def program_stream(table: EncodingTable = TABLE_A) -> ProgramStream:
    """The shared enumeration stream for an encoding variant."""
    stream = _STREAMS.get(table.variant_id)
    if stream is None:
        stream = _STREAMS[table.variant_id] = ProgramStream(table)
    return stream


def enumerate_programs(max_len: int, table: EncodingTable = TABLE_A) -> list[Program]:
    """All valid programs with length <= max_len, in canonical order."""
    return program_stream(table).up_to_length(max_len)


def nth_program(n: int, table: EncodingTable = TABLE_A) -> Program:
    """The n-th program (1-based) in canonical order."""
    return program_stream(table).nth(n)


def kraft_mass(max_len: int, table: EncodingTable = TABLE_A) -> Fraction:
    """Exact total weight of the programs up to max_len: sum of 2**-length.

    Computed from the grammar counts, so it needs no enumeration and is the
    same under every encoding table.
    """
    from fractions import Fraction  # loaded only by the commands that make one

    if max_len < MIN_PROGRAM_BITS:
        raise ValueError(f"max_len must be >= {MIN_PROGRAM_BITS}")
    return sum(
        (Fraction(count, 2**n) for n, count in enumerate(block_counts(max_len))), Fraction(0)
    )
