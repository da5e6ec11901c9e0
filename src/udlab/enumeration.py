"""Canonical enumeration of the program set and its Kraft masses.

The canonical order is length first, then lexicographic on bits.  The
programs are generated straight from the code grammar

    Block(t) = Instr* t        (t is END, or WEND inside a loop)
    Instr    = HALT | DVT | INC r | DEC r | OUT r | IN r
             | WHILE r Block(WEND) | EXEC Block(END)

so the work is proportional to the output rather than to the 2**n candidate
strings of each length.  The grammar builds each program's bits and flat
code together, laying loops out through encoding.loop and sharing the code
and nested EXEC programs of common sub-blocks, so nothing is parsed again.
The strict decoder stays the route for bits from outside (a --program, a
recording) and is the enumeration's test oracle: the tests check every
generated program against decode, and the decode census in tests/census.py
against the generated strings.  Streams cache per encoding variant and
extend lazily, so the n-th program is available without choosing a length
bound up front.
"""

from __future__ import annotations

from operator import itemgetter

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
    loop,
)

# A Program holds its bits and flat code, sharing sub-blocks' tuples
# and nested EXEC programs with other programs: enumeration up to 30 bits
# holds about 160 MB, some 350 B a program.  Generation is proportional to its
# output, so an oversized request would not hang but exhaust memory.  MAX_LEN
# is the longest bound this limit admits (454,169 programs); a longer one, from
# 32 bits (1,484,319 programs) on, is refused before anything is generated.
MAX_PROGRAMS = 2**20
MAX_LEN = 31

# Counting needs no enumeration, but block_counts is a big-integer DP whose
# work grows about 8x per doubling of the bound: a Kraft mass at 2048 bits
# takes about half a second on a 2-core Xeon, at 4000 bits about 4 s, and at
# 100000 bits about a day.  A longer bound is refused before counting.
MAX_KRAFT_LEN = 2048

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
        self._generated_to = 0  # every length <= this has been generated
        # (bits, flat code) of every n-bit instruction and Block(t) string
        self._instrs: dict[int, list[tuple[str, tuple]]] = {}
        self._blocks: dict[tuple[int, str], list[tuple[str, tuple]]] = {}

    def _instructions(self, n: int) -> list[tuple[str, tuple]]:
        """Every single instruction of exactly n bits with its flat code, a
        whole loop's for WHILE; an EXEC's program is built once, memoised."""
        found = self._instrs.get(n)
        if found is not None:
            return found
        code = self.table.code_by_name
        if n == OPCODE_BITS:
            found = [(code[HALT], ((HALT,),)), (code[DVT], ((DVT,),))]
        elif n == OPCODE_BITS + REGISTER_BITS:
            found = [
                (code[op] + r, ((op, reg),))
                for op in _OPERAND_OPS
                for reg, r in enumerate(_REGISTER_OPERANDS)
            ]
        else:
            found = [
                (code[WHILE] + r + bits, loop(reg, body))
                for reg, r in enumerate(_REGISTER_OPERANDS)
                for bits, body in self._block(n - OPCODE_BITS - REGISTER_BITS, WEND)
            ]
            found += [
                (code[EXEC] + bits, ((EXEC, Program(bits, body, self.table)),))
                for bits, body in self._block(n - OPCODE_BITS, END)
            ]
        self._instrs[n] = found
        return found

    def _block(self, n: int, terminator: str) -> list[tuple[str, tuple]]:
        """Every n-bit string of Block(terminator) with its flat code, memoised."""
        found = self._blocks.get((n, terminator))
        if found is None:
            found = [(self.table.code_by_name[terminator], ())] if n == OPCODE_BITS else []
            for head in range(OPCODE_BITS, n - OPCODE_BITS + 1):
                tails = self._block(n - head, terminator)
                if tails:
                    found.extend(
                        (h + t, seq + rest)
                        for h, seq in self._instructions(head)
                        for t, rest in tails
                    )
            self._blocks[(n, terminator)] = found
        return found

    def _extend_to_length(self, max_len: int) -> None:
        if max_len <= self._generated_to:
            return
        if max_len > MAX_LEN:
            raise ValueError(
                f"max_len {max_len} covers at least {sum(block_counts(MAX_LEN + 1))} "
                f"programs, more than the {MAX_PROGRAMS} that enumeration holds in memory"
            )
        for length in range(max(self._generated_to + 1, MIN_PROGRAM_BITS), max_len + 1):
            self._programs.extend(
                Program(bits, instructions, self.table)
                for bits, instructions in sorted(self._block(length, END), key=itemgetter(0))
            )
        self._generated_to = max_len

    def up_to_length(self, max_len: int) -> list[Program]:
        if max_len < MIN_PROGRAM_BITS:
            raise ValueError(f"max_len must be >= {MIN_PROGRAM_BITS}")
        self._extend_to_length(max_len)
        return self._programs[: sum(block_counts(max_len))]

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


def kraft_mass(max_len: int) -> Fraction:
    """Exact total weight of the programs up to max_len: sum of 2**-length.

    Computed from the grammar counts, so it needs no enumeration and is the
    same under every encoding table.
    """
    from fractions import Fraction  # loaded only by the commands that make one

    if max_len < MIN_PROGRAM_BITS:
        raise ValueError(f"max_len must be >= {MIN_PROGRAM_BITS}")
    if max_len > MAX_KRAFT_LEN:
        raise ValueError(f"max_len {max_len} is above {MAX_KRAFT_LEN}, the longest bound counted")
    # Summed in units of 2**-max_len, so one Fraction reduces the total once.
    total = sum(count << (max_len - n) for n, count in enumerate(block_counts(max_len)))
    return Fraction(total, 2**max_len)
