"""Programs built from instruction lists, for the tests.

The package reads programs from bits alone (decode) or generates them from
the grammar; these builders let a test write a program as instructions and
get the Program that decode makes of its bits.
"""

from udlab.encoding import DEC, END, EXEC, IN, INC, OUT, TABLE_A, WEND, WHILE, Program, decode


def encode_instructions(instructions, table=TABLE_A) -> str:
    """Inverse of decode: emit the exact bits for an instruction list.  An
    EXEC operand may be a Program or an instruction list of its own."""
    code = table.code_by_name
    parts: list[str] = []

    def emit(seq: tuple) -> None:
        for instr in seq:
            op = instr[0]
            parts.append(code[op])
            if op in (INC, DEC, OUT, IN):
                parts.append(format(instr[1], "02b"))
            elif op == WHILE:
                parts.append(format(instr[1], "02b"))
                emit(instr[2])
                parts.append(code[WEND])
            elif op == EXEC:
                sub = instr[1]
                emit(sub.instructions if isinstance(sub, Program) else sub)
                parts.append(code[END])

    emit(instructions)
    parts.append(code[END])
    return "".join(parts)


def from_instructions(instructions, table=TABLE_A) -> Program:
    """Build a Program from an instruction list, as encode_instructions reads
    it; the bits are re-decoded, so all invariants hold by construction."""
    return decode(encode_instructions(instructions, table), table)
