"""Programs built from instruction lists, for the tests.

The package reads programs from bits alone (decode) or generates them from
the grammar; these builders let a test write a program as instructions and
get the Program that decode makes of its bits.  A test may write a loop
nested, as ("WHILE", r, body), or read a Program's flat code back, where
("WHILE", r, n) opens the loop and ("WEND", r, -n) closes it.
"""

from udlab.encoding import DEC, END, EXEC, IN, INC, OUT, TABLE_A, WEND, WHILE, Program, decode


def encode_instructions(instructions, table=TABLE_A) -> str:
    """Inverse of decode: emit the exact bits for an instruction list, flat
    or with nested loop bodies.  An EXEC operand may be a Program, written as
    its bits, or an instruction list of its own."""
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
                if not isinstance(instr[2], int):  # a nested body; flat code has its WEND
                    emit(instr[2])
                    parts.append(code[WEND])
            elif op == EXEC:
                sub = instr[1]
                if isinstance(sub, Program):
                    parts.append(sub.bits)
                else:
                    emit(sub)
                    parts.append(code[END])

    emit(instructions)
    parts.append(code[END])
    return "".join(parts)


def from_instructions(instructions, table=TABLE_A) -> Program:
    """Build a Program from an instruction list, as encode_instructions reads
    it; the bits are re-decoded, so all invariants hold by construction."""
    return decode(encode_instructions(instructions, table), table)


# Hosts whose DVT fires below the top level or late: inside an EXEC, inside
# an EXEC of an EXEC, inside a loop body, and after an IN, where the tape
# decides when the DVT fires or whether the run halts first.  The last two
# are the plain dovetailer and an EXEC of 1111, whose first step shows the
# same event as the dovetailer's first tick.
DOVETAILING_HOSTS = (
    [("EXEC", [("DVT",)])],
    [("INC", 1), ("EXEC", [("INC", 0), ("EXEC", [("OUT", 0), ("DVT",)])])],
    [("INC", 0), ("WHILE", 0, [("OUT", 0), ("DVT",)])],
    [("IN", 0), ("OUT", 0), ("DVT",)],
    [("IN", 0), ("WHILE", 0, [("DEC", 0), ("INC", 1)]), ("EXEC", [("DVT",)])],
    [("IN", 0), ("WHILE", 0, [("EXEC", [("IN", 1), ("DVT",)])])],
    [("DVT",)],
    [("EXEC", []), ("INC", 0)],
)
