import pytest
from hypothesis import given
from hypothesis import strategies as st

from builders import encode_instructions, from_instructions
from udlab.encoding import (
    DecodeError,
    EncodingTable,
    TABLE_A,
    TABLE_B,
    TrailingBits,
    Truncated,
    UnbalancedLoop,
    UnknownOpcode,
    decode,
    get_table,
)
from udlab.enumeration import enumerate_programs


def test_empty_program():
    program = decode("1111")
    assert program.instructions == ()
    assert program.length == 4
    assert not program.contains_meta


def test_single_inc():
    program = decode("0001001111")
    assert program.instructions == (("INC", 0),)
    assert program.length == 10


def test_while_closed_by_end_is_unbalanced():
    with pytest.raises(UnbalancedLoop):
        decode("0101001111")


def test_exec_of_empty_program():
    program = decode("011111111111")
    assert program.length == 12
    assert program.contains_meta
    (instr,) = program.instructions
    assert instr[0] == "EXEC"
    assert instr[1].bits == "1111"
    assert instr[1].instructions == ()


def test_wend_without_while():
    with pytest.raises(UnbalancedLoop):
        decode("01101111")


@pytest.mark.parametrize("code", ["1001", "1010", "1011", "1100", "1101", "1110"])
def test_unknown_opcodes(code):
    with pytest.raises(UnknownOpcode):
        decode(code + "1111")


def test_trailing_bits():
    with pytest.raises(TrailingBits):
        decode("11110")
    with pytest.raises(TrailingBits):
        decode("11111111")


def test_truncated():
    with pytest.raises(Truncated):
        decode("000")
    with pytest.raises(Truncated):
        decode("0001")  # INC missing its register bits
    with pytest.raises(Truncated):
        decode("00001")  # HALT then a partial opcode
    with pytest.raises(Truncated):
        decode("010100")  # WHILE r0 with nothing after


def test_rejects_non_bits():
    with pytest.raises(DecodeError):
        decode("")
    with pytest.raises(DecodeError):
        decode("01x1")


def test_nested_structures_round_trip():
    program = from_instructions(
        [
            ("IN", 2),
            ("WHILE", 2, (("DEC", 2), ("WHILE", 0, ()), ("OUT", 2))),
            ("EXEC", (("INC", 1),)),
            ("HALT",),
        ]
    )
    assert decode(program.bits).instructions == program.instructions
    assert encode_instructions(program.instructions) == program.bits
    assert program.contains_meta


def test_nested_loops_decode_to_relative_jumps():
    # A loop is laid out as ("WHILE", r, n), its body, ("WEND", r, -n), with
    # n = len(body) + 1: WHILE jumps just past its WEND, WEND back to the
    # body's first instruction.  An EXEC in a body is one instruction.
    program = from_instructions(
        [
            ("IN", 2),
            ("WHILE", 2, (("DEC", 2), ("WHILE", 0, ()), ("EXEC", (("INC", 1),)), ("OUT", 2))),
            ("HALT",),
        ]
    )
    assert decode(program.bits).instructions == (
        ("IN", 2),
        ("WHILE", 2, 6),
        ("DEC", 2),
        ("WHILE", 0, 1),
        ("WEND", 0, -1),
        ("EXEC", decode("0001011111")),
        ("OUT", 2),
        ("WEND", 2, -6),
        ("HALT",),
    )


def test_dvt_inside_a_loop_body_is_meta():
    assert from_instructions([("INC", 0), ("WHILE", 0, (("DEC", 0), ("DVT",)))]).contains_meta
    assert not from_instructions([("INC", 0), ("WHILE", 0, (("DEC", 0),))]).contains_meta


def test_encode_reads_flat_code_and_writes_an_exec_program_as_its_bits():
    child = decode("0001011111")  # INC r1
    flat = (("INC", 0), ("WHILE", 0, 3), ("DEC", 0), ("EXEC", child), ("WEND", 0, -3))
    bits = encode_instructions(flat)
    assert bits == "000100" + "010100" + "001000" + "0111" + child.bits + "0110" + "1111"
    assert decode(bits).instructions == flat


def test_round_trip_on_every_enumerated_program():
    for program in enumerate_programs(14):
        assert encode_instructions(program.instructions, TABLE_A) == program.bits


def test_encoding_b_permutation():
    # HALT and DVT swap; INC and OUT swap; the rest is unchanged.
    assert TABLE_B.name_by_code["0000"] == "DVT"
    assert TABLE_B.name_by_code["1000"] == "HALT"
    assert TABLE_B.name_by_code["0001"] == "OUT"
    assert TABLE_B.name_by_code["0011"] == "INC"
    assert TABLE_B.name_by_code["1111"] == "END"
    assert decode("0001001111", TABLE_B).instructions == (("OUT", 0),)
    # Same structural language, so the census per length is identical.
    for max_len in (4, 8, 10, 12):
        assert len(enumerate_programs(max_len, TABLE_B)) == len(enumerate_programs(max_len, TABLE_A))


def test_get_table():
    assert get_table("A") is TABLE_A
    assert get_table("B") is TABLE_B
    # Only these two tables are ever built, so a table's identity is its
    # value: a program, and each program it embeds, holds the table itself.
    program = from_instructions([("EXEC", [("INC", 0)])], TABLE_B)
    assert decode(program.bits, TABLE_B).encoding is TABLE_B
    assert program.instructions[0][1].encoding is TABLE_B
    assert "__eq__" not in vars(EncodingTable) and "__hash__" not in vars(EncodingTable)
    with pytest.raises(ValueError):
        get_table("C")


def test_programs_under_different_encodings_differ():
    assert decode("1111", TABLE_A) != decode("1111", TABLE_B)


_REGISTERS = st.integers(0, 3)


@st.composite
def instruction_lists(draw, depth=0):
    n = draw(st.integers(0, 3))
    items = []
    for _ in range(n):
        kind = draw(st.integers(0, 7 if depth < 2 else 5))
        if kind == 0:
            items.append(("HALT",))
        elif kind == 1:
            items.append(("INC", draw(_REGISTERS)))
        elif kind == 2:
            items.append(("DEC", draw(_REGISTERS)))
        elif kind == 3:
            items.append(("OUT", draw(_REGISTERS)))
        elif kind == 4:
            items.append(("IN", draw(_REGISTERS)))
        elif kind == 5:
            items.append(("DVT",))
        elif kind == 6:
            items.append(("WHILE", draw(_REGISTERS), tuple(draw(instruction_lists(depth + 1)))))
        else:
            items.append(("EXEC", tuple(draw(instruction_lists(depth + 1)))))
    return tuple(items)


@given(instruction_lists())
def test_round_trip_random_trees(instructions):
    program = from_instructions(instructions)
    assert decode(program.bits).instructions == program.instructions
    assert encode_instructions(program.instructions) == program.bits


@given(st.text(alphabet="01", min_size=1, max_size=24))
def test_decode_total_over_bit_strings(bits):
    # Either a clean Program or a DecodeError; nothing else may escape.
    try:
        program = decode(bits)
    except DecodeError:
        return
    assert program.bits == bits
    assert encode_instructions(program.instructions) == bits
