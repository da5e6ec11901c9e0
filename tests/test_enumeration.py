from fractions import Fraction

import pytest

from census import scan_length
from udlab.encoding import MIN_PROGRAM_BITS, TABLE_A, TABLE_B, decode
from udlab import enumeration
from udlab.enumeration import (
    MAX_LEN,
    MAX_PROGRAMS,
    ProgramStream,
    block_counts,
    enumerate_programs,
    kraft_mass,
    program_stream,
)

# New programs per exact length, counted by hand from the grammar:
#   4: END alone (the empty program).
#   8: one 4-bit instruction (HALT or DVT) + END.
#  10: one register instruction (INC/DEC/OUT/IN x r0..r3) + END.
#  12: two 4-bit instructions (2x2), or EXEC of the empty program.
#  14: a register instruction and a 4-bit one in either order (16*2*2),
#      or WHILE r with an empty body (WHILE+WEND, 4 choices).
NEW_BY_LENGTH = {4: 1, 8: 2, 10: 16, 12: 5, 14: 68}


def test_programs_up_to_4():
    assert [p.bits for p in enumerate_programs(4)] == ["1111"]


def test_programs_up_to_8():
    assert [p.bits for p in enumerate_programs(8)] == ["1111", "00001111", "10001111"]


def test_program_count_up_to_10():
    assert len(enumerate_programs(10)) == 19


def test_census_matches_hand_count():
    programs = enumerate_programs(14)
    by_length: dict[int, int] = {}
    for program in programs:
        by_length[program.length] = by_length.get(program.length, 0) + 1
    assert by_length == NEW_BY_LENGTH


def test_canonical_order_and_uniqueness():
    programs = enumerate_programs(14)
    keys = [(p.length, p.bits) for p in programs]
    assert keys == sorted(keys)
    assert len(set(p.bits for p in programs)) == len(programs)


def test_nth_program_consistent_with_enumeration():
    programs = enumerate_programs(12)
    for i, program in enumerate(programs, start=1):
        assert program_stream().nth(i).bits == program.bits


def test_nth_program_first_three():
    assert program_stream().nth(1).bits == "1111"
    assert program_stream().nth(2).bits == "00001111"
    assert program_stream().nth(3).bits == "10001111"


def test_nth_program_extends_lazily():
    assert program_stream().nth(50).length >= 14


def test_kraft_values():
    assert kraft_mass(4) == Fraction(1, 16)
    assert kraft_mass(8) == Fraction(9, 128)
    assert kraft_mass(10) == Fraction(11, 128)


def test_kraft_monotone_and_bounded():
    previous = Fraction(0)
    for max_len in (*range(4, 17), 40, 60):
        mass = kraft_mass(max_len)
        assert previous <= mass <= 1
        previous = mass


def test_kraft_mass_equals_the_per_length_fraction_sum():
    # kraft_mass sums the counts as integers in units of 2**-L and reduces
    # one Fraction; a Fraction per length, summed, is the same value.
    counts = block_counts(300)
    per_length = Fraction(0)
    for n, count in enumerate(counts):
        per_length += Fraction(count, 2**n)
        if n >= 4:
            assert kraft_mass(n) == per_length, n


def test_count_growth_monotone():
    previous = 0
    for max_len in range(4, 17):
        count = len(enumerate_programs(max_len))
        assert count >= previous
        previous = count


def test_prefix_freeness_up_to_12():
    bits = [p.bits for p in enumerate_programs(12)]
    valid = set(bits)
    for b in bits:
        for cut in range(4, len(b)):
            assert b[:cut] not in valid


def test_validation():
    with pytest.raises(ValueError):
        enumerate_programs(3)
    with pytest.raises(ValueError):
        program_stream().nth(0)


def test_encoding_b_same_bits_different_meaning():
    # The permutation swaps opcodes within syntactic classes (HALT/DVT carry
    # no operand, INC/OUT a register), so exactly the same strings are valid;
    # what changes is what they decode to.
    a = enumerate_programs(12)
    b = enumerate_programs(12, TABLE_B)
    assert [p.bits for p in b] == [p.bits for p in a]
    assert a[1].instructions == (("HALT",),)
    assert b[1].instructions == (("DVT",),)
    assert a[2].instructions == (("DVT",),)
    assert b[2].instructions == (("HALT",),)


@pytest.mark.parametrize("table", [TABLE_A, TABLE_B])
def test_grammar_counts_match_enumeration(table):
    counts = block_counts(20)
    for max_len in range(4, 21):
        programs = enumerate_programs(max_len, table)
        assert sum(counts[: max_len + 1]) == len(programs)
        enumerated = sum((Fraction(1, 2**p.length) for p in programs), Fraction(0))
        assert kraft_mass(max_len) == enumerated


def test_grammar_counts_at_the_size_limit():
    assert sum(block_counts(20)) == 2396
    assert sum(block_counts(30)) == 454_169
    assert sum(block_counts(MAX_LEN)) <= MAX_PROGRAMS < sum(block_counts(MAX_LEN + 1)) == 1_484_319


def test_oversized_enumeration_is_refused_up_front(monkeypatch):
    # Totals only grow with the length, so a bound past MAX_LEN is refused
    # from the count at MAX_LEN + 1; counting to L itself is a big-integer
    # DP that grows faster than L squared.
    asked = []

    def counted_block_counts(max_len):
        asked.append(max_len)
        return block_counts(max_len)

    monkeypatch.setattr(enumeration, "block_counts", counted_block_counts)
    stream = ProgramStream(TABLE_A)
    for max_len in (MAX_LEN + 1, 40, 1000):
        with pytest.raises(ValueError, match=f"max_len {max_len} covers at least 1484319 "):
            stream.up_to_length(max_len)
    assert asked and max(asked) == MAX_LEN + 1
    assert stream.up_to_length(8)[-1].bits == "10001111"


@pytest.mark.parametrize("table", [TABLE_A, TABLE_B])
def test_grammar_enumeration_is_decode_census(table):
    programs = enumerate_programs(16, table)
    for length in range(1, 17):
        generated = [p.bits for p in programs if p.length == length]
        assert generated == scan_length(length, table), f"length {length}"


def test_pure_scan_is_decode_census():
    # Spot-check the oracle itself against structural facts.
    assert scan_length(4, TABLE_A) == ["1111"]
    assert scan_length(5, TABLE_A) == []
    assert scan_length(8, TABLE_A) == ["00001111", "10001111"]


def _exec_operands(instructions):
    """Every embedded EXEC program, inside loop bodies and other EXECs too."""
    for instr in instructions:
        if instr[0] == "EXEC":
            yield instr[1]
            yield from _exec_operands(instr[1].instructions)


@pytest.mark.parametrize("table", [TABLE_A, TABLE_B])
def test_generated_programs_are_what_decode_makes_of_their_bits(table):
    # The grammar builds each Program without parsing its bits; decode is
    # the oracle, down to the nested EXEC programs and the encoding object.
    nested = 0
    for program in enumerate_programs(18, table):
        assert program == decode(program.bits, table), program.bits
        assert program.encoding is table
        for operand in _exec_operands(program.instructions):
            assert operand == decode(operand.bits, table), (program.bits, operand.bits)
            assert operand.encoding is table
            nested += 1
    assert nested > 0


@pytest.mark.parametrize("table", [TABLE_A, TABLE_B])
def test_nth_on_both_sides_of_each_length_boundary(table):
    # A fresh stream extends one length at a time: the last program of each
    # length and the first of the next must be the ones decode gives.
    bits = [p.bits for p in enumerate_programs(20, table)]
    stream = ProgramStream(table)
    total = 0
    for count in block_counts(18)[MIN_PROGRAM_BITS:]:
        if count:
            total += count
            for n in (total, total + 1):
                assert stream.nth(n) == decode(bits[n - 1], table), n
