import pytest

from census import scan_length
from udlab.encoding import TABLE_A, TABLE_B
from udlab.enumeration import enumerate_programs


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
