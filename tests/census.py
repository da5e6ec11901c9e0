"""Brute-force decode census: the oracle the grammar enumeration is checked
against.  It literally attempts a full decode of every candidate bit string,
so validity is decided by the strict decoder alone."""

from udlab.encoding import DecodeError, EncodingTable, decode


def scan_length(length: int, table: EncodingTable) -> list[str]:
    """All valid programs of exactly `length` bits, in lexicographic order."""
    found = []
    for value in range(1 << length):
        bits = format(value, f"0{length}b")
        try:
            decode(bits, table)
        except DecodeError:
            continue
        found.append(bits)
    return found
