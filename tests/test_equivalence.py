import hashlib
import json
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stepping import full_trace
from udlab.encoding import TABLE_A, TABLE_B, decode, from_instructions
from udlab.enumeration import enumerate_programs
from udlab import equivalence
from udlab.equivalence import (
    DEFAULT_UNIVERSE,
    ClassIndex,
    InputUniverse,
    counterfactually_equivalent,
    family_key,
    partition,
    refine,
    trace_family,
)
from udlab.machine import run_trace

A_PROG = from_instructions([("IN", 0), ("IN", 1), ("OUT", 0)])
B_PROG = from_instructions([("IN", 0), ("IN", 1), ("OUT", 1)])


def brute_force_partition(programs, universe, k):
    """Independent oracle: group by pairwise trace comparison only."""
    blocks: list[list] = []
    for program in programs:
        for block in blocks:
            if counterfactually_equivalent(program, block[0], universe, k):
                block.append(program)
                break
        else:
            blocks.append([program])
    return {frozenset(p.bits for p in block) for block in blocks}


def test_default_universe():
    assert DEFAULT_UNIVERSE.tapes == ((), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1))
    assert DEFAULT_UNIVERSE.universe_id == "default"


def test_universe_canonicalization():
    universe = InputUniverse.from_tapes([(1, 0), (), (1, 0), (0,)])
    assert universe.tapes == ((), (0,), (1, 0))
    assert universe.universe_id.startswith("sha256:")
    with pytest.raises(ValueError):
        InputUniverse.from_tapes([])
    with pytest.raises(ValueError):
        InputUniverse.from_tapes([(-1,)])
    with pytest.raises(ValueError):
        InputUniverse.from_tapes([(True,)])


def test_reflexive():
    program = decode("10001111")
    assert counterfactually_equivalent(program, program, DEFAULT_UNIVERSE, 4)


def test_empty_equals_halt():
    assert counterfactually_equivalent(decode("1111"), decode("00001111"), DEFAULT_UNIVERSE, 3)


def test_projection_pair_depends_on_universe():
    # Both programs pass through identical states whenever the two tape cells
    # agree, yet they differ as soon as some tape can tell them apart.
    assert not counterfactually_equivalent(A_PROG, B_PROG, DEFAULT_UNIVERSE, 3)
    agreeing = InputUniverse.from_tapes([(), (0, 0), (1, 1)])
    assert counterfactually_equivalent(A_PROG, B_PROG, agreeing, 3)


def test_state_identity_is_not_counterfactual_equivalence():
    tape = (1, 1)
    assert run_trace(A_PROG, tape, 3) == run_trace(B_PROG, tape, 3)
    assert not counterfactually_equivalent(A_PROG, B_PROG, DEFAULT_UNIVERSE, 3)


def test_k_validation():
    with pytest.raises(ValueError):
        counterfactually_equivalent(A_PROG, B_PROG, DEFAULT_UNIVERSE, 0)
    with pytest.raises(ValueError):
        partition([A_PROG], DEFAULT_UNIVERSE, 0)


def test_partition_single_program():
    classes = partition(enumerate_programs(4), DEFAULT_UNIVERSE, 1)
    assert len(classes) == 1
    assert classes[0].index == 0


def test_partition_up_to_8():
    classes = partition(enumerate_programs(8), DEFAULT_UNIVERSE, 1)
    memberships = {frozenset(c.member_bits) for c in classes}
    assert memberships == {frozenset({"1111", "00001111"}), frozenset({"10001111"})}


def test_partition_covers_19_programs():
    classes = partition(enumerate_programs(10), DEFAULT_UNIVERSE, 2)
    assert sum(len(c.members) for c in classes) == 19


@pytest.mark.parametrize("k", [1, 2])
def test_partition_matches_brute_force(k):
    programs = enumerate_programs(10)
    classes = partition(programs, DEFAULT_UNIVERSE, k)
    assert {frozenset(c.member_bits) for c in classes} == brute_force_partition(
        programs, DEFAULT_UNIVERSE, k
    )


def test_partition_laws():
    programs = enumerate_programs(12)
    classes = partition(programs, DEFAULT_UNIVERSE, 2)
    all_bits = [bits for c in classes for bits in c.member_bits]
    assert len(all_bits) == len(set(all_bits)) == len(programs)
    assert set(all_bits) == {p.bits for p in programs}
    assert [c.index for c in classes] == list(range(len(classes)))
    keys = [c.canonical_key for c in classes]
    assert keys == sorted(keys)


def test_partition_deterministic_under_shuffle():
    programs = enumerate_programs(12)
    reference = partition(programs, DEFAULT_UNIVERSE, 2)
    shuffled = list(programs)
    random.Random(20240811).shuffle(shuffled)
    assert partition(shuffled, DEFAULT_UNIVERSE, 2) == reference


def test_partition_rejects_duplicates():
    program = decode("1111")
    with pytest.raises(ValueError):
        partition([program, program], DEFAULT_UNIVERSE, 1)


def test_family_key_agrees_with_trace_equality():
    programs = enumerate_programs(10)
    for p in programs[:6]:
        for q in programs[:6]:
            same_key = family_key(p, DEFAULT_UNIVERSE, 2) == family_key(q, DEFAULT_UNIVERSE, 2)
            assert same_key == counterfactually_equivalent(p, q, DEFAULT_UNIVERSE, 2)


UNIVERSE_012 = InputUniverse.from_tapes([(), (0,), (1,), (2,), (2, 0), (1, 2), (0, 2, 1)])


@pytest.mark.parametrize("k", [1, 7, 300])
@pytest.mark.parametrize("universe", [DEFAULT_UNIVERSE, UNIVERSE_012], ids=["default", "012"])
@pytest.mark.parametrize("table", [TABLE_A, TABLE_B], ids=["A", "B"])
def test_family_key_equals_full_stepping_oracle(table, universe, k):
    # The oracle steps every entry on every tape: no halting stop, no shared
    # tape-blind trace, no shared encoding.
    for program in enumerate_programs(14, table):
        traces = [full_trace(program, tape, k) for tape in universe.tapes]
        expected = json.dumps(traces, separators=(",", ":"))
        assert family_key(program, universe, k) == expected, program.bits


# Programs whose halting step depends on the tape, an EXEC host of one, and
# a tape-blind program and an input-reading one whose first steps agree.
COUNTDOWN = [("IN", 0), ("WHILE", 0, [("DEC", 0)])]
HAND_BUILT = (
    COUNTDOWN,
    [("IN", 0), ("WHILE", 0, [])],  # never halts on a nonzero tape
    [("EXEC", COUNTDOWN)],
    [("INC", 0), ("DEC", 1)],
    [("INC", 0), ("IN", 1)],
)


UNIVERSES = [DEFAULT_UNIVERSE, InputUniverse.from_tapes([(1,)]), UNIVERSE_012]
UNIVERSE_IDS = ["default", "one-tape", "012"]
# Reads until it reads a 0, so its final cursor differs between tapes.
READ_TO_ZERO = [("IN", 0), ("WHILE", 0, [("IN", 0)])]


@pytest.mark.parametrize("k", [1, 7, 300])
@pytest.mark.parametrize("universe", UNIVERSES, ids=UNIVERSE_IDS)
@pytest.mark.parametrize("table", [TABLE_A, TABLE_B], ids=["A", "B"])
def test_trace_family_shares_runs_exactly_by_read_cells(monkeypatch, table, universe, k):
    # Each tape's traces equal its own run, and two tapes hold one trace
    # object exactly when they agree, zero-padded, on the cells it read.
    traced = 0

    def counted_run_trace(program, tape, k):
        nonlocal traced
        traced += 1
        return run_trace(program, tape, k)

    monkeypatch.setattr(equivalence, "run_trace", counted_run_trace)
    programs = enumerate_programs(14, table)
    programs += [from_instructions(i, table) for i in (*HAND_BUILT, READ_TO_ZERO)]
    for program in programs:
        traced = 0
        traces = trace_family(program, universe, k)
        assert traces == tuple(run_trace(program, tape, k) for tape in universe.tapes), program.bits
        assert traced == len({id(trace) for trace in traces}), program.bits
        for (s, s_trace), (t, t_trace) in combinations(zip(universe.tapes, traces), 2):
            read = s_trace[-1].input_cursor
            agree = (s + (0,) * read)[:read] == (t + (0,) * read)[:read]
            assert (s_trace is t_trace) == agree, (program.bits, s, t)


def test_partition_holds_key_parts_not_joined_keys():
    # Parts are shared by the tapes that hold one trace, so a class holds
    # each distinct trace's JSON once; the joined key is built on demand.
    classes = partition(enumerate_programs(12), DEFAULT_UNIVERSE, 2000)
    held = {id(part): len(part) for c in classes for part in c.key_parts}
    joined = sum(len(c.canonical_key) for c in classes)
    assert len(classes) == 12
    assert sum(held.values()) * 4 < joined
    for c in classes:
        assert c.key_digest == hashlib.sha256(c.canonical_key.encode()).hexdigest()[:16]


def test_key_digest_is_hashed_once_per_class(monkeypatch):
    digests = []

    def counted_key_digest(parts):
        digests.append(parts)
        return "digest"

    monkeypatch.setattr(equivalence, "key_digest", counted_key_digest)
    cls = partition(enumerate_programs(8), DEFAULT_UNIVERSE, 2)[0]
    assert [cls.key_digest, cls.key_digest, cls.key_digest] == ["digest"] * 3
    assert digests == [cls.key_parts]


@pytest.mark.parametrize("top", [1, 7, 40])
@pytest.mark.parametrize("universe", UNIVERSES, ids=UNIVERSE_IDS)
@pytest.mark.parametrize("table", [TABLE_A, TABLE_B], ids=["A", "B"])
def test_class_index_partitions_equal_family_key_grouping(table, universe, top):
    # One trace per program to the top level; every lower level must group,
    # index and key exactly as fresh per-level family keys do.
    programs = enumerate_programs(12, table)
    programs += [from_instructions(instructions, table) for instructions in HAND_BUILT]
    index = ClassIndex(universe, top)
    ids = {p.bits: index.ids(p) for p in programs}
    for level in range(1, top + 1):
        groups = {}
        for p in programs:
            groups.setdefault(family_key(p, universe, level), set()).add(p.bits)
        expected = [(i, key, groups[key]) for i, key in enumerate(sorted(groups))]
        classes = index.partition(programs, level, lambda p: ids[p.bits])
        assert [(c.index, c.canonical_key, c.member_bits) for c in classes] == expected, level
        assert all(c.k == level and c.universe_id == universe.universe_id for c in classes)


def test_trace_family_shape():
    traces = trace_family(decode("1111"), DEFAULT_UNIVERSE, 3)
    assert len(traces) == len(DEFAULT_UNIVERSE.tapes)
    assert all(len(trace) == 3 for trace in traces)


def test_refinement_keeps_halted_class_intact():
    programs = enumerate_programs(8)
    parents = partition(programs, DEFAULT_UNIVERSE, 1)
    children = partition(programs, DEFAULT_UNIVERSE, 2)
    mapping = refine(parents, children)
    assert set(mapping.keys()) == {c.index for c in children}
    halted_child = next(c for c in children if "1111" in c.member_bits)
    assert halted_child.member_bits == {"1111", "00001111"}
    assert parents[mapping[halted_child.index]].member_bits == {"1111", "00001111"}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_refinement_total_and_conservative(k):
    programs = enumerate_programs(12)
    parents = partition(programs, DEFAULT_UNIVERSE, k)
    children = partition(programs, DEFAULT_UNIVERSE, k + 1)
    mapping = refine(parents, children)
    # total and single-valued over children, and member counts add up
    assert sorted(mapping.keys()) == [c.index for c in children]
    for parent in parents:
        total = sum(len(c.members) for c in children if mapping[c.index] == parent.index)
        assert total == len(parent.members)
    for child in children:
        assert child.member_bits <= parents[mapping[child.index]].member_bits


def test_refine_validation():
    programs = enumerate_programs(8)
    parents = partition(programs, DEFAULT_UNIVERSE, 1)
    children = partition(programs, DEFAULT_UNIVERSE, 2)
    with pytest.raises(ValueError):
        refine(parents, parents)  # not one level apart
    with pytest.raises(ValueError):
        refine(parents, partition(enumerate_programs(10), DEFAULT_UNIVERSE, 2))
    with pytest.raises(ValueError):
        refine([], [])


def test_refine_rejects_partitions_over_different_universes():
    # Over one tape the level-1 parents are coarse enough to hold every
    # default-universe child, so without the check this pairing maps
    # silently; the other pairing straddles parents.
    programs = enumerate_programs(12)
    one_tape = InputUniverse.from_tapes([()])
    pairings = ((one_tape, DEFAULT_UNIVERSE), (DEFAULT_UNIVERSE, one_tape))
    for parent_universe, child_universe in pairings:
        parents = partition(programs, parent_universe, 1)
        children = partition(programs, child_universe, 2)
        with pytest.raises(ValueError) as raised:
            refine(parents, children)
        assert parent_universe.universe_id in str(raised.value)
        assert child_universe.universe_id in str(raised.value)


PROGRAMS_10 = enumerate_programs(10)


@given(
    st.sampled_from(PROGRAMS_10),
    st.sampled_from(PROGRAMS_10),
    st.sampled_from(PROGRAMS_10),
    st.integers(min_value=1, max_value=5),
)
def test_equivalence_laws(p, q, r, k):
    assert counterfactually_equivalent(p, p, DEFAULT_UNIVERSE, k)
    pq = counterfactually_equivalent(p, q, DEFAULT_UNIVERSE, k)
    assert pq == counterfactually_equivalent(q, p, DEFAULT_UNIVERSE, k)
    if pq and counterfactually_equivalent(q, r, DEFAULT_UNIVERSE, k):
        assert counterfactually_equivalent(p, r, DEFAULT_UNIVERSE, k)


@given(
    st.sampled_from(PROGRAMS_10),
    st.sampled_from(PROGRAMS_10),
    st.integers(min_value=1, max_value=5),
)
def test_equivalence_monotone_in_k(p, q, k):
    if counterfactually_equivalent(p, q, DEFAULT_UNIVERSE, k + 1):
        assert counterfactually_equivalent(p, q, DEFAULT_UNIVERSE, k)
