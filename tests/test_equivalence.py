import hashlib
import json
import random
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from builders import DOVETAILING_HOSTS, from_instructions
from oracles import counterfactually_equivalent, every_level_ids, family_key, joined_key
from stepping import full_trace
from udlab.encoding import TABLE_A, TABLE_B, decode
from udlab.enumeration import enumerate_programs
from udlab import equivalence
from udlab.equivalence import (
    DEFAULT_UNIVERSE,
    ClassIndex,
    EquivClass,
    InputUniverse,
    RefinementViolation,
    level_id,
    partition,
    refine,
    trace_family,
)
from udlab.machine import run_trace, settled_tail, step_events

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
    # The id is part of every JSON document over this universe.
    assert universe.universe_id == "sha256:5abcbf5560df"
    with pytest.raises(ValueError):
        InputUniverse.from_tapes([])
    with pytest.raises(ValueError):
        InputUniverse.from_tapes([(-1,)])
    with pytest.raises(ValueError):
        InputUniverse.from_tapes([(True,)])


@pytest.mark.parametrize("max_len", [0, 2, 6, 10], ids=["1", "7", "127", "2047"])
def test_universe_id_is_hashlib_sha256_of_the_canonical_tapes(max_len):
    # Every binary tape up to max_len, given shuffled with each tape twice;
    # canonical order is by length, then lexicographic.
    tapes = [t for n in range(max_len + 1) for t in product((0, 1), repeat=n)]
    given_tapes = tapes + [list(t) for t in tapes]
    random.Random(max_len).shuffle(given_tapes)
    canonical = sorted(set(tapes), key=lambda t: (len(t), t))
    text = json.dumps([list(t) for t in canonical], separators=(",", ":"))
    universe = InputUniverse.from_tapes(given_tapes)
    assert universe.tapes == tuple(canonical)
    assert universe.universe_id == "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:12]


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
    keys = [joined_key(c.key_parts) for c in classes]
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


@pytest.mark.parametrize("universe", [DEFAULT_UNIVERSE, UNIVERSE_012], ids=["default", "012"])
@pytest.mark.parametrize("table", [TABLE_A, TABLE_B], ids=["A", "B"])
def test_key_parts_join_to_json_dumps_of_the_family(table, universe):
    # ClassIndex keys lower levels from a longer trace, and levels past a
    # settled trace from its halted padding state or the dovetail stream; the
    # joined key must still be json.dumps of each tape's first k states.
    tails, ticks = set(), []
    for program in enumerate_programs(14, table):
        top = trace_family(program, universe, 300)
        settled = trace_family(program, universe, 300, settle=True)
        for k in (1, 3, 300):
            for traces in (trace_family(program, universe, k), top, settled):
                expected = json.dumps([list(trace[:k]) for trace in top], separators=(",", ":"))
                parts = equivalence._key_parts(traces, k, table, ticks)
                assert joined_key(parts) == expected, program.bits
        tails.update(trace[-1].halted for trace in settled if len(trace) < 300)
    assert tails == {True, False}  # settled traces that halted and that dovetail


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
    # Each tape's traces equal its own run, full or settled, and two tapes
    # hold one trace object exactly when they agree, zero-padded, on the
    # cells it read.
    traced = 0

    def counted_run_trace(program, tape, k, settle=False):
        nonlocal traced
        traced += 1
        return run_trace(program, tape, k, settle)

    monkeypatch.setattr(equivalence, "run_trace", counted_run_trace)
    programs = enumerate_programs(14, table)
    hand_built = (*HAND_BUILT, READ_TO_ZERO, *DOVETAILING_HOSTS)
    programs += [from_instructions(instructions, table) for instructions in hand_built]
    for program, settle in product(programs, (False, True)):
        traced = 0
        traces = trace_family(program, universe, k, settle)
        runs = tuple(run_trace(program, tape, k, settle) for tape in universe.tapes)
        assert traces == runs, program.bits
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
    joined = sum(len(joined_key(c.key_parts)) for c in classes)
    assert len(classes) == 12
    assert sum(held.values()) * 4 < joined
    for c in classes:
        assert c.key_digest == hashlib.sha256(joined_key(c.key_parts).encode()).hexdigest()[:16]


@pytest.mark.parametrize("table", [TABLE_A, TABLE_B], ids=["A", "B"])
def test_key_digest_is_hashlibs_on_every_route(monkeypatch, table):
    # Small keys take the built-in sha256 while they fit the budget; a key
    # of 64 KiB or more, and every key after the first that takes hashlib,
    # go to hashlib.  Each constructor is wrapped to record the route.
    reference, routes = hashlib.sha256, []

    def recording(route, make):
        def construct(data):
            routes.append(route)
            return make(data)
        return construct

    builtin = recording("builtin", equivalence._builtin_sha256())
    monkeypatch.setattr(equivalence, "_builtin_sha256", lambda: builtin)
    monkeypatch.setattr(hashlib, "sha256", recording("hashlib", reference))

    def run(keys, budget=1024 * 1024):
        monkeypatch.setattr(equivalence, "_builtin_budget", budget)
        routes.clear()
        for parts in keys:
            expected = reference(joined_key(parts).encode()).hexdigest()[:16]
            assert equivalence.key_digest(parts) == expected, len(parts)
        return list(routes)

    small = [c.key_parts for c in partition(enumerate_programs(10, table), DEFAULT_UNIVERSE, 3)]
    assert run(small) == ["builtin"] * len(small)
    spent = sum(len(joined_key(parts)) for parts in small)
    assert equivalence._builtin_budget == 1024 * 1024 - spent

    def sized(size):
        # Two parts, a real one and padding, whose joined key is `size` bytes.
        part = small[0][0]
        return (part, "0" * (size - len(part) - 3))

    assert run([sized(64 * 1024 - 1)]) == ["builtin"]
    assert run([sized(64 * 1024), small[0]]) == ["hashlib", "hashlib"]
    first = len(joined_key(small[0]))
    assert run([small[0]], budget=first) == ["builtin"]
    assert run([small[0]], budget=first - 1) == ["hashlib"]
    # 17 keys of 60,000 bytes fit in 1 MiB; the 18th and every key after it
    # take hashlib.
    assert run([sized(60_000)] * 18 + [small[0]]) == ["builtin"] * 17 + ["hashlib"] * 2
    assert equivalence._builtin_budget == 0


def test_class_is_its_five_fields():
    cls = partition(enumerate_programs(8), DEFAULT_UNIVERSE, 2)[0]
    assert EquivClass._fields == ("k", "index", "members", "key_parts", "universe_id")
    rebuilt = EquivClass(**cls._asdict())
    assert rebuilt == cls and hash(rebuilt) == hash(cls) and rebuilt.key_digest == cls.key_digest


@pytest.mark.parametrize("top", [1, 7, 40])
@pytest.mark.parametrize("universe", UNIVERSES, ids=UNIVERSE_IDS)
@pytest.mark.parametrize("table", [TABLE_A, TABLE_B], ids=["A", "B"])
def test_class_index_partitions_equal_family_key_grouping(table, universe, top):
    # One settled trace per run; every level must group, index and key
    # exactly as fresh per-level family keys do, past the settle level too.
    programs = enumerate_programs(12, table)
    programs += [from_instructions(i, table) for i in (*HAND_BUILT, *DOVETAILING_HOSTS)]
    index = ClassIndex(universe, top)
    ids = {p.bits: index.ids(p) for p in programs}
    for level in range(1, top + 1):
        groups = {}
        for p in programs:
            groups.setdefault(family_key(p, universe, level), set()).add(p.bits)
        expected = [(i, key, groups[key]) for i, key in enumerate(sorted(groups))]
        classes = index.partition(programs, level, lambda p: ids[p.bits])
        assert [(c.index, joined_key(c.key_parts), c.member_bits) for c in classes] == expected, level
        assert all(c.k == level and c.universe_id == universe.universe_id for c in classes)


@pytest.mark.parametrize("top", [2, 7, 200])
@pytest.mark.parametrize("universe", [DEFAULT_UNIVERSE, UNIVERSE_012], ids=["default", "012"])
@pytest.mark.parametrize("table", [TABLE_A, TABLE_B], ids=["A", "B"])
def test_settled_ids_equal_every_level_interning(table, universe, top):
    # Id for id: a level's settled id and the oracle's every-level id must
    # name the same family, so each determines the other across all
    # programs and levels.  The oracle's ids are interned at their level
    # alone, while a settled id serves every level from its settle level on.
    programs = enumerate_programs(16, table)
    programs += [from_instructions(i, table) for i in (*HAND_BUILT, *DOVETAILING_HOSTS)]
    index = ClassIndex(universe, top)
    oracle = every_level_ids(programs, universe, top)
    to_oracle, to_settled = {}, {}
    for program in programs:
        ids = index.ids(program)
        assert 1 <= len(ids) <= top, program.bits
        for level, expected in enumerate(oracle[program.bits], 1):
            settled = (level, level_id(ids, level))
            assert to_oracle.setdefault(settled, expected) == expected, (program.bits, level)
            assert to_settled.setdefault(expected, settled) == settled, (program.bits, level)
    assert len(index._creators) < len(to_settled)  # settling skips levels


def _settle_step(trace):
    """The first step that halts or shows ('1111', 2), or len(trace)."""
    for step, state in enumerate(trace, 1):
        shown = {(e.code_bits, e.step_index) for e in step_events(state.event)}
        if state.halted or ("1111", 2) in shown:
            return step
    return len(trace)


@pytest.mark.parametrize("table", [TABLE_A, TABLE_B], ids=["A", "B"])
def test_settled_traces_stop_where_the_run_halts_or_shows_tick_2(table):
    # The settled trace is the full trace's prefix to its settle step, read
    # off the full trace's events; settled_tail gives the rest.
    programs = enumerate_programs(14, table)
    programs += [from_instructions(i, table) for i in (*HAND_BUILT, *DOVETAILING_HOSTS)]
    dovetailed = 0
    for program, tape in product(programs, UNIVERSE_012.tapes):
        full = run_trace(program, tape, 300)
        settled = run_trace(program, tape, 300, settle=True)
        assert len(settled) == _settle_step(full), (program.bits, tape)
        assert settled + tuple(settled_tail(settled[-1], 300 - len(settled), table)) == full
        dovetailed += not full[-1].halted and len(settled) < 300
    assert dovetailed > len(programs)


def test_class_index_serves_one_encoding():
    index = ClassIndex(DEFAULT_UNIVERSE, 5)
    index.ids(decode("10001111", TABLE_A))
    with pytest.raises(ValueError, match="one encoding"):
        index.ids(decode("00001111", TABLE_B))


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


def test_refine_rejects_a_child_that_straddles_parents():
    # Two children of different parents merged into one class: the cover is
    # unchanged, so only the straddle check can catch it.
    programs = enumerate_programs(10)
    parents = partition(programs, DEFAULT_UNIVERSE, 1)
    children = partition(programs, DEFAULT_UNIVERSE, 2)
    mapping = refine(parents, children)
    first = children[0]
    second = next(c for c in children if mapping[c.index] != mapping[first.index])
    merged = EquivClass(
        first.k, first.index, first.members + second.members, first.key_parts, first.universe_id
    )
    straddling = [merged] + [c for c in children if c not in (first, second)]
    with pytest.raises(RefinementViolation, match="straddles"):
        refine(parents, straddling)


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
