import json

import pytest

from builders import from_instructions
from peak_rss import forked_peak_rss
from stepping import full_trace, per_tape_sever

from udlab import dovetailer, equivalence
from udlab.encoding import decode, get_table
from udlab.enumeration import enumerate_programs
from udlab.equivalence import DEFAULT_UNIVERSE, InputUniverse
from udlab.machine import Configuration, run_trace, step_count
from udlab.replay import (
    Recording,
    document,
    hybrid_run,
    playback,
    record,
    recording_from_data,
    recording_to_data,
    sever_and_project,
)

ECHO = from_instructions([("IN", 0), ("OUT", 0)])
EMPTY = decode("1111")
# INC r0; WHILE r0 OUT r0 WEND: outputs in a loop, so its states grow with k.
OUTPUT_LOOP = decode("00010001010000110001101111")


def test_record_empty_program():
    rec = record(EMPTY, (), 2)
    assert rec.trace[0].halted
    assert rec.trace[1] == rec.trace[0]


def test_record_echo():
    rec = record(ECHO, (1,), 2)
    s1, s2 = rec.trace
    assert s1.registers == (1, 0, 0, 0)
    assert s2.outputs == (1,)
    assert s2.halted


def test_record_matches_run_trace():
    for program in (EMPTY, ECHO, decode("10001111")):
        for tape in ((), (1,), (0, 1)):
            rec = record(program, tape, 4)
            assert rec.trace == run_trace(program, tape, 4)


def test_record_and_hybrid_take_no_configuration_snapshots(monkeypatch):
    def refuse(self):
        raise AssertionError("a recording is its trace; no configuration is copied")

    monkeypatch.setattr(Configuration, "clone", refuse)
    rec = record(decode("10001111"), (1,), 50)
    assert hybrid_run(rec, (0,)).trace == rec.trace


SEVER_RSS = """
import os
from udlab.encoding import decode
from udlab.replay import record, sever_and_project
rec = record(decode("10001111"), (), 3000)
result = sever_and_project(rec, range(1, 3001), (1, 2))
os._exit(0 if result.equivalent and result.trace == rec.trace else 1)
"""


def test_full_severance_memory_stays_flat_in_k():
    # Copying the filmed configuration of a DVT host at each of 3000 severed
    # steps peaks near 210 MB.  The host reads no input, so its film is its
    # severed system on every tape, and severance keeps near the
    # interpreter's own footprint.
    code, maxrss_kib = forked_peak_rss(SEVER_RSS)
    assert code == 0
    assert maxrss_kib < 40 * 1024


def test_recording_of_dovetailer_carries_events():
    rec = record(decode("10001111"), (), 3)
    assert [s.event.step_index for s in rec.trace] == [1, 2, 1]
    assert [s.event.code_bits for s in rec.trace] == ["1111", "1111", "00001111"]


def test_record_validates_k():
    with pytest.raises(ValueError):
        record(EMPTY, (), 0)


def test_playback_returns_trace_without_stepping():
    rec = record(ECHO, (1,), 3)
    live = run_trace(ECHO, (1,), 3)
    before = step_count()
    replayed = playback(rec)
    assert step_count() == before
    assert replayed == rec.trace
    assert replayed == live


def test_hybrid_never_switches_on_recorded_tape():
    rec = record(ECHO, (1,), 2)
    result = hybrid_run(rec, (1,))
    assert result.switch_step is None
    assert result.trace == rec.trace


def test_hybrid_switches_at_first_divergence():
    rec = record(ECHO, (1,), 2)
    result = hybrid_run(rec, (0,))
    assert result.switch_step == 1
    assert result.trace == run_trace(ECHO, (0,), 2)
    assert result.trace[0].registers == (0, 0, 0, 0)
    assert result.trace[1].outputs == (0,)


def test_hybrid_constant_program_ignores_world():
    rec = record(EMPTY, (), 3)
    for tape in ((), (1,), (9, 9)):
        result = hybrid_run(rec, tape)
        assert result.switch_step is None
        assert result.trace == rec.trace


def test_hybrid_soundness_prefix_and_live_suffix():
    program = from_instructions([("IN", 0), ("IN", 1), ("OUT", 0), ("OUT", 1)])
    rec = record(program, (1, 0), 4)
    result = hybrid_run(rec, (1, 2))
    assert result.switch_step == 2
    assert result.trace[: result.switch_step - 1] == rec.trace[: result.switch_step - 1]
    assert result.trace == run_trace(program, (1, 2), 4)


def test_sever_nothing_reproduces_recording():
    rec = record(ECHO, (1,), 2)
    result = sever_and_project(rec, (), (1,))
    assert result.trace == rec.trace
    assert result.equivalent


def test_full_severance_state_identical_but_inequivalent():
    rec = record(ECHO, (1,), 2)
    severed = (1, 2)
    for tape in ((1,), (0,), (7, 7)):
        result = sever_and_project(rec, severed, tape)
        assert result.trace == rec.trace  # the film plays the same in any world
        assert not result.equivalent


def test_full_severance_of_constant_program_stays_equivalent():
    rec = record(EMPTY, (), 2)
    result = sever_and_project(rec, (1, 2), (1,))
    assert result.trace == rec.trace
    assert result.equivalent


def test_severing_a_film_that_read_no_input_runs_no_step():
    for program in (EMPTY, decode("10001111"), from_instructions([("INC", 0), ("OUT", 0)])):
        rec = record(program, (1, 2), 40)
        before = step_count()
        for steps in ((), (1,), (3, 7, 40), range(1, 41)):
            result = sever_and_project(rec, steps, (2, 0, 1))
            assert (result.trace, result.equivalent) == (rec.trace, True)
        assert step_count() == before


def test_severing_a_loop_reader_on_a_long_tape_steps_linearly():
    # A reader that consumes a 300-cell tape cell by cell, every third step
    # severed, on an actual tape that differs in every cell: each tape's live
    # run is stepped once, alongside one film run and the universe's traces.
    # Re-running the program from step 0 for each severed segment that reads
    # a differing cell, instead of copying configurations, takes about
    # 358,000 steps here.
    k = 3000
    program = from_instructions(
        [("INC", 0), ("WHILE", 0, [("IN", 1), ("WHILE", 1, [("DEC", 1), ("INC", 2)])])]
    )
    rec = record(program, tuple(1 + i % 2 for i in range(300)), k)
    assert rec.trace[-1].input_cursor > 300
    tape = tuple(2 + i % 2 for i in range(300))
    before = step_count()
    result = sever_and_project(rec, range(1, k + 1, 3), tape)
    assert not result.equivalent
    assert step_count() - before <= (2 * len(DEFAULT_UNIVERSE.tapes) + 2) * k


def test_severing_a_reader_that_dovetails_copies_no_emulation(monkeypatch):
    # IN r0; DVT filmed on (1,) and severed at every step on (2,): each
    # tape's live run takes the filmed configuration at every step.  A DVT
    # host's context is its tick count, so the copy holds no emulation and
    # the severance steps linearly in k; copying a dovetailer with all of
    # its children there took 3.8 s at k=2000.
    monkeypatch.setattr(dovetailer, "_ENGINES", {})
    clones = 0
    clone = Configuration.clone

    def counted(self):
        nonlocal clones
        clones += isinstance(self.context, Configuration)
        return clone(self)

    monkeypatch.setattr(Configuration, "clone", counted)
    k = 2000
    rec = record(decode("01000010001111"), (1,), k)
    before = step_count()
    result = sever_and_project(rec, range(1, k + 1), (2,))
    assert result.trace == rec.trace and not result.equivalent
    assert clones == 0
    assert step_count() - before <= (len(DEFAULT_UNIVERSE.tapes) + 2) * k


def test_partial_severance_can_stay_equivalent_on_matching_world():
    # Severing step 1 pins r0 to the recorded read; on the recorded tape the
    # hybrid is indistinguishable, on others it is not.
    rec = record(ECHO, (1,), 2)
    severed = (1,)
    result = sever_and_project(rec, severed, (1,))
    assert result.trace == rec.trace
    assert not result.equivalent
    diverging = sever_and_project(rec, severed, (0,))
    assert diverging.trace == rec.trace  # step 2 continues from the imposed state
    other = sever_and_project(rec, (2,), (0,))
    assert other.trace[0].registers == (0, 0, 0, 0)
    assert other.trace[1] == rec.trace[1]


def test_sever_verdict_uses_given_universe():
    rec = record(ECHO, (1,), 2)
    severed = (1, 2)
    constant_universe = InputUniverse.from_tapes([(1,)])
    assert sever_and_project(rec, severed, (1,), constant_universe).equivalent
    assert not sever_and_project(rec, severed, (1,), DEFAULT_UNIVERSE).equivalent


# Programs that read input in a loop: a severed step can leave the filmed
# cursor past the end of the recorded tape.
LOOP_READERS = [
    [("INC", 0), ("WHILE", 0, [("IN", 1), ("OUT", 1)])],
    [("IN", 0), ("WHILE", 0, [("OUT", 0), ("IN", 0)])],
    [("INC", 0), ("WHILE", 0, [("IN", 1), ("WHILE", 1, [("DEC", 1), ("IN", 2), ("OUT", 2)])])],
]


@pytest.mark.parametrize("variant", ["A", "B"])
def test_sever_matches_per_tape_oracle(variant):
    # Tape-blind programs (no IN in k steps) read every tape alike; the oracle
    # runs the severed system, and the program, on each tape afresh.
    table = get_table(variant)
    universes = (
        DEFAULT_UNIVERSE,
        InputUniverse.from_tapes([(2,)]),
        InputUniverse.from_tapes([(), (0, 2), (1, 2, 0)]),
    )
    short = [
        (program, rec_tape, 9, steps)
        for program in enumerate_programs(12, table)
        for rec_tape in ((), (1, 0))
        for steps in ((), (1,), (1, 2), (2, 5, 9))
    ]
    looping = [
        (from_instructions(instructions, table), rec_tape, 24, steps)
        for instructions in LOOP_READERS
        for rec_tape in ((), (1,), (2, 0, 0), (1, 3, 0, 2))
        for steps in ((7,), (3, 12), (5, 6, 7, 20), range(1, 25))
    ]
    tape_blind, verdicts, past_end = set(), set(), set()
    for program, rec_tape, k, steps in short + looping:
        rec = record(program, rec_tape, k)
        tape_blind.add(rec.trace[-1].input_cursor == 0)
        past_end.add(any(rec.trace[s - 1].input_cursor > len(rec_tape) for s in steps))
        for universe in universes:
            for tape in ((), (1,), (0, 1), (2, 1, 0, 0)):
                result = sever_and_project(rec, steps, tape, universe)
                expected = per_tape_sever(rec, steps, tape, universe)
                assert (result.trace, result.equivalent) == expected, (program.bits, steps)
                verdicts.add(result.equivalent)
    assert tape_blind == verdicts == past_end == {True, False}


def test_hybrid_reuses_the_film_on_tapes_that_agree_on_the_cells_read():
    # ECHO reads one cell and halts; the dovetailer reads none.  A tape that
    # agrees with the recorded one on the cells read, zero-padded, runs no step.
    cases = [
        (ECHO, (1,), [(1,), (1, 5), (1, 0, 0)]),
        (ECHO, (), [(), (0,), (0, 3)]),
        (decode("10001111"), (1,), [(), (0,), (2, 2)]),
    ]
    for program, rec_tape, tapes in cases:
        rec = record(program, rec_tape, 300)
        for tape in tapes:
            before = step_count()
            result = hybrid_run(rec, tape)
            assert step_count() == before
            assert result.trace is rec.trace and result.switch_step is None


@pytest.mark.parametrize("variant", ["A", "B"])
def test_hybrid_matches_a_live_run(variant):
    table = get_table(variant)
    tapes = ((), (1,), (0, 1), (2, 0, 1))
    programs = enumerate_programs(14, table)
    programs += [from_instructions(instructions, table) for instructions in LOOP_READERS]
    switched = set()
    for program in programs:
        for rec_tape in tapes:
            rec = record(program, rec_tape, 12)
            for tape in tapes:
                live = full_trace(program, tape, 12)
                diverged = [i for i, (a, b) in enumerate(zip(live, rec.trace), 1) if a != b]
                result = hybrid_run(rec, tape)
                assert result == (live, diverged[0] if diverged else None), (program.bits, tape)
                switched.add(result.switch_step is None)
    assert switched == {True, False}



def test_sever_builds_no_family_key(monkeypatch):
    # The verdict compares traces; no canonical JSON key is encoded for it.
    encodes = 0
    encoder = equivalence._ENCODER

    class Counting:
        def encode(self, value):
            nonlocal encodes
            encodes += 1
            return encoder.encode(value)

    monkeypatch.setattr(equivalence, "_ENCODER", Counting())
    for rec in (record(decode("10001111"), (), 200), record(ECHO, (1,), 2)):
        result = sever_and_project(rec, (1, 2), (0,))
        assert result.equivalent == (rec.program != ECHO)
    assert encodes == 0


def test_sever_validation():
    rec = record(ECHO, (1,), 2)
    with pytest.raises(ValueError):
        sever_and_project(rec, (3,), (1,))
    with pytest.raises(ValueError):
        sever_and_project(rec, (0,), (1,))
    # A film that read no input is checked too, before it is returned.  A
    # float, a bool or a string is refused, not converted to a step.
    for rec in (record(ECHO, (1,), 4), record(decode("10001111"), (), 4)):
        for bad in (0, -3, 1.5, True, "2"):
            with pytest.raises(ValueError, match="1-based"):
                sever_and_project(rec, (2, bad), (1,))
        with pytest.raises(ValueError, match=r"must lie in 1\.\.4"):
            sever_and_project(rec, (1, rec.k + 1), (1,))


def test_sever_takes_any_iterable_of_steps():
    rec = record(from_instructions(LOOP_READERS[0]), (1, 2), 12)
    expected = per_tape_sever(rec, {2, 3, 4}, (2, 0, 1), DEFAULT_UNIVERSE)
    for steps in ([4, 2, 3], (2, 3, 4, 3), range(2, 5), frozenset({2, 3, 4})):
        result = sever_and_project(rec, steps, (2, 0, 1))
        assert (result.trace, result.equivalent) == expected, steps
    assert expected[0] != rec.trace and not expected[1]


def test_recording_serialization_round_trip():
    rec = record(ECHO, (1,), 3)
    data = recording_to_data(rec)
    assert list(data.keys()) == ["program_bits", "tape", "k", "trace"]
    # The file holds the whole recording: nothing is lost in the round trip,
    # and k is the length of the trace.
    assert Recording._fields == ("program", "tape", "trace")
    clone = recording_from_data(data)
    assert clone == rec
    assert clone.k == len(clone.trace) == data["k"] == 3
    dvt = record(decode("10001111"), (1,), 40)
    cases = [(rec, ((), (1,), (2,), (1, 3))), (dvt, ((3,), (3, 17, 40)))]
    for original, plans in cases:
        rebuilt = recording_from_data(recording_to_data(original))
        for steps in plans:
            for tape in ((), (0,), (1,)):
                result = sever_and_project(rebuilt, steps, tape)
                assert result == sever_and_project(original, steps, tape)


def _as_file(rec):
    """A recording as it reads back from its JSON file."""
    return json.loads(json.dumps(recording_to_data(rec)))


def test_recording_tamper_detection():
    rec = record(ECHO, (1,), 2)
    assert recording_from_data(_as_file(rec)) == rec
    data = _as_file(rec)
    data["trace"][0][0][0] = 42
    with pytest.raises(ValueError):
        recording_from_data(data)
    # The stored trace must match byte for byte: 1.0 or true is not 1.
    for lookalike in (1.0, True):
        data = _as_file(rec)
        assert data["trace"][0][0][0] == 1
        data["trace"][0][0][0] = lookalike
        with pytest.raises(ValueError):
            recording_from_data(data)
    data = recording_to_data(rec)
    data["tape"] = [-1]
    with pytest.raises(ValueError):
        recording_from_data(data)


def _document_matches_json_dumps(rec):
    payload = {
        "config": {"command": "record", "tape": list(rec.tape)},
        "switch_step": None,
        "counterfactually_equivalent": False,
        "k": rec.k,
        "trace": rec.trace,
    }
    expected = json.dumps(payload, indent=2) + "\n"
    assert "".join(document(payload)) == expected, (rec.program.bits, rec.tape)


@pytest.mark.parametrize("variant", ["A", "B"])
def test_document_matches_json_dumps_for_every_short_program(variant):
    for program in enumerate_programs(14, get_table(variant)):
        for tape in ((), (1,), (2, 0, 1)):
            for k in (1, 9, 60):
                _document_matches_json_dumps(record(program, tape, k))


def test_document_matches_json_dumps_on_nested_long_and_padded_traces():
    exec_of_dvt = record(from_instructions([("EXEC", [("DVT",)])]), (), 200)
    assert exec_of_dvt.trace[-1].event.state.event is not None  # events two levels deep
    loop = record(OUTPUT_LOOP, (), 300)
    assert len(loop.trace[-1].outputs) > 100
    short = record(from_instructions([("INC", 0), ("INC", 1), ("INC", 2)]), (), 500)
    assert short.trace[2].halted and short.trace[3] is short.trace[-1]  # one padding object
    for rec in (exec_of_dvt, loop, short):
        _document_matches_json_dumps(rec)
