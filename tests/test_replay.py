from dataclasses import fields

import pytest

from udlab.encoding import decode, from_instructions
from udlab.equivalence import DEFAULT_UNIVERSE, InputUniverse
from udlab.machine import Configuration, run_trace, step_count
from udlab.replay import (
    Recording,
    SeverancePlan,
    hybrid_run,
    playback,
    record,
    recording_from_data,
    recording_to_data,
    sever_and_project,
)

ECHO = from_instructions([("IN", 0), ("OUT", 0)])
EMPTY = decode("1111")


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
            assert rec.trace == run_trace(program, tape, 4).states


def test_record_and_hybrid_take_no_configuration_snapshots(monkeypatch):
    def refuse(self):
        raise AssertionError("a recording is its trace; no configuration is copied")

    monkeypatch.setattr(Configuration, "clone", refuse)
    rec = record(decode("10001111"), (1,), 50)
    assert hybrid_run(rec, (0,)).trace == rec.trace


def test_recording_of_dovetailer_carries_events():
    rec = record(decode("10001111"), (), 3)
    assert [s.event.step_index for s in rec.trace] == [1, 2, 1]
    assert [s.event.code_bits for s in rec.trace] == ["1111", "1111", "00001111"]


def test_record_validates_k():
    with pytest.raises(ValueError):
        record(EMPTY, (), 0)


def test_playback_returns_trace_without_stepping():
    rec = record(ECHO, (1,), 3)
    live = run_trace(ECHO, (1,), 3).states
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
    assert result.trace == run_trace(ECHO, (0,), 2).states
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
    assert result.trace == run_trace(program, (1, 2), 4).states


def test_sever_nothing_reproduces_recording():
    rec = record(ECHO, (1,), 2)
    result = sever_and_project(rec, SeverancePlan.of(()), (1,))
    assert result.trace == rec.trace
    assert result.equivalent


def test_full_severance_state_identical_but_inequivalent():
    rec = record(ECHO, (1,), 2)
    plan = SeverancePlan.of((1, 2))
    for tape in ((1,), (0,), (7, 7)):
        result = sever_and_project(rec, plan, tape)
        assert result.trace == rec.trace  # the film plays the same in any world
        assert not result.equivalent


def test_full_severance_of_constant_program_stays_equivalent():
    rec = record(EMPTY, (), 2)
    result = sever_and_project(rec, SeverancePlan.of((1, 2)), (1,))
    assert result.trace == rec.trace
    assert result.equivalent


def test_partial_severance_can_stay_equivalent_on_matching_world():
    # Severing step 1 pins r0 to the recorded read; on the recorded tape the
    # hybrid is indistinguishable, on others it is not.
    rec = record(ECHO, (1,), 2)
    plan = SeverancePlan.of((1,))
    result = sever_and_project(rec, plan, (1,))
    assert result.trace == rec.trace
    assert not result.equivalent
    diverging = sever_and_project(rec, plan, (0,))
    assert diverging.trace == rec.trace  # step 2 continues from the imposed state
    other = sever_and_project(rec, SeverancePlan.of((2,)), (0,))
    assert other.trace[0].registers == (0, 0, 0, 0)
    assert other.trace[1] == rec.trace[1]


def test_sever_verdict_uses_given_universe():
    rec = record(ECHO, (1,), 2)
    plan = SeverancePlan.of((1, 2))
    constant_universe = InputUniverse.from_tapes([(1,)])
    assert sever_and_project(rec, plan, (1,), constant_universe).equivalent
    assert not sever_and_project(rec, plan, (1,), DEFAULT_UNIVERSE).equivalent


def test_sever_validation():
    rec = record(ECHO, (1,), 2)
    with pytest.raises(ValueError):
        sever_and_project(rec, SeverancePlan.of((3,)), (1,))
    with pytest.raises(ValueError):
        SeverancePlan.of((0,))


def test_recording_serialization_round_trip():
    rec = record(ECHO, (1,), 3)
    data = recording_to_data(rec)
    assert list(data.keys()) == ["program_bits", "tape", "k", "trace"]
    # The file holds the whole recording: nothing is lost in the round trip.
    assert [f.name for f in fields(Recording)] == ["program", "tape", "k", "trace"]
    clone = recording_from_data(data)
    assert clone == rec
    dvt = record(decode("10001111"), (1,), 40)
    cases = [(rec, ((), (1,), (2,), (1, 3))), (dvt, ((3,), (3, 17, 40)))]
    for original, plans in cases:
        rebuilt = recording_from_data(recording_to_data(original))
        for steps in plans:
            plan = SeverancePlan.of(steps)
            for tape in ((), (0,), (1,)):
                result = sever_and_project(rebuilt, plan, tape)
                assert result == sever_and_project(original, plan, tape)


def test_recording_tamper_detection():
    rec = record(ECHO, (1,), 2)
    data = recording_to_data(rec)
    data["trace"][0][0][0] = 42
    with pytest.raises(ValueError):
        recording_from_data(data)
    data = recording_to_data(rec)
    data["tape"] = [-1]
    with pytest.raises(ValueError):
        recording_from_data(data)
