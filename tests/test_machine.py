import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from udlab.encoding import decode, from_instructions
from udlab.enumeration import enumerate_programs
from udlab.machine import (
    Configuration,
    run_events,
    run_trace,
    step,
    step_count,
)

EMPTY = decode("1111")
DVT_PROG = decode("10001111")
SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_state_after(program, tape, steps):
    config = Configuration.fresh(program)
    event = None
    for _ in range(steps):
        event = step(config, program, tape)
    return config, event


def test_empty_program_halts_on_first_step():
    config, _ = fresh_state_after(EMPTY, (), 1)
    assert config.halted
    assert config.registers == [0, 0, 0, 0]


def test_single_inc_halts_in_one_step():
    config, _ = fresh_state_after(from_instructions([("INC", 0)]), (), 1)
    assert config.registers == [1, 0, 0, 0]
    assert config.halted


def test_dec_saturates_at_zero():
    config, _ = fresh_state_after(from_instructions([("DEC", 1)]), (), 1)
    assert config.registers == [0, 0, 0, 0]
    assert config.halted


def test_in_past_tape_end_reads_zero_and_advances():
    config, _ = fresh_state_after(from_instructions([("IN", 0)]), (), 1)
    assert config.registers == [0, 0, 0, 0]
    assert config.input_cursor == 1


def test_halted_config_is_fixed_point():
    program = from_instructions([("INC", 0)])
    config, _ = fresh_state_after(program, (), 1)
    snapshot = config.semantic_state(None)
    for _ in range(5):
        step(config, program, ())
        assert config.semantic_state(None) == snapshot


def test_trace_absorbs_after_halt():
    trace = run_trace(from_instructions([("INC", 0)]), (), 3)
    s1, s2, s3 = trace.states
    assert s1.registers == (1, 0, 0, 0)
    assert s1.halted
    assert s2 == s1
    assert s3 == s1


def test_in_out_trace():
    trace = run_trace(from_instructions([("IN", 0), ("OUT", 0)]), (7,), 2)
    s1, s2 = trace.states
    assert s1.registers == (7, 0, 0, 0)
    assert s1.input_cursor == 1
    assert not s1.halted
    assert s2.outputs == (7,)
    assert s2.halted


def test_dvt_trace_follows_canonical_schedule():
    # Ticks 1 and 2 both run the first program (the empty one), steps 1 and 2.
    trace = run_trace(DVT_PROG, (), 2)
    s1, s2 = trace.states
    assert s1.event is not None and s1.event.code_bits == "1111" and s1.event.step_index == 1
    assert s2.event is not None and s2.event.code_bits == "1111" and s2.event.step_index == 2
    assert s1.event.state.halted  # the empty program halts on its first step
    assert not s1.halted  # the dovetailing host never halts
    assert len(trace.events) == 2


def test_while_loop_counts_down():
    # IN r0; WHILE r0 { DEC r0; OUT r0 }; entering, body, and the WEND test
    # are one step each.
    program = from_instructions([("IN", 0), ("WHILE", 0, (("DEC", 0), ("OUT", 0)))])
    trace = run_trace(program, (2,), 8)
    finals = trace.states[-1]
    assert finals.halted
    assert finals.outputs == (1, 0)
    assert finals.registers == (0, 0, 0, 0)


def test_while_skipped_when_register_zero():
    program = from_instructions([("WHILE", 3, (("INC", 0),)), ("INC", 1)])
    trace = run_trace(program, (), 2)
    assert trace.states[0].registers == (0, 0, 0, 0)
    assert trace.states[1].registers == (0, 1, 0, 0)
    assert trace.states[1].halted


def test_empty_while_body_spins_forever():
    program = from_instructions([("INC", 2), ("WHILE", 2, ())])
    trace = run_trace(program, (), 6)
    assert not trace.states[-1].halted
    assert trace.states[-1].registers == (0, 0, 1, 0)


def test_halt_inside_loop():
    program = from_instructions([("INC", 0), ("WHILE", 0, (("HALT",),))])
    trace = run_trace(program, (), 3)
    assert trace.states[2].halted
    assert trace.states[2].registers == (1, 0, 0, 0)


def test_exec_of_empty_program_single_noop_step():
    program = decode("011111111111")
    trace = run_trace(program, (), 2)
    s1 = trace.states[0]
    assert s1.halted  # the host moves past EXEC and reaches END in the same step
    assert s1.event is not None
    assert s1.event.code_bits == "1111"
    assert s1.event.step_index == 1
    assert s1.event.state.halted
    assert len(trace.events) == 1


def test_exec_runs_child_one_step_per_host_step():
    child = (("IN", 0), ("INC", 1), ("OUT", 1))
    program = from_instructions([("EXEC", child), ("INC", 3)])
    trace = run_trace(program, (5,), 4)
    events = trace.events
    # The child halts at its third step; the host then runs INC r3.
    assert [e.step_index for e in events] == [1, 2, 3]
    assert all(e.code_bits == from_instructions(child).bits for e in events)
    # Child input is the empty tape, never the host tape.
    assert events[0].state.registers == (0, 0, 0, 0)
    assert events[2].state.outputs == (1,)
    assert events[2].state.halted
    assert trace.states[3].registers == (0, 0, 0, 1)
    assert trace.states[3].halted
    # Child outputs stay in the emulation events, not the host log.
    assert trace.states[3].outputs == ()


def test_exec_of_nonhalting_child_never_advances():
    child = (("INC", 0), ("WHILE", 0, ()))
    program = from_instructions([("EXEC", child), ("OUT", 0)])
    trace = run_trace(program, (), 10)
    assert not trace.states[-1].halted
    assert trace.states[-1].outputs == ()
    assert [e.step_index for e in trace.events] == list(range(1, 11))


def test_emulated_step_indices_consecutive_per_instance():
    # The per-step direct events of one host are one emulation instance per
    # child code; the flat log also interleaves nested instances (children
    # that dovetail themselves), so it is not grouped here.
    trace = run_trace(DVT_PROG, (), 30)
    by_code: dict[str, list[int]] = {}
    for state in trace.states:
        assert state.event is not None
        by_code.setdefault(state.event.code_bits, []).append(state.event.step_index)
    for indices in by_code.values():
        assert indices == list(range(1, len(indices) + 1))


def test_run_trace_validates_arguments():
    with pytest.raises(ValueError):
        run_trace(EMPTY, (), 0)


def test_run_events_summary():
    assert run_events(from_instructions([("INC", 0)]), 50) == {}
    summary = run_events(DVT_PROG, 3)
    assert summary["1111"] == 2
    assert summary["00001111"] == 1
    assert run_events(DVT_PROG, 0) == {}
    with pytest.raises(ValueError):
        run_events(EMPTY, -1)


@pytest.mark.parametrize("steps", [1, 10, 1000])
def test_run_events_agrees_with_run_trace_events(steps):
    # Oracle: the summary rebuilt from every buffered event of a traced run.
    for program in enumerate_programs(12):
        expected: dict[str, int] = {}
        for event in run_trace(program, (), steps).events:
            if event.step_index > expected.get(event.code_bits, 0):
                expected[event.code_bits] = event.step_index
        summary = run_events(program, steps)
        assert type(summary) is dict
        assert list(summary.items()) == list(expected.items()), program.bits


# A child's peak RSS includes its parent's RSS at fork time, so the run forks
# from a fresh interpreter rather than from the test process.
RUN_EVENTS_RSS = """
import os
pid = os.fork()
if pid == 0:
    from udlab.encoding import decode
    from udlab.machine import run_events
    run_events(decode("10001111"), 10**5)
    os._exit(0)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_run_events_memory_stays_flat_in_steps():
    # Buffering every event of a DVT host to T=10^5 peaks near 60 MB; folding
    # them as they arrive stays near the interpreter's own footprint.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", RUN_EVENTS_RSS], env=env, capture_output=True, text=True, timeout=120
    )
    code, maxrss_kib = map(int, done.stdout.split())
    assert code == 0
    assert maxrss_kib < 40 * 1024


def test_step_counter_advances():
    before = step_count()
    run_trace(from_instructions([("INC", 0)]), (), 4)
    assert step_count() - before == 4


PROGRAMS = enumerate_programs(12)
TAPES = [(), (0,), (1,), (1, 1), (0, 1, 0)]


@given(
    st.sampled_from(PROGRAMS),
    st.sampled_from(TAPES),
    st.integers(min_value=1, max_value=12),
)
def test_run_trace_deterministic(program, tape, k):
    first = run_trace(program, tape, k)
    second = run_trace(program, tape, k)
    assert first.states == second.states
    assert first.events == second.events


@given(
    st.sampled_from(PROGRAMS),
    st.sampled_from(TAPES),
    st.integers(min_value=1, max_value=10),
)
def test_trace_entries_absorb_after_halt(program, tape, k):
    states = run_trace(program, tape, k).states
    halt_at = next((i for i, s in enumerate(states) if s.halted), None)
    if halt_at is not None:
        for later in states[halt_at:]:
            assert later == states[halt_at]


@given(st.sampled_from(PROGRAMS), st.sampled_from(TAPES), st.integers(min_value=1, max_value=9))
def test_trace_prefix_property(program, tape, k):
    longer = run_trace(program, tape, k + 1).states
    shorter = run_trace(program, tape, k).states
    assert longer[:k] == shorter


def test_run_trace_exact_on_oversized_values():
    program = from_instructions([("IN", 0), ("OUT", 0)])
    trace = run_trace(program, (2**62,), 2)
    assert trace.states[1].outputs == (2**62,)
