import hashlib
import json
import random

import pytest

from builders import DOVETAILING_HOSTS, from_instructions
from oracles import dovetail_run, merged_events
from peak_rss import forked_peak_rss
from stepping import MaxSteps, full_events, full_trace, trace_events
from udlab.encoding import DVT, TABLE_A, TABLE_B, decode
from udlab.enumeration import enumerate_programs
from udlab.equivalence import DEFAULT_UNIVERSE
from udlab.machine import (
    Configuration,
    run_events,
    run_trace,
    step,
    step_count,
    step_events,
)

EMPTY = decode("1111")
DVT_PROG = decode("10001111")


def fresh_state_after(program, tape, steps):
    config = Configuration(program)
    event = None
    for _ in range(steps):
        event = step(config, tape)
    return config, event


def test_empty_program_halts_on_first_step():
    config, _ = fresh_state_after(EMPTY, (), 1)
    assert config.halted
    assert config.registers == [0, 0, 0, 0]


def test_configuration_steps_the_programs_own_code():
    # The code is laid out once, when the program is built; a run only
    # points at it.  The empty program steps one HALT for its END.
    program = from_instructions([("INC", 0), ("WHILE", 0, (("DEC", 0),))])
    assert Configuration(program).code is program.instructions
    assert Configuration(program).clone().code is program.instructions
    assert Configuration(EMPTY).code == (("HALT",),)


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
        step(config, ())
        assert config.semantic_state(None) == snapshot


def test_trace_absorbs_after_halt():
    s1, s2, s3 = run_trace(from_instructions([("INC", 0)]), (), 3)
    assert s1.registers == (1, 0, 0, 0)
    assert s1.halted
    assert s2 == s1
    assert s3 == s1


def test_in_out_trace():
    s1, s2 = run_trace(from_instructions([("IN", 0), ("OUT", 0)]), (7,), 2)
    assert s1.registers == (7, 0, 0, 0)
    assert s1.input_cursor == 1
    assert not s1.halted
    assert s2.outputs == (7,)
    assert s2.halted


def test_dvt_trace_follows_canonical_schedule():
    # Ticks 1 and 2 both run the first program (the empty one), steps 1 and 2.
    trace = run_trace(DVT_PROG, (), 2)
    s1, s2 = trace
    assert s1.event is not None and s1.event.code_bits == "1111" and s1.event.step_index == 1
    assert s2.event is not None and s2.event.code_bits == "1111" and s2.event.step_index == 2
    assert s1.event.state.halted  # the empty program halts on its first step
    assert not s1.halted  # the dovetailing host never halts
    assert len(trace_events(trace)) == 2


def test_while_loop_counts_down():
    # IN r0; WHILE r0 { DEC r0; OUT r0 }; entering, body, and the WEND test
    # are one step each.
    program = from_instructions([("IN", 0), ("WHILE", 0, (("DEC", 0), ("OUT", 0)))])
    trace = run_trace(program, (2,), 8)
    finals = trace[-1]
    assert finals.halted
    assert finals.outputs == (1, 0)
    assert finals.registers == (0, 0, 0, 0)


def test_states_share_the_output_log_until_the_next_out():
    # INC r0; WHILE r0 { IN r1; OUT r1 }: an OUT every third step, forever.
    # Only an OUT replaces the log, so the states between two OUTs, and a
    # copy of the configuration, hold the same tuple instead of copies.
    program = from_instructions([("INC", 0), ("WHILE", 0, (("IN", 1), ("OUT", 1)))])
    logs = {}
    for state in run_trace(program, (1, 2, 3), 30):
        assert logs.setdefault(len(state.outputs), state.outputs) is state.outputs
    assert len(logs) == 10
    config, _ = fresh_state_after(program, (1, 2, 3), 10)
    assert config.outputs == (1, 2, 3)
    assert config.clone().outputs is config.outputs
    assert config.semantic_state(None).outputs is config.outputs


def test_while_skipped_when_register_zero():
    program = from_instructions([("WHILE", 3, (("INC", 0),)), ("INC", 1)])
    trace = run_trace(program, (), 2)
    assert trace[0].registers == (0, 0, 0, 0)
    assert trace[1].registers == (0, 1, 0, 0)
    assert trace[1].halted


def test_empty_while_body_spins_forever():
    program = from_instructions([("INC", 2), ("WHILE", 2, ())])
    trace = run_trace(program, (), 6)
    assert not trace[-1].halted
    assert trace[-1].registers == (0, 0, 1, 0)


def test_halt_inside_loop():
    program = from_instructions([("INC", 0), ("WHILE", 0, (("HALT",),))])
    trace = run_trace(program, (), 3)
    assert trace[2].halted
    assert trace[2].registers == (1, 0, 0, 0)


def test_exec_of_empty_program_single_noop_step():
    program = decode("011111111111")
    trace = run_trace(program, (), 2)
    s1 = trace[0]
    assert s1.halted  # the host moves past EXEC and reaches END in the same step
    assert s1.event is not None
    assert s1.event.code_bits == "1111"
    assert s1.event.step_index == 1
    assert s1.event.state.halted
    assert len(trace_events(trace)) == 1


def test_exec_runs_child_one_step_per_host_step():
    child = (("IN", 0), ("INC", 1), ("OUT", 1))
    program = from_instructions([("EXEC", child), ("INC", 3)])
    trace = run_trace(program, (5,), 4)
    events = trace_events(trace)
    # The child halts at its third step; the host then runs INC r3.
    assert [e.step_index for e in events] == [1, 2, 3]
    assert all(e.code_bits == from_instructions(child).bits for e in events)
    # Child input is the empty tape, never the host tape.
    assert events[0].state.registers == (0, 0, 0, 0)
    assert events[2].state.outputs == (1,)
    assert events[2].state.halted
    assert trace[3].registers == (0, 0, 0, 1)
    assert trace[3].halted
    # Child outputs stay in the emulation events, not the host log.
    assert trace[3].outputs == ()


def test_exec_of_nonhalting_child_never_advances():
    child = (("INC", 0), ("WHILE", 0, ()))
    program = from_instructions([("EXEC", child), ("OUT", 0)])
    trace = run_trace(program, (), 10)
    assert not trace[-1].halted
    assert trace[-1].outputs == ()
    assert [e.step_index for e in trace_events(trace)] == list(range(1, 11))


def test_emulated_step_indices_consecutive_per_instance():
    # The per-step direct events of one host are one emulation instance per
    # child code; the flat log also interleaves nested instances (children
    # that dovetail themselves), so it is not grouped here.
    trace = run_trace(DVT_PROG, (), 30)
    by_code: dict[str, list[int]] = {}
    for state in trace:
        assert state.event is not None
        by_code.setdefault(state.event.code_bits, []).append(state.event.step_index)
    for indices in by_code.values():
        assert indices == list(range(1, len(indices) + 1))


@pytest.mark.parametrize("table", [TABLE_A, TABLE_B], ids=["A", "B"])
def test_dovetailing_tail_equals_full_stepping(table):
    # A host whose DVT fires inside EXECs, in a loop body or after an IN
    # reads its tail off the stream; every step of the oracle goes through
    # step(), every tick of its dovetailer too.
    hosts = (*DOVETAILING_HOSTS, *(instructions for instructions, _ in DVT_HOSTS.values()))
    for instructions in hosts:
        program = from_instructions(instructions, table)
        for tape in ((), (0,), (1,), (2, 1), (3, 0, 1)):
            full = full_trace(program, tape, 300)
            assert run_trace(program, tape, 300) == full, (program.bits, tape)


def test_dovetailing_tail_is_not_stepped():
    # The run is stepped up to the step after the one that fires the DVT,
    # whose tick 2 runs the halted 1111 and so steps no child; the rest of
    # its 300 states read a stream already ticked that far, and no step is
    # counted for them.  The DVT host steps its DVT (1) and that next step
    # (1).  The EXEC host steps INC (1), OUT in its child (2: host and
    # child), the child's DVT (2) and the next step (2).
    dovetail_run(300)
    for instructions, steps in (([(DVT,)], 2), ([("INC", 2), ("EXEC", [("OUT", 2), (DVT,)])], 7)):
        before = step_count()
        trace = run_trace(from_instructions(instructions), (), 300)
        assert step_count() - before == steps
        assert len(trace) == 300 and trace[-1].event is not None


def test_run_trace_validates_arguments():
    with pytest.raises(ValueError):
        run_trace(EMPTY, (), 0)


def test_run_events_summary():
    assert run_events(from_instructions([("INC", 0)]), 50) == ({}, 0)
    # The host steps tick 1 itself; the rest of its run is a tick count.
    assert run_events(DVT_PROG, 3) == ({"1111": 1}, 3)
    summary = merged_events(DVT_PROG, 3)
    assert summary["1111"] == 2
    assert summary["00001111"] == 1
    assert run_events(DVT_PROG, 0) == ({}, 0)
    with pytest.raises(ValueError):
        run_events(EMPTY, -1)


# sha256 over the JSON of every 40-step trace of every L<=12 program, under A
# then B, on every default-universe tape in order.  Captured from the explicit
# list serializer that the named-tuple form replaced; a reordered or renamed
# field changes it.
STATE_FORM_DIGEST = "026ef78ae1e1a59136f8d39bc94c3d43461a6f57e8b944a50ab6bfc39a99bdd6"


def test_state_json_form_matches_golden_digest():
    digest = hashlib.sha256()
    for table in (TABLE_A, TABLE_B):
        for program in enumerate_programs(12, table):
            for tape in DEFAULT_UNIVERSE.tapes:
                digest.update(json.dumps(run_trace(program, tape, 40)).encode())
    assert digest.hexdigest() == STATE_FORM_DIGEST


# sha256 goldens of the emulation events, captured from the event sink that
# step() once threaded through every emulation level, before the states'
# nested event chains became the one record.  Each covers every L<=16
# program under A then B: the events of its 40-step traces on () then
# (1, 0), and its merged_events summaries at T=50 then T=3000.  The dovetailer
# goldens cover dovetail_run(3000).
TRACE_EVENTS_DIGEST = "b0d59dc7774387298913c4b58c9cfc37f82323af45f2e7f06b2414e201519240"
RUN_EVENTS_DIGEST = "3e56c0352d09027711dd1ec4cc574f463cdd306c04820ff40a83a1d705d573ca"
DOVETAIL_RUN_DIGESTS = {
    "A": "9eeacb75696ddcdb015739df4fa8a9ab0d85c349b73e7f21077f9d4e0f68441e",
    "B": "b710f1c6e40c116fc50714b5f9d4774f2726b8d329241342aa6fb82cebf7b739",
}


def test_trace_events_match_golden_digest():
    digest = hashlib.sha256()
    for table in (TABLE_A, TABLE_B):
        for program in enumerate_programs(16, table):
            for tape in ((), (1, 0)):
                events = trace_events(run_trace(program, tape, 40))
                digest.update(json.dumps(events).encode())
    assert digest.hexdigest() == TRACE_EVENTS_DIGEST


def test_run_events_match_golden_digest():
    digest = hashlib.sha256()
    for table in (TABLE_A, TABLE_B):
        for program in enumerate_programs(16, table):
            for steps in (50, 3000):
                digest.update(json.dumps(list(merged_events(program, steps).items())).encode())
    assert digest.hexdigest() == RUN_EVENTS_DIGEST


def _random_block(rng, depth):
    """1-3 instructions over INC/DEC/OUT/IN, with WHILE and EXEC nested up
    to depth 3 and a rare HALT or DVT."""
    block = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.02:
            block.append(("HALT",))
        elif roll < 0.04:
            block.append(("DVT",))
        elif depth < 3 and roll < 0.22:
            block.append(("WHILE", rng.randrange(4), tuple(_random_block(rng, depth + 1))))
        elif depth < 3 and roll < 0.30:
            block.append(("EXEC", tuple(_random_block(rng, depth + 1))))
        else:
            block.append((rng.choice(("INC", "DEC", "OUT", "IN")), rng.randrange(4)))
    return block


def loop_programs(count=1500, seed=0):
    """Seeded instruction trees, each setting a register and then looping
    on it at the top level, so that most of them step a loop body."""
    rng = random.Random(seed)
    programs = []
    for _ in range(count):
        reg = rng.randrange(4)
        body = tuple(_random_block(rng, 1))
        tail = _random_block(rng, 1) if rng.random() < 0.5 else []
        programs.append([(rng.choice(("INC", "IN")), reg), ("WHILE", reg, body)] + tail)
    return programs


# sha256 over loop_programs(), each under A then B: the JSON of its k=200
# traces on (), (2,) and (3, 1, 2), then of its merged_events summary at T=500.
# The L<=16 goldens above never enter a loop with a body; these programs do.
LOOP_PROGRAMS_DIGEST = "73a884ca892264b490caba7e9f01d37e117178972264068ae131c839527cae7b"


def test_loop_programs_match_golden_digest():
    digest = hashlib.sha256()
    for instructions in loop_programs():
        for table in (TABLE_A, TABLE_B):
            program = from_instructions(instructions, table)
            for tape in ((), (2,), (3, 1, 2)):
                digest.update(json.dumps(run_trace(program, tape, 200)).encode())
            digest.update(json.dumps(list(merged_events(program, 500).items())).encode())
    assert digest.hexdigest() == LOOP_PROGRAMS_DIGEST


@pytest.mark.parametrize("table", [TABLE_A, TABLE_B], ids=["A", "B"])
def test_dovetail_run_matches_golden_digest(table):
    events = json.dumps(dovetail_run(3000, table)).encode()
    assert hashlib.sha256(events).hexdigest() == DOVETAIL_RUN_DIGESTS[table.variant_id]


def test_step_events_is_the_chain_innermost_first():
    assert step_events(None) == []
    # Under B the second program is the dovetailer itself, so the host's DVT
    # tick 3 starts it, and its first step is its own tick 1.
    program = from_instructions([(DVT,)], TABLE_B)
    direct = run_trace(program, (), 3)[2].event
    inner, outer = step_events(direct)
    assert outer is direct and inner is direct.state.event
    assert inner.code_bits == "1111" and outer.code_bits == "00001111"
    assert inner.state.event is None


@pytest.mark.parametrize("steps", [1, 10, 1000])
def test_run_events_agrees_with_run_trace_events(steps):
    # Oracle: the summary rebuilt from every buffered event of a traced run.
    for program in enumerate_programs(12):
        expected = MaxSteps()
        expected.fold(trace_events(run_trace(program, (), steps)))
        summary = merged_events(program, steps)
        assert type(summary) is dict
        assert list(summary.items()) == list(expected.items()), program.bits


EVENT_CHECKPOINTS = (0, 1, 2, 50, 3000)


@pytest.mark.parametrize("table", [TABLE_A, TABLE_B], ids=["A", "B"])
def test_run_events_matches_full_stepping(table):
    # The oracle steps every host step, reading every tick of the shared
    # stream; run_events counts the post-DVT rest as ticks, which the oracle
    # folds in from the stream's closed-form summary.
    for program in enumerate_programs(16, table):
        if not program.contains_meta:
            assert run_events(program, max(EVENT_CHECKPOINTS)) == ({}, 0)
            continue
        expected = full_events(program, EVENT_CHECKPOINTS)
        for steps in EVENT_CHECKPOINTS:
            summary = merged_events(program, steps)
            assert list(summary.items()) == list(expected[steps].items()), (program.bits, steps)


DVT_HOSTS = {
    "dvt after INC": ([("INC", 0), ("DVT",)], ()),
    "dvt after IN": ([("IN", 1), ("OUT", 1), ("IN", 2), ("DVT",)], (3, 5)),
    "dvt after an EXEC child": ([("EXEC", (("INC", 0), ("OUT", 0))), ("DVT",)], ()),
    "dvt inside an EXEC child": ([("INC", 2), ("EXEC", (("IN", 0), ("DVT",)))], (4,)),
    "dvt two EXECs down": ([("EXEC", (("EXEC", (("INC", 1), ("DVT",))),))], ()),
}


@pytest.mark.parametrize("name", sorted(DVT_HOSTS))
@pytest.mark.parametrize("table", [TABLE_A, TABLE_B], ids=["A", "B"])
def test_run_events_of_hand_built_dvt_hosts(name, table):
    instructions, tape = DVT_HOSTS[name]
    program = from_instructions(instructions, table)
    checkpoints = tuple(range(8)) + (50, 3000)
    expected = full_events(program, checkpoints, tape)
    for steps in checkpoints:
        summary = merged_events(program, steps, tape)
        assert list(summary.items()) == list(expected[steps].items()), steps


RUN_EVENTS_RSS = """
import sys
from udlab.encoding import decode
from udlab.machine import run_events
run_events(decode("10001111"), int(sys.argv[1]))
"""


def test_run_events_memory_stays_flat_in_steps():
    # Buffering every event of a DVT host to T=10^5 peaks near 60 MB, and even
    # one small entry per tick would pass the bound by T=3*10^5; a host's
    # summary and tick count stay near the interpreter's own footprint.
    for steps in (10**5, 3 * 10**5, 10**6):
        code, maxrss_kib = forked_peak_rss(RUN_EVENTS_RSS, str(steps))
        assert code == 0, steps
        assert maxrss_kib < 40 * 1024, steps


def test_step_counter_advances():
    # INC r0 halts at step 1; the three later entries are padding, not steps.
    before = step_count()
    states = run_trace(from_instructions([("INC", 0)]), (), 4)
    assert step_count() - before == 1
    assert len(states) == 4
    halted = states[0]
    assert halted.halted
    assert states[1:] == (halted, halted, halted)


PROGRAMS = enumerate_programs(12)
TAPES = [(), (0,), (1,), (1, 1), (0, 1, 0)]
CASES = [(p, tape, k) for p in PROGRAMS for tape in TAPES for k in range(1, 13)]


def test_run_trace_deterministic():
    for program, tape, k in CASES:
        assert run_trace(program, tape, k) == run_trace(program, tape, k), (program.bits, tape, k)


def test_trace_entries_absorb_after_halt():
    # The halting entry keeps the event of the step that halted (an EXEC
    # child can halt in its host's halting step); every later entry is the
    # halted configuration with no event.
    for program, tape, k in CASES:
        states = run_trace(program, tape, k)
        halt_at = next((i for i, s in enumerate(states) if s.halted), None)
        if halt_at is not None:
            padding = states[halt_at]._replace(event=None)
            for later in states[halt_at + 1 :]:
                assert later == padding, (program.bits, tape, k)


def test_trace_prefix_property():
    for program, tape, k in CASES:
        longer = run_trace(program, tape, k + 1)
        assert longer[:k] == run_trace(program, tape, k), (program.bits, tape, k)


def test_run_trace_exact_on_oversized_values():
    program = from_instructions([("IN", 0), ("OUT", 0)])
    trace = run_trace(program, (2**62,), 2)
    assert trace[1].outputs == (2**62,)
