import pytest

from builders import from_instructions
from oracles import dovetail_run, dovetail_summary
from stepping import MaxSteps, full_ticks, trace_events
from udlab import dovetailer
from udlab.cli import main
from udlab.dovetailer import MAX_TICKS, DovetailEngine, reached_prefix, schedule_pair
from udlab.encoding import DVT, EXEC, HALT, TABLE_A, TABLE_B, Program
from udlab.enumeration import MAX_LEN, block_counts, enumerate_programs, program_stream
from udlab.machine import run_trace, step_events


def brute_force_pairs(count):
    """Independent oracle: walk the diagonals explicitly."""
    pairs = []
    d = 2
    while len(pairs) < count:
        for i in range(1, d):
            pairs.append((i, d - i))
        d += 1
    return pairs[:count]


def test_first_ticks():
    assert schedule_pair(1) == (1, 1)
    assert schedule_pair(2) == (1, 2)
    assert schedule_pair(3) == (2, 1)
    assert schedule_pair(5) == (2, 2)
    assert schedule_pair(6) == (3, 1)


def test_matches_brute_force_enumerator():
    oracle = brute_force_pairs(10_000)
    assert [schedule_pair(t) for t in range(1, 10_001)] == oracle


def test_bijective_over_tested_range():
    seen = set()
    for t in range(1, 5001):
        pair = schedule_pair(t)
        assert pair not in seen
        seen.add(pair)
    # After finishing diagonal D every pair with i+s <= D has been run.
    D = 100
    expected = {(i, s) for i in range(1, D) for s in range(1, D) if i + s <= D}
    assert {schedule_pair(t) for t in range(1, D * (D - 1) // 2 + 1)} == expected


def test_fairness_bound():
    # Pair (i, s) runs at tick (i+s-1)(i+s-2)/2 + i.
    for i in range(1, 40):
        for s in range(1, 40):
            tick = (i + s - 1) * (i + s - 2) // 2 + i
            assert schedule_pair(tick) == (i, s)


def test_completed_steps_after_full_diagonal():
    for D in (2, 5, 30):
        done: dict[int, int] = {}
        for t in range(1, D * (D - 1) // 2 + 1):
            i, _ = schedule_pair(t)
            done[i] = done.get(i, 0) + 1
        for i in range(1, D + 2):
            assert done.get(i, 0) == max(0, D - i)


def test_tick_validation(monkeypatch):
    with pytest.raises(ValueError):
        schedule_pair(0)
    with pytest.raises(ValueError):
        dovetail_run(-1)
    # stream_tick indexes events[tick - 1]: on a fresh stream a tick below 1
    # would raise IndexError, and on a ticked one read from the list's end.
    monkeypatch.setattr(dovetailer, "_ENGINES", {})
    for ticks_before in (0, 3):
        if ticks_before:
            dovetailer.stream_tick(ticks_before, TABLE_A)
        for tick in (0, -1):
            with pytest.raises(ValueError, match="1-based"):
                dovetailer.stream_tick(tick, TABLE_A)


def test_single_tick():
    events = dovetail_run(1)
    assert len(events) == 1
    event = events[0]
    assert event.code_bits == "1111"
    assert event.step_index == 1
    assert event.state.halted


def test_three_ticks():
    events = dovetail_run(3)
    assert [(e.code_bits, e.step_index) for e in events] == [
        ("1111", 1),
        ("1111", 2),
        ("00001111", 1),
    ]


def test_zero_ticks():
    assert dovetail_run(0) == []


def test_dvt_instruction_agrees_with_runner():
    # The canonical host is the one-instruction dovetailer program itself, so
    # the two streams must be identical, event for event.
    for ticks in (1, 7, 25):
        program = from_instructions([(DVT,)], TABLE_A)
        assert trace_events(run_trace(program, (), ticks)) == dovetail_run(ticks)


def test_max_ticks_is_the_last_summary_within_the_enumeration(monkeypatch):
    # A stand-in stream records the furthest program the summary reads, so
    # no program up to 31 bits is generated.
    furthest = 0

    class Stream:
        def nth(self, n):
            nonlocal furthest
            furthest = max(furthest, n)
            return Program("1111", (), TABLE_A)

    monkeypatch.setattr(dovetailer, "program_stream", lambda table: Stream())
    held = sum(block_counts(MAX_LEN))
    dovetail_summary(MAX_TICKS)
    assert furthest == held
    # One tick more would read one program more, so the summary refuses it.
    i, s = schedule_pair(MAX_TICKS + 1)
    assert max(i, i + s - 2) == held + 1


def test_summary_past_max_ticks_is_refused_before_the_stream_grows():
    # One tick past the cap, the summary would generate every program up to
    # 31 bits (about 1.8 s and 190 MB) and then fail on a length bound of 32
    # that no caller gave, so the tick count is refused first.
    stream = program_stream(TABLE_A)
    held = len(stream._programs)
    for ticks in (MAX_TICKS + 1, 10**12):
        with pytest.raises(ValueError, match=f"ticks {ticks} is above {MAX_TICKS}"):
            dovetail_summary(ticks)
    assert len(stream._programs) == held


@pytest.mark.parametrize("table", [TABLE_A, TABLE_B], ids=["A", "B"])
def test_dovetail_summary_matches_the_ticked_stream(table):
    # Oracle: every event of every tick, nested ones included, folded in
    # order of appearance.  The closed form ignores nested events, so this
    # checks that none of them ever passes its code's top-level count.
    assert dovetail_summary(0, table) == {}
    engine = DovetailEngine(table)
    folded = MaxSteps()
    for tick in range(1, 20_001):
        folded.fold(step_events(engine.tick()))
        if tick <= 1000 or tick % 97 == 0:
            assert list(dovetail_summary(tick, table).items()) == list(folded.items()), tick
    with pytest.raises(ValueError):
        dovetail_summary(-1, table)


def test_reached_prefix_is_the_summary_run_at_each_step():
    # The summary's max steps never increase along it, so the codes run to
    # at least `steps` steps are a leading run, whose length reached_prefix
    # gives.  Ticks 0..5000 cross every diagonal boundary up to d = 100.
    for ticks in (*range(5001), 20_000):
        runs = list(dovetail_summary(ticks).values())
        assert runs == sorted(runs, reverse=True), ticks
        for steps in range(1, (runs[0] if runs else 0) + 2):
            assert reached_prefix(ticks, steps) == sum(r >= steps for r in runs), (ticks, steps)
    assert reached_prefix(MAX_TICKS, 1) == sum(block_counts(MAX_LEN))


@pytest.mark.parametrize("table", [TABLE_A, TABLE_B], ids=["A", "B"])
def test_engine_ticks_equal_stepping_every_child(table):
    # The engine does not step a halted child: its later events hold the
    # one state it halted into, which must equal what each no-op step gives.
    engine = DovetailEngine(table)
    ticked = [engine.tick() for _ in range(3000)]
    assert ticked == full_ticks(3000, table)
    halted = {}  # code bits -> its states from the halting step on
    for ref in ticked:
        if ref.state.halted:
            halted.setdefault(ref.code_bits, []).append(ref.state)
    for code_bits, states in halted.items():
        assert all(state is states[1] for state in states[2:]), code_bits
    assert sum(len(states) > 2 for states in halted.values()) > 30


def test_nested_dovetailers_emit_inner_events():
    # Tick 6 starts child 3, which is the dovetailer program; its first step
    # performs its own tick 1 and that inner event precedes the outer one.
    events = dovetail_run(6)
    assert len(events) == 7
    inner, outer = events[-2], events[-1]
    assert outer.code_bits == "10001111" and outer.step_index == 1
    assert inner.code_bits == "1111" and inner.step_index == 1
    assert outer.state.event is not None  # the child state carries its own event


def test_runs_are_independent():
    first = dovetail_run(10)
    second = dovetail_run(10)
    assert first == second


def test_partition_ticks_one_stream_not_one_engine_per_host(monkeypatch, capsys):
    # The three DVT hosts of L<=12 each ticked an engine of their own, at
    # least 3*k ticks; they now read one stream, ticked only as far as the
    # furthest tick a host reads.
    monkeypatch.setattr(dovetailer, "_ENGINES", {})
    ticks = 0
    tick = DovetailEngine.tick

    def counted(self):
        nonlocal ticks
        ticks += 1
        return tick(self)

    monkeypatch.setattr(DovetailEngine, "tick", counted)
    assert main(["partition", "-L", "12", "-k", "500"]) == 0
    assert capsys.readouterr().out
    assert 0 < ticks <= 500


def test_dovetail_rows_keep_only_the_events_nested_dovetailers_read(monkeypatch, capsys):
    # The rows tick an engine of their own; the shared stream holds only the
    # ticks that the dovetailer programs among the children read, not one
    # event per row for the rest of the process.
    monkeypatch.setattr(dovetailer, "_ENGINES", {})
    assert main(["dovetail", "--ticks", "20000"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 20002
    assert len(dovetailer._ENGINES["A"].events) == 198


@pytest.mark.parametrize("table", [TABLE_A, TABLE_B], ids=["A", "B"])
def test_dvt_hosts_carry_the_same_event_objects(table):
    first = run_trace(from_instructions([(DVT,)], table), (), 50)
    second = run_trace(from_instructions([(DVT,), (HALT,)], table), (), 50)
    assert all(a.event is b.event for a, b in zip(first, second))


def test_encoding_b_runner_uses_b_bits():
    events = dovetail_run(3, TABLE_B)
    assert events[0].code_bits == "1111"
    # Under B the second program is itself the dovetailer, so tick 3 yields
    # its inner tick-1 event followed by the outer event about it.
    assert len(events) == 4
    inner, outer = events[2], events[3]
    assert inner.code_bits == "1111"
    assert outer.code_bits == "00001111" and outer.step_index == 1
    assert not outer.state.halted


@pytest.mark.parametrize("table", [TABLE_A, TABLE_B], ids=["A", "B"])
def test_exec_and_dvt_raise_the_same_emulation_refs(table):
    # EXEC P at host step s and the dovetailer at the tick of pair
    # (index of P, s) both emulate step s of P on the empty tape.
    programs = enumerate_programs(12, table)
    horizons = {}
    for program in programs:
        states = run_trace(program, (), 20)
        horizons[program.bits] = next((s for s, st in enumerate(states, 1) if st.halted), 20)
    ticks = {}
    for index, program in enumerate(programs, 1):
        for s in range(1, horizons[program.bits] + 1):
            d = index + s
            tick = (d - 1) * (d - 2) // 2 + index
            assert schedule_pair(tick) == (index, s)
            ticks[tick] = (program, s)
    engine = DovetailEngine(table)
    by_pair = {}
    for tick in range(1, max(ticks) + 1):
        ref = engine.tick()
        if tick in ticks:
            by_pair[ticks[tick]] = ref
    for program in programs:
        host = from_instructions([(EXEC, program)], table)
        states = run_trace(host, (), horizons[program.bits])
        for s, state in enumerate(states, 1):
            assert state.event == by_pair[program, s], (program.bits, s)
            assert state.event.code_bits == program.bits and state.event.step_index == s
