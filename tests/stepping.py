"""Full-stepping oracles for the machine's shortcuts.

Each helper is the plain loop the shortcut replaces: every one of the k or T
steps goes through step(), halted or not, on every tape, a DVT host reads
every tick of the shared dovetail stream, and a dovetailer steps each child
at each of its ticks.  They are slow on purpose; tests
compare the tracer, the trace-family keys, run_events and sever_and_project
against them.
"""

from udlab.dovetailer import schedule_pair
from udlab.enumeration import program_stream
from udlab.machine import Configuration, emulate, step, step_events


def full_trace(program, tape, k):
    """The k semantic states of a run, each one stepped."""
    config = Configuration(program)
    states = []
    for _ in range(k):
        direct = step(config, tape)
        states.append(config.semantic_state(direct))
    return tuple(states)


def full_ticks(ticks, table):
    """The events of the schedule's first `ticks` ticks, each child stepped
    through emulate() at each of its ticks, halted or not."""
    stream = program_stream(table)
    children = {}
    events = []
    for tick in range(1, ticks + 1):
        index, _ = schedule_pair(tick)
        if index not in children:
            children[index] = Configuration(stream.nth(index))
        events.append(emulate(children[index]))
    return events


def trace_events(states):
    """Every emulation event of a trace, in the order its steps raised them."""
    return [event for state in states for event in step_events(state.event)]


class MaxSteps(dict):
    """Code bits -> highest emulated step index, in order of first appearance."""

    def fold(self, events):
        for event in events:
            if event.step_index > self.get(event.code_bits, 0):
                self[event.code_bits] = event.step_index


def full_events(program, checkpoints, tape=()):
    """checkpoint T -> the run_events summary of the first T host steps,
    every step (and every dovetailer tick) executed, from one run."""
    config = Configuration(program)
    summary = MaxSteps()
    found = {}
    for done in range(max(checkpoints) + 1):
        if done in checkpoints:
            found[done] = dict(summary)
        summary.fold(step_events(step(config, tape)))
    return found


def per_tape_sever(rec, severed, actual_tape, universe):
    """(trace on the actual tape, verdict) of a severance, the severed system
    and the filmed program each stepped afresh on every tape of the universe.
    A severed step i imposes the filmed state and the filmed configuration,
    re-derived by stepping a fresh configuration i times on the recorded tape."""

    def severed_trace(tape):
        live = Configuration(rec.program)
        states = []
        for i in range(1, rec.k + 1):
            if i in severed:
                live = Configuration(rec.program)
                for _ in range(i):
                    step(live, rec.tape)
                states.append(rec.trace[i - 1])
            else:
                direct = step(live, tape)
                states.append(live.semantic_state(direct))
        return tuple(states)

    verdict = all(
        severed_trace(tape) == full_trace(rec.program, tape, rec.k) for tape in universe.tapes
    )
    return severed_trace(tuple(actual_tape)), verdict
