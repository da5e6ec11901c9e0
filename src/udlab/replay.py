"""Record, replay, takeover, and severance experiments.

A Recording is the "movie" and nothing more: the program, the tape it ran
on, and the k semantic states the run passed through.  Playback returns
the stored trace without executing a single machine step.  hybrid_run
replays while a live computation shadow-checks every transition and takes
over at the first divergence, which preserves counterfactual behavior
exactly.  sever_and_project replaces chosen transitions with the recorded
ones, producing a system that is state-trace identical on the recorded input
yet, in general, no longer counterfactually equivalent to the program it was
filmed from; the verdict quantifies exactly that over an input universe.  A
recording stores no machine configuration: severance re-derives the ones its
severed transitions impose by re-running the program on the recorded tape,
and needs none when the film read no input.
"""

from __future__ import annotations

import json
from typing import Iterator, NamedTuple

from .encoding import EncodingTable, Program, TABLE_A, decode
from .equivalence import DEFAULT_UNIVERSE, InputUniverse, read_cells, trace_family
from .machine import Configuration, SemanticState, Tape, run_trace, step


class Recording(NamedTuple):
    """A filmed run: program, tape and the k-step semantic trace.  The
    configurations behind severed frames are not stored; severance re-derives
    them by deterministic re-execution on the recorded tape."""

    program: Program
    tape: Tape
    trace: tuple[SemanticState, ...]

    @property
    def k(self) -> int:
        return len(self.trace)


class HybridResult(NamedTuple):
    trace: tuple[SemanticState, ...]
    switch_step: int | None  # first step where live computation took over


class SeveranceResult(NamedTuple):
    trace: tuple[SemanticState, ...]
    equivalent: bool  # counterfactual verdict over the universe


def record(program: Program, tape: Tape, k: int) -> Recording:
    """Run the program and film it: its semantic states after steps 1..k."""
    tape = tuple(tape)
    return Recording(program=program, tape=tape, trace=run_trace(program, tape, k))


def playback(rec: Recording) -> tuple[SemanticState, ...]:
    """Return the stored trace; no machine step is executed, and there is no
    tape to vary: a replay is the same in every world."""
    return rec.trace


def hybrid_run(rec: Recording, actual_tape: Tape) -> HybridResult:
    """Replay with a live shadow that takes over at the first divergence.

    The live trace is computed on the actual tape and compared against the
    recording; while they agree the steps count as replayed, and from the
    first mismatch on the trace is the live one.

    A Recording's trace is its program's run on its tape, which record and
    recording_from_data guarantee, and a run depends only on the cells it
    read.  On a tape that agrees, zero-padded, with the recorded one on the
    cells the film read, the live run is the film: it is returned with no
    step run and no switch.
    """
    actual_tape = tuple(actual_tape)
    cursor = rec.trace[-1].input_cursor
    if read_cells(actual_tape, cursor) == read_cells(rec.tape, cursor):
        return HybridResult(trace=rec.trace, switch_step=None)
    live = run_trace(rec.program, actual_tape, rec.k)
    switch = next((i for i, (a, b) in enumerate(zip(live, rec.trace), 1) if a != b), None)
    return HybridResult(trace=live, switch_step=switch)


def _filmed_frames(rec: Recording, severed: set[int]) -> dict[int, Configuration]:
    """The configurations after each severed step of the filmed run."""
    config = Configuration(rec.program)
    frames = {}
    for i in range(1, max(severed, default=0) + 1):
        step(config, rec.tape)
        if i in severed:
            frames[i] = config.clone()
    return frames


def _severed_states(
    rec: Recording, frames: dict[int, Configuration], tape: Tape
) -> tuple[SemanticState, ...]:
    config = Configuration(rec.program)
    states = []
    for i in range(1, rec.k + 1):
        if i in frames:
            # Input-blind transition: the filmed machine state is imposed.
            config = frames[i].clone()
            states.append(rec.trace[i - 1])
        else:
            direct = step(config, tape)
            states.append(config.semantic_state(direct))
    return tuple(states)


def sever_and_project(
    rec: Recording,
    severed_steps,
    actual_tape: Tape,
    universe: InputUniverse = DEFAULT_UNIVERSE,
) -> SeveranceResult:
    """Run k steps, each severed one (a 1-based index in severed_steps, any
    iterable) supplied by the recording.

    Severed steps copy the filmed state regardless of input; the rest compute
    live from whatever state the system is in.  The verdict treats the
    severed system as a program-like object and asks whether it is
    counterfactually equivalent to the original program over the universe:
    its trace must match the original's on every tape, not just the actual one.

    Runs agree on every tape until their first IN, so a film that read no
    input is the run on every tape, and so is its severed system, whose live
    steps start from filmed configurations and read nothing either: the
    result is the film, equivalent, with no step run.  Otherwise the filmed
    configurations are re-derived by one run on the recorded tape and each
    tape's live run takes a copy at every severed step.
    """
    severed = set()
    for s in severed_steps:
        if not isinstance(s, int) or isinstance(s, bool) or s < 1:
            raise ValueError("severed step indices are 1-based and must be >= 1")
        if s > rec.k:
            raise ValueError(f"severed steps must lie in 1..{rec.k}")
        severed.add(s)
    if rec.trace[-1].input_cursor == 0:
        return SeveranceResult(trace=rec.trace, equivalent=True)
    frames = _filmed_frames(rec, severed)
    trace = _severed_states(rec, frames, tuple(actual_tape))
    traces = trace_family(rec.program, universe, rec.k)
    equivalent = all(
        _severed_states(rec, frames, tape) == original
        for tape, original in zip(universe.tapes, traces)
    )
    return SeveranceResult(trace=trace, equivalent=equivalent)


def recording_to_data(rec: Recording) -> dict:
    """JSON-ready form: program bits, tape, k, trace (deterministic order).
    The trace holds the states themselves, which json writes as lists."""
    return {
        "program_bits": rec.program.bits,
        "tape": list(rec.tape),
        "k": rec.k,
        "trace": list(rec.trace),
    }


_RECORDING_FIELDS = {"program_bits": str, "tape": list, "k": int, "trace": list}


def recording_from_data(data: dict, table: EncodingTable = TABLE_A) -> Recording:
    """Rebuild a recording, re-running the program and verifying the stored
    trace matches; recordings are deterministic artifacts, never hand-edited.
    A trace whose length is not k is refused before any step runs."""
    for key, kind in _RECORDING_FIELDS.items():
        value = data.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"field {key!r} is missing or not of type {kind.__name__}")
    if any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in data["tape"]):
        raise ValueError(f"tape entries must be naturals, got {data['tape']!r}")
    if len(data["trace"]) != data["k"]:
        raise ValueError(f"trace holds {len(data['trace'])} states, not k={data['k']}")
    rec = record(decode(data["program_bits"], table), tuple(data["tape"]), data["k"])
    if json.dumps(rec.trace) != json.dumps(data["trace"]):
        raise ValueError("stored trace does not match deterministic re-execution")
    return rec


def _state_json(state: SemanticState, level: int) -> str:
    """One state as json.dumps(indent=2) writes it `level` indents deep: a
    state is always [registers(4), cursor, outputs, halted, event] and an
    event [bits, step, state], so one f-string per nesting level does."""
    end = "\n" + "  " * level  # before the state's closing bracket
    field = end + "  "  # before each of its five fields
    first = field + "  "  # before the first entry of a field
    entry = "," + first  # before each later one
    r0, r1, r2, r3 = state.registers
    outputs = state.outputs
    outputs = f"[{first}{entry.join(map(str, outputs))}{field}]" if outputs else "[]"
    event = state.event
    if event is None:
        event = "null"
    else:
        inner = _state_json(event.state, level + 2)
        event = f'[{first}"{event.code_bits}"{entry}{event.step_index}{entry}{inner}{field}]'
    return (
        f"[{field}[{first}{r0}{entry}{r1}{entry}{r2}{entry}{r3}{field}],"
        f"{field}{state.input_cursor},{field}{outputs},"
        f"{field}{'true' if state.halted else 'false'},{field}{event}{end}]"
    )


def document(payload: dict) -> Iterator[str]:
    """json.dumps(payload, indent=2) + "\n", byte for byte and in chunks, for
    the document of a recording command: other keys, then "trace", a
    nonempty sequence of states.  The other keys go through json.dumps, in
    the first chunk; then each state is one chunk, written by _state_json,
    each distinct state object once, since a halted run repeats one padding
    state; the closing brackets come last."""
    *head, (_, trace) = payload.items()
    yield json.dumps(dict(head), indent=2)[:-2] + ',\n  "trace": ['
    separator = "\n    "
    last = text = None
    for state in trace:
        if state is not last:
            last, text = state, _state_json(state, 2)
        yield separator + text
        separator = ",\n    "
    yield "\n  ]\n}\n"
