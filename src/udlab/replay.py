"""Record, replay, takeover, and severance experiments.

A Recording is the "movie" and nothing more: the program, the tape it ran
on, k, and the k semantic states the run passed through.  Playback returns
the stored trace without executing a single machine step.  hybrid_run
replays while a live computation shadow-checks every transition and takes
over at the first divergence, which preserves counterfactual behavior
exactly.  sever_and_project replaces chosen transitions with the recorded
ones, producing a system that is state-trace identical on the recorded input
yet, in general, no longer counterfactually equivalent to the program it was
filmed from; the verdict quantifies exactly that over an input universe.  The
machine configurations those severed transitions impose are not stored: they
are re-derived by deterministic re-execution on the recorded tape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .encoding import EncodingTable, Program, TABLE_A, decode
from .equivalence import DEFAULT_UNIVERSE, InputUniverse, trace_family
from .machine import Configuration, SemanticState, run_trace, step

Tape = tuple[int, ...]


@dataclass(frozen=True)
class Recording:
    """A filmed run: program, tape, k and the k-step semantic trace.  The
    configurations behind severed frames are not stored; severance re-derives
    them by deterministic re-execution on the recorded tape."""

    program: Program
    tape: Tape
    k: int
    trace: tuple[SemanticState, ...]


@dataclass(frozen=True)
class HybridResult:
    trace: tuple[SemanticState, ...]
    switch_step: int | None  # first step where live computation took over


@dataclass(frozen=True)
class SeverancePlan:
    severed_steps: frozenset[int]

    @staticmethod
    def of(steps) -> "SeverancePlan":
        steps = frozenset(int(s) for s in steps)
        if any(s < 1 for s in steps):
            raise ValueError("severed step indices are 1-based and must be >= 1")
        return SeverancePlan(severed_steps=steps)


@dataclass(frozen=True)
class SeveranceResult:
    trace: tuple[SemanticState, ...]
    equivalent: bool  # counterfactual verdict over the universe


def record(program: Program, tape: Tape, k: int) -> Recording:
    """Run the program and film it: its semantic states after steps 1..k."""
    tape = tuple(tape)
    return Recording(program=program, tape=tape, k=k, trace=run_trace(program, tape, k))


def playback(rec: Recording) -> tuple[SemanticState, ...]:
    """Return the stored trace; no machine step is executed, and there is no
    tape to vary: a replay is the same in every world."""
    return rec.trace


def hybrid_run(rec: Recording, actual_tape: Tape) -> HybridResult:
    """Replay with a live shadow that takes over at the first divergence.

    The live trace is computed on the actual tape and compared against the
    recording; while they agree the steps count as replayed, and from the
    first mismatch on the trace is the live one.
    """
    live = run_trace(rec.program, tuple(actual_tape), rec.k)
    switch = next((i for i, (a, b) in enumerate(zip(live, rec.trace), 1) if a != b), None)
    return HybridResult(trace=live, switch_step=switch)


def _filmed_frames(rec: Recording, severed: frozenset[int]) -> dict[int, Configuration]:
    """The configurations after each severed step of the filmed run."""
    config = Configuration.fresh(rec.program)
    frames = {}
    for i in range(1, max(severed, default=0) + 1):
        step(config, rec.program, rec.tape)
        if i in severed:
            frames[i] = config.clone()
    return frames


def _severed_states(
    rec: Recording, frames: dict[int, Configuration], tape: Tape
) -> tuple[SemanticState, ...]:
    config = Configuration.fresh(rec.program)
    states = []
    for i in range(1, rec.k + 1):
        if i in frames:
            # Input-blind transition: the filmed machine state is imposed.
            config = frames[i].clone()
            states.append(rec.trace[i - 1])
        else:
            direct = step(config, rec.program, tape)
            states.append(config.semantic_state(direct))
    return tuple(states)


def sever_and_project(
    rec: Recording,
    plan: SeverancePlan,
    actual_tape: Tape,
    universe: InputUniverse = DEFAULT_UNIVERSE,
) -> SeveranceResult:
    """Run k steps with the planned transitions supplied by the recording.

    Severed steps copy the filmed state regardless of input; the rest compute
    live from whatever state the system is in.  The verdict treats the
    severed system as a program-like object and asks whether it is
    counterfactually equivalent to the original program over the universe:
    its trace must match the original's on every tape, not just the actual one.
    A program that executes no IN in k steps films the same run on every
    tape, so its severed system reads no IN either and is run once.
    """
    if any(s > rec.k for s in plan.severed_steps):
        raise ValueError(f"severed steps must lie in 1..{rec.k}")
    frames = _filmed_frames(rec, plan.severed_steps)
    trace = _severed_states(rec, frames, tuple(actual_tape))
    traces = trace_family(rec.program, universe, rec.k)
    if traces[0][-1].input_cursor == 0:
        equivalent = trace == traces[0]
    else:
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
            raise ValueError(f"recording field {key!r} is missing or not of type {kind.__name__}")
    if any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in data["tape"]):
        raise ValueError(f"recording tape entries must be naturals, got {data['tape']!r}")
    if len(data["trace"]) != data["k"]:
        raise ValueError(f"recording trace holds {len(data['trace'])} states, not k={data['k']}")
    rec = record(decode(data["program_bits"], table), tuple(data["tape"]), data["k"])
    if json.dumps(rec.trace) != json.dumps(data["trace"]):
        raise ValueError("stored trace does not match deterministic re-execution")
    return rec
