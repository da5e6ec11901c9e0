"""Record, replay, takeover, and severance experiments.

A Recording stores a program, the tape it ran on, and its full k-step
semantic trace (the "movie").  Playback returns the stored trace without
executing a single machine step.  hybrid_run replays while a live computation
shadow-checks every transition and takes over at the first divergence, which
preserves counterfactual behavior exactly.  sever_and_project replaces chosen
transitions with the recorded ones, producing a system that is state-trace
identical on the recorded input yet, in general, no longer counterfactually
equivalent to the program it was filmed from; the verdict quantifies exactly
that over an input universe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .encoding import EncodingTable, Program, TABLE_A, decode
from .equivalence import DEFAULT_UNIVERSE, InputUniverse
from .machine import Configuration, SemanticState, run_trace, state_to_data, step

Tape = tuple[int, ...]


@dataclass(frozen=True)
class Recording:
    program: Program
    tape: Tape
    k: int
    trace: tuple[SemanticState, ...]
    # Machine configurations after each recorded step; severance re-imposes
    # them wholesale, the way a projected frame re-excites a whole state.
    configs: tuple[Configuration, ...] = field(compare=False, repr=False, default=())


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
    """Run the program and film it: semantic trace plus per-step configurations."""
    if k < 1:
        raise ValueError("k must be >= 1")
    config = Configuration.fresh(program)
    states = []
    configs = []
    for _ in range(k):
        direct = step(config, program, tape)
        states.append(config.semantic_state(direct))
        configs.append(config.clone())
    return Recording(program=program, tape=tuple(tape), k=k, trace=tuple(states), configs=tuple(configs))


def playback(rec: Recording) -> tuple[SemanticState, ...]:
    """Return the stored trace; no machine step is executed, and there is no
    tape to vary: a replay is the same in every world."""
    return rec.trace


def hybrid_run(rec: Recording, actual_tape: Tape) -> HybridResult:
    """Replay with a live shadow that takes over at the first divergence.

    Each step the live successor state is computed on the actual tape and
    compared against the recording; while they agree the step counts as
    replayed, and from the first mismatch on the trace is the live one.
    """
    actual_tape = tuple(actual_tape)
    config = Configuration.fresh(rec.program)
    switch: int | None = None
    states = []
    for i in range(1, rec.k + 1):
        direct = step(config, rec.program, actual_tape)
        state = config.semantic_state(direct)
        if switch is None and state != rec.trace[i - 1]:
            switch = i
        states.append(state)
    return HybridResult(trace=tuple(states), switch_step=switch)


def _severed_states(
    rec: Recording, severed: frozenset[int], tape: Tape
) -> tuple[SemanticState, ...]:
    config = Configuration.fresh(rec.program)
    states = []
    for i in range(1, rec.k + 1):
        if i in severed:
            # Input-blind transition: the filmed machine state is imposed.
            config = rec.configs[i - 1].clone()
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
    """
    if not rec.configs:
        raise ValueError("recording lacks configurations; rebuild it with record()")
    if any(s > rec.k for s in plan.severed_steps):
        raise ValueError(f"severed steps must lie in 1..{rec.k}")
    trace = _severed_states(rec, plan.severed_steps, tuple(actual_tape))
    equivalent = all(
        _severed_states(rec, plan.severed_steps, tape)
        == run_trace(rec.program, tape, rec.k).states
        for tape in universe.tapes
    )
    return SeveranceResult(trace=trace, equivalent=equivalent)


def recording_to_data(rec: Recording) -> dict:
    """JSON-ready form: program bits, tape, k, trace (deterministic order)."""
    return {
        "program_bits": rec.program.bits,
        "tape": list(rec.tape),
        "k": rec.k,
        "trace": [state_to_data(s) for s in rec.trace],
    }


_RECORDING_FIELDS = {"program_bits": str, "tape": list, "k": int, "trace": list}


def recording_from_data(data: dict, table: EncodingTable = TABLE_A) -> Recording:
    """Rebuild a recording, re-running the program and verifying the stored
    trace matches; recordings are deterministic artifacts, never hand-edited."""
    for key, kind in _RECORDING_FIELDS.items():
        if not isinstance(data.get(key), kind):
            raise ValueError(f"recording field {key!r} is missing or not of type {kind.__name__}")
    program = decode(data["program_bits"], table)
    tape = tuple(int(v) for v in data["tape"])
    if any(v < 0 for v in tape):
        raise ValueError("tape values must be naturals")
    k = int(data["k"])
    rec = record(program, tape, k)
    if [state_to_data(s) for s in rec.trace] != data["trace"]:
        raise ValueError("stored trace does not match deterministic re-execution")
    return rec
