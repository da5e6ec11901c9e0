"""Deterministic step semantics for the reference machine.

The machine has four unbounded natural registers, a read-once input tape, an
output log, and structured control flow.  One call to step() executes exactly
one instruction (or one emulated tick when the machine is inside EXEC or DVT)
and is a total function: DEC saturates at zero, IN past the end of the tape
reads 0, and a halted configuration is a fixed point.

Two meta-instructions make emulation observable by construction:

* EXEC runs one embedded program on a fresh zeroed configuration with an
  empty tape, advancing it by one emulated step per host step and raising an
  EmulationEvent for each; when the child halts, the host moves on.
* DVT is absorbing: every subsequent host step performs one tick of the
  canonical dovetailing schedule over the full program enumeration.

A SemanticState is the observable part of a configuration after a step.  It
deliberately excludes the structural program position, so that textually
different programs can pass through identical states, and it includes the
step's emulation event (code bits, emulated step index, emulated state), so
that hosts emulating different children remain distinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .encoding import DEC, DVT, EXEC, HALT, IN, INC, OUT, WHILE, Program

Tape = tuple[int, ...]


@dataclass(frozen=True)
class SemanticState:
    """Observable machine state after one step."""

    registers: tuple[int, int, int, int]
    input_cursor: int
    outputs: tuple[int, ...]
    halted: bool
    event: Optional["EmulationRef"] = None


@dataclass(frozen=True)
class EmulationRef:
    """The emulation part of a SemanticState: what was emulated, how far."""

    code_bits: str
    step_index: int
    state: SemanticState


@dataclass(frozen=True)
class EmulationEvent:
    """Log record for one emulated step, including the emulating host."""

    host_bits: str
    code_bits: str
    step_index: int
    state: SemanticState

    @property
    def ref(self) -> EmulationRef:
        return EmulationRef(self.code_bits, self.step_index, self.state)


@dataclass(frozen=True)
class Trace:
    """run_trace result: k semantic states plus every event the run raised."""

    states: tuple[SemanticState, ...]
    events: tuple[EmulationEvent, ...]


class _Frame:
    __slots__ = ("body", "idx", "reg")

    def __init__(self, body: tuple, idx: int, reg: int | None) -> None:
        self.body = body
        self.idx = idx
        self.reg = reg

    def clone(self) -> "_Frame":
        return _Frame(self.body, self.idx, self.reg)


class _ExecContext:
    """Host-side state while interpreting an embedded program."""

    __slots__ = ("program", "config", "steps")

    def __init__(self, program: Program) -> None:
        self.program = program
        self.config = Configuration.fresh(program)
        self.steps = 0

    def clone(self) -> "_ExecContext":
        other = _ExecContext.__new__(_ExecContext)
        other.program = self.program
        other.config = self.config.clone()
        other.steps = self.steps
        return other


class Configuration:
    """Full mutable machine state, including the structural position."""

    __slots__ = ("registers", "input_cursor", "outputs", "frames", "halted", "context")

    def __init__(self) -> None:
        self.registers = [0, 0, 0, 0]
        self.input_cursor = 0
        self.outputs: list[int] = []
        self.frames: list[_Frame] = []
        self.halted = False
        self.context = None  # None | _ExecContext | dovetailer.DovetailEngine

    @classmethod
    def fresh(cls, program: Program) -> "Configuration":
        config = cls()
        config.frames = [_Frame(program.instructions, 0, None)]
        return config

    def clone(self) -> "Configuration":
        other = Configuration()
        other.registers = list(self.registers)
        other.input_cursor = self.input_cursor
        other.outputs = list(self.outputs)
        other.frames = [f.clone() for f in self.frames]
        other.halted = self.halted
        other.context = None if self.context is None else self.context.clone()
        return other

    def semantic_state(self, event: EmulationEvent | None) -> SemanticState:
        return SemanticState(
            registers=tuple(self.registers),
            input_cursor=self.input_cursor,
            outputs=tuple(self.outputs),
            halted=self.halted,
            event=None if event is None else event.ref,
        )


_STEPS_EXECUTED = 0


def step_count() -> int:
    """Total machine steps executed so far in this process (all levels)."""
    return _STEPS_EXECUTED


def _settle(config: Configuration) -> None:
    # Reaching the end of the root frame means the top-level END: halt now.
    # The end of a loop frame is the WEND position and is handled as a step.
    if len(config.frames) == 1 and config.frames[0].idx >= len(config.frames[0].body):
        config.halted = True


def _tick_exec(config: Configuration, program: Program, events: list | None) -> EmulationEvent:
    ctx = config.context
    ctx.steps += 1
    child_event = step(ctx.config, ctx.program, (), events)
    event = EmulationEvent(
        host_bits=program.bits,
        code_bits=ctx.program.bits,
        step_index=ctx.steps,
        state=ctx.config.semantic_state(child_event),
    )
    if events is not None:
        events.append(event)
    if ctx.config.halted:
        config.context = None
        frame = config.frames[-1]
        frame.idx += 1
        _settle(config)
    return event


def step(
    config: Configuration,
    program: Program,
    tape: Tape,
    events: list | None = None,
) -> EmulationEvent | None:
    """Execute exactly one step, mutating config.

    Appends every EmulationEvent raised during the step (nested emulation
    first, then this level's own event) to `events` when given (a list, or
    any sink with an append method), and returns this level's direct event,
    which belongs in the step's SemanticState.
    """
    global _STEPS_EXECUTED
    _STEPS_EXECUTED += 1
    if config.halted:
        return None
    if config.context is not None:
        if isinstance(config.context, _ExecContext):
            return _tick_exec(config, program, events)
        return config.context.tick(events)

    frame = config.frames[-1]
    if frame.idx >= len(frame.body):
        if len(config.frames) == 1:
            # Empty program: the first step observes the top-level END.
            config.halted = True
            return None
        # At WEND: loop back while the register is nonzero, else leave.
        if config.registers[frame.reg]:
            frame.idx = 0
        else:
            config.frames.pop()
            config.frames[-1].idx += 1
            _settle(config)
        return None

    instr = frame.body[frame.idx]
    op = instr[0]
    if op == HALT:
        config.halted = True
        return None
    if op == INC:
        config.registers[instr[1]] += 1
    elif op == DEC:
        if config.registers[instr[1]]:
            config.registers[instr[1]] -= 1
    elif op == OUT:
        config.outputs.append(config.registers[instr[1]])
    elif op == IN:
        cursor = config.input_cursor
        config.registers[instr[1]] = tape[cursor] if cursor < len(tape) else 0
        config.input_cursor = cursor + 1
    elif op == WHILE:
        if config.registers[instr[1]]:
            config.frames.append(_Frame(instr[2], 0, instr[1]))
        else:
            frame.idx += 1
            _settle(config)
        return None
    elif op == EXEC:
        config.context = _ExecContext(instr[1])
        return _tick_exec(config, program, events)
    else:  # DVT: absorbing, one dovetailer tick per host step from now on
        from .dovetailer import DovetailEngine  # deferred: dovetailer imports this module

        config.context = DovetailEngine(program.encoding, host_bits=program.bits)
        return config.context.tick(events)

    frame.idx += 1
    _settle(config)
    return None


def run_trace(program: Program, tape: Tape, k: int) -> Trace:
    """Semantic states after steps 1..k plus all emulation events, in order.

    Entries after the halting step repeat the halted state (halting is
    absorbing).
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    config = Configuration.fresh(program)
    events: list[EmulationEvent] = []
    states = []
    for _ in range(k):
        direct = step(config, program, tape, events)
        states.append(config.semantic_state(direct))
    return Trace(states=tuple(states), events=tuple(events))


class _MaxSteps(dict):
    """An event sink for step(): folds each event into code bits -> the
    highest emulated step index seen, so no event outlives its step."""

    def append(self, event: EmulationEvent) -> None:
        if event.step_index > self.get(event.code_bits, 0):
            self[event.code_bits] = event.step_index


def run_events(program: Program, steps: int, tape: Tape = ()) -> dict[str, int]:
    """Run for up to `steps` host steps; map emulated code bits to the highest
    emulated step index reached.  Programs without EXEC/DVT never emulate, and
    a halted machine raises nothing, so both cases stop early.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not program.contains_meta:
        return {}
    config = Configuration.fresh(program)
    summary = _MaxSteps()
    for _ in range(steps):
        if config.halted:
            break
        step(config, program, tape, summary)
    return dict(summary)


def state_to_data(state: SemanticState):
    """Canonical JSON-ready form of a SemanticState (used for keys and files)."""
    event = state.event
    return [
        list(state.registers),
        state.input_cursor,
        list(state.outputs),
        state.halted,
        None if event is None else [event.code_bits, event.step_index, state_to_data(event.state)],
    ]


def state_from_data(data) -> SemanticState:
    registers, cursor, outputs, halted, event = data
    ref = None
    if event is not None:
        code_bits, step_index, sub = event
        ref = EmulationRef(code_bits, step_index, state_from_data(sub))
    return SemanticState(
        registers=tuple(registers),
        input_cursor=cursor,
        outputs=tuple(outputs),
        halted=halted,
        event=ref,
    )
