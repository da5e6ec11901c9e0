"""Deterministic step semantics for the reference machine.

The machine has four unbounded natural registers, a read-once input tape, an
output log, and structured control flow.  One call to step() executes exactly
one instruction (or one emulated tick when the machine is inside EXEC or DVT)
and is a total function: DEC saturates at zero, IN past the end of the tape
reads 0, and a halted configuration is a fixed point.

Two meta-instructions make emulation observable by construction:

* EXEC runs one embedded program on a fresh zeroed configuration with an
  empty tape, advancing it by one emulated step per host step and raising an
  EmulationRef for each; when the child halts, the host moves on.
* DVT is absorbing: every subsequent host step performs one tick of the
  canonical dovetailing schedule over the full program enumeration.  All DVT
  hosts emulate that one stream: a host's context is the number of ticks it
  has run, each step reads the stream's next tick, and run_events reads what
  a host reaches after its DVT from the stream's closed-form summary.

Both advance each child they emulate through _Emulation.tick.  A step
advances each emulation level once, so its states are the whole record of
what it emulated: the step's direct event sits in its SemanticState, that
event's state carries the child's own event, and so on down.  step_events
lists that chain innermost first; no other record of events is kept.

A SemanticState is the observable part of a configuration after a step.  It
deliberately excludes the structural program position, so that textually
different programs can pass through identical states, and it includes the
step's emulation event (code bits, emulated step index, emulated state), so
that hosts emulating different children remain distinguishable.  States and
events are named tuples, so each is also its own canonical JSON form:
json.dumps writes a state as [registers, cursor, outputs, halted, event] and
an event as [code_bits, step_index, state].
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .encoding import DEC, DVT, EXEC, HALT, IN, INC, OUT, WHILE, Program

Tape = tuple[int, ...]


class SemanticState(NamedTuple):
    """Observable machine state after one step."""

    registers: tuple[int, int, int, int]
    input_cursor: int
    outputs: tuple[int, ...]
    halted: bool
    event: Optional["EmulationRef"] = None


class EmulationRef(NamedTuple):
    """One emulated step: what was emulated, how far, and the state reached."""

    code_bits: str
    step_index: int
    state: SemanticState


class _Frame:
    __slots__ = ("body", "idx", "reg")

    def __init__(self, body: tuple, idx: int, reg: int | None) -> None:
        self.body = body
        self.idx = idx
        self.reg = reg

    def clone(self) -> "_Frame":
        return _Frame(self.body, self.idx, self.reg)


class Configuration:
    """Full mutable machine state, including the structural position."""

    __slots__ = ("registers", "input_cursor", "outputs", "frames", "halted", "context")

    def __init__(self) -> None:
        self.registers = [0, 0, 0, 0]
        self.input_cursor = 0
        self.outputs: tuple[int, ...] = ()  # shared by copies and states; OUT replaces it
        self.frames: list[_Frame] = []
        self.halted = False
        self.context = None  # None | _Emulation | ticks the host's DVT has run

    @classmethod
    def fresh(cls, program: Program) -> "Configuration":
        config = cls()
        config.frames = [_Frame(program.instructions, 0, None)]
        return config

    def clone(self) -> "Configuration":
        other = Configuration()
        other.registers = list(self.registers)
        other.input_cursor = self.input_cursor
        other.outputs = self.outputs
        other.frames = [f.clone() for f in self.frames]
        other.halted = self.halted
        context = self.context
        other.context = context.clone() if isinstance(context, _Emulation) else context
        return other

    def semantic_state(self, event: EmulationRef | None) -> SemanticState:
        return SemanticState(
            tuple(self.registers), self.input_cursor, self.outputs, self.halted, event
        )


class _Emulation:
    """One emulated child: a program on a fresh zeroed configuration and an
    empty tape, and the number of steps it has been run."""

    __slots__ = ("program", "config", "steps")

    def __init__(self, program: Program) -> None:
        self.program = program
        self.config = Configuration.fresh(program)
        self.steps = 0

    def clone(self) -> "_Emulation":
        other = _Emulation.__new__(_Emulation)
        other.program = self.program
        other.config = self.config.clone()
        other.steps = self.steps
        return other

    def tick(self) -> EmulationRef:
        """Step the child once and return its event; the event's state
        carries whatever the child's own step emulated."""
        self.steps += 1
        direct = step(self.config, self.program, ())
        return EmulationRef(self.program.bits, self.steps, self.config.semantic_state(direct))


_STEPS_EXECUTED = 0


def step_count() -> int:
    """Total machine steps executed so far in this process (all levels)."""
    return _STEPS_EXECUTED


def _settle(config: Configuration) -> None:
    # Reaching the end of the root frame means the top-level END: halt now.
    # The end of a loop frame is the WEND position and is handled as a step.
    if len(config.frames) == 1 and config.frames[0].idx >= len(config.frames[0].body):
        config.halted = True


def _tick_exec(config: Configuration) -> EmulationRef:
    emulation = config.context
    ref = emulation.tick()
    if emulation.config.halted:  # the child is done: the host moves on
        config.context = None
        config.frames[-1].idx += 1
        _settle(config)
    return ref


def step(config: Configuration, program: Program, tape: Tape) -> EmulationRef | None:
    """Execute exactly one step, mutating config.

    Returns this level's direct event, which belongs in the step's
    SemanticState; its state carries the event one level down, and so on, so
    step_events lists everything the step emulated.
    """
    global _STEPS_EXECUTED
    _STEPS_EXECUTED += 1
    if config.halted:
        return None
    if config.context is not None:
        if isinstance(config.context, _Emulation):
            return _tick_exec(config)
        config.context += 1
        return dovetailer.stream_tick(config.context, program.encoding)

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
        config.outputs += (config.registers[instr[1]],)
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
        config.context = _Emulation(instr[1])
        return _tick_exec(config)
    else:  # DVT: absorbing, one tick of the shared stream per host step from now on
        config.context = 1
        return dovetailer.stream_tick(1, program.encoding)

    frame.idx += 1
    _settle(config)
    return None


def step_events(direct: EmulationRef | None) -> list[EmulationRef]:
    """Every event of one step, innermost first: the chain `direct`,
    `direct.state.event`, ... reversed.  A step advances each emulation
    level once, so the chain is the whole of what the step emulated."""
    chain = []
    while direct is not None:
        chain.append(direct)
        direct = direct.state.event
    chain.reverse()
    return chain


def run_trace(program: Program, tape: Tape, k: int) -> tuple[SemanticState, ...]:
    """Semantic states after steps 1..k.  Each state's event chain holds what
    its step emulated (step_events), so the states are the run's one record.

    Halting is absorbing, so the run stops stepping once the program halts:
    every entry after the halting step is one shared padding state, the
    halted configuration with no event, and is not re-stepped.  The halting
    step's own entry stays as stepped, since it can carry that step's event.
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    config = Configuration.fresh(program)
    states = []
    for _ in range(k):
        direct = step(config, program, tape)
        states.append(config.semantic_state(direct))
        if config.halted:
            states.extend([config.semantic_state(None)] * (k - len(states)))
            break
    return tuple(states)


def _raise_to(summary: dict[str, int], code_bits: str, step_index: int) -> None:
    if step_index > summary.get(code_bits, 0):
        summary[code_bits] = step_index


def _dovetailing(config: Configuration) -> tuple[list[_Emulation], int] | None:
    """The emulations from config down to a dovetailer, outermost first, and
    the ticks that dovetailer has run; None when the chain ends without one."""
    chain = []
    context = config.context
    while isinstance(context, _Emulation):
        chain.append(context)
        context = context.config.context
    return None if context is None else (chain, context)


def run_events(program: Program, steps: int, tape: Tape = ()) -> dict[str, int]:
    """Run for up to `steps` host steps; map emulated code bits to the highest
    emulated step index reached, in order of first appearance.  Programs
    without EXEC/DVT never emulate, and a halted machine raises nothing, so
    both cases stop early.

    Once a DVT fires, directly or inside EXEC children, the run is absorbing:
    each remaining host step is one tick of the canonical dovetail stream and
    one step of every emulation around it.  That rest of the run is not
    stepped; it is read off the stream's shared closed-form summary.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not program.contains_meta:
        return {}
    config = Configuration.fresh(program)
    summary: dict[str, int] = {}
    for done in range(1, steps + 1):
        if config.halted:
            break
        for event in step_events(step(config, program, tape)):
            _raise_to(summary, event.code_bits, event.step_index)
        found = _dovetailing(config)
        if found is not None:
            chain, ticks = found
            remaining = steps - done
            reached = dovetailer.dovetail_summary(ticks + remaining, program.encoding)
            for code_bits, step_index in reached.items():
                _raise_to(summary, code_bits, step_index)
            for emulation in chain:
                _raise_to(summary, emulation.program.bits, emulation.steps + remaining)
            break
    return summary


# Bound last and read as attributes: dovetailer imports this module's names.
from . import dovetailer  # noqa: E402
