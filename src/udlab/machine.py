"""Deterministic step semantics for the reference machine.

The machine has four unbounded natural registers, a read-once input tape, an
output log, and structured control flow.  One call to step() executes exactly
one instruction (or one emulated tick when the machine is inside EXEC or DVT)
and is a total function: DEC saturates at zero, IN past the end of the tape
reads 0, and a halted configuration is a fixed point.

A configuration steps a program counter through its program's flat code, in
which a loop's WHILE and WEND jump by relative offsets; the end of that code
is the top-level END, so a program halts in the step that gets there.

Two meta-instructions make emulation observable by construction:

* EXEC runs one embedded program on a fresh zeroed configuration with an
  empty tape, advancing it by one emulated step per host step and raising an
  EmulationRef for each; when the child halts, the host moves on.
* DVT is absorbing: every subsequent host step performs one tick of the
  canonical dovetailing schedule over the full program enumeration.  All DVT
  hosts emulate that one stream: a host's context is the number of ticks it
  has run, and step() reads the stream's next tick.

Once a DVT has fired, directly or inside EXEC children, every level around
the dovetailer is frozen but for its step index, so the run is not stepped
to its end.  run_events reads what it reaches from the stream's closed-form
summary.  run_trace steps once more, to the first step that shows the
stream's tick 2, step 2 of the program 1111, which no EXEC can show, and
reads the rest of its states off the shared stream's events (settled_tail);
equivalence rests on that event to let a dovetailing family settle.

An emulated child is a configuration that counts its steps, and both
advance each child they emulate through emulate().  A step advances each
emulation level once, so its states are the whole record of what it
emulated: the step's direct event sits in its SemanticState, that event's
state carries the child's own event, and so on down.  step_events lists that
chain innermost first; no other record of events is kept.

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

from .encoding import DEC, EXEC, HALT, IN, INC, OUT, WEND, WHILE, EncodingTable, Program

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


class Configuration:
    """Full mutable machine state: the program, the code it steps, and the
    program counter into that code.  An emulated child is a configuration
    too, and `steps` counts the steps it has been run."""

    __slots__ = (
        "program", "code", "pc", "registers", "input_cursor", "outputs", "halted", "context",
        "steps",
    )

    def __init__(self, program: Program) -> None:
        self.program = program
        # The empty program's first step observes END, which halts as HALT does.
        self.code = program.instructions or ((HALT,),)
        self.pc = 0
        self.registers = [0, 0, 0, 0]
        self.input_cursor = 0
        self.outputs: tuple[int, ...] = ()  # shared by copies and states; OUT replaces it
        self.halted = False
        self.context = None  # None | emulated child | ticks the host's DVT has run
        self.steps = 0

    def clone(self) -> "Configuration":
        other = Configuration(self.program)
        other.pc = self.pc
        other.registers = list(self.registers)
        other.input_cursor = self.input_cursor
        other.outputs = self.outputs
        other.halted = self.halted
        context = self.context
        other.context = context.clone() if isinstance(context, Configuration) else context
        other.steps = self.steps
        return other

    def semantic_state(self, event: EmulationRef | None) -> SemanticState:
        return SemanticState(
            tuple(self.registers), self.input_cursor, self.outputs, self.halted, event
        )


_STEPS_EXECUTED = 0


def step_count() -> int:
    """Total machine steps executed so far in this process (all levels).
    Only step() counts: the states run_trace pads after a halt or reads off
    the dovetail stream are not steps."""
    return _STEPS_EXECUTED


def emulate(child: Configuration) -> EmulationRef:
    """Step an emulated child once, on the empty tape, and return its event;
    the event's state carries whatever the child's own step emulated."""
    child.steps += 1
    direct = step(child, ())
    return EmulationRef(child.program.bits, child.steps, child.semantic_state(direct))


def _tick(config: Configuration) -> EmulationRef:
    # One step of the emulation the host is in.  A DVT host reads the shared
    # stream's next tick; an EXEC host moves past its EXEC once the child halts.
    context = config.context
    if type(context) is int:
        config.context = context + 1
        return dovetailer.stream_tick(context + 1, config.program.encoding)
    ref = emulate(context)
    if context.halted:
        config.context = None
        config.pc += 1
        config.halted = config.pc == len(config.code)
    return ref


def step(config: Configuration, tape: Tape) -> EmulationRef | None:
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
        return _tick(config)

    code = config.code
    pc = config.pc
    instr = code[pc]
    op = instr[0]
    registers = config.registers
    pc += 1
    if op == INC:
        registers[instr[1]] += 1
    elif op == DEC:
        if registers[instr[1]]:
            registers[instr[1]] -= 1
    elif op == OUT:
        config.outputs += (registers[instr[1]],)
    elif op == IN:
        cursor = config.input_cursor
        registers[instr[1]] = tape[cursor] if cursor < len(tape) else 0
        config.input_cursor = cursor + 1
    elif op == WHILE:  # enter the body, or jump past the WEND
        if not registers[instr[1]]:
            pc += instr[2]
    elif op == WEND:  # loop back while the register is nonzero, else leave
        if registers[instr[1]]:
            pc += instr[2]
    elif op == HALT:
        config.halted = True
        return None
    else:  # EXEC a fresh child, or DVT: absorbing, one stream tick per host step
        config.context = Configuration(instr[1]) if op == EXEC else 0
        return _tick(config)
    config.pc = pc
    config.halted = pc == len(code)  # the top-level END halts in this step
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


def run_trace(
    program: Program, tape: Tape, k: int, settle: bool = False
) -> tuple[SemanticState, ...]:
    """Semantic states after steps 1..k.  Each state's event chain holds what
    its step emulated (step_events), so the states are the run's one record.

    Halting and dovetailing are absorbing, so the run stops stepping where it
    settles: at its halting step, or at the step after the one that fires a
    DVT, directly or inside EXEC children, which shows the stream's tick 2.
    settled_tail gives every later entry: after a halt, one shared padding
    state, the halted configuration with no event (the halting step's own
    entry stays as stepped, since it can carry that step's event); after a
    dovetailer, states read off the shared stream.  With settle, the states
    stop at the settle step.
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    config = Configuration(program)
    states = []
    for _ in range(k):
        direct = step(config, tape)
        states.append(config.semantic_state(direct))
        if config.halted:
            break
        if config.context is not None and _dovetailing(config):
            if len(states) < k:  # the next step reads the stream's tick 2
                states.append(config.semantic_state(step(config, tape)))
            break
    if not settle and len(states) < k:
        states += settled_tail(states[-1], k - len(states), program.encoding)
    return tuple(states)


def settled_tail(
    state: SemanticState, count: int, table: EncodingTable
) -> list[SemanticState]:
    """The `count` states after the last state of a run traced with settle.
    A halted run repeats its padding state.  In a dovetailing run, whose
    innermost event is the stream's tick 2, each EXEC level around the
    dovetailer is frozen but for its step index, which rises by one a step,
    and the innermost event is the stream's next tick."""
    if state.halted:
        return [state._replace(event=None)] * count
    levels = step_events(state.event)[1:]  # the EXEC levels' events, innermost first
    registers, cursor, outputs = state.registers, state.input_cursor, state.outputs
    tail = []
    for n, event in enumerate(dovetailer.stream_ticks(3, count + 2, table), 1):
        for ref in levels:
            held = ref.state
            inner = SemanticState(held.registers, held.input_cursor, held.outputs, False, event)
            event = EmulationRef(ref.code_bits, ref.step_index + n, inner)
        tail.append(SemanticState(registers, cursor, outputs, False, event))
    return tail


def _raise_to(summary: dict[str, int], code_bits: str, step_index: int) -> None:
    if step_index > summary.get(code_bits, 0):
        summary[code_bits] = step_index


def _dovetailing(config: Configuration) -> tuple[list[Configuration], int] | None:
    """The emulated children from config down to a dovetailer, outermost first,
    and the ticks that dovetailer has run; None when the chain ends without one."""
    chain = []
    context = config.context
    while isinstance(context, Configuration):
        chain.append(context)
        context = context.context
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
    config = Configuration(program)
    summary: dict[str, int] = {}
    for done in range(1, steps + 1):
        if config.halted:
            break
        for event in step_events(step(config, tape)):
            _raise_to(summary, event.code_bits, event.step_index)
        found = _dovetailing(config)
        if found is not None:
            chain, ticks = found
            remaining = steps - done
            reached = dovetailer.dovetail_summary(ticks + remaining, program.encoding)
            for code_bits, step_index in reached.items():
                _raise_to(summary, code_bits, step_index)
            for child in chain:
                _raise_to(summary, child.program.bits, child.steps + remaining)
            break
    return summary


# Bound last and read as attributes: dovetailer imports this module's names.
from . import dovetailer  # noqa: E402
