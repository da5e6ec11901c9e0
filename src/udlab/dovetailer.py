"""The canonical dovetailing schedule and the one stream it yields.

Ticks sweep anti-diagonals of the (program index, step index) grid: diagonal
d covers ticks (d-1)(d-2)/2 + 1 .. d(d-1)/2 and runs step d-i of program i
for i ascending.  Every pair is reached at a predictable tick, which makes
fairness a testable closed form rather than a promise.

One shared engine per encoding lazily fills the list of tick events that
every DVT host reads, so the hosts' event streams agree by construction and
share objects.  A stepped host reads one tick a step through stream_tick; a
traced host whose DVT has fired is stepped to the stream's tick 2 and reads
the rest of its run as a slice of the list (stream_ticks), and a trace
family that has settled on the stream is keyed from it (see equivalence).
The CLI's dovetail rows tick an engine of their own and keep no event, so a
long listing holds only the few shared events that its nested dovetailers
read.  Each child is a machine
configuration stepped through emulate(), as an EXEC child is.  A tick
returns one event, and whatever the child emulated in turn is nested in that
event's state.
Children run on empty tapes with zeroed registers and keep ticking after they
halt; that way long-lived hosts eventually witness arbitrarily many steps of
every program.  A halted child's step is a no-op, so it is not run: every
later event of that child holds the one state it halted into.

Every DVT host emulates this one canonical stream, so the hosts share it:
what a host reaches after its DVT fires is dovetail_summary at the number of
ticks it runs, computed from the schedule's closed form and the lazily
extended per-encoding program stream rather than by ticking the shared
stream.  The closed form needs no record of what children emulate in turn,
because no such nested event ever passes the top-level count of its code:

* a program that a child EXECs is strictly shorter than the child, so it
  comes earlier in the enumeration and the schedule has already given it
  more top-level steps than the child has taken, which bounds the step
  index of any of its emulations;
* a dovetailer running inside a child at tick t replays tick m < t of this
  same stream, whose events are already bounded at tick m.

The same argument places every code's first appearance at its own first
top-level tick, so the summary's order is the enumeration order.
"""

from __future__ import annotations

from math import isqrt

from .encoding import EncodingTable, TABLE_A
from .enumeration import MAX_LEN, block_counts, program_stream
from .machine import Configuration, EmulationRef, SemanticState, emulate

# dovetail_summary(ticks) reads the first max(i, d - 2) programs, for the
# last tick's pair (i, d - i).  MAX_TICKS is the last tick whose programs
# enumeration holds, the N = 454,169 up to MAX_LEN bits: the tick that runs
# program N on diagonal N + 2.  A host run of T steps reads at most T ticks.
_HELD = sum(block_counts(MAX_LEN))
MAX_TICKS = _HELD * (_HELD + 3) // 2


def schedule_pair(tick: int) -> tuple[int, int]:
    """Map a 1-based tick to its (program index, step index) pair."""
    if tick < 1:
        raise ValueError("tick is 1-based and must be >= 1")
    # Smallest d >= 2 with tick <= d(d-1)/2; the isqrt guess is within one.
    d = max(2, (1 + isqrt(8 * tick)) // 2)
    while d * (d - 1) // 2 < tick:
        d += 1
    while (d - 1) * (d - 2) // 2 >= tick:
        d -= 1
    i = tick - (d - 1) * (d - 2) // 2
    return i, d - i


class DovetailEngine:
    """One encoding's schedule: a tick steps one child and returns its event.
    The engine counts its ticks; only the shared stream keeps its events."""

    def __init__(self, table: EncodingTable) -> None:
        self.events: list[EmulationRef] = []
        self.children: dict[int, Configuration] = {}
        self.halted: dict[int, SemanticState] = {}  # index -> the state a halted child keeps
        self.ticks = 0
        self._stream = program_stream(table)

    def tick(self) -> EmulationRef:
        self.ticks += 1
        index, step_index = schedule_pair(self.ticks)
        child = self.children.get(index)
        if child is None:
            child = self.children[index] = Configuration(self._stream.nth(index))
        elif child.halted:  # a no-op step: the child's state stays the one it halted into
            return EmulationRef(child.program.bits, step_index, self.halted[index])
        ref = emulate(child)
        assert ref.step_index == step_index
        if child.halted:  # the halting step's own state can carry an event; later ones do not
            self.halted[index] = child.semantic_state(None)
        return ref


_ENGINES: dict[str, DovetailEngine] = {}


def stream_tick(tick: int, table: EncodingTable) -> EmulationRef:
    """Tick `tick`'s event of the one stream under `table`, ticked that far
    first.  Reentrant: a dovetailer nested in the child that tick t runs
    reads a tick m < t, which is already in the list."""
    if tick < 1:
        raise ValueError("tick is 1-based and must be >= 1")
    engine = _ENGINES.get(table.variant_id)
    if engine is None:
        engine = _ENGINES[table.variant_id] = DovetailEngine(table)
    while len(engine.events) < tick:
        engine.events.append(engine.tick())
    return engine.events[tick - 1]


def stream_ticks(first: int, last: int, table: EncodingTable) -> list[EmulationRef]:
    """The events of ticks first..last of the one stream under `table`,
    ticked that far by one stream_tick call; empty when last < first."""
    if last < first:
        return []
    stream_tick(last, table)
    return _ENGINES[table.variant_id].events[first - 1 : last]


def dovetail_summary(ticks: int, table: EncodingTable = TABLE_A) -> dict[str, int]:
    """Code bits -> the highest emulated step index among all the events of
    the first `ticks` ticks (nested ones included), in order of first
    appearance; see the module docstring for why this is closed form."""
    if ticks < 0:
        raise ValueError("ticks must be >= 0")
    if ticks > MAX_TICKS:
        raise ValueError(
            f"ticks {ticks} is above {MAX_TICKS}, the last tick whose programs enumeration holds"
        )
    if ticks == 0:
        return {}
    # The last tick runs step s of program i on diagonal d = i + s.  By then
    # programs 1..i have run d - j steps each, programs i+1..d-2 d - 1 - j.
    i, s = schedule_pair(ticks)
    d = i + s
    stream = program_stream(table)
    return {
        stream.nth(j).bits: d - j if j <= i else d - 1 - j for j in range(1, max(i, d - 2) + 1)
    }
