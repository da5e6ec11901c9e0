"""k-step counterfactual equivalence and the induced partitions.

Two programs are counterfactually equivalent at k over an input universe when
their first k semantic states agree on every tape in the universe, not just
on one actual input.  Agreement covers registers, input cursor, outputs,
halting, and the step's emulation event, but never the structural program
position, so distinct texts can be equivalent and (the interesting converse)
programs that coincide on one tape can still be inequivalent.

A run can depend only on the tape cells it read: those below its final
input cursor, counted as 0 past the tape's end, since IN reads 0 there.  Two
tapes that agree on those cells drive the same run, so trace_family traces
each distinct run once and hands its trace object to every tape that drives
it; a run that read nothing is the run on every tape.

Partitions group codes by the ids of a ClassIndex, which serves every level
from one trace per code.  A class's key is its family's JSON kept as parts,
one JSON array per tape, encoded once per distinct trace object and shared
by the tapes that hold it; the joined key is never built, not even to sort
or digest.  Each part is a complete JSON array, so no part is a proper
prefix of another, and the tuple order of parts is exactly the string order
of the joined keys.  Class indices come from sorting the part tuples, so the
result is independent of input order.  A class is a plain NamedTuple of
(k, index, members, key parts, universe id) that caches nothing: its digest
is hashed on each access, and each command takes it once per class.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import NamedTuple

from .encoding import Program
from .machine import Tape, run_trace


def _canonical_tapes(tapes) -> tuple[Tape, ...]:
    seen = set()
    unique = []
    for tape in tapes:
        t = tuple(tape)
        if any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in t):
            raise ValueError(f"tape {t!r} must contain only naturals")
        if t not in seen:
            seen.add(t)
            unique.append(t)
    if not unique:
        raise ValueError("input universe must contain at least one tape")
    unique.sort(key=lambda t: (len(t), t))
    return tuple(unique)


class InputUniverse(NamedTuple):
    """The finite set of tapes the counterfactual quantifies over."""

    tapes: tuple[Tape, ...]
    universe_id: str

    @staticmethod
    def from_tapes(tapes) -> "InputUniverse":
        import hashlib  # as in key_digest

        canonical = _canonical_tapes(tapes)
        digest = hashlib.sha256(
            json.dumps([list(t) for t in canonical], separators=(",", ":")).encode()
        ).hexdigest()
        return InputUniverse(canonical, f"sha256:{digest[:12]}")


# All tapes over {0,1} of length <= 2, canonically ordered.
DEFAULT_UNIVERSE = InputUniverse(
    _canonical_tapes([(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]), "default"
)


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _trace_json(states: tuple) -> str:
    """The JSON of one trace, with its trailing run of one repeated state
    object (the padding after a halt) encoded once and repeated."""
    last = states[-1]
    head = len(states) - 1
    while head and states[head - 1] is last:
        head -= 1
    if head == len(states) - 1:  # no padding run: the trace is encoded whole
        return _ENCODER.encode(states)
    parts = [_ENCODER.encode(states[:head])[1:-1]] if head else []
    parts += [_ENCODER.encode(last)] * (len(states) - head)
    return "[" + ",".join(parts) + "]"


def _key_parts(traces: tuple, k: int) -> tuple[str, ...]:
    """Each trace's JSON over its first k states, in tape order, encoding
    each distinct trace object once and sharing its string."""
    encoded: dict[int, str] = {}
    for trace in traces:
        if id(trace) not in encoded:
            encoded[id(trace)] = _trace_json(trace[:k])
    return tuple(encoded[id(trace)] for trace in traces)


def read_cells(tape: Tape, cursor: int) -> Tape:
    """The cells below cursor, zero-padded past the tape's end."""
    return tape[:cursor] + (0,) * (cursor - len(tape))


def trace_family(program: Program, universe: InputUniverse, k: int) -> tuple[tuple, ...]:
    """The program's k-step traces, one per tape in universe order.  A tape
    that agrees, zero-padded, with a traced tape on the cells that run read
    gets that run's trace object; any other tape is traced.  Runs are looked
    up by (final cursor, cells read), one lookup per distinct cursor.  The
    first tape is traced first: when its run read nothing, that run is the
    run on every tape, and no tape is looked up."""
    tapes = universe.tapes
    first = tapes[0]
    trace = run_trace(program, first, k)
    cursor = trace[-1].input_cursor
    if cursor == 0:
        return (trace,) * len(tapes)
    runs: dict[tuple[int, Tape], tuple] = {(cursor, read_cells(first, cursor)): trace}
    cursors = {cursor}  # final cursors of the runs traced so far
    traces = [trace]
    for tape in tapes[1:]:
        for cursor in cursors:
            trace = runs.get((cursor, read_cells(tape, cursor)))
            if trace is not None:
                break
        else:
            trace = run_trace(program, tape, k)
            cursor = trace[-1].input_cursor
            cursors.add(cursor)
            runs[cursor, read_cells(tape, cursor)] = trace
        traces.append(trace)
    return tuple(traces)


def key_digest(key_parts: tuple[str, ...]) -> str:
    """The first 16 hex digits of the sha256 of the joined key, streamed
    over "[", the parts separated by ",", and "]"."""
    import hashlib  # loads OpenSSL: only the commands that take a digest pay for it

    digest = hashlib.sha256(b"[")
    for i, part in enumerate(key_parts):
        if i:
            digest.update(b",")
        digest.update(part.encode())
    digest.update(b"]")
    return digest.hexdigest()[:16]


class EquivClass(NamedTuple):
    """One block of the partition at level k: its five fields, compared and
    hashed as a tuple.  member_bits and key_digest are derived on every
    access, so a caller that needs one twice takes it once."""

    k: int
    index: int
    members: tuple[Program, ...]
    key_parts: tuple[str, ...]  # the family's JSON, one array per tape
    universe_id: str

    @property
    def member_bits(self) -> frozenset[str]:
        return frozenset(p.bits for p in self.members)

    @property
    def key_digest(self) -> str:
        return key_digest(self.key_parts)


def _halting_step(trace: tuple, top: int) -> int:
    """The step at which the trace halts, or top if it does not."""
    for j, state in enumerate(trace, 1):
        if state.halted:
            return j
    return top


class ClassIndex:
    """Class ids of codes at every level 1..top over one universe.

    A code's level-j id interns (level j-1 id, step-j states across the
    tapes), so two codes share a level-j id exactly when their j-step
    families are equal.  A step whose states are equal on every tape interns
    as that one state, compared by value, so a tape-blind family and an
    input-reading one with equal prefixes share ids.  Halting is absorbing:
    once every tape has halted, later levels follow from the prefix and keep
    the id of the level where the last tape halted.
    """

    def __init__(self, universe: InputUniverse, top: int) -> None:
        if top < 1:
            raise ValueError("k must be >= 1")
        self.universe = universe
        self.top = top
        self._ids: dict[tuple, int] = {}
        self._creators: list[tuple] = []  # id -> traces of the code that created it

    def ids(self, program: Program) -> tuple[int, ...]:
        """The program's class id at each level 1..top, from one trace."""
        traces = trace_family(program, self.universe, self.top)
        if traces.count(traces[0]) == len(traces):  # one trace on every tape
            steps = traces[0]  # each step interns as its one state
            settled = _halting_step(steps, self.top)
        else:
            steps = (
                step[0] if step.count(step[0]) == len(step) else step for step in zip(*traces)
            )
            settled = max(  # the step by which every tape has halted, or top
                _halting_step(trace, self.top)
                for trace in {id(trace): trace for trace in traces}.values()
            )
        ids: list[int] = []
        previous = None
        for step in islice(steps, settled):
            pair = (previous, step)
            previous = self._ids.get(pair)
            if previous is None:
                previous = self._ids[pair] = len(self._creators)
                self._creators.append(traces)
            ids.append(previous)
        return tuple(ids) + (previous,) * (self.top - settled)

    def partition(self, programs, level: int, ids_of=None) -> list[EquivClass]:
        """Group programs by their level id (ids_of defaults to ids); each
        class's key parts are encoded from the family that created the id."""
        ids_of = ids_of or self.ids
        groups: dict[int, list[Program]] = {}
        for program in programs:
            groups.setdefault(ids_of(program)[level - 1], []).append(program)
        keyed = sorted(
            (_key_parts(self._creators[cid], level), members) for cid, members in groups.items()
        )
        classes = []
        for index, (parts, members) in enumerate(keyed):
            members = tuple(sorted(members, key=lambda p: (p.length, p.bits)))
            classes.append(EquivClass(level, index, members, parts, self.universe.universe_id))
        return classes


def partition(programs, universe: InputUniverse, k: int) -> list[EquivClass]:
    """Group programs by their k-step trace family over the universe.

    Classes are disjoint, cover the input, and carry indices derived from
    their sorted keys, so the same set of programs always yields the same
    partition no matter how it was ordered.
    """
    programs = list(programs)
    bits_seen = set()
    for program in programs:
        if program.bits in bits_seen:
            raise ValueError(f"duplicate program {program.bits!r} in partition input")
        bits_seen.add(program.bits)
    return ClassIndex(universe, k).partition(programs, k)


class RefinementViolation(RuntimeError):
    """A child class straddles two parent classes; this must be impossible."""


def refine(parents: list[EquivClass], children: list[EquivClass]) -> dict[int, int]:
    """Map each child class index at k+1 to its parent class index at k."""
    if not parents or not children:
        raise ValueError("refine needs nonempty partitions")
    parent_k = parents[0].k
    parent_id, child_id = parents[0].universe_id, children[0].universe_id
    if child_id != parent_id:
        raise ValueError(f"children are over universe {child_id!r}, parents over {parent_id!r}")
    if children[0].k != parent_k + 1:
        raise ValueError(
            f"children are at k={children[0].k}, expected parents' k+1={parent_k + 1}"
        )
    parent_of_bits = {p.bits: c.index for c in parents for p in c.members}
    if {p.bits for c in children for p in c.members} != parent_of_bits.keys():
        raise ValueError("partitions do not cover the same program list")

    mapping: dict[int, int] = {}
    for child in children:
        parent_indices = {parent_of_bits[p.bits] for p in child.members}
        if len(parent_indices) != 1:
            raise RefinementViolation(
                f"child class {child.index} at k={child.k} straddles parents {sorted(parent_indices)}"
            )
        mapping[child.index] = parent_indices.pop()
    return mapping
