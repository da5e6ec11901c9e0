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

A family settles, and ClassIndex stops tracing and interning it, at the
level where its last run settles.  A run settles at the first step where it
halts or where its event chain shows ('1111', 2): step 2 of the program
1111, which the shared dovetail stream runs at its tick 2.  1111 halts at
its first step, so no EXEC shows that event; a run shows it only in the step
after a DVT fires, directly or inside EXEC children, has made it a
dovetailer.  Halting and dovetailing are both absorbing: a halted run
repeats its halted state, and a dovetailing one keeps every level around
its dovetailer frozen but for its step index while the dovetailer reads the
stream's next tick.  So a settled family's states at its settle level fix
all its later ones, and its later levels keep that level's id.  No other
family can share that id at a later level: to share it, a family must have
the same states up to the settle level, so it shows the same halts and
events and has settled there too.  A family that has not settled cannot
share a settled id, because it cannot show the event.  These ids serve one
encoding, whose stream the dovetailers read.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .encoding import EncodingTable, Program
from .dovetailer import stream_ticks
from .machine import SemanticState, Tape, run_trace, settled_tail, step_events


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


_BUILTIN_SHA256 = None


def _builtin_sha256():
    """The interpreter's own sha256 constructor, resolved once: `_sha2`
    from Python 3.12, `_sha256` before, hashlib without either.  It writes
    hashlib's digest without mapping OpenSSL, and it reads several times
    slower.  Universe ids and key_digest's small keys share it."""
    global _BUILTIN_SHA256
    if _BUILTIN_SHA256 is not None:
        return _BUILTIN_SHA256
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    _BUILTIN_SHA256 = sha256
    return sha256


class InputUniverse(NamedTuple):
    """The finite set of tapes the counterfactual quantifies over, in
    canonical order: distinct, by length, then lexicographically.
    from_tapes names a universe "sha256:" and the first 12 hex digits of
    the sha256 of those tapes' compact JSON; DEFAULT_UNIVERSE is named
    "default"."""

    tapes: tuple[Tape, ...]
    universe_id: str

    @staticmethod
    def from_tapes(tapes) -> "InputUniverse":
        canonical = _canonical_tapes(tapes)
        digest = _builtin_sha256()(
            json.dumps([list(t) for t in canonical], separators=(",", ":")).encode()
        ).hexdigest()
        return InputUniverse(canonical, f"sha256:{digest[:12]}")


# All tapes over {0,1} of length <= 2, canonically ordered.
DEFAULT_UNIVERSE = InputUniverse(
    _canonical_tapes([(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]), "default"
)


_ENCODER = json.JSONEncoder(separators=(",", ":"))


# A value the tail writer fills in; its JSON, "\u0000", is no state field's.
_MARK = "\0"
_MARK_JSON = _ENCODER.encode(_MARK)


def _tail_json(state: SemanticState, count: int, table: EncodingTable, ticks: list[str]) -> str:
    """The JSON of settled_tail(state, count, table), its states joined by
    commas.  A halted run's padding state is encoded once.  A dovetailing
    run's tail states differ from its settle state, whose innermost event is
    the stream's tick 2, only in each EXEC level's step index, one more a
    step, and in the innermost event, the stream's next tick.  So that state
    is encoded once with a mark in each of those places, and each tail state
    fills the marks in.  `ticks` holds each tick's JSON, encoded once."""
    if state.halted:
        return ",".join([_ENCODER.encode(settled_tail(state, 1, table)[0])] * count)
    levels = step_events(state.event)[1:]  # the EXEC levels' events, innermost first
    event = _MARK
    for ref in levels:
        event = ref._replace(step_index=_MARK, state=ref.state._replace(event=event))
    head, *after = _ENCODER.encode(state._replace(event=event)).split(_MARK_JSON)
    starts = [ref.step_index for ref in reversed(levels)]  # in JSON order, outermost first
    if len(ticks) < count + 2:
        ticks += map(_ENCODER.encode, stream_ticks(len(ticks) + 1, count + 2, table))
    states = []
    for n, tick in enumerate(ticks[2 : count + 2], 1):  # ticks 3..count + 2
        parts = [head]
        for start, piece in zip(starts, after):
            parts += (str(start + n), piece)
        parts += (tick, after[-1])
        states.append("".join(parts))
    return ",".join(states)


def _trace_json(trace: tuple, k: int, table: EncodingTable, ticks: list[str]) -> str:
    """The JSON of a trace's first k states; a settled trace shorter than k
    goes on as settled_tail says (_tail_json)."""
    if len(trace) >= k:
        return _ENCODER.encode(trace[:k])
    tail = _tail_json(trace[-1], k - len(trace), table, ticks)
    return _ENCODER.encode(trace)[:-1] + "," + tail + "]"


def _key_parts(traces: tuple, k: int, table: EncodingTable, ticks: list[str]) -> tuple[str, ...]:
    """Each trace's JSON over its first k states, in tape order, encoding
    each distinct trace object once and sharing its string.  `ticks` caches
    the JSON of the stream's ticks under `table` (_tail_json)."""
    encoded: dict[int, str] = {}
    for trace in traces:
        if id(trace) not in encoded:
            encoded[id(trace)] = _trace_json(trace, k, table, ticks)
    return tuple(encoded[id(trace)] for trace in traces)


def read_cells(tape: Tape, cursor: int) -> Tape:
    """The cells below cursor, zero-padded past the tape's end."""
    return tape[:cursor] + (0,) * (cursor - len(tape))


def trace_family(
    program: Program, universe: InputUniverse, k: int, settle: bool = False
) -> tuple[tuple, ...]:
    """The program's k-step traces, one per tape in universe order; with
    settle, each stops where its run settles (run_trace).  A tape that
    agrees, zero-padded, with a traced tape on the cells that run read gets
    that run's trace object; any other tape is traced.  Runs are looked up by
    (final cursor, cells read), one lookup per distinct cursor; a settled
    run reads no more input.  The first tape is traced first: when its run
    read nothing, that run is the run on every tape, and no tape is looked
    up."""
    tapes = universe.tapes
    first = tapes[0]
    trace = run_trace(program, first, k, settle)
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
            trace = run_trace(program, tape, k, settle)
            cursor = trace[-1].input_cursor
            cursors.add(cursor)
            runs[cursor, read_cells(tape, cursor)] = trace
        traces.append(trace)
    return tuple(traces)


# key_digest hashes a key with the built-in sha256 while it is shorter than
# _BUILTIN_KEY_CAP and fits in what is left of _builtin_budget, the key bytes
# the built-in route may still take in this process.  Mapping OpenSSL costs
# a fresh process about 3.5 MB of RSS and 4-5 ms; the built-in module reads
# 180-260 MB/s against OpenSSL's 1,200-1,450 MB/s, so the whole budget costs
# 3-5 ms more hashing, about what the load costs, and a large key never
# takes the slow route.  The first key sent to hashlib spends the budget:
# OpenSSL is then mapped, and the faster route costs nothing more.
_BUILTIN_KEY_CAP = 64 * 1024
_builtin_budget = 1024 * 1024


def key_digest(key_parts: tuple[str, ...]) -> str:
    """The first 16 hex digits of the sha256 of the joined key, streamed
    over "[", the parts separated by ",", and "]".  The parts are JSON,
    ASCII only, so their lengths are the joined key's byte count.  Small
    keys are hashed by the built-in module, others by hashlib (the notes
    above); both write the same digest."""
    global _builtin_budget
    size = sum(map(len, key_parts)) + len(key_parts) + 1  # with the commas and brackets
    if size < _BUILTIN_KEY_CAP and size <= _builtin_budget:
        _builtin_budget -= size
        digest = _builtin_sha256()(b"[")
    else:
        import hashlib  # loads OpenSSL: only a process that hashes large keys pays for it

        _builtin_budget = 0
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


def level_id(ids: tuple[int, ...], level: int) -> int:
    """The class id at `level` from ClassIndex.ids: every level past the
    settle level keeps its id."""
    return ids[level - 1] if level <= len(ids) else ids[-1]


class ClassIndex:
    """Class ids of codes at every level 1..top over one universe, for the
    programs of one encoding.

    A code's level-j id interns (level j-1 id, step-j states across the
    tapes), so two codes share a level-j id exactly when their j-step
    families are equal.  A step whose states are equal on every tape interns
    as that one state, compared by value, so a tape-blind family and an
    input-reading one with equal prefixes share ids.  Each code is traced
    and interned only up to its family's settle level; later levels keep
    that id (level_id).  The settled creator of an id keeps only its traces
    to there, and a key past them is written from settled_tail.
    """

    def __init__(self, universe: InputUniverse, top: int) -> None:
        if top < 1:
            raise ValueError("k must be >= 1")
        self.universe = universe
        self.top = top
        self.table: EncodingTable | None = None  # the encoding of the first code
        self._ids: dict[tuple, int] = {}
        self._creators: list[tuple] = []  # id -> settled traces of the code that created it
        self._ticks: list[str] = []  # the JSON of each stream tick a key has written

    def ids(self, program: Program) -> tuple[int, ...]:
        """The program's class ids at levels 1..settle, from one settled
        trace per distinct run; level_id reads any level 1..top."""
        if self.table is None:
            self.table = program.encoding
        elif program.encoding is not self.table:
            # Dovetailing families settle on the stream of one encoding.
            raise ValueError(f"a class index serves one encoding, not {program!r}")
        traces = trace_family(program, self.universe, self.top, settle=True)
        if traces.count(traces[0]) == len(traces):  # one trace on every tape
            steps = traces[0]  # each step interns as its one state
        else:
            settled = max(map(len, traces))  # the family's settle level
            runs = {id(trace): trace for trace in traces}
            for key, trace in runs.items():  # each distinct run's states to there
                if len(trace) < settled:
                    tail = settled_tail(trace[-1], settled - len(trace), self.table)
                    runs[key] = trace + tuple(tail)
            steps = (
                step[0] if step.count(step[0]) == len(step) else step
                for step in zip(*(runs[id(trace)] for trace in traces))
            )
        ids: list[int] = []
        previous = None
        for step in steps:
            pair = (previous, step)
            previous = self._ids.get(pair)
            if previous is None:
                previous = self._ids[pair] = len(self._creators)
                self._creators.append(traces)
            ids.append(previous)
        return tuple(ids)

    def partition(self, programs, level: int, ids_of=None) -> list[EquivClass]:
        """Group programs by their level id (ids_of defaults to ids); each
        class's key parts are encoded from the family that created the id."""
        ids_of = ids_of or self.ids
        groups: dict[int, list[Program]] = {}
        for program in programs:
            groups.setdefault(level_id(ids_of(program), level), []).append(program)
        keyed = sorted(
            (_key_parts(self._creators[cid], level, self.table, self._ticks), members)
            for cid, members in groups.items()
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
