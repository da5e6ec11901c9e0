"""Exact program-weight measures over equivalence classes.

Every program of length l carries weight 2**-l.  A program contributes its
weight to a class when it "reaches" that class: either it is a member
(self-emulation, the delta case for ordinary programs) or, run on the empty
tape within a host-step budget, it raises emulation events showing some code
advanced to at least k emulated steps whose k-step trace family matches the
class.  Class mass is the exact sum of contributing weights, taken for a
whole level in one pass that keeps two sums per class id, and none per pair
of classes: its members' weight, and the weight that programs of other
classes send it; a stream prefix that dovetailing hosts share is credited
once, with their summed weight.  A level's mass sums its classes' masses.
One class index, tracing each program once, serves every level up to the
context's k.  Weights are summed as integers in units of 2**-L and
divided by 2**L once, when a mass or residual is returned.

A class is measured by the context that made it: the mass functions take a
context and a level and answer for every class of that level's partition,
in index order, so no class from elsewhere is ever measured.  The recursive
regrouping of a class's mass over the classes whose members send it weight
is an identity with zero residual, never a tolerance: a class's mass is its
members' weight plus the weight it receives, and the received part is the
same reach sets on both sides.  So the check sums only each class's members'
weight, once over the partition and once per level id over the programs,
and computes no reach; it catches a lost own-class weight but no wrong reach
set, which the golden digests and the u_weight oracle tests pin.

A reach set holds only the context's programs: a code longer than L is
never decoded or traced, and no class is lost.  Outside the dovetail stream
a host reaches only the codes it EXECs, proper substrings of itself, so at
most L bits long.  A host whose dovetailer runs n ticks reaches, to level j,
the first reached_prefix(n, j) programs of the enumeration, length first.
A code x longer than L in that prefix comes after every program of at most
L bits, so x's class, if the context holds it, has a member in the prefix.

"Eventually emulates" is semidecidable, so the budget T truncates it; every
result carries its full context (length bound L, level k, budget T, universe,
encoding) and contributions only grow as T or L grow.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, NamedTuple

from .dovetailer import MAX_TICKS, reached_prefix
from .encoding import EncodingTable, Program
from .enumeration import enumerate_programs
from .equivalence import ClassIndex, EquivClass, InputUniverse, level_id
from .machine import run_events


class MeasureContext:
    """Truncation parameters every measure result is relative to; k is the
    top level, and every level 1..k is measured from the class ids of its
    programs up to max_len, enumerated and traced once when it is made."""

    __slots__ = (
        "max_len", "k", "budget", "universe", "encoding", "programs",
        "_events", "_ids", "_index", "_partitions", "_prefixes", "_prefix_sets",
    )

    def __init__(
        self, max_len: int, k: int, budget: int, universe: InputUniverse, encoding: EncodingTable
    ) -> None:
        if max_len < 4:
            raise ValueError("max_len must be >= 4")
        if budget < 0:
            raise ValueError("budget must be >= 0")
        if budget > MAX_TICKS:
            raise ValueError(
                f"budget (-T) {budget} is above {MAX_TICKS}, the most dovetail ticks "
                "whose programs enumeration holds"
            )
        self.max_len = max_len
        self.k = k
        self.budget = budget
        self.universe = universe
        self.encoding = encoding
        self._events: dict[str, tuple[dict[str, int], int]] = {}
        self._prefixes: dict[tuple[int, int], Collection[int]] = {}
        self._prefix_sets: dict = {}  # equal prefix sets share one object, so hosts group fast
        self._index = ClassIndex(universe, k)  # checks k >= 1
        self._partitions: dict[int, list[EquivClass]] = {}
        self.programs: list[Program] = enumerate_programs(max_len, encoding)
        self._ids = {p.bits: self._index.ids(p) for p in self.programs}

    def class_ids(self, program: Program) -> tuple[int, ...]:
        """The class ids of one of the context's programs to its settle
        level, which level_id reads at any level 1..k."""
        return self._ids[program.bits]

    def reached_ids(self, program: Program, level: int) -> tuple[set[int], Collection[int]]:
        """Level ids of the context's programs that the program emulates to
        >= level steps under the budget, as a pair that may overlap: its own
        summary's, and a dovetailer's stream prefix's, one set per (ticks,
        level) that every host shares, else ().  A longer code adds no class."""
        found = self._events.get(program.bits)
        if found is None:
            found = self._events[program.bits] = run_events(program, self.budget)
        summary, ticks = found
        reached = {
            ids[level - 1] if level <= len(ids) else ids[-1]
            for bits, max_step in summary.items()
            if max_step >= level and (ids := self._ids.get(bits)) is not None
        }
        prefix = self._prefixes.get((ticks, level)) if ticks else ()
        if prefix is None:
            programs = self.programs[: reached_prefix(ticks, level)]
            prefix = frozenset(level_id(self._ids[p.bits], level) for p in programs) or ()
            prefix = self._prefixes[ticks, level] = self._prefix_sets.setdefault(prefix, prefix)
        return reached, prefix

    def partition(self, level: int) -> list[EquivClass]:
        """The level's partition of the programs, from the class index; built
        once per level, so every later call returns the same list."""
        classes = self._partitions.get(level)
        if classes is None:
            if not 1 <= level <= self.k:
                raise ValueError(f"level {level} is outside the context's levels 1..{self.k}")
            classes = self._index.partition(self.programs, level, self.class_ids)
            self._partitions[level] = classes
        return classes


def _own_weights(ctx: MeasureContext, level: int) -> dict[int, int]:
    """own_weight[i], in units of 2**-L: the weight of the programs whose
    level id is i, class i's members."""
    own_weight = {}
    for p in ctx.programs:
        own = level_id(ctx.class_ids(p), level)
        own_weight[own] = own_weight.get(own, 0) + 2 ** (ctx.max_len - p.length)
    return own_weight


def _class_weights(ctx: MeasureContext, level: int) -> tuple[dict[int, int], dict[int, int]]:
    """own_weight[i], the weight of class i's members, and received[i], the
    weight that programs of other classes send class i, in units of 2**-L
    and keyed by level id.  A program sends its weight once to each class it
    reaches other than its own.  A shared prefix set is credited once, with
    the summed weight of its hosts, less a host's weight on its own class."""
    own_weight, received, shared = {}, {}, {}
    for p in ctx.programs:
        weight = 2 ** (ctx.max_len - p.length)
        own = level_id(ctx.class_ids(p), level)
        own_weight[own] = own_weight.get(own, 0) + weight
        reached, prefix = ctx.reached_ids(p, level)
        for target in reached:
            if target != own and target not in prefix:
                received[target] = received.get(target, 0) + weight
        if prefix:
            shared[prefix] = shared.get(prefix, 0) + weight
            if own in prefix:
                received[own] = received.get(own, 0) - weight
    for prefix, weight in shared.items():
        for target in prefix:
            received[target] = received.get(target, 0) + weight
    return own_weight, received


def _partition_ids(ctx: MeasureContext, level: int) -> list[int]:
    """The level id of each class of ctx.partition(level), in index order."""
    return [level_id(ctx.class_ids(cls.members[0]), level) for cls in ctx.partition(level)]


def class_masses(ctx: MeasureContext, level: int) -> list[Fraction]:
    """Exact masses of the classes of ctx.partition(level), in index order,
    from _class_weights: each sums 2**-length over the programs
    reaching it, its members' weight plus the weight it receives."""
    ids = _partition_ids(ctx, level)
    own_weight, received = _class_weights(ctx, level)
    return [Fraction(own_weight[i] + received.get(i, 0), 2**ctx.max_len) for i in ids]


def decomposition_check(ctx: MeasureContext, level: int) -> list[Fraction]:
    """Residuals of the recursive mass regrouping, one per class of
    ctx.partition(level), in index order.

    Class i's mass regroups as its members' weight plus the weight it
    receives, which both sides read from the same reach sets, so the
    residual is the members' weight less own_weight[i] (_own_weights).
    Neither side needs reach, so no host is run: the residual is zero for
    any reach sets, and nonzero when an own-class weight is lost.
    """
    ids, scale = _partition_ids(ctx, level), 2**ctx.max_len
    own_weight = _own_weights(ctx, level)
    return [
        Fraction(sum(2 ** (ctx.max_len - p.length) for p in cls.members) - own_weight[i], scale)
        for cls, i in zip(ctx.partition(level), ids)
    ]


class LevelRow(NamedTuple):
    k: int
    class_count: int
    level_mass: Fraction
    cumulative: Fraction


def divergence_report(ctx: MeasureContext) -> list[LevelRow]:
    """Per-level masses and their running sum for every level 1..ctx.k: a
    level's mass sums its classes' masses, read from _class_weights.

    Every program contributes at least its own weight at every level, so the
    running sum grows at least linearly in the number of levels; there is no
    normalizing constant to be found here.
    """
    rows = []
    cumulative = Fraction(0)
    for k in range(1, ctx.k + 1):
        own_weight, received = _class_weights(ctx, k)
        mass = Fraction(sum(own_weight.values()) + sum(received.values()), 2**ctx.max_len)
        cumulative += mass
        rows.append(LevelRow(k, len(own_weight), mass, cumulative))
    return rows
