"""Exact program-weight measures over equivalence classes.

Every program of length l carries weight 2**-l.  A program contributes its
weight to a class when it "reaches" that class: either it is a member
(self-emulation, the delta case for ordinary programs) or, run on the empty
tape within a host-step budget, it raises emulation events showing some code
advanced to at least k emulated steps whose k-step trace family matches the
class.  Class mass is the exact sum of contributing weights, taken for a
whole level in one pass that adds each program's weight to every class in
its reach set; one class index, tracing each program once, serves every
level up to the context's k.  Weights are summed as integers in units of
2**-L and divided by 2**L once, when a mass or residual is returned.

A class is measured by the context that made it: the mass functions take a
context and a level and answer for every class of that level's partition,
in index order, so no class from elsewhere is ever measured.  The recursive
regrouping of a class's mass over the classes whose members send it weight
is an identity with zero residual, never a tolerance.  Its two sides come
from the same reach sets, so it catches a lost own-class weight but no
wrong reach set; the golden digests and the u_weight oracle tests pin reach.

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
from typing import NamedTuple

from .dovetailer import MAX_TICKS, reached_prefix
from .encoding import EncodingTable, Program
from .enumeration import enumerate_programs
from .equivalence import ClassIndex, EquivClass, InputUniverse, level_id
from .machine import run_events


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class MeasureContext:
    """Truncation parameters every measure result is relative to; k is the
    top level, and every level 1..k is measured from the class ids of its
    programs up to max_len, enumerated and traced once when it is made."""

    __slots__ = (
        "max_len", "k", "budget", "universe", "encoding", "programs",
        "_events", "_ids", "_index", "_partitions", "_prefixes",
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
        self._prefixes: dict[tuple[int, int], set[int] | tuple[()]] = {}  # the empty ones share ()
        self._index = ClassIndex(universe, k)  # checks k >= 1
        self._partitions: dict[int, list[EquivClass]] = {}
        self.programs: list[Program] = enumerate_programs(max_len, encoding)
        self._ids = {p.bits: self._index.ids(p) for p in self.programs}

    def class_ids(self, program: Program) -> tuple[int, ...]:
        """The class ids of one of the context's programs to its settle
        level, which level_id reads at any level 1..k."""
        return self._ids[program.bits]

    def reached_ids(self, program: Program, level: int) -> set[int]:
        """Level ids of the context's programs that the program emulates to
        >= level steps under the budget: those in its own summary, and when it
        dovetails those of the stream's prefix, one set per (ticks, level)
        that every host shares.  A longer code adds no class."""
        found = self._events.get(program.bits)
        if found is None:
            found = self._events[program.bits] = run_events(program, self.budget)
        summary, ticks = found
        reached = {
            ids[level - 1] if level <= len(ids) else ids[-1]
            for bits, max_step in summary.items()
            if max_step >= level and (ids := self._ids.get(bits)) is not None
        }
        if ticks:
            prefix = self._prefixes.get((ticks, level))
            if prefix is None:
                programs = self.programs[: reached_prefix(ticks, level)]
                prefix = {level_id(self._ids[p.bits], level) for p in programs} or ()
                self._prefixes[ticks, level] = prefix
            reached.update(prefix)
        return reached

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


def _class_weights(ctx: MeasureContext, level: int) -> tuple[list[int], dict[tuple[int, int], int]]:
    """One pass over the programs, in units of 2**-L: the total weight of
    each class of the level's partition, and the nonzero weight the programs
    of class s send to class t, keyed (s, t).  A program reaches its own
    class and each class whose id is in its reach set; both are found by id.
    """
    classes = ctx.partition(level)
    index_of_id = {level_id(ctx.class_ids(cls.members[0]), level): cls.index for cls in classes}
    totals = [0] * len(classes)
    sent: dict[tuple[int, int], int] = {}
    for p in ctx.programs:
        weight = 2 ** (ctx.max_len - p.length)
        own = index_of_id[level_id(ctx.class_ids(p), level)]
        reached = {index_of_id[i] for i in ctx.reached_ids(p, level)}
        reached.add(own)
        for target in reached:
            totals[target] += weight
            sent[own, target] = sent.get((own, target), 0) + weight
    return totals, sent


def class_masses(ctx: MeasureContext, level: int) -> list[Fraction]:
    """Exact masses of the classes of ctx.partition(level), in index order,
    from one pass over the programs: each sums 2**-length over the programs
    reaching it."""
    scale = 2**ctx.max_len
    return [Fraction(total, scale) for total in _class_weights(ctx, level)[0]]


def decomposition_check(ctx: MeasureContext, level: int) -> list[Fraction]:
    """Residuals of the recursive mass regrouping, one per class of
    ctx.partition(level), in index order.

    Class i's mass regroups by source class: the weight of i's own members,
    plus the weight that members of every other class j send to i.  The
    residual against the direct mass is zero for any reach sets (module
    docstring); it is nonzero when the pass loses a member's own-class weight.
    """
    totals, sent = _class_weights(ctx, level)
    regrouped = [
        sum(2 ** (ctx.max_len - p.length) for p in cls.members) for cls in ctx.partition(level)
    ]
    for (source, target), weight in sent.items():
        if source != target:
            regrouped[target] += weight
    scale = 2**ctx.max_len
    return [Fraction(r - total, scale) for r, total in zip(regrouped, totals)]


class LevelRow(NamedTuple):
    k: int
    class_count: int
    level_mass: Fraction
    cumulative: Fraction


def divergence_report(ctx: MeasureContext) -> list[LevelRow]:
    """Per-level masses and their running sum for every level 1..ctx.k.

    Every program contributes at least its own weight at every level, so the
    running sum grows at least linearly in the number of levels; there is no
    normalizing constant to be found here.
    """
    rows = []
    cumulative = Fraction(0)
    for k in range(1, ctx.k + 1):
        # Grouped by class id alone: no class is built and no key encoded.
        # Each program adds its weight once per class of the level it reaches.
        own = {p.bits: level_id(ctx.class_ids(p), k) for p in ctx.programs}
        ids = set(own.values())
        total = sum(
            2 ** (ctx.max_len - p.length) * len(ctx.reached_ids(p, k) | {own[p.bits]})
            for p in ctx.programs
        )
        mass = Fraction(total, 2**ctx.max_len)
        cumulative += mass
        rows.append(LevelRow(k=k, class_count=len(ids), level_mass=mass, cumulative=cumulative))
    return rows
