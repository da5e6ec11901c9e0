"""Exact program-weight measures over equivalence classes.

Every program of length l carries weight 2**-l.  A program contributes its
weight to a class when it "reaches" that class: either it is a member
(self-emulation, the delta case for ordinary programs) or, run on the empty
tape within a host-step budget, it raises emulation events showing some code
advanced to at least k emulated steps whose k-step trace family matches the
class.  Class mass is the exact sum of contributing weights, taken for a
whole level in one pass that adds each program's weight to every class in
its reach set (u_weight, the per-pair test, is the oracle); one class index,
tracing each code once, serves every level up to the context's k.  All
arithmetic is Fraction-exact, and the recursive regrouping of the mass over
any partition is checked as an identity with zero residual, never a tolerance.

"Eventually emulates" is semidecidable, so the budget T truncates it; every
result carries its full context (length bound L, level k, budget T, universe,
encoding) and contributions only grow as T or L grow.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .encoding import EncodingTable, Program, decode
from .enumeration import enumerate_programs
from .equivalence import ClassIndex, EquivClass, InputUniverse, family_key
from .machine import run_events


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class EmptyClass(ValueError):
    """A class with no members has zero mass and cannot be a divisor."""


class NotARefinement(ValueError):
    """The child class is not a subset of the parent class."""


class MeasureContext:
    """Truncation parameters every measure result is relative to; k is the
    top level, and every level 1..k is measured from the same traces."""

    __slots__ = ("max_len", "k", "budget", "universe", "encoding", "_events", "_ids", "_index")

    def __init__(
        self, max_len: int, k: int, budget: int, universe: InputUniverse, encoding: EncodingTable
    ) -> None:
        if max_len < 4:
            raise ValueError("max_len must be >= 4")
        if budget < 0:
            raise ValueError("budget must be >= 0")
        self.max_len = max_len
        self.k = k
        self.budget = budget
        self.universe = universe
        self.encoding = encoding
        self._events: dict[str, dict[str, int]] = {}
        self._ids: dict[str, tuple[int, ...]] = {}
        self._index = ClassIndex(universe, k)  # checks k >= 1

    def programs(self) -> list[Program]:
        return enumerate_programs(self.max_len, self.encoding)

    def events_summary(self, program: Program) -> dict[str, int]:
        summary = self._events.get(program.bits)
        if summary is None:
            summary = self._events[program.bits] = run_events(program, self.budget)
        return summary

    def class_ids(self, program: Program) -> tuple[int, ...]:
        """The program's class id at each level 1..k."""
        ids = self._ids.get(program.bits)
        if ids is None:
            ids = self._ids[program.bits] = self._index.ids(program)
        return ids

    def reached_ids(self, program: Program, level: int) -> set[int]:
        """Level ids of the codes the program emulates to >= level steps."""
        # Code bits are decoded only when their ids are not cached yet.
        return {
            (self._ids.get(bits) or self.class_ids(decode(bits, self.encoding)))[level - 1]
            for bits, max_step in self.events_summary(program).items()
            if max_step >= level
        }

    def partition(self, level: int) -> list[EquivClass]:
        """The level's partition of the programs, from the class index."""
        self._check_level(level)
        return self._index.partition(self.programs(), level, self.class_ids)

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.k:
            raise ValueError(f"level {level} is outside the context's levels 1..{self.k}")

    def _check_class(self, cls: EquivClass) -> None:
        self._check_level(cls.k)
        if cls.universe_id != self.universe.universe_id:
            raise ValueError(
                f"class universe {cls.universe_id!r} differs from context universe "
                f"{self.universe.universe_id!r}"
            )
        if any(p.encoding != self.encoding for p in cls.members):
            raise ValueError(f"class {cls.index} is under another encoding than {self.encoding!r}")


def u_weight(program: Program, cls: EquivClass, ctx: MeasureContext) -> int:
    """1 when the program reaches the class within the context budget, else 0.

    Membership counts as reaching (a program trivially emulates itself), so
    programs that never execute EXEC/DVT contribute exactly to their own
    class.  Otherwise the program's event summary must show some emulated
    code at >= k steps whose k-step family key, built afresh rather than
    read from the class index, matches the class; that code's membership is
    judged on demand, even when it is longer than the length bound.
    """
    ctx._check_class(cls)
    if program.bits in cls.member_bits:
        return 1
    for code_bits, max_step in ctx.events_summary(program).items():
        if max_step >= cls.k:
            code = decode(code_bits, ctx.encoding)
            if family_key(code, ctx.universe, cls.k) == cls.canonical_key:
                return 1
    return 0


def _class_weights(
    classes: list[EquivClass], ctx: MeasureContext
) -> tuple[list[Fraction], dict[tuple[int, int], Fraction]]:
    """One pass over the programs: each given class's mass, and the nonzero
    weight the members of class s send to class t, keyed (s, t).  A program
    reaches its own class and each class whose id (its first member's) is in
    its reach set.  Weights are summed as integers 2**(L - length), divided by
    2**L at the end.
    """
    level = classes[0].k if classes else 1
    for cls in classes:
        ctx._check_class(cls)
        if cls.k != level:
            raise ValueError("classes must all be at one level")
        if not cls.members:
            raise EmptyClass(f"class {cls.index} has no members")
    index_of_id = {ctx.class_ids(cls.members[0])[level - 1]: i for i, cls in enumerate(classes)}
    index_of_bits = {bits: i for i, cls in enumerate(classes) for bits in cls.member_bits}
    parts = {cls.key_parts for cls in classes}  # equal tuples, equal keys
    members = sum(len(cls.member_bits) for cls in classes)
    if len(parts) < len(classes) or len(index_of_id) < len(classes) or len(index_of_bits) < members:
        raise ValueError("classes must have distinct keys and disjoint members")
    totals = [0] * len(classes)
    sent: dict[tuple[int | None, int], int] = {}
    for p in ctx.programs():
        weight = 2 ** (ctx.max_len - p.length)
        reached = {index_of_id[i] for i in ctx.reached_ids(p, level) if i in index_of_id}
        own = index_of_bits.get(p.bits)
        if own is not None:
            reached.add(own)
        for target in reached:
            totals[target] += weight
            sent[own, target] = sent.get((own, target), 0) + weight
    scale = 2**ctx.max_len
    numerators = {pair: Fraction(w, scale) for pair, w in sent.items() if pair[0] is not None}
    return [Fraction(total, scale) for total in totals], numerators


def class_masses(classes: list[EquivClass], ctx: MeasureContext) -> list[Fraction]:
    """Exact masses of the given classes (one level <= ctx.k), in order, from one
    pass over the programs: each sums 2**-length over the programs reaching it."""
    return _class_weights(classes, ctx)[0]


def measure_class(cls: EquivClass, ctx: MeasureContext) -> Fraction:
    """Exact mass of a class: sum of 2**-length over contributing programs."""
    return class_masses([cls], ctx)[0]


def decomposition_check(classes: list[EquivClass], ctx: MeasureContext) -> list[Fraction]:
    """Residuals of the recursive mass regrouping, one per class.

    For each class i the regrouped form sums, over classes j, the class-j
    mass times the weight from class-j members reaching class i, divided by
    the full mass reaching class j.  With exact rationals the residual
    against the direct mass is identically zero; anything else is a bug.
    """
    mass, numerators = _class_weights(classes, ctx)
    covered = set().union(*(c.member_bits for c in classes))
    if covered != {p.bits for p in ctx.programs()}:
        raise ValueError("partition does not cover the enumerated programs at max_len")
    regrouped = [Fraction(0)] * len(classes)
    for (source, target), numerator in numerators.items():
        # The divisor is the full reaching-weight of the source class,
        # summed over every enumerated program, not just its members:
        # that sum is the source class mass itself.
        denominator = mass[source]
        regrouped[target] += mass[source] * numerator / denominator
    return [r - m for r, m in zip(regrouped, mass)]


def relative_measure(child: EquivClass, parent: EquivClass, ctx: MeasureContext) -> Fraction:
    """Exact ratio mass(child at k+1) / mass(parent at k), same truncation."""
    if child.k != parent.k + 1:
        raise ValueError(f"child must be one level below parent (got {child.k} vs {parent.k})")
    if not child.member_bits <= parent.member_bits:
        raise NotARefinement(
            f"child class {child.index} at k={child.k} is not contained in "
            f"parent class {parent.index} at k={parent.k}"
        )
    return measure_class(child, ctx) / measure_class(parent, ctx)


def level_mass(k: int, ctx: MeasureContext) -> Fraction:
    """Total mass at level k <= ctx.k, summed over the level-k partition."""
    return divergence_report(k, k, ctx)[0].level_mass


class LevelRow(NamedTuple):
    k: int
    class_count: int
    level_mass: Fraction
    cumulative: Fraction


def divergence_report(k_min: int, k_max: int, ctx: MeasureContext) -> list[LevelRow]:
    """Per-level masses and their running sum for k in k_min..k_max <= ctx.k.

    Every program contributes at least its own weight at every level, so the
    running sum grows at least linearly in the number of levels; there is no
    normalizing constant to be found here.
    """
    if k_min < 1 or k_max < k_min:
        raise ValueError("need 1 <= k_min <= k_max")
    rows = []
    cumulative = Fraction(0)
    for k in range(k_min, k_max + 1):
        # Grouped by class id alone: no class is built and no key encoded.
        # Each program adds its weight once per class of the level it reaches.
        ctx._check_level(k)
        own = {p.bits: ctx.class_ids(p)[k - 1] for p in ctx.programs()}
        ids = set(own.values())
        total = sum(
            2 ** (ctx.max_len - p.length) * len(ids & ctx.reached_ids(p, k) | {own[p.bits]})
            for p in ctx.programs()
        )
        mass = Fraction(total, 2**ctx.max_len)
        cumulative += mass
        rows.append(LevelRow(k=k, class_count=len(ids), level_mass=mass, cumulative=cumulative))
    return rows
