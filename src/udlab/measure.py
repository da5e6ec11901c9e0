"""Exact program-weight measures over equivalence classes.

Every program of length l carries weight 2**-l.  A program contributes its
weight to a class when it "reaches" that class: either it is a member
(self-emulation, the delta case for ordinary programs) or, run on the empty
tape within a host-step budget, it raises emulation events showing some code
advanced to at least k emulated steps whose k-step trace family matches the
class.  Class mass is the exact sum of contributing weights, taken for a
whole level in one pass that adds each program's weight to every class in
its cached reach set (u_weight, the per-pair test, is the oracle).  All
arithmetic is Fraction-exact, and the recursive regrouping of the mass over
any partition is checked as an identity with zero residual, never a tolerance.

"Eventually emulates" is semidecidable, so the budget T truncates it; every
result carries its full context (length bound L, level k, budget T, universe,
encoding) and contributions only grow as T or L grow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .encoding import EncodingTable, Program, decode
from .enumeration import enumerate_programs
from .equivalence import EquivClass, InputUniverse, family_key, partition
from .machine import run_events

MeasureValue = Fraction


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class EmptyClass(ValueError):
    """A class with no members has zero mass and cannot be a divisor."""


class NotARefinement(ValueError):
    """The child class is not a subset of the parent class."""


@dataclass
class MeasureContext:
    """Truncation parameters every measure result is relative to."""

    max_len: int
    k: int
    budget: int
    universe: InputUniverse
    encoding: EncodingTable
    _caches: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_len < 4:
            raise ValueError("max_len must be >= 4")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")

    def at_k(self, k: int) -> "MeasureContext":
        """Same truncation and caches, different level."""
        if k == self.k:
            return self
        return MeasureContext(
            max_len=self.max_len,
            k=k,
            budget=self.budget,
            universe=self.universe,
            encoding=self.encoding,
            _caches=self._caches,
        )

    def programs(self) -> list[Program]:
        return enumerate_programs(self.max_len, self.encoding)

    def events_summary(self, program: Program) -> dict[str, int]:
        cache = self._caches.setdefault("events", {})
        key = (program.bits, self.budget)
        summary = cache.get(key)
        if summary is None:
            summary = cache[key] = run_events(program, self.budget)
        return summary

    def code_family_key(self, code_bits: str, k: int) -> str:
        cache = self._caches.setdefault("family", {})
        key = (code_bits, k)
        value = cache.get(key)
        if value is None:
            program = decode(code_bits, self.encoding)
            value = cache[key] = family_key(program, self.universe, k)
        return value

    def reached_keys(self, program: Program) -> frozenset[str]:
        """Level-k family keys of the codes the program emulates to >= k steps."""
        cache = self._caches.setdefault("reach", {})
        key = (program.bits, self.k)
        value = cache.get(key)
        if value is None:
            value = cache[key] = frozenset(
                self.code_family_key(code_bits, self.k)
                for code_bits, max_step in self.events_summary(program).items()
                if max_step >= self.k
            )
        return value

    def _check_class(self, cls: EquivClass) -> None:
        if cls.k != self.k:
            raise ValueError(f"class is at k={cls.k} but context has k={self.k}")
        if cls.universe_id != self.universe.universe_id:
            raise ValueError(
                f"class universe {cls.universe_id!r} differs from context universe "
                f"{self.universe.universe_id!r}"
            )


def u_weight(program: Program, cls: EquivClass, ctx: MeasureContext) -> int:
    """1 when the program reaches the class within the context budget, else 0.

    Membership counts as reaching (a program trivially emulates itself), so
    programs that never execute EXEC/DVT contribute exactly to their own
    class.  Otherwise the program's event summary must show some emulated
    code at >= k steps whose k-step family matches the class; that code's
    membership is judged on demand, even when it is longer than the length
    bound.
    """
    ctx._check_class(cls)
    if program.bits in cls.member_bits:
        return 1
    for code_bits, max_step in ctx.events_summary(program).items():
        if max_step >= ctx.k and ctx.code_family_key(code_bits, ctx.k) == cls.canonical_key:
            return 1
    return 0


def _class_weights(
    classes: list[EquivClass], ctx: MeasureContext
) -> tuple[list[Fraction], dict[tuple[int, int], Fraction]]:
    """One pass over the programs: each given class's mass, and the nonzero
    weight the members of class s send to class t, keyed (s, t).  A program
    reaches its own class and the classes keyed in its cached reach set.
    Weights are summed as integers 2**(L - length), divided by 2**L at the end.
    """
    for cls in classes:
        ctx._check_class(cls)
    index_of_key = {cls.canonical_key: i for i, cls in enumerate(classes)}
    index_of_bits = {bits: i for i, cls in enumerate(classes) for bits in cls.member_bits}
    members = sum(len(cls.member_bits) for cls in classes)
    if len(index_of_key) < len(classes) or len(index_of_bits) < members:
        raise ValueError("classes must have distinct keys and disjoint members")
    totals = [0] * len(classes)
    sent: dict[tuple[int | None, int], int] = {}
    for p in ctx.programs():
        weight = 2 ** (ctx.max_len - p.length)
        reached = {index_of_key[key] for key in ctx.reached_keys(p) if key in index_of_key}
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
    """Exact masses of the given classes, in order, from one pass over the
    programs: each sums 2**-length over the programs that reach the class."""
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
    if not classes:
        raise ValueError("decomposition_check needs a nonempty partition")
    for cls in classes:
        ctx._check_class(cls)
        if not cls.members:
            raise EmptyClass(f"class {cls.index} has no members")
    covered = set().union(*(c.member_bits for c in classes))
    expected = {p.bits for p in ctx.programs()}
    if covered != expected:
        raise ValueError("partition does not cover the enumerated programs at max_len")

    mass, numerators = _class_weights(classes, ctx)
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
    if not parent.members:
        raise EmptyClass(f"parent class {parent.index} has no members")
    child_mass = measure_class(child, ctx.at_k(child.k))
    parent_mass = measure_class(parent, ctx.at_k(parent.k))
    return child_mass / parent_mass


def level_mass(k: int, ctx: MeasureContext) -> Fraction:
    """Total mass at level k: sum of class masses over the level-k partition."""
    classes = partition(ctx.programs(), ctx.universe, k)
    return sum(class_masses(classes, ctx.at_k(k)), Fraction(0))


@dataclass(frozen=True)
class LevelRow:
    k: int
    class_count: int
    level_mass: Fraction
    cumulative: Fraction


def divergence_report(k_min: int, k_max: int, ctx: MeasureContext) -> list[LevelRow]:
    """Per-level masses and their running sum for k in k_min..k_max.

    Every program contributes at least its own weight at every level, so the
    running sum grows at least linearly in the number of levels; there is no
    normalizing constant to be found here.
    """
    if k_min < 1 or k_max < k_min:
        raise ValueError("need 1 <= k_min <= k_max")
    rows = []
    cumulative = Fraction(0)
    for k in range(k_min, k_max + 1):
        classes = partition(ctx.programs(), ctx.universe, k)
        mass = sum(class_masses(classes, ctx.at_k(k)), Fraction(0))
        cumulative += mass
        rows.append(LevelRow(k=k, class_count=len(classes), level_mass=mass, cumulative=cumulative))
    return rows
