import json
from fractions import Fraction

import pytest

from udlab import equivalence
from udlab.cli import main
from udlab.dovetailer import DovetailEngine
from udlab.encoding import TABLE_A, decode, from_instructions, get_table
from udlab.enumeration import enumerate_programs, kraft_mass
from udlab.equivalence import DEFAULT_UNIVERSE, EquivClass, partition, refine
from udlab.machine import run_events, run_trace
from udlab.measure import (
    EmptyClass,
    MeasureContext,
    NotARefinement,
    _class_weights,
    class_masses,
    decomposition_check,
    divergence_report,
    fraction_str,
    level_mass,
    measure_class,
    relative_measure,
    u_weight,
)


def make_ctx(max_len=8, k=1, budget=0):
    return MeasureContext(
        max_len=max_len, k=k, budget=budget, universe=DEFAULT_UNIVERSE, encoding=TABLE_A
    )


def classes_at(max_len, k):
    return partition(enumerate_programs(max_len), DEFAULT_UNIVERSE, k)


def class_containing(classes, bits):
    return next(c for c in classes if bits in c.member_bits)


def test_u_weight_membership():
    classes = classes_at(8, 1)
    ctx = make_ctx()
    halted = class_containing(classes, "1111")
    assert u_weight(decode("1111"), halted, ctx) == 1
    assert u_weight(decode("00001111"), halted, ctx) == 1


def test_u_weight_plain_program_is_delta():
    # INC r0 never emulates anything; only its own class gets weight.
    program = from_instructions([("INC", 0)])
    for budget in (0, 1, 100, 1000):
        ctx = make_ctx(max_len=10, budget=budget)
        classes = classes_at(10, 1)
        weights = [u_weight(program, c, ctx) for c in classes]
        assert sum(weights) == 1
        own = class_containing(classes, program.bits)
        assert u_weight(program, own, ctx) == 1


def test_u_weight_dovetailer_reaches_halted_class():
    classes = classes_at(8, 1)
    halted = class_containing(classes, "1111")
    dvt = decode("10001111")
    assert u_weight(dvt, halted, make_ctx(budget=0)) == 0
    assert u_weight(dvt, halted, make_ctx(budget=1)) == 1


def test_measure_class_values():
    classes = classes_at(8, 1)
    halted = class_containing(classes, "1111")
    dvt_class = class_containing(classes, "10001111")
    assert measure_class(halted, make_ctx(budget=0)) == Fraction(17, 256)
    assert measure_class(halted, make_ctx(budget=1)) == Fraction(9, 128)
    assert measure_class(dvt_class, make_ctx(budget=0)) == Fraction(1, 256)


def test_context_mismatch_rejected():
    # A context measures every level up to its k, and none above it.
    parents, classes = classes_at(8, 1), classes_at(8, 2)
    ctx = make_ctx(k=1)
    child = class_containing(classes, "1111")
    parent = class_containing(parents, "1111")
    for above in (
        lambda: measure_class(classes[0], ctx),
        lambda: class_masses(classes, ctx),
        lambda: decomposition_check(classes, ctx),
        lambda: relative_measure(child, parent, ctx),
        lambda: level_mass(2, ctx),
        lambda: divergence_report(1, 2, ctx),
        lambda: ctx.partition(2),
    ):
        with pytest.raises(ValueError):
            above()
    assert relative_measure(child, parent, make_ctx(k=2)) == 1


def test_class_under_another_encoding_rejected():
    # Classes partitioned under A, measured in a B context: unchecked, the
    # B context gives class 1 the mass 1/128 instead of 1/256 and reports
    # zero decomposition residuals.
    parents = partition(enumerate_programs(10, TABLE_A), DEFAULT_UNIVERSE, 1)
    classes = partition(enumerate_programs(10, TABLE_A), DEFAULT_UNIVERSE, 2)
    ctx = MeasureContext(
        max_len=10, k=2, budget=100, universe=DEFAULT_UNIVERSE, encoding=get_table("B")
    )
    child = class_containing(classes, "1111")
    parent = class_containing(parents, "1111")
    for mismatched in (
        lambda: class_masses(classes, ctx),
        lambda: u_weight(classes[0].members[0], classes[0], ctx),
        lambda: decomposition_check(classes, ctx),
        lambda: relative_measure(child, parent, ctx),
    ):
        with pytest.raises(ValueError, match="encoding"):
            mismatched()


@pytest.mark.parametrize("max_len", [8, 10])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("budget", [0, 1])
def test_decomposition_residuals_zero(max_len, k, budget):
    classes = classes_at(max_len, k)
    ctx = make_ctx(max_len=max_len, k=k, budget=budget)
    residuals = decomposition_check(classes, ctx)
    assert residuals == [Fraction(0)] * len(classes)


def test_decomposition_single_class_degenerate():
    # All always-halted programs at length <= 4 form one class; both sides
    # equal the total class mass.
    classes = classes_at(4, 1)
    residuals = decomposition_check(classes, make_ctx(max_len=4))
    assert residuals == [Fraction(0)]


def test_decomposition_validates_cover():
    classes = classes_at(8, 1)
    with pytest.raises(ValueError):
        decomposition_check(classes[:1], make_ctx())
    with pytest.raises(ValueError):
        decomposition_check([], make_ctx())


def test_relative_measure_example():
    parents = classes_at(8, 1)
    children = classes_at(8, 2)
    parent = class_containing(parents, "1111")
    child = class_containing(children, "1111")
    assert child.member_bits == parent.member_bits
    ctx = make_ctx(k=2, budget=1)
    assert measure_class(parent, ctx) == Fraction(18, 256)
    assert measure_class(child, ctx) == Fraction(17, 256)
    assert relative_measure(child, parent, ctx) == Fraction(17, 18)


def test_relative_measure_saturates_at_one():
    # With enough budget every emulator of the parent reaches the child level
    # too, and a membership-identical child keeps the full parent mass.
    parents = classes_at(8, 1)
    children = classes_at(8, 2)
    parent = class_containing(parents, "1111")
    child = class_containing(children, "1111")
    ctx = make_ctx(k=2, budget=4)  # tick 2 advances the empty program to step 2
    assert relative_measure(child, parent, ctx) == 1


def test_relative_measure_in_unit_interval():
    parents = classes_at(10, 1)
    children = classes_at(10, 2)
    mapping = refine(parents, children)
    ctx = make_ctx(max_len=10, k=2, budget=10)
    for child in children:
        ratio = relative_measure(child, parents[mapping[child.index]], ctx)
        assert 0 <= ratio <= 1


def test_relative_measure_validation():
    parents = classes_at(8, 1)
    children = classes_at(8, 2)
    dvt_child = class_containing(children, "10001111")
    halted_parent = class_containing(parents, "1111")
    with pytest.raises(NotARefinement):
        relative_measure(dvt_child, halted_parent, make_ctx())
    with pytest.raises(ValueError):
        relative_measure(parents[0], parents[0], make_ctx())


def test_u_weight_monotone_in_budget():
    programs = enumerate_programs(10)
    classes = classes_at(10, 2)
    budgets = (0, 1, 10, 100)
    contexts = [make_ctx(max_len=10, k=2, budget=b) for b in budgets]
    for program in programs:
        for cls in classes:
            weights = [u_weight(program, cls, ctx) for ctx in contexts]
            assert weights == sorted(weights)


def test_measure_monotone_in_budget_and_length():
    classes = classes_at(8, 1)
    halted = class_containing(classes, "1111")
    masses = [measure_class(halted, make_ctx(budget=b)) for b in (0, 1, 10, 100)]
    assert masses == sorted(masses)

    # Length growth: the same class key gains members and emulators at L=10.
    classes_10 = classes_at(10, 1)
    halted_10 = class_containing(classes_10, "1111")
    assert halted_10.canonical_key == halted.canonical_key
    for budget in (0, 1, 10):
        assert measure_class(halted_10, make_ctx(max_len=10, budget=budget)) >= measure_class(
            halted, make_ctx(budget=budget)
        )


def test_child_mass_bounded_by_parent():
    parents = classes_at(10, 1)
    children = classes_at(10, 2)
    mapping = refine(parents, children)
    ctx = make_ctx(max_len=10, k=2, budget=100)
    for child in children:
        parent = parents[mapping[child.index]]
        assert measure_class(child, ctx) <= measure_class(parent, ctx)


def test_level_mass_with_zero_budget_is_kraft():
    # Delta contributions only: every program weighs in exactly once.
    assert level_mass(1, make_ctx(max_len=8, budget=0)) == kraft_mass(8)
    assert level_mass(3, make_ctx(max_len=10, k=3, budget=0)) == kraft_mass(10)


def test_level_mass_lower_bound():
    ctx = make_ctx(max_len=10, k=4, budget=100)
    for k in range(1, 5):
        assert level_mass(k, ctx) >= kraft_mass(10)


def test_divergence_report_accumulates():
    ctx = make_ctx(max_len=10, k=4, budget=100)
    rows = divergence_report(1, 4, ctx)
    assert [row.k for row in rows] == [1, 2, 3, 4]
    total = Fraction(0)
    for row in rows:
        total += row.level_mass
        assert row.cumulative == total
        assert row.level_mass >= kraft_mass(10)
    assert rows[-1].cumulative >= 4 * kraft_mass(10)
    with pytest.raises(ValueError):
        divergence_report(2, 1, ctx)
    with pytest.raises(ValueError):
        divergence_report(0, 3, ctx)


def oracle_weight(programs, cls, ctx):
    return sum((Fraction(1, 2**p.length) for p in programs if u_weight(p, cls, ctx)), Fraction(0))


def table_ctx(variant, k, budget):
    return MeasureContext(
        max_len=12, k=k, budget=budget, universe=DEFAULT_UNIVERSE, encoding=get_table(variant)
    )


@pytest.mark.parametrize("variant", ["A", "B"])
def test_measure_class_agrees_with_u_weight_oracle(variant):
    # One context at the top level 3 measures levels 1..3; the oracle's
    # context is at the class's own level.
    programs = enumerate_programs(12, get_table(variant))
    contexts = {budget: table_ctx(variant, 3, budget) for budget in (0, 10, 200)}
    for k in (1, 2, 3):
        classes = partition(programs, DEFAULT_UNIVERSE, k)
        for budget, ctx in contexts.items():
            oracle_ctx = table_ctx(variant, k, budget)
            for cls in classes:
                expected = oracle_weight(programs, cls, oracle_ctx)
                assert measure_class(cls, ctx) == expected, (k, budget, cls.index)


def test_decomposition_numerators_agree_with_u_weight_oracle():
    programs = enumerate_programs(12, get_table("B"))
    classes = partition(programs, DEFAULT_UNIVERSE, 2)
    ctx, oracle_ctx = table_ctx("B", 2, 200), table_ctx("B", 2, 200)
    numerators = _class_weights(classes, ctx)[1]
    for target in classes:
        for source in classes:
            expected = oracle_weight(source.members, target, oracle_ctx)
            assert numerators.get((source.index, target.index), 0) == expected
    assert decomposition_check(classes, ctx) == [Fraction(0)] * len(classes)


@pytest.mark.parametrize("variant", ["A", "B"])
def test_class_masses_equal_per_class_masses(variant):
    programs = enumerate_programs(12, get_table(variant))
    for k in (1, 3):
        classes = partition(programs, DEFAULT_UNIVERSE, k)
        ctx = table_ctx(variant, k, 200)
        assert ctx.partition(k) == classes == table_ctx(variant, 3, 200).partition(k)
        masses = class_masses(classes, ctx)
        assert masses == [measure_class(cls, ctx) for cls in classes]
        assert class_masses(classes[::-1], ctx) == masses[::-1]
        assert class_masses([], ctx) == []


def test_class_built_from_its_members_alone_gets_their_bits():
    halted = class_containing(classes_at(8, 1), "1111")
    rebuilt = EquivClass(halted.k, halted.index, halted.members, halted.key_parts, "default")
    assert rebuilt.member_bits == {"1111", "00001111"} == halted.member_bits
    ctx = make_ctx()
    assert u_weight(decode("1111"), rebuilt, ctx) == 1
    assert class_masses([rebuilt], ctx) == [Fraction(17, 256)]


def test_class_masses_reject_overlapping_classes():
    first, second = classes_at(8, 1)[:2]
    same_key = EquivClass(
        second.k, second.index, second.members, first.key_parts, second.universe_id
    )
    same_members = EquivClass(
        second.k, second.index, first.members, second.key_parts, second.universe_id
    )
    for pair in ([first, first], [first, same_key], [first, same_members]):
        with pytest.raises(ValueError):
            class_masses(pair, make_ctx())


@pytest.mark.parametrize("max_len", [12, 14])
def test_mass_commands_look_up_each_reach_set_once_per_level(monkeypatch, capsys, max_len):
    # A level's masses come from one pass over the programs, not one per class.
    calls = 0
    reached_ids = MeasureContext.reached_ids

    def counted(self, program, level):
        nonlocal calls
        calls += 1
        return reached_ids(self, program, level)

    monkeypatch.setattr(MeasureContext, "reached_ids", counted)
    programs = len(enumerate_programs(max_len))
    runs = (("measure", 2, programs), ("decompose", 2, 2 * programs), ("levels", 4, 4 * programs))
    for command, k, bound in runs:
        calls = 0
        argv = [command, "-L", str(max_len), "-k", str(k), "-T", "200"]
        assert main(argv) == 0
        assert capsys.readouterr().out
        if command == "measure":
            assert calls == programs
        assert calls <= bound, (command, calls)


def test_mass_commands_trace_each_code_once(monkeypatch, capsys):
    # One trace per (program or emulated code, tape) serves every level: no
    # factor for the number of levels, nor a second trace for k+1.
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return run_trace(*args)

    monkeypatch.setattr(equivalence, "run_trace", counted)
    tapes = len(DEFAULT_UNIVERSE.tapes)

    def bound(variant):
        programs = enumerate_programs(12, get_table(variant))
        codes = {p.bits for p in programs}
        for p in programs:
            codes.update(run_events(p, 200))
        return len(codes) * tapes

    runs = (("levels", "8", bound("A")), ("relmeasure", "2", bound("A")),
            ("invariance", "2", bound("A") + bound("B")))
    for command, k, most in runs:
        calls = 0
        assert main([command, "-L", "12", "-k", k, "-T", "200"]) == 0
        assert capsys.readouterr().out
        assert calls <= most, (command, calls, most)


@pytest.mark.parametrize("k", [1, 2])
def test_relmeasure_ratios_equal_relative_measure(capsys, k):
    def ratios(argv):
        assert main([*argv, "-L", "12", "-k", str(k), "-T", "200", "--format", "json"]) == 0
        pairs = json.loads(capsys.readouterr().out)["pairs"]
        fields = ("encoding_id", "child_index", "parent_index", "relative_measure")
        return [tuple(row[f] for f in fields) for row in pairs]

    expected = {}
    for variant in ("A", "B"):
        table = get_table(variant)
        programs = enumerate_programs(12, table)
        parents = partition(programs, DEFAULT_UNIVERSE, k)
        children = partition(programs, DEFAULT_UNIVERSE, k + 1)
        mapping = refine(parents, children)
        ctx = table_ctx(variant, k + 1, 200)
        expected[variant] = []
        for child in children:
            parent = parents[mapping[child.index]]
            ratio = fraction_str(relative_measure(child, parent, ctx))
            expected[variant].append((variant, child.index, parent.index, ratio))
    assert ratios(["relmeasure"]) == expected["A"]
    assert ratios(["relmeasure", "--encoding", "B"]) == expected["B"]
    assert ratios(["invariance"]) == expected["A"] + expected["B"]


def test_measure_ticks_one_shared_dovetail_stream(monkeypatch, capsys):
    # The three DVT hosts of L<=12 each used to tick an engine of their own,
    # at least 3*T ticks; they now read one shared stream's summary.
    ticks = 0
    tick = DovetailEngine.tick

    def counted(self):
        nonlocal ticks
        ticks += 1
        return tick(self)

    monkeypatch.setattr(DovetailEngine, "tick", counted)
    budget = 20000
    assert main(["measure", "-L", "12", "-k", "2", "-T", str(budget)]) == 0
    assert capsys.readouterr().out
    assert ticks < 2 * budget


def test_fraction_str():
    assert fraction_str(Fraction(9, 128)) == "9/128"
    assert fraction_str(Fraction(0)) == "0/1"
    assert fraction_str(Fraction(1)) == "1/1"


def test_context_validation():
    with pytest.raises(ValueError):
        MeasureContext(max_len=3, k=1, budget=0, universe=DEFAULT_UNIVERSE, encoding=TABLE_A)
    with pytest.raises(ValueError):
        MeasureContext(max_len=8, k=0, budget=0, universe=DEFAULT_UNIVERSE, encoding=TABLE_A)
    with pytest.raises(ValueError):
        MeasureContext(max_len=8, k=1, budget=-1, universe=DEFAULT_UNIVERSE, encoding=TABLE_A)


def test_empty_class_guard():
    classes = classes_at(8, 1)
    hollow = classes[0].__class__(
        k=1,
        index=99,
        members=(),
        key_parts=classes[0].key_parts,
        universe_id="default",
    )
    with pytest.raises(EmptyClass):
        decomposition_check([hollow], make_ctx())
