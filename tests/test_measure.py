import json
from fractions import Fraction

import pytest

from builders import from_instructions, member_bits
from oracles import family_key, joined_key, level_rows, merged_events, relative_measure, u_weight
from peak_rss import forked_peak_rss
from udlab import equivalence
from udlab.cli import fraction_str, main
from udlab.dovetailer import MAX_TICKS, DovetailEngine
from udlab.encoding import TABLE_A, decode, get_table
from udlab.enumeration import enumerate_programs, kraft_mass
from udlab.equivalence import (
    DEFAULT_UNIVERSE,
    ClassIndex,
    EquivClass,
    InputUniverse,
    level_id,
    partition,
    refine,
)
from udlab.machine import run_trace
from udlab.measure import (
    MeasureContext,
    _class_weights,
    class_masses,
    decomposition_check,
    divergence_report,
)


def make_ctx(max_len=8, k=1, budget=0):
    return MeasureContext(
        max_len=max_len, k=k, budget=budget, universe=DEFAULT_UNIVERSE, encoding=TABLE_A
    )


def classes_at(max_len, k):
    return partition(enumerate_programs(max_len), DEFAULT_UNIVERSE, k)


def class_containing(classes, bits):
    return next(c for c in classes if bits in member_bits(c))


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
    assert class_masses(make_ctx(budget=0), 1)[halted.index] == Fraction(17, 256)
    assert class_masses(make_ctx(budget=1), 1)[halted.index] == Fraction(9, 128)
    assert class_masses(make_ctx(budget=0), 1)[dvt_class.index] == Fraction(1, 256)


def test_context_mismatch_rejected():
    # A context measures every level up to its k, and none above it.
    parents, classes = classes_at(8, 1), classes_at(8, 2)
    ctx = make_ctx(k=1)
    child = class_containing(classes, "1111")
    parent = class_containing(parents, "1111")
    for above in (
        lambda: class_masses(ctx, 2),
        lambda: decomposition_check(ctx, 2),
        lambda: relative_measure(child, parent, ctx),
        lambda: ctx.partition(2),
    ):
        with pytest.raises(ValueError):
            above()
    assert relative_measure(child, parent, make_ctx(k=2)) == 1


def test_class_under_another_encoding_rejected():
    # The mass functions measure only the classes their context makes; the
    # u_weight oracle takes a class from anywhere, so it checks the class's
    # encoding, universe and level against its context.
    classes = partition(enumerate_programs(10, TABLE_A), DEFAULT_UNIVERSE, 2)
    ctx = MeasureContext(
        max_len=10, k=2, budget=100, universe=DEFAULT_UNIVERSE, encoding=get_table("B")
    )
    with pytest.raises(ValueError, match="encoding"):
        u_weight(classes[0].members[0], classes[0], ctx)
    other = InputUniverse.from_tapes([(), (1,)])
    foreign = partition(enumerate_programs(10, TABLE_A), other, 2)[0]
    with pytest.raises(ValueError, match="universe"):
        u_weight(foreign.members[0], foreign, make_ctx(max_len=10, k=2))
    with pytest.raises(ValueError, match="level"):
        u_weight(classes[0].members[0], classes[0], make_ctx(max_len=10, k=1))


@pytest.mark.parametrize("max_len", [8, 10])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("budget", [0, 1])
def test_decomposition_residuals_zero(max_len, k, budget):
    classes = classes_at(max_len, k)
    ctx = make_ctx(max_len=max_len, k=k, budget=budget)
    residuals = decomposition_check(ctx, k)
    assert residuals == [Fraction(0)] * len(classes)


def test_decomposition_single_class_degenerate():
    # All always-halted programs at length <= 4 form one class; both sides
    # equal the total class mass.
    assert len(classes_at(4, 1)) == 1
    residuals = decomposition_check(make_ctx(max_len=4), 1)
    assert residuals == [Fraction(0)]


def test_relative_measure_example():
    parents = classes_at(8, 1)
    children = classes_at(8, 2)
    parent = class_containing(parents, "1111")
    child = class_containing(children, "1111")
    assert member_bits(child) == member_bits(parent)
    ctx = make_ctx(k=2, budget=1)
    assert class_masses(ctx, 1)[parent.index] == Fraction(18, 256)
    assert class_masses(ctx, 2)[child.index] == Fraction(17, 256)
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
    # Containment of child in parent is refine's check (RefinementViolation).
    parents = classes_at(8, 1)
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
    masses = [class_masses(make_ctx(budget=b), 1)[halted.index] for b in (0, 1, 10, 100)]
    assert masses == sorted(masses)

    # Length growth: the same class key gains members and emulators at L=10.
    classes_10 = classes_at(10, 1)
    halted_10 = class_containing(classes_10, "1111")
    assert joined_key(halted_10.key_parts) == joined_key(halted.key_parts)
    for budget in (0, 1, 10):
        wider = class_masses(make_ctx(max_len=10, budget=budget), 1)[halted_10.index]
        assert wider >= class_masses(make_ctx(budget=budget), 1)[halted.index]


def test_child_mass_bounded_by_parent():
    parents = classes_at(10, 1)
    children = classes_at(10, 2)
    mapping = refine(parents, children)
    ctx = make_ctx(max_len=10, k=2, budget=100)
    parent_masses = class_masses(ctx, 1)
    for child, mass in zip(children, class_masses(ctx, 2)):
        assert mass <= parent_masses[mapping[child.index]]


def test_level_mass_with_zero_budget_is_kraft():
    # Delta contributions only: every program weighs in exactly once.
    [row] = divergence_report(make_ctx(max_len=8, budget=0))
    assert row.level_mass == kraft_mass(8)
    row = divergence_report(make_ctx(max_len=10, k=3, budget=0))[2]
    assert row.level_mass == kraft_mass(10)


def test_level_mass_lower_bound():
    ctx = make_ctx(max_len=10, k=4, budget=100)
    for k in range(1, 5):
        assert divergence_report(ctx)[k - 1].level_mass >= kraft_mass(10)


def test_divergence_report_accumulates():
    ctx = make_ctx(max_len=10, k=4, budget=100)
    rows = divergence_report(ctx)
    assert [row.k for row in rows] == [1, 2, 3, 4]
    total = Fraction(0)
    for row in rows:
        total += row.level_mass
        assert row.cumulative == total
        assert row.level_mass >= kraft_mass(10)
    assert rows[-1].cumulative >= 4 * kraft_mass(10)


@pytest.mark.parametrize("variant", ["A", "B"])
@pytest.mark.parametrize("budget", [0, 200])
def test_level_masses_agree_with_class_masses(variant, budget):
    # The report sums by class id and builds no class; the classes of each
    # level, measured one by one, must add up to the same mass.
    universes = (DEFAULT_UNIVERSE, InputUniverse.from_tapes([(), (0, 2), (1, 2, 0)]))
    for universe in universes:
        ctx = MeasureContext(
            max_len=12, k=4, budget=budget, universe=universe, encoding=get_table(variant)
        )
        rows = divergence_report(ctx)
        assert [row.k for row in rows] == [1, 2, 3, 4]
        for row in rows:
            classes = ctx.partition(row.k)
            assert row.class_count == len(classes)
            assert row.level_mass == sum(class_masses(ctx, row.k))


def oracle_weight(programs, cls, ctx):
    return sum((Fraction(1, 2**p.length) for p in programs if u_weight(p, cls, ctx)), Fraction(0))


def table_ctx(variant, k, budget, max_len=12, universe=DEFAULT_UNIVERSE):
    return MeasureContext(
        max_len=max_len, k=k, budget=budget, universe=universe, encoding=get_table(variant)
    )


THREE_SYMBOLS = InputUniverse.from_tapes([(), (0, 2), (1, 2, 0)])


def oracle_cases():
    # At T=5000 and T=50000 the stream runs codes of up to 16 bits, past
    # L=8 and L=10; the oracle keys every one of them.
    yield from (pytest.param(v, 12, (0, 10, 200), DEFAULT_UNIVERSE, id=v) for v in "AB")
    # At L=14 and T=2 each DVT host's summary holds HALT, whose level-1
    # class is its stream prefix's one class and not the host's own; at
    # T=200, 19 of the 35 hosts have their own class in their prefix.
    yield from (pytest.param(v, 14, (2, 200), DEFAULT_UNIVERSE, id=f"{v}-L14") for v in "AB")
    for variant in "AB":
        for max_len in (8, 10):
            for name, universe in (("default", DEFAULT_UNIVERSE), ("012", THREE_SYMBOLS)):
                case = (variant, max_len, (5000, 50000), universe)
                yield pytest.param(*case, id=f"{variant}-L{max_len}-{name}")


@pytest.mark.parametrize("variant, max_len, budgets, universe", oracle_cases())
def test_measure_class_agrees_with_u_weight_oracle(variant, max_len, budgets, universe):
    # One context at the top level 3 measures levels 1..3; the oracle's
    # context is at the class's own level.
    programs = enumerate_programs(max_len, get_table(variant))
    contexts = {budget: table_ctx(variant, 3, budget, max_len, universe) for budget in budgets}
    for k in (1, 2, 3):
        classes = partition(programs, universe, k)
        for budget, ctx in contexts.items():
            oracle_ctx = table_ctx(variant, k, budget, max_len, universe)
            masses = class_masses(ctx, k)
            for cls in classes:
                expected = oracle_weight(programs, cls, oracle_ctx)
                assert masses[cls.index] == expected, (k, budget, cls.index)


@pytest.mark.parametrize("max_len", [12, 14])
@pytest.mark.parametrize("variant", ["A", "B"])
@pytest.mark.parametrize("universe", [DEFAULT_UNIVERSE, THREE_SYMBOLS], ids=["default", "012"])
def test_level_rows_agree_with_the_level_oracle(max_len, variant, universe):
    # The report sums each level's class masses, where a prefix set shared
    # by DVT hosts is credited once; the oracle sizes each program's merged
    # reach set.  At L=14 on the default universe, every DVT host's own
    # class is in its prefix at T=4950 and 50000, and 19 of 35 at T=200.
    for budget in (0, 200, 4950, 50000):
        ctx = table_ctx(variant, 6, budget, max_len, universe)
        assert divergence_report(ctx) == level_rows(ctx), budget


@pytest.mark.parametrize("max_len", [12, 14])
@pytest.mark.parametrize("variant", ["A", "B"])
@pytest.mark.parametrize("universe", [DEFAULT_UNIVERSE, THREE_SYMBOLS], ids=["default", "012"])
def test_reached_ids_agree_with_the_merged_summary(max_len, variant, universe):
    # Oracle: the classes of the context whose family key is that of a code
    # the merged summary runs to the level, longer codes keyed afresh too.
    # The package reads the stream's part as a prefix of the programs.  At
    # L=14 the DVT hosts run T or T - 1 ticks; tick 4950 ends diagonal 100,
    # so hosts at 4950 and 4949 ticks reach the same prefix at levels 2 and 1.
    keys = {}
    for budget in (0, 1, 2, 50, 4950, 5000, 50000):
        ctx = table_ctx(variant, 6, budget, max_len, universe)
        for level in range(1, 7):
            classes = ctx.partition(level)
            index_of_key = {joined_key(cls.key_parts): cls.index for cls in classes}
            index_of_id = {level_id(ctx.class_ids(cls.members[0]), level): cls.index for cls in classes}
            for program in ctx.programs:
                expected = set()
                for bits, max_step in merged_events(program, budget).items():
                    if max_step >= level:
                        if (bits, level) not in keys:
                            keys[bits, level] = family_key(decode(bits, ctx.encoding), universe, level)
                        if keys[bits, level] in index_of_key:
                            expected.add(index_of_key[keys[bits, level]])
                ids, prefix = ctx.reached_ids(program, level)
                reached = {index_of_id[i] for i in ids | set(prefix)}
                assert reached == expected, (budget, level, program.bits)


def test_decomposition_numerators_agree_with_u_weight_oracle():
    programs = enumerate_programs(12, get_table("B"))
    classes = partition(programs, DEFAULT_UNIVERSE, 2)
    ctx, oracle_ctx = table_ctx("B", 2, 200), table_ctx("B", 2, 200)
    own_weight, received = _class_weights(ctx, 2)
    # Keyed by level id, one entry per class; weights are integers in units
    # of 2**-12.
    ids = [level_id(ctx.class_ids(cls.members[0]), 2) for cls in ctx.partition(2)]
    assert len(set(ids)) == len(classes)
    assert set(own_weight) == set(ids)
    assert set(received) <= set(own_weight)
    for target, i in zip(classes, ids):
        assert own_weight[i] == sum(2 ** (12 - p.length) for p in target.members)
        others = [p for source in classes if source is not target for p in source.members]
        assert received.get(i, 0) == oracle_weight(others, target, oracle_ctx) * 2**12
    assert class_masses(ctx, 2) == [
        oracle_weight(programs, target, oracle_ctx) for target in classes
    ]
    assert decomposition_check(ctx, 2) == [Fraction(0)] * len(classes)


def test_decomposition_residual_cannot_see_a_wrong_reach_set(monkeypatch):
    # Both sides of the regrouping are summed from the same reach sets, so
    # with every reach set empty the masses change and the residuals stay 0.
    # Reach is pinned by the golden digests and the u_weight oracle tests.
    def masses_and_residuals():
        ctx = make_ctx(max_len=14, k=2, budget=500)
        return class_masses(ctx, 2), decomposition_check(ctx, 2)

    masses, residuals = masses_and_residuals()
    monkeypatch.setattr(MeasureContext, "reached_ids", lambda self, program, level: (set(), ()))
    unreached, unreached_residuals = masses_and_residuals()
    assert len(masses) == len(unreached) == 32
    assert sum(a != b for a, b in zip(masses, unreached)) == 12
    assert residuals == unreached_residuals == [Fraction(0)] * 32


@pytest.mark.parametrize("variant", ["A", "B"])
def test_class_masses_equal_per_class_masses(variant):
    # A context at its own level and one at the top level 3 make the same
    # partition and give its classes the same masses.
    programs = enumerate_programs(12, get_table(variant))
    top = table_ctx(variant, 3, 200)
    for k in (1, 3):
        classes = partition(programs, DEFAULT_UNIVERSE, k)
        ctx = table_ctx(variant, k, 200)
        assert ctx.partition(k) == classes == top.partition(k)
        assert class_masses(ctx, k) == class_masses(top, k)


def test_a_level_is_partitioned_and_keyed_once(monkeypatch):
    # The handler's partition and the mass pass share one list, so the pass
    # encodes no key of its own.
    ctx = make_ctx(max_len=12, k=2, budget=200)
    classes = ctx.partition(2)
    assert ctx.partition(2) is classes

    def unexpected(*args):
        raise AssertionError("a key was encoded again")

    monkeypatch.setattr(equivalence, "_key_parts", unexpected)
    assert len(class_masses(ctx, 2)) == len(classes)
    assert len(decomposition_check(ctx, 2)) == len(classes)


def test_class_built_from_its_members_alone_gets_their_bits():
    halted = class_containing(classes_at(8, 1), "1111")
    rebuilt = EquivClass(halted.k, halted.index, halted.members, halted.key_parts, "default")
    assert member_bits(rebuilt) == {"1111", "00001111"} == member_bits(halted)
    ctx = make_ctx()
    assert u_weight(decode("1111"), rebuilt, ctx) == 1
    assert u_weight(decode("10001111"), rebuilt, make_ctx(budget=1)) == 1


@pytest.mark.parametrize("max_len", [12, 14])
def test_mass_commands_look_up_each_reach_set_once_per_level(monkeypatch, capsys, max_len):
    # A level's masses come from one pass over the programs, not one per class;
    # decompose's residuals read no reach at all.
    calls = 0
    reached_ids = MeasureContext.reached_ids

    def counted(self, program, level):
        nonlocal calls
        calls += 1
        return reached_ids(self, program, level)

    monkeypatch.setattr(MeasureContext, "reached_ids", counted)
    programs = len(enumerate_programs(max_len))
    runs = (("measure", 2, programs), ("decompose", 2, 0), ("levels", 4, 4 * programs))
    for command, k, bound in runs:
        calls = 0
        argv = [command, "-L", str(max_len), "-k", str(k), "-T", "200"]
        assert main(argv) == 0
        assert capsys.readouterr().out
        assert calls == bound, (command, calls)


def test_mass_commands_trace_each_code_once(monkeypatch, capsys):
    # One trace per (program, tape) serves every level: no factor for the
    # number of levels, no second trace for k+1, and no trace of an emulated
    # code longer than L, which the stream passes at T=50000.
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return run_trace(*args)

    monkeypatch.setattr(equivalence, "run_trace", counted)
    tapes = len(DEFAULT_UNIVERSE.tapes)
    a, b = (len(enumerate_programs(12, get_table(variant))) * tapes for variant in "AB")
    runs = (("levels", "8", "200", a), ("relmeasure", "2", "200", a),
            ("invariance", "2", "200", a + b), ("measure", "2", "50000", a))
    for command, k, budget, most in runs:
        calls = 0
        assert main([command, "-L", "12", "-k", k, "-T", budget]) == 0
        assert capsys.readouterr().out
        assert calls <= most, (command, calls, most)


def test_context_caches_ids_to_the_settle_level():
    # A program's ids run to where its family settles: the halting step, the
    # step after its DVT fires, or k for a run that does neither; every
    # later level reads the last id.  A context holds the ids of its own
    # programs alone, so a longer one is asked of a class index.
    ctx = make_ctx(max_len=12, k=300, budget=200)
    for program, settled in ((decode("10001111"), 2), (decode("1111"), 1)):
        ids = ctx.class_ids(program)
        assert len(ids) == settled, program.bits
        assert ctx.class_ids(program) is ids
    runs_on = from_instructions([("INC", 0), ("WHILE", 0, [("INC", 0)])])
    assert runs_on.length == 26
    assert len(ClassIndex(DEFAULT_UNIVERSE, 300).ids(runs_on)) == 300
    with pytest.raises(KeyError):
        ctx.class_ids(runs_on)


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


MEASURE_RSS = """
import os, sys
sys.stdout = open(os.devnull, "w")
from udlab.cli import main
os._exit(main(sys.argv[1:]))
"""


def test_largest_budget_reads_no_summary():
    # At MAX_TICKS the stream's summary lists all 454,169 codes up to 31
    # bits; a copy in each DVT host peaked at 216 MB.  A tick count does not.
    argv = ["measure", "-L", "8", "-k", "1", "-T", str(MAX_TICKS)]
    code, maxrss_kib = forked_peak_rss(MEASURE_RSS, *argv)
    assert code == 0
    assert maxrss_kib < 40 * 1024


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
