"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its wall-clock budget.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from builders import from_instructions, member_bits
from census import scan_length
from oracles import u_weight
from udlab.cli import main as cli_main
from udlab.dovetailer import schedule_pair
from udlab.encoding import TABLE_A, decode
from udlab.enumeration import enumerate_programs, kraft_mass
from udlab.equivalence import DEFAULT_UNIVERSE, partition, refine
from udlab.machine import run_trace, step_count
from udlab.measure import MeasureContext, class_masses, decomposition_check, divergence_report
from udlab.replay import hybrid_run, playback, record, sever_and_project


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number} ({title})")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"PASS criterion {number} ({title}) in {elapsed:.2f}s")


def test_criterion_1_prefix_free_and_kraft():
    with criterion(1, "prefix-free code and Kraft masses", 10.0):
        # Exhaustive decode of every bit string with length <= 14: validity
        # is decided by the strict decoder alone.
        valid: list[str] = []
        for length in range(1, 15):
            valid.extend(scan_length(length, TABLE_A))
        valid_set = set(valid)
        for bits in valid:
            for cut in range(1, len(bits)):
                assert bits[:cut] not in valid_set, f"{bits[:cut]} is a prefix of {bits}"
        # Census-derived Kraft masses at L in {4, 8, 10} against the expected
        # exact fractions, and against the enumeration module.
        expected = {4: Fraction(1, 16), 8: Fraction(9, 128), 10: Fraction(11, 128)}
        for bound, value in expected.items():
            census = sum(
                (Fraction(1, 2 ** len(b)) for b in valid if len(b) <= bound), Fraction(0)
            )
            assert census == value
            assert kraft_mass(bound) == value


def test_criterion_2_partition_laws():
    with criterion(2, "partition laws on P<=12, k in 1..4", 60.0):
        programs = enumerate_programs(12)
        all_bits = {p.bits for p in programs}
        previous = None
        for k in (1, 2, 3, 4):
            classes = partition(programs, DEFAULT_UNIVERSE, k)
            member_lists = [bits for c in classes for bits in member_bits(c)]
            assert len(member_lists) == len(set(member_lists)) == len(programs)  # disjoint
            assert set(member_lists) == all_bits  # covering
            shuffled = list(programs)
            random.Random(k).shuffle(shuffled)
            assert partition(shuffled, DEFAULT_UNIVERSE, k) == classes
            if previous is not None:
                mapping = refine(previous, classes)
                assert sorted(mapping.keys()) == [c.index for c in classes]  # total
                for child in classes:  # single-valued subset containment
                    assert member_bits(child) <= member_bits(previous[mapping[child.index]])
            previous = classes


def test_criterion_3_decomposition_identity():
    # The residual is zero for any reach sets: it catches a lost own-class
    # weight, and the golden digests pin reach.
    with criterion(3, "decomposition residuals zero: own-class weight", 120.0):
        for max_len in (8, 10, 12):
            for budget in (0, 1, 100):
                ctx = MeasureContext(
                    max_len=max_len,
                    k=3,
                    budget=budget,
                    universe=DEFAULT_UNIVERSE,
                    encoding=TABLE_A,
                )
                for k in (1, 2, 3):
                    residuals = decomposition_check(ctx, k)
                    assert residuals == [Fraction(0)] * len(ctx.partition(k)), (max_len, k, budget)


def test_criterion_4_delta_remark():
    with criterion(4, "plain programs contribute to exactly one class", 60.0):
        programs = enumerate_programs(12)
        for k in (1, 2, 3):
            ctx = MeasureContext(
                max_len=12, k=k, budget=100, universe=DEFAULT_UNIVERSE, encoding=TABLE_A
            )
            classes = partition(programs, DEFAULT_UNIVERSE, k)
            for program in programs:
                if program.contains_meta:
                    continue
                assert sum(u_weight(program, c, ctx) for c in classes) == 1, program.bits


def test_criterion_5_budget_monotonicity_and_child_bound():
    with criterion(5, "u nondecreasing in budget; child mass <= parent mass", 120.0):
        programs = enumerate_programs(12)
        budgets = (0, 1, 10, 100, 1000)
        for k in (1, 2):
            classes = partition(programs, DEFAULT_UNIVERSE, k)
            contexts = [
                MeasureContext(
                    max_len=12, k=k, budget=b, universe=DEFAULT_UNIVERSE, encoding=TABLE_A
                )
                for b in budgets
            ]
            for program in programs:
                for cls in classes:
                    weights = [u_weight(program, cls, ctx) for ctx in contexts]
                    assert weights == sorted(weights), (program.bits, cls.index)

        ten = enumerate_programs(10)
        parents = partition(ten, DEFAULT_UNIVERSE, 1)
        children = partition(ten, DEFAULT_UNIVERSE, 2)
        mapping = refine(parents, children)
        ctx = MeasureContext(
            max_len=10, k=2, budget=100, universe=DEFAULT_UNIVERSE, encoding=TABLE_A
        )
        parent_masses = class_masses(ctx, 1)
        for child, mass in zip(children, class_masses(ctx, 2)):
            assert mass <= parent_masses[mapping[child.index]]


def test_criterion_6_level_mass_divergence():
    with criterion(6, "cumulative level mass >= 8x Kraft mass", 60.0):
        ctx = MeasureContext(
            max_len=10, k=8, budget=100, universe=DEFAULT_UNIVERSE, encoding=TABLE_A
        )
        rows = divergence_report(ctx)
        floor = kraft_mass(10)
        for row in rows:
            assert row.level_mass >= floor
        assert rows[-1].cumulative >= 8 * floor


def test_criterion_7_schedule_closed_form():
    with criterion(7, "schedule matches brute force; fair step counts", 5.0):
        tick = 0
        d = 2
        pairs = []
        while len(pairs) < 10_000:
            for i in range(1, d):
                pairs.append((i, d - i))
            d += 1
        for tick, pair in enumerate(pairs[:10_000], start=1):
            assert schedule_pair(tick) == pair
        # Completed steps by program i after finishing diagonal D.
        done: dict[int, int] = {}
        boundary = 0
        for diag in range(2, 141):
            for tick in range(boundary + 1, diag * (diag - 1) // 2 + 1):
                i, _ = schedule_pair(tick)
                done[i] = done.get(i, 0) + 1
            boundary = diag * (diag - 1) // 2
            for i in range(1, diag + 2):
                assert done.get(i, 0) == max(0, diag - i)


def test_criterion_8_replay_witness():
    with criterion(8, "state-identical but counterfactually inequivalent replay", 5.0):
        program = from_instructions([("IN", 0), ("OUT", 0)])
        rec = record(program, (1,), 2)
        live = run_trace(program, (1,), 2)
        assert rec.trace == live

        result = sever_and_project(rec, (1, 2), (1,), DEFAULT_UNIVERSE)
        assert result.trace == live  # state-trace identity on the recorded tape
        assert result.equivalent is False  # counterfactual gap

        assert hybrid_run(rec, (0,)).switch_step == 1
        assert hybrid_run(rec, (1,)).switch_step is None

        before = step_count()
        assert playback(rec) == rec.trace
        assert step_count() - before == 0


def _run_cli_text(argv, capsys) -> str:
    code = cli_main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with criterion(9, "byte-identical CLI output across repeated runs", 60.0):
        rec_path = tmp_path / "witness.json"
        assert cli_main(
            ["record", "--program", "0100000011001111", "--tape", "1", "-k", "2",
             "--out", str(rec_path)]
        ) == 0
        capsys.readouterr()

        commands = [
            ["enumerate", "-L", "10"],
            ["kraft", "-L", "10"],
            ["schedule", "--tick", "7"],
            ["dovetail", "--ticks", "12"],
            ["partition", "-L", "10", "-k", "2"],
            ["measure", "-L", "10", "-k", "2", "-T", "10"],
            ["decompose", "-L", "8", "-k", "2", "-T", "10"],
            ["relmeasure", "-L", "8", "-k", "1", "-T", "10"],
            ["levels", "-L", "8", "-k", "3", "-T", "10"],
            ["record", "--program", "0100000011001111", "--tape", "1", "-k", "2"],
            ["replay", "--recording", str(rec_path)],
            ["hybrid", "--recording", str(rec_path), "--tape", "0"],
            ["sever", "--recording", str(rec_path), "--severed", "1,2", "--tape", "0"],
            ["invariance", "-L", "8", "-k", "1", "-T", "10"],
        ]
        for argv in commands:
            runs = [_run_cli_text(argv, capsys) for _ in range(3)]
            assert runs[0] == runs[1] == runs[2], argv
