"""The traced run's exact counters repeat exactly.

Run with: python3 -m pytest perfbench/test_counts.py
"""

import time

import run as bench  # pytest puts this file's directory on sys.path

EXACT = (
    "machine.steps",
    "dovetailer.ticks",
    "measure.u_weight_calls",
    "enumeration.candidates",
)


def _ok(output: bytes) -> None:
    return None


def tiny_commands() -> list:
    """Every layer at L=10: a partition, the mass commands and a replay session."""
    return [
        bench.Command("partition", "partition", ["partition", "-L", "10", "-k", "3"], _ok),
        bench.Command("measure", "measure", ["measure", "-L", "10", "-k", "2", "-T", "300"], _ok),
        bench.Command("decompose", "decompose",
                      ["decompose", "-L", "10", "-k", "2", "-T", "100"], bench._check_decompose),
        bench.Command("record", "replay",
                      ["record", "--program", bench.DVT_HOST, "-k", "50"], bench._check_record(50)),
        bench.Command("hybrid", "replay", ["hybrid", "--recording", "record.out"],
                      bench._check_hybrid),
        bench.Command("sever", "replay",
                      ["sever", "--recording", "record.out", "--severed", "1,2"], bench._check_sever),
    ]


def test_exact_counts_repeat_across_traced_runs(tmp_path):
    runs = []
    for _ in range(2):
        outcomes = bench.run_pass(tiny_commands(), tmp_path, True, time.monotonic() + 120)
        assert [o.error for o in outcomes] == [None] * len(outcomes)
        runs.append((bench.pass_layers(outcomes), [o.sha256 for o in outcomes]))
    (first, first_digests), (second, second_digests) = runs
    assert first_digests == second_digests
    for name in EXACT:
        assert first["counts"][name] > 0, name
        assert first["counts"][name] == second["counts"][name], name
    assert first["unattributed_s"] >= 0
