import hashlib
import json
from fractions import Fraction
import gc
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from peak_rss import forked_peak_rss

from udlab import chunks, cli, dovetailer, equivalence
from udlab.cli import _COMMANDS, _OPTIONS, main
from udlab.enumeration import MAX_KRAFT_LEN
from udlab.machine import step_count

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kraft_plain(capsys):
    code, out, _ = run_cli(capsys, "kraft", "--max-len", "8")
    assert code == 0
    assert out == "9/128\n"


def test_kraft_json_embeds_config(capsys):
    code, out, _ = run_cli(capsys, "kraft", "-L", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kraft_mass"] == "11/128"
    assert payload["config"]["max_len"] == 10
    assert payload["config"]["encoding"] == "A"


def test_schedule_plain(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--tick", "5")
    assert code == 0
    assert out == "(2,2)\n"


def test_schedule_requires_tick(capsys):
    code, _, err = run_cli(capsys, "schedule")
    assert code == 2
    assert "--tick" in err


def test_partition_json(capsys):
    code, out, _ = run_cli(capsys, "partition", "--max-len", "8", "-k", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 1
    assert payload["universe_id"] == "default"
    assert len(payload["classes"]) == 2
    members = {frozenset(c["members"]) for c in payload["classes"]}
    assert members == {frozenset({"1111", "00001111"}), frozenset({"10001111"})}


def test_enumerate_json_lists_bits(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-L", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["programs"] == ["1111", "00001111", "10001111"]


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-L", "8", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "index,bits,length"
    assert lines[2] == "1,1111,4"


def test_dovetail_csv(capsys):
    code, out, _ = run_cli(capsys, "dovetail", "--ticks", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "tick,program_index,program_bits,step_index,halted,registers,outputs"
    assert lines[2] == "1,1,1111,1,True,0 0 0 0,"
    assert lines[4] == "3,2,00001111,1,True,0 0 0 0,"


def test_measure_csv_values(capsys):
    code, out, _ = run_cli(capsys, "measure", "-L", "8", "-k", "1", "-T", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "L,k,T,universe_id,encoding_id,class_index,key_digest,member_count,mass"
    masses = {line.rsplit(",", 1)[-1] for line in lines[2:]}
    assert masses == {"1/256", "9/128"}


def test_decompose_zero_residuals(capsys):
    code, out, _ = run_cli(capsys, "decompose", "-L", "10", "-k", "2", "-T", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"]
    assert all(row["residual"] == "0/1" and row["zero"] for row in payload["classes"])


def test_relmeasure_rows(capsys):
    code, out, _ = run_cli(capsys, "relmeasure", "-L", "8", "-k", "1", "-T", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    ratios = {row["relative_measure"] for row in payload["pairs"]}
    assert "17/18" in ratios


def test_levels_report(capsys):
    code, out, _ = run_cli(capsys, "levels", "-L", "8", "-k", "3", "-T", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [row["k"] for row in payload["levels"]] == [1, 2, 3]
    assert all(row["level_mass"] == "9/128" for row in payload["levels"])
    assert payload["levels"][-1]["cumulative"] == "27/128"


def test_invariance_reports_both_encodings(capsys):
    code, out, _ = run_cli(capsys, "invariance", "-L", "8", "-k", "1", "-T", "1")
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    encodings = {line.split(",")[4] for line in lines[1:]}
    assert encodings == {"A", "B"}


@pytest.mark.parametrize("command", ["relmeasure", "invariance"])
def test_relative_measures_hash_each_class_once_per_encoding(monkeypatch, capsys, command):
    # A class derives its digest on every access, so a command must take it
    # once per class, however many child rows repeat a parent's digest.
    hashed = []
    real_key_digest = equivalence.key_digest

    def counted_key_digest(*args):
        hashed.append(args)
        return real_key_digest(*args)

    monkeypatch.setattr(equivalence, "key_digest", counted_key_digest)
    code, out, _ = run_cli(capsys, command, "-L", "14", "-k", "1", "-T", "50", "--format", "json")
    assert code == 0
    pairs = json.loads(out)["pairs"]
    parents = {(row["encoding_id"], row["parent_index"]) for row in pairs}
    assert len(pairs) > len(parents)  # some parent has several children
    assert len(hashed) == len(pairs) + len(parents)  # one row per child


def test_record_replay_hybrid_sever_round_trip(tmp_path, capsys):
    rec_path = tmp_path / "echo.json"
    code, out, _ = run_cli(
        capsys, "record", "--program", "0100000011001111", "--tape", "1", "-k", "2",
        "--out", str(rec_path),
    )
    assert code == 0
    stored = json.loads(rec_path.read_text())
    assert stored["program_bits"] == "0100000011001111"
    assert stored["k"] == 2

    code, out, _ = run_cli(capsys, "replay", "--recording", str(rec_path))
    assert code == 0
    assert json.loads(out)["trace"] == stored["trace"]

    code, out, _ = run_cli(capsys, "hybrid", "--recording", str(rec_path), "--tape", "0")
    assert code == 0
    assert json.loads(out)["switch_step"] == 1

    code, out, _ = run_cli(capsys, "hybrid", "--recording", str(rec_path), "--tape", "1")
    assert code == 0
    assert json.loads(out)["switch_step"] is None

    code, out, _ = run_cli(
        capsys, "sever", "--recording", str(rec_path), "--severed", "1,2", "--tape", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["counterfactually_equivalent"] is False
    assert payload["trace"] == stored["trace"]


COMMAND_CHOICES = (
    "'enumerate', 'kraft', 'schedule', 'dovetail', 'partition', 'measure', 'decompose', "
    "'relmeasure', 'levels', 'record', 'replay', 'hybrid', 'sever', 'invariance'"
)
INVALID_COMMAND = (
    "udlab: error: argument enumerate|kraft|schedule|dovetail|partition|measure|decompose|"
    "relmeasure|levels|record|replay|hybrid|sever|invariance: invalid choice: {!r} (choose from "
    + COMMAND_CHOICES
    + ")\n"
)
# Each usage error's stderr, byte for byte.  Without a command, main prints
# the usage, wrapped to an 80-column terminal.
USAGE_ERRORS = [
    (
        [],
        "usage: udlab [-h]\n"
        "             enumerate|kraft|schedule|dovetail|partition|measure|decompose|relmeasure|"
        "levels|record|replay|hybrid|sever|invariance\n"
        "             ...\n",
    ),
    (["no-such-command"], INVALID_COMMAND.format("no-such-command")),
    (["-L", "8", "kraft"], INVALID_COMMAND.format("8")),
    (
        ["kraft", "--max-len", "eight"],
        "udlab kraft: error: argument --max-len/-L: invalid int value: 'eight'\n",
    ),
]


def test_usage_errors_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv, expected in USAGE_ERRORS:
        code, out, err = run_cli(capsys, *argv)
        # Newer argparse releases list the choices with str(), older ones with repr().
        assert (code, out) == (1, "") and err in (
            expected,
            expected.replace(COMMAND_CHOICES, COMMAND_CHOICES.replace("'", "")),
        ), argv


def test_validation_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "kraft", "--max-len", "3")
    assert code == 2 and "max_len" in err
    code, _, err = run_cli(capsys, "record", "--program", "0101", "-k", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "record", "-k", "1")
    assert code == 2 and "--program" in err
    code, _, err = run_cli(capsys, "replay", "--recording", "/nonexistent/file.json")
    assert code == 2


@pytest.mark.parametrize(
    "command",
    ["partition", "measure", "decompose", "relmeasure", "levels", "invariance", "record"],
)
def test_k_below_one_exits_2(capsys, command):
    code, out, err = run_cli(capsys, command, "-L", "8", "-k", "0", "--program", "1111")
    assert code == 2 and out == ""
    assert "k must be >= 1" in err, err


def test_malformed_severed_entries_exit_2(tmp_path, capsys):
    rec_path = tmp_path / "rec.json"
    code, _, _ = run_cli(capsys, "record", "--program", "10001111", "-k", "3", "--out", str(rec_path))
    assert code == 0
    # An Arabic-Indic and a fullwidth one are decimal digits to str.isdecimal.
    malformed = (("x", "'x'"), ("1,,2", "''"), ("1,-2", "'-2'"), ("\u0661", "'\u0661'"),
                 ("1,\uff11", "'\uff11'"))
    for text, entry in malformed:
        code, out, err = run_cli(capsys, "sever", "--recording", str(rec_path), "--severed", text)
        assert code == 2 and out == ""
        assert err == f"error: --severed entry {entry} is not a natural number\n", err
    for text in ("\u0661", "\uff11"):
        argv = ("record", "--program", "0100000011001111", "--tape", text, "-k", "3")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: tape entry '{text}' is not a natural number\n", err
    code, _, err = run_cli(capsys, "sever", "--recording", str(rec_path), "--severed", "0")
    assert code == 2 and "1-based" in err


def test_custom_universe_file(tmp_path, capsys):
    path = tmp_path / "universe.json"
    path.write_text(json.dumps([[], [0, 0], [1, 1]]))
    code, out, _ = run_cli(
        capsys, "partition", "-L", "8", "-k", "1", "--universe", str(path), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["universe_id"].startswith("sha256:")


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"max_len": 8, "format": "json"}))
    code, out, _ = run_cli(capsys, "kraft", "--config", str(config))
    assert code == 0
    assert json.loads(out)["kraft_mass"] == "9/128"
    code, out, _ = run_cli(capsys, "kraft", "--config", str(config), "--max-len", "10")
    assert code == 0
    assert json.loads(out)["kraft_mass"] == "11/128"


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.json"
    for values, message in (
        ({"maxlen": 8}, "unknown config key 'maxlen'"),
        ({"threads": 4}, "unknown config key 'threads'"),
        ([1], "--config file must hold a JSON object"),
    ):
        config.write_text(json.dumps(values))
        code, out, err = run_cli(capsys, "kraft", "--config", str(config))
        assert (code, out, err) == (1, "", f"udlab: error: {message}\n"), values


def test_config_file_accepts_exactly_the_option_keys(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    values = {
        "max_len": 8, "k": 1, "budget": 0, "tick": 1, "ticks": 1, "universe": "default",
        "encoding": "B", "fmt": "csv", "format": "json", "out": "out.txt", "program": "1111",
        "tape": "1", "severed": "1", "recording": "rec.json",
    }
    config = tmp_path / "run.json"
    for key, value in values.items():
        config.write_text(json.dumps({key: value}))
        assert run_cli(capsys, "kraft", "--config", str(config))[0] == 0, key
    for key in ("max-len", "L", "T", "config", "command"):
        config.write_text(json.dumps({key: 1}))
        code, _, err = run_cli(capsys, "kraft", "--config", str(config))
        assert code == 1 and err == f"udlab: error: unknown config key {key!r}\n"


def test_out_writes_exact_bytes(tmp_path, capsys):
    out_path = tmp_path / "kraft.txt"
    code, out, _ = run_cli(capsys, "kraft", "-L", "8", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_bytes() == b"9/128\n"
    # A run that fails leaves an existing --out file as it was.
    code, out, err = run_cli(capsys, "kraft", "-L", "3", "--out", str(out_path))
    assert (code, out) == (2, "") and "max_len" in err, err
    assert out_path.read_bytes() == b"9/128\n"
    absent = tmp_path / "no" / "such" / "dir" / "x"
    for target, message in (
        (absent, f"[Errno 2] No such file or directory: {str(absent)!r}"),
        (tmp_path, f"[Errno 21] Is a directory: {str(tmp_path)!r}"),
    ):
        code, out, err = run_cli(capsys, "kraft", "-L", "8", "--out", str(target))
        assert (code, out, err) == (2, "", f"error: --out: {message}\n"), target
    # Streaming commands validate before their first chunk, and --out is
    # opened only once there is a batch to write.
    for argv in (["record", "--program", "1"], ["dovetail", "--ticks", "-1"]):
        code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert (code, out) == (2, "") and err.startswith("error: "), argv
        assert out_path.read_bytes() == b"9/128\n", argv


@pytest.mark.parametrize("first_chunk", ["x", "x" * chunks.BATCH], ids=["short", "full_batch"])
def test_out_of_memory_while_writing_exits_2(tmp_path, capsys, monkeypatch, first_chunk):
    def failing(run):
        yield first_chunk
        raise MemoryError

    monkeypatch.setitem(_COMMANDS, "kraft", (failing, ("plain",)))
    # A full batch is written as it fills, so what came before the failure
    # stays; a file that no batch reached is left as it was.
    written = first_chunk if len(first_chunk) >= chunks.BATCH else ""
    out_path = tmp_path / "out.txt"
    out_path.write_bytes(b"old")
    for out in ([], ["--out", str(out_path)]):
        code, stdout, err = run_cli(capsys, "kraft", *out)
        assert (code, err) == (2, "error: out of memory; lower -L, -k or -T\n")
        assert stdout == ("" if out else written)
    assert out_path.read_text() == (written or "old")


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    # Every subcommand takes the shared options.
    for command in ("kraft", "sever"):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0 and "--severed" in out and "--max-len" in out


def _parser_with_copied_options(argv):
    """The parser as it was built when every subcommand copied all of
    _OPTIONS from one parent at start-up, whatever argv names: the oracle
    for the lazy one, which builds only the subparser argv names."""
    common = cli._Parser(add_help=False)
    for dest, (flags, kind, choices, text) in _OPTIONS.items():
        common.add_argument(*flags, dest=dest, type=kind, choices=choices, help=text)
    parser = cli._Parser(prog="udlab", description=(cli.__doc__ or "").rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", metavar="|".join(_COMMANDS))
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


PARSER_CASES = [
    ["--help"],
    *([command, "--help"] for command in _COMMANDS),
    [],
    ["no-such-command"],
    ["kraft", "--max-len", "eight"],
    ["sever", "--encoding", "C"],
    ["schedule", "--tick", "5", "--bogus"],
    ["kraft", "-L", "8", "--format", "json"],
    ["-L", "8", "kraft"],
]


def test_options_declared_on_parse_match_options_copied_at_start_up(capsys, monkeypatch):
    # Help text, usage errors and a parsed run, byte for byte.
    lazy = [run_cli(capsys, *argv) for argv in PARSER_CASES]
    monkeypatch.setattr(cli, "_build_parser", _parser_with_copied_options)
    copied = [run_cli(capsys, *argv) for argv in PARSER_CASES]
    assert lazy == copied
    assert [code for code, _, _ in lazy] == [0] * 15 + [1] * 5 + [0, 1]


def test_universe_entries_must_be_lists(tmp_path, capsys):
    path = tmp_path / "universe.json"
    for text, message in (
        ("[1, 2]", "must hold a JSON list of tapes, each a list"),
        ("not json", "Expecting value: line 1 column 1 (char 0)"),
        ("[[-1]]", "tape (-1,) must contain only naturals"),
        ("[]", "input universe must contain at least one tape"),
        ("[[1, -1]]", "tape (1, -1) must contain only naturals"),
        ("[[true]]", "tape (True,) must contain only naturals"),
    ):
        path.write_text(text)
        code, out, err = run_cli(capsys, "partition", "-L", "8", "-k", "1", "--universe", str(path))
        assert (code, out, err) == (2, "", f"error: universe {path}: {message}\n"), text
    path.write_bytes(b"\xff[]")
    absent = tmp_path / "absent.json"
    for source, message in (
        (path, "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (absent, f"[Errno 2] No such file or directory: {str(absent)!r}"),
        (tmp_path, f"[Errno 21] Is a directory: {str(tmp_path)!r}"),
    ):
        code, out, err = run_cli(capsys, "partition", "-L", "8", "--universe", str(source))
        assert (code, out, err) == (2, "", f"error: universe {source}: {message}\n"), source


def test_config_file_missing_or_invalid_exits_2(tmp_path, capsys):
    absent = tmp_path / "absent.json"
    code, out, err = run_cli(capsys, "kraft", "--config", str(absent))
    assert (code, out) == (2, "")
    assert err == f"error: --config: [Errno 2] No such file or directory: {str(absent)!r}\n"
    code, out, err = run_cli(capsys, "kraft", "--config", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: --config: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    config = tmp_path / "broken.json"
    config.write_text("{max_len: 8")
    code, out, err = run_cli(capsys, "kraft", "--config", str(config))
    assert (code, out) == (2, "")
    assert err == (
        "error: --config: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)\n"
    )
    mistyped = [
        # would read the universe from stdin
        ("kraft", {"universe": 0}, "'universe' must be a string, got 0"),
        # would write to fd 2, then close it
        ("kraft", {"out": 2}, "'out' must be a string, got 2"),
        ("kraft", {"k": [1]}, "'k' must be an integer, got [1]"),
        ("record", {"program": "1111", "tape": 5}, "'tape' must be a string, got 5"),
        # would run at k=1
        ("kraft", {"k": 1.7}, "'k' must be an integer, got 1.7"),
        ("kraft", {"max_len": True}, "'max_len' must be an integer, got True"),
        ("kraft", {"encoding": None}, "'encoding' must be a string, got None"),
        # ran and wrote CSV tagged "format":"xml"
        ("measure", {"format": "xml"}, "'format' must be one of csv, json, got 'xml'"),
        ("measure", {"fmt": "xml"}, "'fmt' must be one of csv, json, got 'xml'"),
        # a default, but no --format value
        ("kraft", {"format": "plain"}, "'format' must be one of csv, json, got 'plain'"),
        ("kraft", {"encoding": "C"}, "'encoding' must be one of A, B, got 'C'"),
    ]
    for command, values, message in mistyped:
        config.write_text(json.dumps(values))
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert (code, out, err) == (2, "", f"error: --config: {message}\n"), values


# sha256 of the default CSV output of each mass command.  A changed byte here
# needs a versioned output format change, not a new digest.  At T=50000 and
# T=100000 the stream runs codes past L=10 and L=12.  At T=4950 hosts of
# 14 bits run 4950 or 4949 ticks, whose prefixes of the enumeration agree
# at levels 2 and 1.  u012.json is the universe of the deep digests below.
GOLDEN_MASS_DIGESTS = {
    "measure -L 12 -k 2 -T 200": "0e782069ab51e7264545d8567e2447c3178d624343cb0e1edeb8a9a9e62c20cd",
    "decompose -L 12 -k 2 -T 200": "ac1475a00ce3f132222852658cf316ef7d126c1ebfaad43da5fd64f7ff12958e",
    "levels -L 12 -k 4 -T 200": "09b0dc0dc67858e8f3a93cfbabca9993b054053465dd06e33b1684781de3cd0b",
    "relmeasure -L 12 -k 1 -T 200": "f38f9d15f025f8eeb5efb8708b6ff66c90798a15d81761fd7f507b16e5f61de9",
    "invariance -L 12 -k 1 -T 200": "2305c42f165b75e8ce491dfd39b8471c2bff6af300d90187d5436ee0496cece0",
    "measure -L 10 -k 2 -T 50000 --universe u012.json": (
        "56d1bae274387a352d6af5815043a33c0c4bd2e16dc39eabdd062e7a03321675"
    ),
    "levels -L 10 -k 40 -T 100000 --encoding B": (
        "52c0c287418c555ab2e7134de632f273c12b21245b71f12d42259daf437e9e31"
    ),
    "levels -L 12 -k 12 -T 100000 --universe u012.json": (
        "9d70577dd15cc7a9e6fecd0e50d873ad39a4726ede83ee41cb0c67170629e788"
    ),
    "levels -L 14 -k 4 -T 4950": "8297f9cf4bafcf995988464894c095b646da16d188d653cd5757344f64faad21",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_MASS_DIGESTS))
def test_mass_commands_match_golden_digests(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u012.json").write_text(json.dumps([[], [0], [1], [2], [2, 0], [1, 2], [0, 2, 1]]))
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_MASS_DIGESTS[argv]


# sha256 of the default output of mass and partition commands at deep levels,
# where a level-indexing fault would show.  u012.json holds the tapes
# [], [0], [1], [2], [2,0], [1,2] and [0,2,1]; the output records the
# universe's id, not the file name.
GOLDEN_DEEP_DIGESTS = {
    "levels -L 14 -k 40 -T 1000": "32e68d5390ec6e402d47e9cd82e4fb62ecc49f7a2cc09012074dc4ae4a80fefd",
    "relmeasure -L 14 -k 7 -T 1000": "45eef12437680939e064746d8be70833b2d194af0a0eb6085738760e242db64d",
    "invariance -L 12 -k 3 -T 50": "0938f405c9afbdf4f70f4459a2b03c4de090af10a54c832bd4557d5e1d248b69",
    "partition -L 16 -k 40 --universe u012.json": "049098137f33d33a8856340b9fc097e639dd17b2bbecf8638471654bc888dcec",
    "measure -L 12 -k 300 -T 5000": "02caa9968df9abd71bff56d7b110723eae7cfb5d72a56d0f5e7e4708ec2eadfa",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_DEEP_DIGESTS))
def test_deep_level_commands_match_golden_digests(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u012.json").write_text(json.dumps([[], [0], [1], [2], [2, 0], [1, 2], [0, 2, 1]]))
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DEEP_DIGESTS[argv]


# sha256 of the JSON form of each table command, of the dovetail table, of
# the enumerate and partition tables under both encodings, and of two Kraft
# masses.
GOLDEN_TABLE_DIGESTS = {
    "kraft -L 60 --format csv": "000dc6d4af8d12d15f3e72f4f63e1ac56260229645e5c869472e1a435026a28c",
    "kraft -L 300 --format json": "e11bdb5043edcddb005f2a5edbae06d7119ac7abe08574ca45e4c38d6e661418",
    "measure -L 12 -k 2 -T 200 --format json": "b95e7d6d15b6073018d0273d22b6a68d367209ca3b27eb4678ccdabe8730b0b0",
    "decompose -L 12 -k 2 -T 200 --format json": "d197aefa9cb25f1caef824b195e8b924bb17553ce698db73cacb6872b4cf811e",
    "levels -L 12 -k 4 -T 200 --format json": "975f17c491f206435c9e59e0369ff1190f62161972f608d95dc0564840ee05d8",
    "relmeasure -L 12 -k 1 -T 200 --format json": "0d5881875525811dbcfdc42d8fa8c7025252424fc74d970b05b9e73aef7d0aa4",
    "invariance -L 12 -k 1 -T 200 --format json": "e45b2a289556206c0efe91460bf1104ff129e39888f8c7502ac5495ec1278706",
    "dovetail --ticks 30": "123c62454f7158553909c302a64271ca2e61e8ae299f2be600712e9de0068ce5",
    "dovetail --ticks 30 --format json": "eed915ba1e8c22c7dab8fcf09a34357dfd286c017d994a30b30a43ec615e72ae",
    "dovetail --ticks 2000 --format csv": "8313c613d74146b08909087ec80f31cf638433d6bb7cea47e29659bb0e70ebe5",
    "dovetail --ticks 0": "7b51716632cb5b7a7b377458643830dbdc956814005c2a3fc88910d401ad942b",
    "dovetail --ticks 0 --format json": "9f49c92f3c615f39b8e19ca54e5db9094bbb4bce8f4d62a3518e08c8cd936e2d",
    "enumerate -L 14": "5c69528d2770b4688bd7876c31f036eaaf28be033f850ffcf4212ad1c5149c9b",
    "enumerate -L 14 --encoding B --format csv": "70a1d594d7f4ebb0c9034a3a6b621e54f04eac51d5e922c979c542e11cfcdd48",
    "partition -L 12 -k 3": "58e9771940d1548b9add560b7f3d0e1a57f8dadebd4625fb3da33cd2b69da8df",
    "partition -L 12 -k 3 --encoding B --format csv": "04f29f9126bd415b59bfa1dfdc3157e78eb4a131b3e79367512d1f71df4bbfc0",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_TABLE_DIGESTS))
def test_table_commands_match_golden_digests(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TABLE_DIGESTS[argv]


# One record/replay/hybrid/sever session per program: the DVT host and the
# IN/OUT witness.  The recording path is part of each output's config, so the
# session runs in a fresh directory under the fixed name rec.json.
REPLAY_SESSION = (
    ("record", "record --program {} --tape 1 -k 200 --out rec.json"),
    ("replay", "replay --recording rec.json"),
    ("hybrid", "hybrid --recording rec.json --tape 0"),
    ("sever", "sever --recording rec.json --severed 3,150 --tape 0"),
)
GOLDEN_REPLAY_DIGESTS = {
    "10001111": {
        "record": "09d57fabad9d0be0445c15c18fee1c6c2c47ddd8974f04cd59cc7c5f4c4ad762",
        "replay": "f2abfb7f11c96e72c3dc095a42a2778701ffca6bc6fe35eedadfc0583b33deda",
        "hybrid": "401c97cf5054ca7953ef3091b8247ed8b9a5858a0ed6b10729803da5577f9d10",
        "sever": "123be83eee3ab101768fcc74d44f8e72603c9a9de60476b7003dc4e12be4ee49",
    },
    "0100000011001111": {
        "record": "34a8a1a27eb6f9143b1a5e24375669de108b0eafb8d11cc591d06fc041d705ed",
        "replay": "dc9854db32d315a573c06cf90cbad02dddce616e575606742d79970808bcbce8",
        "hybrid": "a1141d8d6afcbcaeca6fdbb2c0e68671d1cb04e589632c506ac6fa7f27fbb99f",
        "sever": "7c76315e29b9b90e6e07dffd81fde2bcc9660482811d46946fed7d01bb2d6df7",
    },
}


@pytest.mark.parametrize("program", sorted(GOLDEN_REPLAY_DIGESTS))
def test_replay_commands_match_golden_digests(tmp_path, capsys, monkeypatch, program):
    monkeypatch.chdir(tmp_path)
    for name, argv in REPLAY_SESSION:
        code, out, _ = run_cli(capsys, *argv.format(program).split())
        assert code == 0
        if name == "record":
            out = (tmp_path / "rec.json").read_text()
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REPLAY_DIGESTS[program][name], name


@pytest.mark.parametrize("command", ["replay", "hybrid", "sever"])
def test_malformed_recording_exits_2(tmp_path, capsys, command):
    # An IN-then-OUT program filmed for one step on tape 1: each field below
    # is malformed in a way that int() or get_table() alone would not refuse.
    path = tmp_path / "rec.json"
    code, _, _ = run_cli(
        capsys, "record", "--program", "0100000011001111", "--tape", "1", "-k", "1",
        "--out", str(path),
    )
    assert code == 0
    valid = json.loads(path.read_text())
    malformed = [
        {"tape": [1.5]},
        {"tape": [True]},
        {"tape": [-1]},
        {"k": True},
        {"config": dict(valid["config"], encoding=[1])},
        {"config": dict(valid["config"], encoding="C")},
        {"config": [1]},
        {"program_bits": "0100"},
        # A k that the stored trace does not match is refused before the
        # program is re-run for k steps.
        {"k": 200000},
        {"program_bits": "10001111", "tape": [], "k": 200000, "trace": []},
        {"k": 0, "trace": []},
    ]
    before = step_count()
    for data in [{"k": 2}, [1, 2]] + [dict(valid, **change) for change in malformed]:
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, command, "--recording", str(path), "--tape", "0")
        assert code == 2, data
        assert err.startswith("error:") and "recording" in err, err
        assert f"{path}: recording" not in err, err
    assert step_count() - before == 0
    path.write_text("not json")
    absent = tmp_path / "absent.json"
    for source, message in (
        (path, "Expecting value: line 1 column 1 (char 0)"),
        (absent, f"[Errno 2] No such file or directory: {str(absent)!r}"),
        (tmp_path, f"[Errno 21] Is a directory: {str(tmp_path)!r}"),
    ):
        code, out, err = run_cli(capsys, command, "--recording", str(source), "--tape", "0")
        assert (code, out, err) == (2, "", f"error: recording {source}: {message}\n"), source
    # Tampering is found by re-running the program, so these cases step.
    for field, value in ((0, [42, 0, 0, 0]), (1, 5)):
        tampered = json.loads(json.dumps(valid))
        tampered["trace"][0][field] = value
        path.write_text(json.dumps(tampered))
        code, _, err = run_cli(capsys, command, "--recording", str(path), "--tape", "0")
        assert code == 2, tampered
        assert err.startswith(f"error: recording {path}: "), err


def test_recording_commands_report_the_recording_encoding(tmp_path, capsys):
    # 00001111 is DVT; END under encoding B and HALT; END under A.  The
    # commands decoded it under B but wrote "encoding": "A" in their config,
    # and echoed an explicit --encoding A that they ignored.
    path = tmp_path / "recB.json"
    code, _, _ = run_cli(
        capsys, "record", "--program", "00001111", "-k", "3", "--encoding", "B", "--out", str(path)
    )
    assert code == 0
    assert json.loads(path.read_text())["trace"][0][4][0] == "1111"  # a dovetailer
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"encoding": "A"}))
    for command in ("replay", "hybrid", "sever"):
        argv = (command, "--recording", str(path))
        for extra in ((), ("--encoding", "B")):
            code, out, _ = run_cli(capsys, *argv, *extra)
            assert code == 0 and json.loads(out)["config"]["encoding"] == "B", (command, extra)
        for extra in (("--encoding", "A"), ("--config", str(config))):
            code, out, err = run_cli(capsys, *argv, *extra)
            assert code == 2 and out == "", (command, extra)
            assert err == f"error: recording {path} is under encoding B, not --encoding A\n"


@pytest.mark.parametrize("command", ["record", "replay", "hybrid", "sever"])
def test_json_only_commands_refuse_csv(tmp_path, capsys, command):
    # These commands wrote JSON tagged "format": "csv" when asked for CSV.
    path = tmp_path / "rec.json"
    code, _, _ = run_cli(capsys, "record", "--program", "10001111", "-k", "3", "--out", str(path))
    assert code == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "csv"}))
    argv = (command, "--program", "10001111", "-k", "3", "--recording", str(path))
    before = step_count()
    for extra in (("--format", "csv"), ("--config", str(config))):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 2 and out == "", extra
        assert err == f"error: {command} writes JSON only, not --format csv\n", err
    assert step_count() == before
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["config"]["format"] == "json"


def test_kraft_beyond_the_enumeration_limit(capsys):
    code, out, _ = run_cli(capsys, "kraft", "-L", "60")
    assert code == 0
    assert out == "117681029730492541/1152921504606846976\n"
    code, out, _ = run_cli(capsys, "kraft", "-L", str(MAX_KRAFT_LEN))
    assert code == 0
    assert Fraction("117681029730492541/1152921504606846976") < Fraction(out.strip()) < 1


def test_kraft_refuses_a_bound_above_its_limit(capsys):
    # Counting is a big-integer DP whose work grows about 8x per doubling of
    # the bound, so -L 100000 would count for about a day; it exits 2 at once.
    for bound in (MAX_KRAFT_LEN + 1, 100_000):
        code, out, err = run_cli(capsys, "kraft", "-L", str(bound))
        assert code == 2 and out == ""
        assert err == f"error: max_len {bound} is above {MAX_KRAFT_LEN}, the longest bound counted\n"


@pytest.mark.parametrize("command", ["measure", "levels", "decompose"])
def test_mass_commands_refuse_a_budget_above_the_dovetail_limit(capsys, command):
    # A DVT host's T steps read T ticks of the dovetail stream, whose
    # programs past 454,169 enumeration does not hold.  Such a budget was
    # refused only once a host had stepped, naming a length bound of 32.
    budget = dovetailer.MAX_TICKS + 1
    before = step_count()
    for bound in (budget, 10**12):
        code, out, err = run_cli(capsys, command, "-L", "8", "-k", "1", "-T", str(bound))
        assert code == 2 and out == ""
        assert err.startswith(f"error: budget (-T) {bound} is above {dovetailer.MAX_TICKS},"), err
        assert "max_len 32" not in err
    assert step_count() == before


def _child(argv, cap=None, **options):
    """Run `python -m udlab.cli ARGV` in a fresh process over this checkout,
    under an address-space cap of `cap` bytes if one is given.  `options`
    go to subprocess.run; output is captured as bytes by default.  The
    child's stdout is block-buffered whatever PYTHONUNBUFFERED says here, so
    output that the process never flushes is lost, as it would be in a
    shell."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-m", "udlab.cli", *argv], env=env, capture_output=True,
        preexec_fn=None if cap is None else limit_memory, **{"timeout": 60, **options},
    )


def test_oversized_enumeration_exits_2_under_memory_cap():
    done = _child(["enumerate", "-L", "40"], cap=2 * 1024**3, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: max_len 40 covers")


def test_a_reader_that_closes_stdout_early_ends_the_run_quietly():
    # dovetail --ticks 100000 writes 4.3 MB, far past a pipe's buffer, so
    # the writes after the reader has gone fail with a broken pipe.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, "-m", "udlab.cli", "dovetail", "--ticks", "100000"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.readline().startswith(b"# config: ")
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 0, err
    assert err == b""


def test_recording_an_output_loop_fits_under_a_200_mb_cap():
    # INC r0; WHILE r0 OUT r0 WEND filmed for 8000 steps: its document is
    # 177 MB.  Written whole, as its parts and then as one text, the run
    # peaked at 483 MiB and exited 2 under this cap; written state by state
    # it peaks at 78 MiB, the recording itself.
    done = _child(
        ["record", "--program", "00010001010000110001101111", "-k", "8000"],
        cap=200 * 1024**2, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == (
        "193ad0d52329090e444c84cfeb01b019cbd877df0a20b4010a77fbba806c9e9e"
    )


PEAK_RSS = """
import os, sys
sys.stdout = open(os.devnull, "w")
from udlab.cli import main
os._exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv, bound_mib",
    [
        # The 44 MB recording of the output loop peaked at 131 MiB when it was
        # written whole; state by state it peaks at 29 MiB.
        (["record", "--program", "00010001010000110001101111", "-k", "4000"], 50),
        # 100,000 dovetail rows, a 20 MB document, peaked at 209 MiB as a row
        # list and one json.dumps; ticked as they are written, at 14 MiB.
        (["dovetail", "--ticks", "100000", "--format", "json"], 30),
    ],
    ids=["record", "dovetail"],
)
def test_a_command_peaks_at_its_working_set_not_its_output(argv, bound_mib):
    code, maxrss_kib = forked_peak_rss(PEAK_RSS, *argv)
    assert code == 0
    assert maxrss_kib < bound_mib * 1024


def test_out_of_memory_exits_2_with_a_message():
    # A recording of a program that outputs in a loop writes its whole output
    # log into every state, so filming it for 16,000 steps needs far more
    # than 100 MiB (263 MiB uncapped).
    done = _child(
        ["record", "--program", "00010001010000110001101111", "-k", "16000"],
        cap=100 * 1024**2, text=True,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: out of memory; lower -L, -k or -T\n"
    assert "Traceback" not in done.stderr


# Each case runs in a fresh `python -m udlab.cli` child, whose main freezes
# the collector before the interpreter shuts down, and through main(argv) in
# this process; "{out}" stands for each side's own --out file.  The kraft
# document stays in the child's stdout buffer until shut-down flushes it, so
# an exit that skips the flush (os._exit) loses it.
ENTRY_CASES = {
    "record_349_kb_through_a_pipe": (["record", "--program", "10001111", "-k", "1000"], 0),
    "kraft_6_bytes_left_in_the_buffer": (["kraft", "-L", "8"], 0),
    "partition_out_file": (["partition", "-L", "12", "-k", "2", "--out", "{out}"], 0),
    "usage_error": (["kraft", "--max-len", "eight"], 1),
    "validation_error": (["kraft", "--max-len", "3"], 2),
}


@pytest.mark.parametrize("argv, expected", ENTRY_CASES.values(), ids=ENTRY_CASES)
def test_process_entry_writes_what_main_writes(tmp_path, capsys, argv, expected):
    child_out, own_out = tmp_path / "child.out", tmp_path / "own.out"
    done = _child([arg.format(out=child_out) for arg in argv])
    code, out, err = run_cli(capsys, *(arg.format(out=own_out) for arg in argv))
    assert code == expected
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())
    if "--out" in argv:
        assert child_out.read_bytes() == own_out.read_bytes() != b""
    elif code == 0:
        assert done.stdout


def test_main_with_argv_leaves_the_collector_as_it_found_it(tmp_path, capsys):
    frozen = gc.get_freeze_count()
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for argv, expected in ENTRY_CASES.values():
                argv = [arg.format(out=tmp_path / "out") for arg in argv]
                assert run_cli(capsys, *argv)[0] == expected
                assert gc.isenabled() is enabled
                assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_main_without_argv_freezes_the_collector(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["udlab", "kraft", "-L", "8"])
    frozen = gc.get_freeze_count()
    try:
        assert main() == 0
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out == "9/128\n"


def test_readme_command_examples_run(tmp_path, capsys, monkeypatch):
    # Every `udlab` line of the README's command-line block, in order: record
    # writes the rec.json that replay, hybrid and sever then read.  A comment
    # "# -> X" states the command's whole output.
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("udlab ")]
    assert [shlex.split(line)[1] for line in lines] == list(_COMMANDS)
    monkeypatch.chdir(tmp_path)
    stated = []
    for line in lines:
        command, _, comment = line.partition("#")
        code, out, err = run_cli(capsys, *shlex.split(command)[1:])
        assert code == 0, (line, err)
        if comment.strip().startswith("->"):
            assert out == comment.strip()[2:].strip() + "\n", line
            stated.append(out)
    assert stated == ["9/128\n", "(2,2)\n"]
