import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from udlab.cli import main
from udlab.machine import step_count

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "no-such-command")[0] == 1
    assert run_cli(capsys, "kraft", "--max-len", "eight")[0] == 1
    assert run_cli(capsys)[0] == 1


def test_validation_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "kraft", "--max-len", "3")
    assert code == 2 and "max_len" in err
    code, _, err = run_cli(capsys, "record", "--program", "0101", "-k", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "partition", "-k", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "record", "-k", "1")
    assert code == 2 and "--program" in err
    code, _, err = run_cli(capsys, "replay", "--recording", "/nonexistent/file.json")
    assert code == 2


def test_malformed_severed_entries_exit_2(tmp_path, capsys):
    rec_path = tmp_path / "rec.json"
    code, _, _ = run_cli(capsys, "record", "--program", "10001111", "-k", "3", "--out", str(rec_path))
    assert code == 0
    for text, entry in (("x", "'x'"), ("1,,2", "''"), ("1,-2", "'-2'")):
        code, out, err = run_cli(capsys, "sever", "--recording", str(rec_path), "--severed", text)
        assert code == 2 and out == ""
        assert err == f"error: --severed entry {entry} is not a natural number\n", err
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
    for values in ({"maxlen": 8}, {"threads": 4}):
        config.write_text(json.dumps(values))
        assert run_cli(capsys, "kraft", "--config", str(config))[0] == 1


def test_out_writes_exact_bytes(tmp_path, capsys):
    out_path = tmp_path / "kraft.txt"
    code, out, _ = run_cli(capsys, "kraft", "-L", "8", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_bytes() == b"9/128\n"


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    # Every subcommand takes the shared options.
    for command in ("kraft", "sever"):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0 and "--severed" in out and "--max-len" in out


def test_universe_entries_must_be_lists(tmp_path, capsys):
    path = tmp_path / "universe.json"
    path.write_text(json.dumps([1, 2]))
    code, _, err = run_cli(capsys, "partition", "-L", "8", "-k", "1", "--universe", str(path))
    assert code == 2
    assert err.startswith(f"error: universe {path}: must hold a JSON list"), err
    for text, message in (("not json", "Expecting value"), ("[[-1]]", "tape (-1,) must contain")):
        path.write_text(text)
        code, _, err = run_cli(capsys, "partition", "-L", "8", "-k", "1", "--universe", str(path))
        assert code == 2
        assert err.startswith(f"error: universe {path}: {message}"), err


def test_config_file_missing_or_invalid_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "kraft", "--config", str(tmp_path / "absent.json"))
    assert code == 2 and err.startswith("error: --config")
    config = tmp_path / "broken.json"
    config.write_text("{max_len: 8")
    code, _, err = run_cli(capsys, "kraft", "--config", str(config))
    assert code == 2 and err.startswith("error: --config")
    mistyped = [
        ("kraft", {"universe": 0}),  # would read the universe from stdin
        ("kraft", {"out": 2}),  # would write to fd 2, then close it
        ("kraft", {"k": [1]}),
        ("record", {"program": "1111", "tape": 5}),
        ("kraft", {"k": 1.7}),  # would run at k=1
        ("kraft", {"max_len": True}),
        ("kraft", {"encoding": None}),
        ("measure", {"format": "xml"}),  # ran and wrote CSV tagged "format":"xml"
        ("measure", {"fmt": "xml"}),
        ("kraft", {"format": "plain"}),  # a default, but no --format value
        ("kraft", {"encoding": "C"}),
    ]
    for command, values in mistyped:
        config.write_text(json.dumps(values))
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert code == 2 and out == "" and err.startswith("error: --config: "), values


# sha256 of the default CSV output of each mass command.  A changed byte here
# needs a versioned output format change, not a new digest.
GOLDEN_MASS_DIGESTS = {
    "measure -L 12 -k 2 -T 200": "0e782069ab51e7264545d8567e2447c3178d624343cb0e1edeb8a9a9e62c20cd",
    "decompose -L 12 -k 2 -T 200": "ac1475a00ce3f132222852658cf316ef7d126c1ebfaad43da5fd64f7ff12958e",
    "levels -L 12 -k 4 -T 200": "09b0dc0dc67858e8f3a93cfbabca9993b054053465dd06e33b1684781de3cd0b",
    "relmeasure -L 12 -k 1 -T 200": "f38f9d15f025f8eeb5efb8708b6ff66c90798a15d81761fd7f507b16e5f61de9",
    "invariance -L 12 -k 1 -T 200": "2305c42f165b75e8ce491dfd39b8471c2bff6af300d90187d5436ee0496cece0",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_MASS_DIGESTS))
def test_mass_commands_match_golden_digests(capsys, argv):
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


# sha256 of the JSON form of each table command, and of the dovetail table.
GOLDEN_TABLE_DIGESTS = {
    "measure -L 12 -k 2 -T 200 --format json": "b95e7d6d15b6073018d0273d22b6a68d367209ca3b27eb4678ccdabe8730b0b0",
    "decompose -L 12 -k 2 -T 200 --format json": "d197aefa9cb25f1caef824b195e8b924bb17553ce698db73cacb6872b4cf811e",
    "levels -L 12 -k 4 -T 200 --format json": "975f17c491f206435c9e59e0369ff1190f62161972f608d95dc0564840ee05d8",
    "relmeasure -L 12 -k 1 -T 200 --format json": "0d5881875525811dbcfdc42d8fa8c7025252424fc74d970b05b9e73aef7d0aa4",
    "invariance -L 12 -k 1 -T 200 --format json": "e45b2a289556206c0efe91460bf1104ff129e39888f8c7502ac5495ec1278706",
    "dovetail --ticks 30": "123c62454f7158553909c302a64271ca2e61e8ae299f2be600712e9de0068ce5",
    "dovetail --ticks 30 --format json": "eed915ba1e8c22c7dab8fcf09a34357dfd286c017d994a30b30a43ec615e72ae",
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
    code, _, err = run_cli(capsys, command, "--recording", str(path), "--tape", "0")
    assert code == 2
    assert err.startswith(f"error: recording {path}: Expecting value"), err
    # Tampering is found by re-running the program, so these cases step.
    for field, value in ((0, [42, 0, 0, 0]), (1, 5)):
        tampered = json.loads(json.dumps(valid))
        tampered["trace"][0][field] = value
        path.write_text(json.dumps(tampered))
        code, _, err = run_cli(capsys, command, "--recording", str(path), "--tape", "0")
        assert code == 2, tampered
        assert err.startswith(f"error: recording {path}: "), err


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
        assert err.startswith(f"error: {command} writes JSON only"), err
    assert step_count() == before
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["config"]["format"] == "json"


def test_kraft_beyond_the_enumeration_limit(capsys):
    code, out, _ = run_cli(capsys, "kraft", "-L", "60")
    assert code == 0
    assert out == "117681029730492541/1152921504606846976\n"


def test_oversized_enumeration_exits_2_under_memory_cap():
    cap = 2 * 1024**3

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "udlab.cli", "enumerate", "-L", "40"],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: max_len 40 covers")


def test_out_of_memory_exits_2_with_a_message():
    # A program that outputs in a loop copies its whole output log into every
    # state, so filming it for 8000 steps needs far more than 100 MB.
    cap = 100 * 1024**2

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "udlab.cli", "record", "--program", "00010001010000110001101111",
         "-k", "8000"],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: out of memory; lower -L, -k or -T\n"
    assert "Traceback" not in done.stderr
