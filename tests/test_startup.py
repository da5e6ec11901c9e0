"""What each udlab command imports, checked in fresh processes.

Every command is one process, so the modules it imports are part of its
cost.  A child runs one command through udlab.cli.main and prints its
sys.modules; a module counts as loaded by the command when a bare
interpreter does not already hold it.  Commands also run over a universe
file, whose id is a sha256 taken without hashlib, as small class keys'
digests are.  Nothing here is timed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = {
    "enumerate": ["enumerate", "-L", "8"],
    "kraft": ["kraft", "-L", "8"],
    "schedule": ["schedule", "--tick", "5"],
    "dovetail": ["dovetail", "--ticks", "20"],
    "partition": ["partition", "-L", "8", "-k", "2"],
    "measure": ["measure", "-L", "8", "-k", "2", "-T", "50"],
    "decompose": ["decompose", "-L", "8", "-k", "2", "-T", "50"],
    "relmeasure": ["relmeasure", "-L", "8", "-k", "1", "-T", "50"],
    "levels": ["levels", "-L", "8", "-k", "3", "-T", "50"],
    "record": ["record", "--program", "10001111", "-k", "5", "--tape", "1", "--out", "rec.json"],
    "replay": ["replay", "--recording", "rec.json"],
    "hybrid": ["hybrid", "--recording", "rec.json", "--tape", "0"],
    "sever": ["sever", "--recording", "rec.json", "--severed", "1,2", "--tape", "0"],
    "invariance": ["invariance", "-L", "8", "-k", "1", "-T", "50"],
}

CHILD = """
import contextlib, io, json, sys
if sys.argv[1:]:
    from udlab.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
else:
    import udlab
    code = 0
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""
BARE = "import json, sys; print(json.dumps({'code': 0, 'modules': sorted(sys.modules)}))"


def _modules(cwd: Path, *argv: str, code: str = CHILD) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["code"] == 0, (argv, done.stderr)
    return set(result["modules"])


@pytest.fixture(scope="module")
def loaded(tmp_path_factory) -> dict[str, set[str]]:
    """Modules each command loads beyond a bare interpreter's, keyed by
    command; "udlab" is a plain `import udlab`.  Commands run in the order
    of COMMANDS, so record writes the recording the next three read."""
    cwd = tmp_path_factory.mktemp("startup")
    bare = _modules(cwd, code=BARE)
    found = {"udlab": _modules(cwd) - bare}
    for name, argv in COMMANDS.items():
        found[name] = _modules(cwd, *argv) - bare
    return found


# Over a universe file: the commands that take no class digest, and the two
# that take small ones.  record runs before sever, which reads its recording.
UNIVERSE_COMMANDS = ("partition", "measure", "decompose", "levels", "record", "sever")


@pytest.fixture(scope="module")
def loaded_with_universe(tmp_path_factory) -> dict[str, set[str]]:
    """As `loaded`, for UNIVERSE_COMMANDS with --universe u012.json."""
    cwd = tmp_path_factory.mktemp("startup_universe")
    (cwd / "u012.json").write_text(json.dumps([[], [0], [1], [2], [2, 0], [1, 2], [0, 2, 1]]))
    bare = _modules(cwd, code=BARE)
    return {
        name: _modules(cwd, *COMMANDS[name], "--universe", "u012.json") - bare
        for name in UNIVERSE_COMMANDS
    }


def test_every_subcommand_is_covered():
    from udlab.cli import _COMMANDS

    assert tuple(COMMANDS) == tuple(_COMMANDS)


def test_package_root_loads_no_submodule(loaded):
    assert [m for m in loaded["udlab"] if m.startswith("udlab.")] == []


@pytest.mark.parametrize("command", ["decompose", "levels"])
def test_masses_load_no_digest_replay_or_dataclasses(loaded, loaded_with_universe, command):
    for found in (loaded[command], loaded_with_universe[command]):
        assert {"hashlib", "_hashlib", "udlab.replay", "dataclasses"}.isdisjoint(found)
        assert "udlab.measure" in found


@pytest.mark.parametrize("command", ["record", "sever"])
def test_recording_commands_name_a_universe_file_without_hashlib(loaded_with_universe, command):
    assert {"hashlib", "_hashlib"}.isdisjoint(loaded_with_universe[command])


@pytest.mark.parametrize("command", ["partition", "measure"])
def test_small_class_digests_load_no_hashlib(loaded, loaded_with_universe, command):
    # L=8 and k=2 give a few small keys, which the built-in sha256 hashes.
    for found in (loaded[command], loaded_with_universe[command]):
        assert {"hashlib", "_hashlib"}.isdisjoint(found)


def test_large_class_keys_load_openssl(tmp_path):
    # At L=12 and k=2000 the first key is about 392 KB, past the built-in
    # route's cap, so its digest maps OpenSSL.
    found = _modules(tmp_path, "partition", "-L", "12", "-k", "2000")
    assert "_hashlib" in found - _modules(tmp_path, code=BARE)


@pytest.mark.parametrize("command", ["kraft", "partition", "record", "hybrid", "sever"])
def test_partition_and_recording_commands_load_no_measure(loaded, command):
    # kraft writes one fraction, formatted in udlab.cli.
    assert "udlab.measure" not in loaded[command]
    assert ("fractions" in loaded[command]) == (command == "kraft")
    assert ("udlab.replay" in loaded[command]) == (command not in ("kraft", "partition"))


@pytest.mark.parametrize(
    "command", ["enumerate", "partition", "record", "replay", "hybrid", "sever", "dovetail"]
)
def test_only_runs_that_write_csv_load_csv(loaded, command):
    # dovetail writes CSV by default; the others write JSON.
    assert ("csv" in loaded[command]) == (command == "dovetail")
