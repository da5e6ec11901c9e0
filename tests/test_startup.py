"""What each udlab command imports, checked in fresh processes.

Every command is one process, so the modules it imports are part of its
cost.  A child runs one command through udlab.cli.main and prints its
sys.modules; a module counts as loaded by the command when a bare
interpreter does not already hold it.  Nothing here is timed.
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


def test_every_subcommand_is_covered():
    from udlab.cli import _COMMANDS

    assert tuple(COMMANDS) == _COMMANDS


def test_package_root_loads_no_submodule(loaded):
    assert [m for m in loaded["udlab"] if m.startswith("udlab.")] == []


@pytest.mark.parametrize("command", ["decompose", "levels"])
def test_masses_on_the_default_universe_load_no_digest_replay_or_dataclasses(loaded, command):
    assert {"hashlib", "udlab.replay", "dataclasses"}.isdisjoint(loaded[command])
    assert "udlab.measure" in loaded[command]


@pytest.mark.parametrize("command", ["partition", "record", "hybrid", "sever"])
def test_partition_and_recording_commands_load_no_measure(loaded, command):
    assert {"udlab.measure", "fractions"}.isdisjoint(loaded[command])
    assert ("udlab.replay" in loaded[command]) == (command != "partition")
