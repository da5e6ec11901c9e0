"""Peak RSS of a code body, for the tests that bound a run's memory.

A child's peak RSS includes its parent's RSS at fork time, so the body runs
in a child forked from a fresh interpreter rather than from the test process.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_FORK = """
import os, sys
pid = os.fork()
if pid == 0:
{body}
    os._exit(0)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def forked_peak_rss(body: str, *args: str) -> tuple[int, int]:
    """Run body in a forked child of a fresh interpreter with PYTHONPATH=src
    and return the child's exit code and its ru_maxrss in KiB.  The body
    reads args as sys.argv[1:], may end with os._exit(code), and must write
    nothing to stdout."""
    script = _FORK.replace("{body}", textwrap.indent(body, "    "))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120,
    )
    code, maxrss_kib = map(int, done.stdout.split())
    return code, maxrss_kib
