#!/usr/bin/env python3
"""udlab benchmark: seeded CLI workloads, end to end and layer by layer.

Usage:
    python3 perfbench/run.py --workload census|masses|deep --seed N \
        --seconds S --trace 0|1 [--write-golden]

Run from the root of a source checkout.  Every command of a workload is a
real ``udlab`` CLI invocation in a fresh child process, one at a time, at the
default single worker, on the sources under ``src/``.  The workload's commands
are repeated as whole passes until ``--seconds`` have elapsed (at least one
pass); times are medians over passes.  Every output is checked: its sha256
against the golden digests at seed 0, and semantic checks on any seed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (see ``traced_child.py``) plus the tracing overhead.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Details of the run, digests included, go to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.

Each run is single-threaded, so no layer makes work wait in a queue and there
is no waiting-time metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
TRACED_CHILD = BENCH / "traced_child.py"

# Address-space cap per child; seed peaks are below 60 MB RSS.
CHILD_AS_BYTES = 2 << 30
# A run must end well inside 180 s even when a child hangs.
RUN_DEADLINE_S = 165.0
SETUP_PROBES = 9

# The one-instruction dovetailer host (DVT; END) under encoding A.
DVT_HOST = "10001111"
REPLAY_K = 1000
# Programs of length <= L, a fact of encoding A that partitions must cover.
PROGRAM_COUNTS = {12: 24, 20: 2396}
# Tapes over {0,1,2} of length <= 2; seeded universes and replay tapes draw here.
TAPES = [()] + [(a,) for a in range(3)] + [(a, b) for a in range(3) for b in range(3)]

WORKLOADS = ("census", "masses", "deep")


# ---------------------------------------------------------------- inputs


@dataclass(frozen=True)
class Inputs:
    """What a seed draws; seed 0 is the default universe and empty tapes."""

    universe: list | None
    record_tape: tuple
    hybrid_tape: tuple
    sever_tape: tuple
    severed: tuple[int, int]

    @staticmethod
    def from_seed(seed: int) -> "Inputs":
        if seed == 0:
            return Inputs(None, (), (), (), (1, 2))
        rng = random.Random(seed)
        universe = [list(t) for t in rng.sample(TAPES, 7)]
        tapes = [rng.choice(TAPES) for _ in range(3)]
        severed = tuple(sorted(rng.sample(range(1, REPLAY_K + 1), 2)))
        return Inputs(universe, *tapes, severed)


@dataclass(frozen=True)
class Command:
    label: str  # unique within the workload; also names its output file
    group: str  # the command whose wall time this counts towards
    args: list[str]
    check: Callable[[bytes], str | None]  # returns a failure message or None


def _rows(output: bytes) -> list[dict]:
    lines = [ln for ln in output.decode().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _check_partition(max_len: int):
    def check(output: bytes) -> str | None:
        members = [bits for c in json.loads(output)["classes"] for bits in c["members"]]
        if len(set(members)) != len(members):
            return "a program appears in two classes"
        if len(members) != PROGRAM_COUNTS[max_len] or any(len(b) > max_len for b in members):
            return f"members do not cover the {PROGRAM_COUNTS[max_len]} programs of L<={max_len}"
        return None

    return check


def _check_decompose(output: bytes) -> str | None:
    rows = _rows(output)
    if not rows or any(row["zero"] != "True" for row in rows):
        return "a decomposition residual is not zero"
    return None


def _check_levels(output: bytes) -> str | None:
    cumulative = [Fraction(row["cumulative"]) for row in _rows(output)]
    if not cumulative or any(b <= a for a, b in zip(cumulative, cumulative[1:])):
        return "cumulative level mass does not strictly increase"
    return None


def _check_measure(output: bytes) -> str | None:
    rows = _rows(output)
    if not rows or any(Fraction(row["mass"]) <= 0 for row in rows):
        return "a class mass is missing or not positive"
    return None


def _check_record(k: int):
    def check(output: bytes) -> str | None:
        data = json.loads(output)
        return None if data["k"] == k and len(data["trace"]) == k else "recording has the wrong length"

    return check


def _check_hybrid(output: bytes) -> str | None:
    if json.loads(output)["switch_step"] is not None:
        return "the DVT host's hybrid run switched to live computation"
    return None


def _check_sever(output: bytes) -> str | None:
    if json.loads(output)["counterfactually_equivalent"] is not True:
        return "the severed DVT host is not counterfactually equivalent"
    return None


def _tape_args(tape: tuple) -> list[str]:
    return ["--tape", ",".join(map(str, tape))] if tape else []


def workload_commands(name: str, inputs: Inputs) -> list[Command]:
    """The CLI invocations of one workload pass, in order."""
    universe = ["--universe", "universe.json"] if inputs.universe is not None else []
    if name == "census":
        return [Command("partition", "partition", ["partition", "-L", "20", "-k", "3", *universe],
                        _check_partition(20))]
    if name == "masses":
        return [
            Command("decompose", "decompose",
                    ["decompose", "-L", "16", "-k", "2", "-T", "200", *universe], _check_decompose),
            Command("levels", "levels",
                    ["levels", "-L", "16", "-k", "6", "-T", "1000", *universe], _check_levels),
        ]
    if name == "deep":
        severed = ",".join(map(str, inputs.severed))
        return [
            Command("partition", "partition",
                    ["partition", "-L", "12", "-k", "2000", *universe], _check_partition(12)),
            Command("measure", "measure",
                    ["measure", "-L", "12", "-k", "2", "-T", "50000", *universe], _check_measure),
            Command("record", "replay",
                    ["record", "--program", DVT_HOST, "-k", str(REPLAY_K),
                     *_tape_args(inputs.record_tape)], _check_record(REPLAY_K)),
            Command("hybrid", "replay",
                    ["hybrid", "--recording", "record.out", *_tape_args(inputs.hybrid_tape)],
                    _check_hybrid),
            Command("sever", "replay",
                    ["sever", "--recording", "record.out", "--severed", severed,
                     *_tape_args(inputs.sever_tape), *universe], _check_sever),
        ]
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- children


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("UDLAB_THREADS", "UDLAB_PURE")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))


@dataclass
class Outcome:
    label: str
    group: str
    wall_s: float
    exit_code: int
    rss_mb: float
    sha256: str
    output_bytes: int
    error: str | None
    trace: dict | None = None


def spawn(argv: list[str], cwd: Path, stdout_path: Path, timeout_s: float) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB).

    Peak RSS comes from this child's own rusage (os.wait4); RUSAGE_CHILDREN
    would be the maximum over every child so far.
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, stdout=out, stderr=err, env=child_env(),
            preexec_fn=_cap_address_space,
        )
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6


def run_command(command: Command, index: int, workdir: Path, traced: bool, timeout_s: float) -> Outcome:
    out_path = workdir / f"{command.label}.out"
    if traced:
        trace_path = workdir / f"{command.label}.trace.json"
        argv = [sys.executable, str(TRACED_CHILD), str(trace_path), str(index), *command.args]
    else:
        argv = [sys.executable, "-m", "udlab.cli", *command.args]
    wall, code, rss = spawn(argv, workdir, out_path, timeout_s)
    output = out_path.read_bytes()
    error = None
    if code != 0:
        stderr = out_path.with_suffix(".err").read_text(errors="replace").strip().splitlines()
        error = f"exit code {code}: {stderr[-1] if stderr else 'no message'}"
    if error is None:
        try:
            error = command.check(output)
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unreadable output: {exc!r}"
    trace = None
    if traced and code == 0:
        trace = json.loads(trace_path.read_text())
    return Outcome(command.label, command.group, wall, code, rss,
                   hashlib.sha256(output).hexdigest(), len(output), error, trace)


def run_pass(commands: list[Command], workdir: Path, traced: bool, deadline: float) -> list[Outcome]:
    return [
        run_command(c, i, workdir, traced, max(1.0, deadline - time.monotonic()))
        for i, c in enumerate(commands)
    ]


def probe_setup(workdir: Path) -> dict:
    """Time from process start until ``udlab.cli`` is imported, in a child."""
    code = (
        "import time, udlab.cli; t = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
        "import json, sys, udlab\n"
        "print(json.dumps({'t': t, 'backend': getattr(udlab, 'BACKEND', None), 'file': udlab.__file__,"
        " 'python': sys.version.split()[0]}))"
    )
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=workdir, env=child_env(), capture_output=True,
        text=True, timeout=60, preexec_fn=_cap_address_space,
    )
    if done.returncode != 0:
        raise RuntimeError(f"cannot import udlab.cli from {SRC}:\n{done.stderr}")
    info = json.loads(done.stdout)
    if not Path(info["file"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"udlab imported from {info['file']}, not from {SRC}")
    info["setup_s"] = info.pop("t") - start
    return info


# ---------------------------------------------------------------- metrics


def end_to_end(passes: list[list[Outcome]], setup: list[float]) -> dict:
    """Medians over passes.  Command times are per group (record, hybrid and
    sever together make ``replay``); the gated metrics are the slowest and
    the fastest group, which exist on every workload."""
    per_group: dict[str, list[float]] = {}
    for outcomes in passes:
        groups: dict[str, float] = {}
        for o in outcomes:
            groups[o.group] = groups.get(o.group, 0.0) + o.wall_s
        for group, wall in groups.items():
            per_group.setdefault(group, []).append(wall)
    group_s = {g: statistics.median(v) for g, v in per_group.items()}
    return {
        "wall_s": statistics.median(sum(o.wall_s for o in p) for p in passes),
        "slowest_cmd_s": max(group_s.values()),
        "fastest_cmd_s": min(group_s.values()),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in p) for p in passes),
        "setup_s": statistics.median(setup),
        **{f"{g}_s": v for g, v in group_s.items()},
    }


def self_times(trace: dict) -> dict[str, float]:
    """Per-layer self time: span duration minus the time its child spans cover."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = dict.fromkeys(trace["layers"], 0.0)
    for (layer, start, end, _), inner in zip(spans, covered):
        totals[trace["layers"][layer]] += end - start - inner
    return totals


COUNT_METRICS = (
    "enumeration.calls", "enumeration.programs", "enumeration.candidates",
    "equivalence.family_keys", "equivalence.key_bytes_total", "equivalence.key_bytes_max",
    "machine.traces", "machine.event_runs", "machine.steps",
    "dovetailer.ticks", "dovetailer.engines",
    "measure.classes_measured", "measure.u_weight_calls",
    "replay.calls",
)
SELF_METRICS = {
    "cli": "cli.self_s", "enumeration": "enumeration.self_s", "equivalence": "equivalence.self_s",
    "machine.trace": "machine.trace_s", "machine.events": "machine.events_s",
    "dovetailer": "dovetailer.self_s", "measure": "measure.self_s", "replay": "replay.self_s",
}


def pass_layers(outcomes: list[Outcome]) -> dict:
    """Per-layer numbers of one traced pass, summed over its commands."""
    counts: dict[str, int] = {}
    selfs = dict.fromkeys(SELF_METRICS.values(), 0.0)
    for o in outcomes:
        for layer, seconds in self_times(o.trace).items():
            selfs[SELF_METRICS[layer]] += seconds
        for key, value in o.trace["counts"].items():
            merge = max if key.endswith("_max") else int.__add__
            counts[key] = merge(counts.get(key, 0), value)
    wall = sum(o.wall_s for o in outcomes)
    return {
        "counts": {
            **{key: counts.get(key, 0) for key in COUNT_METRICS},
            "measure.u_weight_reached": counts.get("measure.u_weight_reached", 0),
            "cli.output_bytes": sum(o.output_bytes for o in outcomes),
        },
        "self": selfs,
        "wall_s": wall,
        "unattributed_s": wall - sum(selfs.values()),
    }


def per_layer(traced: list[list[Outcome]], untraced: list[list[Outcome]]) -> dict:
    layers = [pass_layers(p) for p in traced]
    counts = layers[0]["counts"]
    metrics = {key: statistics.median(l["self"][key] for l in layers) for key in SELF_METRICS.values()}
    metrics.update({key: counts[key] for key in COUNT_METRICS})
    metrics["cli.output_bytes"] = counts["cli.output_bytes"]
    candidates, calls = counts["enumeration.candidates"], counts["measure.u_weight_calls"]
    metrics["enumeration.yield"] = counts["enumeration.programs"] / candidates if candidates else 0.0
    metrics["measure.reach_ratio"] = counts["measure.u_weight_reached"] / calls if calls else 0.0
    traced_wall = statistics.median(l["wall_s"] for l in layers)
    untraced_wall = statistics.median(sum(o.wall_s for o in p) for p in untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.unattributed_s"] = statistics.median(l["unattributed_s"] for l in layers)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    return metrics


UNITS = {
    "peak_rss_mb": "MB", "failed_ratio": "ratio", "enumeration.yield": "ratio", "measure.reach_ratio": "ratio",
    "trace.overhead_ratio": "ratio", "equivalence.key_bytes_total": "B",
    "equivalence.key_bytes_max": "B", "cli.output_bytes": "B",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


# ---------------------------------------------------------------- driver


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="store this run's seed-0 digests as the golden ones")
    args = parser.parse_args(argv)
    if args.write_golden and args.seed != 0:
        parser.error("--write-golden needs --seed 0")
    if not (SRC / "udlab" / "cli.py").is_file():
        print(f"error: no udlab sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    inputs = Inputs.from_seed(args.seed)
    commands = workload_commands(args.workload, inputs)
    golden = json.loads(GOLDEN.read_text()).get(args.workload, {}) if GOLDEN.is_file() else {}
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if inputs.universe is not None:
            (workdir / "universe.json").write_text(json.dumps(inputs.universe))
        try:
            probe_setup(workdir)  # warm-up: writes the bytecode caches
            probes = [probe_setup(workdir) for _ in range(SETUP_PROBES)]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

        untraced: list[list[Outcome]] = []
        traced: list[list[Outcome]] = []
        start = time.monotonic()
        last_pass_s = 0.0
        while (
            not untraced
            or (args.trace and not traced)
            or time.monotonic() - start < args.seconds
        ) and time.monotonic() + last_pass_s < deadline:
            pass_start = time.monotonic()
            is_traced = bool(args.trace) and len(traced) < len(untraced)
            (traced if is_traced else untraced).append(
                run_pass(commands, workdir, is_traced, deadline)
            )
            last_pass_s = time.monotonic() - pass_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = [o for p in untraced + traced for o in p]
    if args.seed == 0 and not args.write_golden:
        for o in every:
            if o.error is None and golden.get(o.label) != o.sha256:
                o.error = "output differs from the golden seed-0 digest"
    failed = sum(o.error is not None for o in every)
    correct = failed == 0 and (not args.trace or bool(traced))
    if args.write_golden and correct:
        stored = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        stored[args.workload] = {o.label: o.sha256 for o in untraced[0]}
        GOLDEN.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")

    if args.trace:
        metrics = per_layer(traced, untraced) if correct else {}
        reported = dict(metrics)
    else:
        metrics = end_to_end(untraced, [p["setup_s"] for p in probes])
        reported = {k: metrics[k] for k in
                    ("wall_s", "slowest_cmd_s", "fastest_cmd_s", "peak_rss_mb", "setup_s")}
    metrics["failed_ratio"] = failed / len(every)

    env = {k: probes[0][k] for k in ("python", "backend")}
    env["nproc"] = len(os.sched_getaffinity(0))
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)} untraced + {len(traced)} traced")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for o in (untraced[0] + (traced[0] if traced else [])):
        print(f"command {o.label:<9} wall_s={o.wall_s:.3f} rss_mb={o.rss_mb:.1f} "
              f"sha256={o.sha256[:16]} {'ok' if o.error is None else 'FAILED: ' + o.error}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {unit(name)}")
    if args.trace and correct:
        print(f"traced wall {metrics['trace.wall_s']:.3f} s = self times "
              f"{metrics['trace.wall_s'] - metrics['trace.unattributed_s']:.3f} s + unattributed "
              f"(process start, imports, span write-out) {metrics['trace.unattributed_s']:.3f} s")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "inputs": inputs.__dict__,
        "setup_s": [p["setup_s"] for p in probes], "metrics": metrics,
        "passes": [
            {"traced": i >= len(untraced), "commands": [
                {"label": o.label, "args": c.args, "wall_s": o.wall_s, "exit_code": o.exit_code,
                 "rss_mb": o.rss_mb, "sha256": o.sha256, "output_bytes": o.output_bytes,
                 "error": o.error}
                for o, c in zip(p, commands)]}
            for i, p in enumerate(untraced + traced)
        ],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": len(every),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
