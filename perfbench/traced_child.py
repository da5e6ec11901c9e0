"""Run one udlab CLI invocation with per-layer spans and counters.

Usage: python3 perfbench/traced_child.py TRACE_OUT COMMAND_ID ARGV...

The layers are udlab's modules.  Wrappers are installed from here, under the
names the callers look up (``run_trace`` is replaced as
``udlab.equivalence.run_trace``, ``run_events`` as ``udlab.measure.run_events``
and so on), so no program code changes.  Each wrapped call records a span
(layer, start, end, parent) in memory; the spans and the counters are written
to TRACE_OUT as JSON once ``udlab.cli.main`` returns.  Calls made millions of
times (``u_weight``) and bookkeeping hooks (``_kernels.scan_length``, the
engine constructor) only count; their time folds into the caller's span.

A hook whose target no longer exists is skipped, so a refactor of the program
leaves the traced run working with that counter at zero.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import udlab.cli as cli  # noqa: E402
import udlab.dovetailer as dovetailer  # noqa: E402
import udlab.enumeration as enumeration  # noqa: E402
import udlab.equivalence as equivalence  # noqa: E402
import udlab.machine as machine  # noqa: E402
import udlab.measure as measure  # noqa: E402
import udlab.replay as replay  # noqa: E402

# Imported by udlab.enumeration today; looked up, not imported, so that its
# removal leaves the trace working.
kernels = sys.modules.get("udlab._kernels")

# Span layers, in the order their self times are reported.
LAYERS = (
    "cli",
    "enumeration",
    "equivalence",
    "machine.trace",
    "machine.events",
    "dovetailer",
    "measure",
    "replay",
)


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer index, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, layer: str, fn, count: str | None = None, on_result=None):
        layer_index = LAYERS.index(layer)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [layer_index, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                counts[count] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper


def _replace(name: str, wrapper, *modules) -> None:
    for module in modules:
        if hasattr(module, name):
            setattr(module, name, wrapper)


def _wrap_function(tracer, layer, home, name, lookups, count=None, on_result=None) -> None:
    fn = getattr(home, name, None)
    if fn is not None:
        _replace(name, tracer.span(layer, fn, count, on_result), home, *lookups)


def _wrap_method(tracer, layer, cls, name, count=None) -> None:
    fn = getattr(cls, name, None)
    if fn is not None:
        setattr(cls, name, tracer.span(layer, fn, count))


def install(tracer: Tracer) -> None:
    counts = tracer.counts

    # enumeration: the bulk prefix and the lazy n-th program; decode runs inside.
    _wrap_function(
        tracer, "enumeration", enumeration, "enumerate_programs", (cli, measure),
        count="enumeration.calls",
    )
    _wrap_method(tracer, "enumeration", enumeration.ProgramStream, "nth", count="enumeration.calls")
    scan_length = getattr(kernels, "scan_length", None)
    if scan_length is not None:

        def counted_scan(length, table, backend=None):
            found = scan_length(length, table, backend)
            counts["enumeration.candidates"] += 2**length
            counts["enumeration.programs"] += len(found)
            return found

        kernels.scan_length = counted_scan

    # equivalence: key building and grouping; the traces beneath are machine spans.
    def key_size(key: str) -> None:
        size = len(key.encode())
        counts["equivalence.key_bytes_total"] += size
        counts["equivalence.key_bytes_max"] = max(counts["equivalence.key_bytes_max"], size)

    _wrap_function(
        tracer, "equivalence", equivalence, "family_key", (measure,),
        count="equivalence.family_keys", on_result=key_size,
    )
    _wrap_function(tracer, "equivalence", equivalence, "partition", (cli, measure))

    # machine: k-step traces and budgeted event runs.
    _wrap_function(
        tracer, "machine.trace", machine, "run_trace", (equivalence, replay), count="machine.traces"
    )
    _wrap_function(
        tracer, "machine.events", machine, "run_events", (measure,), count="machine.event_runs"
    )

    # dovetailer: one span per tick, one count per fresh engine.
    engine = dovetailer.DovetailEngine
    _wrap_method(tracer, "dovetailer", engine, "tick", count="dovetailer.ticks")
    construct, clone = engine.__init__, getattr(engine, "clone", None)

    def counted_init(self, *args, **kwargs):
        counts["dovetailer.engines"] += 1
        construct(self, *args, **kwargs)

    engine.__init__ = counted_init
    if clone is not None:

        def uncounted_clone(self):
            # clone() builds its copy through __init__; a copy is not a rebuild.
            copy = clone(self)
            counts["dovetailer.engines"] -= 1
            return copy

        engine.clone = uncounted_clone

    # measure: class masses, decomposition and levels; u_weight only counts.
    for name in ("measure_class", "decomposition_check", "relative_measure", "level_mass",
                 "divergence_report"):
        count = "measure.classes_measured" if name == "measure_class" else None
        _wrap_function(tracer, "measure", measure, name, (cli,), count=count)
    u_weight = getattr(measure, "u_weight", None)
    if u_weight is not None:

        def counted_u_weight(program, cls, ctx):
            reached = u_weight(program, cls, ctx)
            counts["measure.u_weight_calls"] += 1
            counts["measure.u_weight_reached"] += reached
            return reached

        measure.u_weight = counted_u_weight

    # replay: every public entry point of the module.
    for name in ("record", "playback", "hybrid_run", "sever_and_project",
                 "recording_to_data", "recording_from_data"):
        _wrap_function(tracer, "replay", replay, name, (cli,), count="replay.calls")


def main(argv: list[str]) -> int:
    trace_out, command_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    install(tracer)
    run_cli = tracer.span("cli", cli.main)
    code = run_cli(cli_argv)
    sys.stdout.flush()
    if hasattr(machine, "step_count"):
        tracer.counts["machine.steps"] = machine.step_count()
    trace = {"command_id": command_id, "layers": LAYERS, "spans": tracer.spans, "counts": tracer.counts}
    with open(trace_out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(trace, separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
