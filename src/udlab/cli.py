"""Batch command-line front end.

Every subcommand is a pure function of its resolved run configuration: output
is byte-identical across repeated runs, all numbers are exact fraction
strings, and each emitted result embeds the configuration that produced it.
Computation is serial ("threads" is always 1), and a mass command measures
every level it reports from one measure context per encoding.  Exit codes:
0 success, 1 usage error, 2 validation or precondition failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .dovetailer import schedule_pair, stream_tick
from .encoding import DecodeError, EncodingTable, decode, get_table
from .enumeration import enumerate_programs, kraft_mass
from .equivalence import DEFAULT_UNIVERSE, InputUniverse, partition, refine
from .measure import (
    MeasureContext, class_masses, decomposition_check, divergence_report, fraction_str
)
from .replay import (
    SeverancePlan,
    hybrid_run,
    playback,
    record,
    recording_from_data,
    recording_to_data,
    sever_and_project,
)

DEFAULT_MAX_LEN = 12
DEFAULT_K = 2
DEFAULT_BUDGET = 1000

_COMMANDS = (
    "enumerate",
    "kraft",
    "schedule",
    "dovetail",
    "partition",
    "measure",
    "decompose",
    "relmeasure",
    "levels",
    "record",
    "replay",
    "hybrid",
    "sever",
    "invariance",
)


class _UsageError(Exception):
    pass


class _ConfigFileError(Exception):
    """A --config file that cannot be read or parsed: a validation failure."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; here usage errors are 1
    # and 2 is reserved for validation failures.
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


# Options restricted to a fixed set of values, on the command line and in
# --config files alike.
_CHOICES = {"encoding": ("A", "B"), "fmt": ("csv", "json")}


def _build_parser() -> _Parser:
    parser = _Parser(prog="udlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="|".join(_COMMANDS))
    for name in _COMMANDS:
        p = sub.add_parser(name, add_help=True)
        p.add_argument("--max-len", "-L", dest="max_len", type=int, default=None)
        p.add_argument("-k", dest="k", type=int, default=None)
        p.add_argument("--budget", "-T", dest="budget", type=int, default=None)
        p.add_argument("--universe", default=None, help="path to a JSON tape list, or 'default'")
        p.add_argument("--encoding", default=None, choices=_CHOICES["encoding"])
        p.add_argument("--format", dest="fmt", default=None, choices=_CHOICES["fmt"])
        p.add_argument("--out", default=None)
        p.add_argument("--tick", type=int, default=None)
        p.add_argument("--ticks", type=int, default=None)
        p.add_argument("--program", default=None, help="program bits ('0'/'1' string)")
        p.add_argument("--tape", default=None, help="comma-separated naturals, empty for ()")
        p.add_argument("--severed", default=None, help="comma-separated step indices")
        p.add_argument("--recording", default=None, help="path to a recording JSON file")
        p.add_argument("--config", default=None, help="JSON file of default option values")
    return parser


# Integer options; every other config key holds a string, as its flag does.
_INT_KEYS = {"max_len", "k", "budget", "tick", "ticks"}
_CONFIG_KEYS = _INT_KEYS | {
    "universe",
    "encoding",
    "fmt",
    "format",
    "out",
    "program",
    "tape",
    "severed",
    "recording",
}


def _apply_config_file(args: argparse.Namespace) -> None:
    if args.config is None:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise _ConfigFileError(f"error: --config: {exc}") from None
    if not isinstance(values, dict):
        raise _UsageError("udlab: error: --config file must hold a JSON object")
    for key, value in values.items():
        if key not in _CONFIG_KEYS:
            raise _UsageError(f"udlab: error: unknown config key {key!r}")
        expected = int if key in _INT_KEYS else str
        if not isinstance(value, expected) or isinstance(value, bool):
            kind = "an integer" if expected is int else "a string"
            raise _ConfigFileError(f"error: --config: {key!r} must be {kind}, got {value!r}")
        dest = "fmt" if key == "format" else key
        if dest in _CHOICES and value not in _CHOICES[dest]:
            raise _ConfigFileError(
                f"error: --config: {key!r} must be one of {', '.join(_CHOICES[dest])}, got {value!r}"
            )
        if getattr(args, dest) is None:  # explicit flags win over the file
            setattr(args, dest, value)


def _parse_tape(text: str | None) -> tuple[int, ...]:
    if text is None or text == "":
        return ()
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part.isdigit():
            raise ValueError(f"tape entry {part!r} is not a natural number")
        values.append(int(part))
    return tuple(values)


def _parse_severed(text: str | None) -> SeverancePlan:
    if text is None or text == "":
        return SeverancePlan.of(())
    return SeverancePlan.of(int(part) for part in text.split(","))


def _load_universe(source: str | None) -> InputUniverse:
    if source is None or source == "default":
        return DEFAULT_UNIVERSE
    with open(source, "r", encoding="utf-8") as fh:
        try:
            tapes = json.load(fh)
            if not isinstance(tapes, list) or not all(isinstance(t, list) for t in tapes):
                raise ValueError("must hold a JSON list of tapes, each a list")
            return InputUniverse.from_tapes(tuple(tuple(t) for t in tapes))
        except ValueError as exc:
            raise ValueError(f"universe {source}: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_doc(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_doc(config: dict, header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config, separators=(",", ":")) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit_table(run: "_Run", key: str, header: list[str], rows: list[list], config: dict) -> None:
    """Emit rows as CSV, or as JSON objects listed under `key`."""
    if run.fmt == "json":
        _emit(_json_doc({"config": config, key: [dict(zip(header, row)) for row in rows]}), run.out)
    else:
        _emit(_csv_doc(config, header, rows), run.out)


class _Run:
    """Resolved options for one invocation."""

    def __init__(self, args: argparse.Namespace, default_fmt: str) -> None:
        self.command = args.command
        self.max_len = DEFAULT_MAX_LEN if args.max_len is None else args.max_len
        self.k = DEFAULT_K if args.k is None else args.k
        self.budget = DEFAULT_BUDGET if args.budget is None else args.budget
        self.universe = _load_universe(args.universe)
        self.encoding: EncodingTable = get_table(args.encoding or "A")
        self.fmt = args.fmt or default_fmt
        self.out = args.out
        self.args = args

    def config_dict(self, *extra: tuple[str, object]) -> dict:
        base = {
            "command": self.command,
            "max_len": self.max_len,
            "k": self.k,
            "budget": self.budget,
            "universe_id": self.universe.universe_id,
            "encoding": self.encoding.variant_id,
            "threads": 1,
            "format": self.fmt,
        }
        for key, value in extra:
            base[key] = value
        return base

    def context(self, k: int | None = None, table: EncodingTable | None = None) -> MeasureContext:
        return MeasureContext(
            max_len=self.max_len,
            k=self.k if k is None else k,
            budget=self.budget,
            universe=self.universe,
            encoding=table or self.encoding,
        )


def _cmd_enumerate(run: _Run) -> None:
    programs = enumerate_programs(run.max_len, run.encoding)
    config = run.config_dict()
    if run.fmt == "json":
        _emit(_json_doc({"config": config, "programs": [p.bits for p in programs]}), run.out)
    else:
        rows = [[i + 1, p.bits, p.length] for i, p in enumerate(programs)]
        _emit(_csv_doc(config, ["index", "bits", "length"], rows), run.out)


def _cmd_kraft(run: _Run) -> None:
    mass = kraft_mass(run.max_len, run.encoding)
    if run.fmt == "json":
        _emit(_json_doc({"config": run.config_dict(), "kraft_mass": fraction_str(mass)}), run.out)
    elif run.fmt == "csv":
        rows = [[run.max_len, run.encoding.variant_id, fraction_str(mass)]]
        _emit(_csv_doc(run.config_dict(), ["max_len", "encoding", "kraft_mass"], rows), run.out)
    else:
        _emit(fraction_str(mass) + "\n", run.out)


def _cmd_schedule(run: _Run) -> None:
    if run.args.tick is None:
        raise ValueError("schedule requires --tick")
    tick = run.args.tick
    i, s = schedule_pair(tick)
    config = run.config_dict(("tick", tick))
    if run.fmt == "json":
        _emit(_json_doc({"config": config, "tick": tick, "program_index": i, "step_index": s}), run.out)
    elif run.fmt == "csv":
        _emit(_csv_doc(config, ["tick", "program_index", "step_index"], [[tick, i, s]]), run.out)
    else:
        _emit(f"({i},{s})\n", run.out)


def _tick_rows(ticks: int, table: EncodingTable) -> list[list]:
    rows = []
    for tick in range(1, ticks + 1):
        index, _ = schedule_pair(tick)
        event = stream_tick(tick, table)
        state = event.state
        rows.append(
            [
                tick,
                index,
                event.code_bits,
                event.step_index,
                state.halted,
                " ".join(str(r) for r in state.registers),
                " ".join(str(v) for v in state.outputs),
            ]
        )
    return rows


def _cmd_dovetail(run: _Run) -> None:
    if run.args.ticks is None:
        raise ValueError("dovetail requires --ticks")
    ticks = run.args.ticks
    if ticks < 0:
        raise ValueError("ticks must be >= 0")
    header = ["tick", "program_index", "program_bits", "step_index", "halted", "registers", "outputs"]
    rows = _tick_rows(ticks, run.encoding)
    _emit_table(run, "events", header, rows, run.config_dict(("ticks", ticks)))


def _cmd_partition(run: _Run) -> None:
    classes = partition(enumerate_programs(run.max_len, run.encoding), run.universe, run.k)
    config = run.config_dict()
    if run.fmt == "csv":
        rows = [
            [c.index, c.key_digest, len(c.members), ";".join(p.bits for p in c.members)]
            for c in classes
        ]
        _emit(_csv_doc(config, ["index", "canonical_key_digest", "size", "members"], rows), run.out)
    else:
        payload = {
            "config": config,
            "k": run.k,
            "universe_id": run.universe.universe_id,
            "classes": [
                {
                    "index": c.index,
                    "canonical_key_digest": c.key_digest,
                    "members": [p.bits for p in c.members],
                }
                for c in classes
            ],
        }
        _emit(_json_doc(payload), run.out)


def _context_columns(run: _Run, k: int, table: EncodingTable | None = None) -> list:
    table = table or run.encoding
    return [run.max_len, k, run.budget, run.universe.universe_id, table.variant_id]


_CONTEXT_HEADER = ["L", "k", "T", "universe_id", "encoding_id"]


def _cmd_measure(run: _Run) -> None:
    ctx = run.context()
    classes = ctx.partition(run.k)
    rows = [
        _context_columns(run, run.k) + [c.index, c.key_digest, len(c.members), fraction_str(mass)]
        for c, mass in zip(classes, class_masses(classes, ctx))
    ]
    header = _CONTEXT_HEADER + ["class_index", "key_digest", "member_count", "mass"]
    _emit_table(run, "classes", header, rows, run.config_dict())


def _cmd_decompose(run: _Run) -> None:
    ctx = run.context()
    classes = ctx.partition(run.k)
    residuals = decomposition_check(classes, ctx)
    rows = [
        _context_columns(run, run.k) + [c.index, fraction_str(r), r == 0]
        for c, r in zip(classes, residuals)
    ]
    header = _CONTEXT_HEADER + ["class_index", "residual", "zero"]
    _emit_table(run, "classes", header, rows, run.config_dict())


def _relmeasure_rows(run: _Run, table: EncodingTable) -> list[list]:
    ctx = run.context(k=run.k + 1, table=table)
    parents, children = ctx.partition(run.k), ctx.partition(run.k + 1)
    mapping = refine(parents, children)
    parent_masses = class_masses(parents, ctx)
    rows = []
    for child, child_mass in zip(children, class_masses(children, ctx)):
        parent = parents[mapping[child.index]]
        ratio = child_mass / parent_masses[parent.index]
        rows.append(
            _context_columns(run, run.k, table)
            + [child.index, parent.index, child.key_digest, parent.key_digest, fraction_str(ratio)]
        )
    return rows


_RELMEASURE_HEADER = _CONTEXT_HEADER + [
    "child_index",
    "parent_index",
    "child_digest",
    "parent_digest",
    "relative_measure",
]


def _cmd_relmeasure(run: _Run) -> None:
    rows = _relmeasure_rows(run, run.encoding)
    _emit_table(run, "pairs", _RELMEASURE_HEADER, rows, run.config_dict())


def _cmd_levels(run: _Run) -> None:
    # -k is the top level; the report always starts at level 1.
    rows_data = divergence_report(1, run.k, run.context())
    rows = [
        _context_columns(run, row.k)
        + [row.class_count, fraction_str(row.level_mass), fraction_str(row.cumulative)]
        for row in rows_data
    ]
    header = _CONTEXT_HEADER + ["class_count", "level_mass", "cumulative"]
    _emit_table(run, "levels", header, rows, run.config_dict())


def _cmd_record(run: _Run) -> None:
    if run.args.program is None:
        raise ValueError("record requires --program")
    program = decode(run.args.program, run.encoding)
    tape = _parse_tape(run.args.tape)
    rec = record(program, tape, run.k)
    payload = {"config": run.config_dict(("tape", list(tape)))}
    payload.update(recording_to_data(rec))
    _emit(_json_doc(payload), run.out)


def _load_recording(run: _Run):
    path = run.args.recording
    if path is None:
        raise ValueError(f"{run.command} requires --recording")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"recording {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"recording {path} must hold a JSON object")
    encoding = run.encoding
    config = data.get("config", {})
    if not isinstance(config, dict):
        raise ValueError(f"recording {path}: 'config' must be a JSON object, got {config!r}")
    if "encoding" in config:
        if config["encoding"] not in _CHOICES["encoding"]:
            raise ValueError(
                f"recording config 'encoding' must be one of {', '.join(_CHOICES['encoding'])}, "
                f"got {config['encoding']!r}"
            )
        encoding = get_table(config["encoding"])
    try:
        return recording_from_data(data, encoding)
    except DecodeError as exc:
        raise ValueError(f"recording {path}: 'program_bits' does not decode: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"recording {path}: {exc}") from None


def _cmd_replay(run: _Run) -> None:
    rec = _load_recording(run)
    states = playback(rec)
    payload = {
        "config": run.config_dict(("recording", run.args.recording)),
        "k": rec.k,
        "trace": list(states),
    }
    _emit(_json_doc(payload), run.out)


def _cmd_hybrid(run: _Run) -> None:
    rec = _load_recording(run)
    result = hybrid_run(rec, _parse_tape(run.args.tape))
    payload = {
        "config": run.config_dict(
            ("recording", run.args.recording), ("tape", list(_parse_tape(run.args.tape)))
        ),
        "switch_step": result.switch_step,
        "trace": list(result.trace),
    }
    _emit(_json_doc(payload), run.out)


def _cmd_sever(run: _Run) -> None:
    rec = _load_recording(run)
    plan = _parse_severed(run.args.severed)
    tape = _parse_tape(run.args.tape)
    result = sever_and_project(rec, plan, tape, run.universe)
    payload = {
        "config": run.config_dict(
            ("recording", run.args.recording),
            ("tape", list(tape)),
            ("severed", sorted(plan.severed_steps)),
        ),
        "counterfactually_equivalent": result.equivalent,
        "trace": list(result.trace),
    }
    _emit(_json_doc(payload), run.out)


def _cmd_invariance(run: _Run) -> None:
    """Relative measures side by side under encodings A and B; nothing is
    asserted about their agreement, the table is the experiment."""
    rows = []
    for variant in ("A", "B"):
        rows.extend(_relmeasure_rows(run, get_table(variant)))
    _emit_table(run, "pairs", _RELMEASURE_HEADER, rows, run.config_dict())


_HANDLERS = {
    "enumerate": (_cmd_enumerate, "json"),
    "kraft": (_cmd_kraft, "plain"),
    "schedule": (_cmd_schedule, "plain"),
    "dovetail": (_cmd_dovetail, "csv"),
    "partition": (_cmd_partition, "json"),
    "measure": (_cmd_measure, "csv"),
    "decompose": (_cmd_decompose, "csv"),
    "relmeasure": (_cmd_relmeasure, "csv"),
    "levels": (_cmd_levels, "csv"),
    "record": (_cmd_record, "json"),
    "replay": (_cmd_replay, "json"),
    "hybrid": (_cmd_hybrid, "json"),
    "sever": (_cmd_sever, "json"),
    "invariance": (_cmd_invariance, "csv"),
}

# Commands whose output has no table form: any other --format is refused.
_JSON_ONLY = {"record", "replay", "hybrid", "sever"}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        _apply_config_file(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help prints and exits 0
        return 0 if exc.code in (0, None) else 1
    except _ConfigFileError as exc:
        print(exc, file=sys.stderr)
        return 2

    handler, default_fmt = _HANDLERS[args.command]
    try:
        if args.command in _JSON_ONLY and args.fmt not in (None, "json"):
            raise ValueError(f"{args.command} writes JSON only, not --format {args.fmt}")
        run = _Run(args, default_fmt)
        handler(run)
    except (DecodeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass  # reported below, once the traceback no longer holds the run's memory
    else:
        return 0
    print("error: out of memory; lower -L, -k or -T", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
