"""Batch command-line front end.

Every subcommand is a pure function of its resolved run configuration: output
is byte-identical across repeated runs, all numbers are exact fraction
strings, and each emitted result embeds the configuration that produced it.
Computation is serial ("threads" is always 1), and a mass command measures
every level it reports from one measure context per encoding.  Exit codes:
0 success, 1 usage error, 2 validation or precondition failure.

Each handler computes its results, then returns its document as text
chunks that main writes as they come, to stdout or --out.  Run as a
process, main then freezes the garbage collector, so that shut-down does
not collect what the exit frees anyway.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator

from .chunks import batches, csv_doc, json_doc, json_list_doc
from .dovetailer import DovetailEngine, schedule_pair
from .encoding import DecodeError, EncodingTable, decode, get_table
from .enumeration import enumerate_programs, kraft_mass
from .equivalence import DEFAULT_UNIVERSE, InputUniverse, partition, refine

# The mass commands import udlab.measure, and the recording commands
# udlab.replay, inside their handlers, so that a command loads only the code
# it runs.
if TYPE_CHECKING:
    from fractions import Fraction

    from .measure import MeasureContext
    from .replay import Recording

DEFAULT_MAX_LEN = 12
DEFAULT_K = 2
DEFAULT_BUDGET = 1000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; here usage errors are 1
    # and 2 is reserved for validation failures.
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


# Every option, declared once as dest: (flags, type, choices, help).  The
# parser and the --config check are both built from it.
_OPTIONS = {
    "max_len": (("--max-len", "-L"), int, None, None),
    "k": (("-k",), int, None, None),
    "budget": (("--budget", "-T"), int, None, None),
    "universe": (("--universe",), str, None, "path to a JSON tape list, or 'default'"),
    "encoding": (("--encoding",), str, ("A", "B"), None),
    "fmt": (("--format",), str, ("csv", "json"), None),
    "out": (("--out",), str, None, None),
    "tick": (("--tick",), int, None, None),
    "ticks": (("--ticks",), int, None, None),
    "program": (("--program",), str, None, "program bits ('0'/'1' string)"),
    "tape": (("--tape",), str, None, "comma-separated naturals, empty for ()"),
    "severed": (("--severed",), str, None, "comma-separated step indices"),
    "recording": (("--recording",), str, None, "path to a recording JSON file"),
    "config": (("--config",), str, None, "JSON file of default option values"),
}


def _build_parser(argv: list[str]) -> _Parser:
    """The parser for argv.  When argv names a command, that command's
    subparser is the only one built, and the options are declared on it
    alone; otherwise (--help, no command or an unknown one) all are built
    bare, since none of them parses and the usage error lists the commands
    built."""
    # --help shows the docstring up to its last paragraph, which is about the code.
    parser = _Parser(prog="udlab", description=(__doc__ or "").rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", metavar="|".join(_COMMANDS))
    if argv and argv[0] in _COMMANDS:
        command = sub.add_parser(argv[0])
        for dest, (flags, kind, choices, text) in _OPTIONS.items():
            command.add_argument(*flags, dest=dest, type=kind, choices=choices, help=text)
    else:
        for name in _COMMANDS:
            sub.add_parser(name)
    return parser


def _read_json(path: str, name: str):
    """The JSON value in the file at path; a file that cannot be opened,
    decoded or parsed raises ValueError, its message prefixed with name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _apply_config_file(args: argparse.Namespace) -> None:
    if args.config is None:
        return
    values = _read_json(args.config, "--config")
    if not isinstance(values, dict):
        raise _UsageError("udlab: error: --config file must hold a JSON object")
    # A key is an option's dest or a long flag spelled as a Python name
    # ("fmt" or "format", but not "max-len"); --config itself is no key.
    dests = {
        key: dest
        for dest, (flags, *_) in _OPTIONS.items()
        if dest != "config"
        for key in (dest, *(flag[2:] for flag in flags if flag[2:].isidentifier()))
    }
    for key, value in values.items():
        if key not in dests:
            raise _UsageError(f"udlab: error: unknown config key {key!r}")
        dest = dests[key]
        _, expected, choices, _ = _OPTIONS[dest]
        if not isinstance(value, expected) or isinstance(value, bool):
            kind = "an integer" if expected is int else "a string"
            raise ValueError(f"--config: {key!r} must be {kind}, got {value!r}")
        if choices and value not in choices:
            raise ValueError(
                f"--config: {key!r} must be one of {', '.join(choices)}, got {value!r}"
            )
        if getattr(args, dest) is None:  # explicit flags win over the file
            setattr(args, dest, value)


def _parse_naturals(text: str | None, what: str) -> tuple[int, ...]:
    """Comma-separated naturals (a tape, or severed steps); None or "" is ()."""
    if text is None or text == "":
        return ()
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part.isdecimal():
            raise ValueError(f"{what} entry {part!r} is not a natural number")
        values.append(int(part))
    return tuple(values)


def _load_universe(source: str | None) -> InputUniverse:
    if source is None or source == "default":
        return DEFAULT_UNIVERSE
    tapes = _read_json(source, f"universe {source}")
    try:
        if not isinstance(tapes, list) or not all(isinstance(t, list) for t in tapes):
            raise ValueError("must hold a JSON list of tapes, each a list")
        return InputUniverse.from_tapes(tuple(tuple(t) for t in tapes))
    except ValueError as exc:
        raise ValueError(f"universe {source}: {exc}") from None


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks to stdout, or to the file out, opened only once the
    first batch is ready: a run that fails before it leaves the file as it
    was."""
    runs = batches(chunks)
    first = next(runs)
    if out is None:
        sys.stdout.writelines(chain((first,), runs))
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chain((first,), runs))
    except OSError as exc:
        raise ValueError(f"--out: {exc}") from None


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _table_doc(run: _Run, key: str, header: list[str], rows: Iterable, *extra) -> Iterator[str]:
    """Rows as CSV, or as JSON objects listed under `key`."""
    config = run.config_dict(*extra)
    if run.fmt == "json":
        return json_list_doc({"config": config}, key, (dict(zip(header, row)) for row in rows))
    return csv_doc(config, header, rows)


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
        base.update(extra)
        return base

    def required(self, dest: str):
        """The value of an option this command cannot run without."""
        value = getattr(self.args, dest)
        if value is None:
            raise ValueError(f"{self.command} requires {_OPTIONS[dest][0][0]}")
        return value

    def context(self, k: int | None = None, table: EncodingTable | None = None) -> MeasureContext:
        from .measure import MeasureContext

        return MeasureContext(
            max_len=self.max_len,
            k=self.k if k is None else k,
            budget=self.budget,
            universe=self.universe,
            encoding=table or self.encoding,
        )


def _cmd_enumerate(run: _Run) -> Iterable[str]:
    programs = enumerate_programs(run.max_len, run.encoding)
    config = run.config_dict()
    if run.fmt == "json":
        return json_list_doc({"config": config}, "programs", (p.bits for p in programs))
    rows = ([i + 1, p.bits, p.length] for i, p in enumerate(programs))
    return csv_doc(config, ["index", "bits", "length"], rows)


def _cmd_kraft(run: _Run) -> Iterable[str]:
    mass = fraction_str(kraft_mass(run.max_len))
    if run.fmt == "json":
        return json_doc({"config": run.config_dict(), "kraft_mass": mass})
    if run.fmt == "csv":
        rows = [[run.max_len, run.encoding.variant_id, mass]]
        return csv_doc(run.config_dict(), ["max_len", "encoding", "kraft_mass"], rows)
    return (mass + "\n",)


def _cmd_schedule(run: _Run) -> Iterable[str]:
    tick = run.required("tick")
    i, s = schedule_pair(tick)
    config = run.config_dict(("tick", tick))
    if run.fmt == "json":
        return json_doc({"config": config, "tick": tick, "program_index": i, "step_index": s})
    if run.fmt == "csv":
        return csv_doc(config, ["tick", "program_index", "step_index"], [[tick, i, s]])
    return (f"({i},{s})\n",)


def _tick_rows(ticks: int, table: EncodingTable) -> Iterator[list]:
    # A private engine: the shared stream would keep every tick's event alive.
    engine = DovetailEngine(table)
    for tick in range(1, ticks + 1):
        index, _ = schedule_pair(tick)
        event = engine.tick()
        state = event.state
        yield [
            tick,
            index,
            event.code_bits,
            event.step_index,
            state.halted,
            " ".join(str(r) for r in state.registers),
            " ".join(str(v) for v in state.outputs),
        ]


def _cmd_dovetail(run: _Run) -> Iterable[str]:
    ticks = run.required("ticks")
    if ticks < 0:
        raise ValueError("ticks must be >= 0")
    header = ["tick", "program_index", "program_bits", "step_index", "halted", "registers", "outputs"]
    rows = _tick_rows(ticks, run.encoding)
    return _table_doc(run, "events", header, rows, ("ticks", ticks))


def _cmd_partition(run: _Run) -> Iterable[str]:
    classes = partition(enumerate_programs(run.max_len, run.encoding), run.universe, run.k)
    config = run.config_dict()
    if run.fmt == "csv":
        rows = (
            [c.index, c.key_digest, len(c.members), ";".join(p.bits for p in c.members)]
            for c in classes
        )
        return csv_doc(config, ["index", "canonical_key_digest", "size", "members"], rows)
    head = {"config": config, "k": run.k, "universe_id": run.universe.universe_id}
    items = (
        {
            "index": c.index,
            "canonical_key_digest": c.key_digest,
            "members": [p.bits for p in c.members],
        }
        for c in classes
    )
    return json_list_doc(head, "classes", items)


def _context_columns(run: _Run, k: int, table: EncodingTable | None = None) -> list:
    table = table or run.encoding
    return [run.max_len, k, run.budget, run.universe.universe_id, table.variant_id]


_CONTEXT_HEADER = ["L", "k", "T", "universe_id", "encoding_id"]


def _cmd_measure(run: _Run) -> Iterable[str]:
    from .measure import class_masses

    ctx = run.context()
    classes = ctx.partition(run.k)
    masses = class_masses(ctx, run.k)
    rows = (
        _context_columns(run, run.k) + [c.index, c.key_digest, len(c.members), fraction_str(mass)]
        for c, mass in zip(classes, masses)
    )
    header = _CONTEXT_HEADER + ["class_index", "key_digest", "member_count", "mass"]
    return _table_doc(run, "classes", header, rows)


def _cmd_decompose(run: _Run) -> Iterable[str]:
    from .measure import decomposition_check

    ctx = run.context()
    classes = ctx.partition(run.k)
    residuals = decomposition_check(ctx, run.k)
    rows = (
        _context_columns(run, run.k) + [c.index, fraction_str(r), r == 0]
        for c, r in zip(classes, residuals)
    )
    header = _CONTEXT_HEADER + ["class_index", "residual", "zero"]
    return _table_doc(run, "classes", header, rows)


def _relmeasure_rows(run: _Run, table: EncodingTable) -> list[list]:
    from .measure import class_masses

    # The context's top level is k + 1, so it would accept k = 0 and then
    # reject level 0 with a range the user never gave.
    if run.k < 1:
        raise ValueError("k must be >= 1")
    ctx = run.context(k=run.k + 1, table=table)
    parents, children = ctx.partition(run.k), ctx.partition(run.k + 1)
    mapping = refine(parents, children)
    parent_masses = class_masses(ctx, run.k)
    parent_digests = [parent.key_digest for parent in parents]
    rows = []
    for child, child_mass in zip(children, class_masses(ctx, run.k + 1)):
        parent = mapping[child.index]
        ratio = child_mass / parent_masses[parent]
        rows.append(
            _context_columns(run, run.k, table)
            + [child.index, parent, child.key_digest, parent_digests[parent], fraction_str(ratio)]
        )
    return rows


_RELMEASURE_HEADER = _CONTEXT_HEADER + [
    "child_index",
    "parent_index",
    "child_digest",
    "parent_digest",
    "relative_measure",
]


def _cmd_relmeasure(run: _Run) -> Iterable[str]:
    rows = _relmeasure_rows(run, run.encoding)
    return _table_doc(run, "pairs", _RELMEASURE_HEADER, rows)


def _cmd_levels(run: _Run) -> Iterable[str]:
    from .measure import divergence_report

    # -k is the context's top level; the report runs every level 1..k.
    rows_data = divergence_report(run.context())
    rows = (
        _context_columns(run, row.k)
        + [row.class_count, fraction_str(row.level_mass), fraction_str(row.cumulative)]
        for row in rows_data
    )
    header = _CONTEXT_HEADER + ["class_count", "level_mass", "cumulative"]
    return _table_doc(run, "levels", header, rows)


def _recording_doc(run: _Run, extra: tuple[tuple[str, object], ...], fields: dict):
    """A recording command's document: its config, with extra, then fields."""
    from .replay import document

    return document({"config": run.config_dict(*extra), **fields})


def _cmd_record(run: _Run) -> Iterable[str]:
    from .replay import record, recording_to_data

    program = decode(run.required("program"), run.encoding)
    tape = _parse_naturals(run.args.tape, "tape")
    rec = record(program, tape, run.k)
    return _recording_doc(run, (("tape", list(tape)),), recording_to_data(rec))


def _load_recording(run: _Run) -> Recording:
    from .replay import recording_from_data

    path = run.required("recording")
    data = _read_json(path, f"recording {path}")
    if not isinstance(data, dict):
        raise ValueError(f"recording {path} must hold a JSON object")
    config = data.get("config", {})
    if not isinstance(config, dict):
        raise ValueError(f"recording {path}: 'config' must be a JSON object, got {config!r}")
    variant = config.get("encoding", run.encoding.variant_id)
    choices = _OPTIONS["encoding"][2]
    if variant not in choices:
        raise ValueError(
            f"recording config 'encoding' must be one of {', '.join(choices)}, got {variant!r}"
        )
    if run.args.encoding not in (None, variant):  # a flag or --config value
        raise ValueError(
            f"recording {path} is under encoding {variant}, not --encoding {run.args.encoding}"
        )
    run.encoding = get_table(variant)  # the config reports the recording's encoding
    try:
        return recording_from_data(data, run.encoding)
    except DecodeError as exc:
        raise ValueError(f"recording {path}: 'program_bits' does not decode: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"recording {path}: {exc}") from None


def _cmd_replay(run: _Run) -> Iterable[str]:
    from .replay import playback

    rec = _load_recording(run)
    fields = {"k": rec.k, "trace": playback(rec)}
    return _recording_doc(run, (("recording", run.args.recording),), fields)


def _cmd_hybrid(run: _Run) -> Iterable[str]:
    from .replay import hybrid_run

    rec = _load_recording(run)
    tape = _parse_naturals(run.args.tape, "tape")
    result = hybrid_run(rec, tape)
    extra = (("recording", run.args.recording), ("tape", list(tape)))
    return _recording_doc(run, extra, {"switch_step": result.switch_step, "trace": result.trace})


def _cmd_sever(run: _Run) -> Iterable[str]:
    from .replay import sever_and_project

    rec = _load_recording(run)
    steps = _parse_naturals(run.args.severed, "--severed")
    tape = _parse_naturals(run.args.tape, "tape")
    result = sever_and_project(rec, steps, tape, run.universe)
    extra = (
        ("recording", run.args.recording),
        ("tape", list(tape)),
        ("severed", sorted(set(steps))),
    )
    fields = {"counterfactually_equivalent": result.equivalent, "trace": result.trace}
    return _recording_doc(run, extra, fields)


def _cmd_invariance(run: _Run) -> Iterable[str]:
    """Relative measures side by side under encodings A and B; nothing is
    asserted about their agreement, the table is the experiment."""
    rows = []
    for variant in ("A", "B"):
        rows.extend(_relmeasure_rows(run, get_table(variant)))
    return _table_doc(run, "pairs", _RELMEASURE_HEADER, rows)


# Every command, as name: (handler, the formats it writes, default first).
_COMMANDS = {
    "enumerate": (_cmd_enumerate, ("json", "csv")),
    "kraft": (_cmd_kraft, ("plain", "csv", "json")),
    "schedule": (_cmd_schedule, ("plain", "csv", "json")),
    "dovetail": (_cmd_dovetail, ("csv", "json")),
    "partition": (_cmd_partition, ("json", "csv")),
    "measure": (_cmd_measure, ("csv", "json")),
    "decompose": (_cmd_decompose, ("csv", "json")),
    "relmeasure": (_cmd_relmeasure, ("csv", "json")),
    "levels": (_cmd_levels, ("csv", "json")),
    "record": (_cmd_record, ("json",)),
    "replay": (_cmd_replay, ("json",)),
    "hybrid": (_cmd_hybrid, ("json",)),
    "sever": (_cmd_sever, ("json",)),
    "invariance": (_cmd_invariance, ("csv", "json")),
}


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code: 0 for a run or --help, 1
    for a usage error, 2 for a validation failure, among them a file that
    cannot be read or written and a mistyped --config value.

    Called bare, as the `udlab` script and `python -m udlab.cli` call it,
    main is the whole process, and it freezes the garbage collector before
    it returns: shut-down then skips collecting what the exit frees anyway,
    after it has run the atexit handlers and flushed stdout and stderr.  A
    caller that passes argv keeps its collector as it found it.
    """
    code = _main(sys.argv[1:] if argv is None else argv)
    if argv is None:
        gc.freeze()
    return code


def _main(argv: list[str]) -> int:
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        _apply_config_file(args)
        handler, formats = _COMMANDS[args.command]
        if args.fmt not in (None, *formats):
            only = "/".join(formats).upper()
            raise ValueError(f"{args.command} writes {only} only, not --format {args.fmt}")
        run = _Run(args, formats[0])
        _emit(handler(run), run.out)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help prints and exits 0
        return 0 if exc.code in (0, None) else 1
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
