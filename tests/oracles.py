"""Per-pair oracles for the one-pass routes of the package.

The paper's definitions are tests on one pair at a time: whether two
programs agree on every tape, whether a program reaches one class, and what
a DVT host sees tick by tick.  The package answers them for a whole level at
once (ClassIndex, class_masses, divergence_report, stream_tick,
reached_prefix); these helpers answer them one pair at a time, or one level
at a time, so the tests can check the one route against the definition.
"""

from fractions import Fraction

from builders import member_bits
from udlab import dovetailer
from udlab.dovetailer import MAX_TICKS, schedule_pair, stream_tick
from udlab.encoding import TABLE_A, decode
from udlab.equivalence import _ENCODER, _tail_json, level_id, trace_family
from udlab.machine import run_events, run_trace, step_events
from udlab.measure import LevelRow, class_masses


def _trace_json(trace, k, table, ticks):
    """The JSON of a trace's first k states; a settled trace shorter than k
    goes on as settled_tail says (_tail_json)."""
    if len(trace) >= k:
        return _ENCODER.encode(trace[:k])
    tail = _tail_json(trace[-1], k - len(trace), table, ticks)
    return _ENCODER.encode(trace)[:-1] + "," + tail + "]"


def key_parts(traces, k, table, ticks):
    """Each trace's JSON over its first k states, in tape order, encoding
    each distinct trace object once and sharing its string.  `ticks` caches
    the JSON of the stream's ticks under `table` (_tail_json)."""
    encoded = {}
    for trace in traces:
        if id(trace) not in encoded:
            encoded[id(trace)] = _trace_json(trace, k, table, ticks)
    return tuple(encoded[id(trace)] for trace in traces)


def joined_key(parts):
    """The family's JSON, separators (",", ":"), joined from its parts."""
    return "[" + ",".join(parts) + "]"


def family_key(program, universe, k):
    """The program's k-step trace family over the universe, as JSON."""
    return joined_key(key_parts(trace_family(program, universe, k), k, program.encoding, []))


_TICKS = {}  # the oracle's own tick JSON per table, apart from the package's


def class_parts(cls):
    """A class's key parts, each tape's array built whole from the creator's
    traces the class carries; its heads are not read."""
    table = cls.members[0].encoding
    return key_parts(cls.traces, cls.k, table, _TICKS.setdefault(table, []))


def class_key(cls):
    """A class's whole key, its family's JSON (class_parts)."""
    return joined_key(class_parts(cls))


def every_level_ids(programs, universe, top):
    """Program bits -> class id at each level 1..top, interned at every
    level from the program's full traces: the route ClassIndex took before
    families settled.  A level-j id interns (level j-1 id, step-j states,
    or the one state when the tapes agree), so two programs share it
    exactly when their j-step families are equal."""
    interned = {}
    ids = {}
    for program in programs:
        previous = None
        levels = []
        for step in zip(*trace_family(program, universe, top)):
            step = step[0] if step.count(step[0]) == len(step) else step
            previous = interned.setdefault((previous, step), len(interned))
            levels.append(previous)
        ids[program.bits] = tuple(levels)
    return ids


def counterfactually_equivalent(p, q, universe, k):
    """True iff p and q produce identical k-step traces on every tape."""
    return all(run_trace(p, tape, k) == run_trace(q, tape, k) for tape in universe.tapes)


def u_weight(program, cls, ctx):
    """1 when the program reaches the class within the context budget, else 0.

    Membership counts as reaching (a program trivially emulates itself).
    Otherwise the program's event summary must show some emulated code at
    >= k steps whose k-step family key, built afresh rather than read from
    the class index, matches the class; that code's membership is judged on
    demand, even when it is longer than the length bound.
    """
    # The package measures only the classes a context makes; a class handed
    # in from elsewhere is checked here, or it would be measured under the
    # wrong level, universe or encoding.
    if cls.k > ctx.k:
        raise ValueError(f"class level {cls.k} is above the context's levels 1..{ctx.k}")
    if cls.universe_id != ctx.universe.universe_id:
        raise ValueError(f"class universe {cls.universe_id!r} is not the context's")
    if any(p.encoding != ctx.encoding for p in cls.members):
        raise ValueError(f"class {cls.index} is under another encoding than {ctx.encoding!r}")
    if program.bits in member_bits(cls):
        return 1
    key = class_key(cls)
    for code_bits, max_step in merged_events(program, ctx.budget).items():
        if max_step >= cls.k:
            code = decode(code_bits, ctx.encoding)
            if family_key(code, ctx.universe, cls.k) == key:
                return 1
    return 0


def relative_measure(child, parent, ctx):
    """mass(child at k+1) / mass(parent at k), each read from its level's
    masses at the class's index in the context's partition."""
    if child.k != parent.k + 1:
        raise ValueError(f"child must be one level below parent (got {child.k} vs {parent.k})")
    for cls in (child, parent):
        assert ctx.partition(cls.k)[cls.index] == cls, (cls.k, cls.index)
    return class_masses(ctx, child.k)[child.index] / class_masses(ctx, parent.k)[parent.index]


def level_rows(ctx):
    """divergence_report's rows, program by program: a program adds its
    weight once per class of the level it reaches, its own class included,
    from its whole reach set, its summary's ids merged with its prefix."""
    rows, cumulative = [], Fraction(0)
    for k in range(1, ctx.k + 1):
        ids, total = set(), 0
        for p in ctx.programs:
            own = level_id(ctx.class_ids(p), k)
            ids.add(own)
            summary_ids, prefix = ctx.reached_ids(p, k)
            reached = summary_ids | set(prefix)
            total += 2 ** (ctx.max_len - p.length) * (len(reached) + (own not in reached))
        mass = Fraction(total, 2**ctx.max_len)
        cumulative += mass
        rows.append(LevelRow(k, len(ids), mass, cumulative))
    return rows


def dovetail_run(ticks, table=TABLE_A):
    """The events of the shared stream's first `ticks` ticks: each tick's
    event, preceded by the events nested in it, innermost first, exactly as
    a host program executing DVT would produce."""
    if ticks < 0:
        raise ValueError("ticks must be >= 0")
    return [event for t in range(1, ticks + 1) for event in step_events(stream_tick(t, table))]


def dovetail_summary(ticks, table=TABLE_A):
    """Code bits -> the highest emulated step index among all the events of
    the first `ticks` ticks (nested ones included), in order of first
    appearance; see udlab.dovetailer's docstring for why this is closed
    form.  The same argument places every code's first appearance at its
    own first top-level tick, so the order is the enumeration order."""
    if ticks < 0:
        raise ValueError("ticks must be >= 0")
    if ticks > MAX_TICKS:
        raise ValueError(
            f"ticks {ticks} is above {MAX_TICKS}, the last tick whose programs enumeration holds"
        )
    if ticks == 0:
        return {}
    # The last tick runs step s of program i on diagonal d = i + s.  By then
    # programs 1..i have run d - j steps each, programs i+1..d-2 d - 1 - j.
    i, s = schedule_pair(ticks)
    d = i + s
    stream = dovetailer.program_stream(table)
    return {
        stream.nth(j).bits: d - j if j <= i else d - 1 - j for j in range(1, max(i, d - 2) + 1)
    }


def merged_events(program, steps, tape=()):
    """The whole summary of a run_events run: its own summary with the
    stream's summary at its dovetailer's ticks folded in, each code at its
    highest step, in order of first appearance."""
    summary, ticks = run_events(program, steps, tape)
    if ticks:
        for code_bits, step_index in dovetail_summary(ticks, program.encoding).items():
            if step_index > summary.get(code_bits, 0):
                summary[code_bits] = step_index
    return summary
