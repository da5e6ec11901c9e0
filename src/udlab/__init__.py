"""udlab: an executable laboratory for program-weight measures over a
prefix-free counter machine with observable emulation.

The pieces compose bottom-up: a bit-exact self-delimiting encoding, a
deterministic stepper with EXEC/DVT emulation events, exhaustive canonical
enumeration with Kraft masses, a fair dovetailing schedule, k-step
counterfactual equivalence partitions, exact-rational class measures with
their recursive decomposition, and a record/replay harness for
state-identical but counterfactually inequivalent systems.
"""

from .encoding import (
    DecodeError,
    EncodingTable,
    Program,
    TABLE_A,
    TABLE_B,
    TrailingBits,
    Truncated,
    UnbalancedLoop,
    UnknownOpcode,
    decode,
    encode_instructions,
    from_instructions,
    get_table,
)
from .enumeration import enumerate_programs, kraft_mass, nth_program, program_stream
from .equivalence import (
    DEFAULT_UNIVERSE,
    ClassIndex,
    EquivClass,
    InputUniverse,
    RefinementViolation,
    counterfactually_equivalent,
    partition,
    refine,
    trace_family,
)
from .dovetailer import DovetailEngine, canonical_dvt_bits, dovetail_run, schedule_pair
from .machine import (
    Configuration,
    EmulationRef,
    SemanticState,
    run_events,
    run_trace,
    step,
    step_count,
    step_events,
)
from .measure import (
    EmptyClass,
    LevelRow,
    MeasureContext,
    MeasureValue,
    NotARefinement,
    class_masses,
    decomposition_check,
    divergence_report,
    fraction_str,
    level_mass,
    measure_class,
    relative_measure,
    u_weight,
)
from .replay import (
    HybridResult,
    Recording,
    SeverancePlan,
    SeveranceResult,
    hybrid_run,
    playback,
    record,
    recording_from_data,
    recording_to_data,
    sever_and_project,
)

__version__ = "0.1.0"

__all__ = [
    "ClassIndex",
    "Configuration",
    "DEFAULT_UNIVERSE",
    "DecodeError",
    "DovetailEngine",
    "EmptyClass",
    "EmulationRef",
    "EncodingTable",
    "EquivClass",
    "HybridResult",
    "InputUniverse",
    "LevelRow",
    "MeasureContext",
    "MeasureValue",
    "NotARefinement",
    "Program",
    "Recording",
    "RefinementViolation",
    "SemanticState",
    "SeverancePlan",
    "SeveranceResult",
    "TABLE_A",
    "TABLE_B",
    "TrailingBits",
    "Truncated",
    "UnbalancedLoop",
    "UnknownOpcode",
    "canonical_dvt_bits",
    "class_masses",
    "counterfactually_equivalent",
    "decode",
    "decomposition_check",
    "divergence_report",
    "dovetail_run",
    "encode_instructions",
    "enumerate_programs",
    "fraction_str",
    "from_instructions",
    "get_table",
    "hybrid_run",
    "kraft_mass",
    "level_mass",
    "measure_class",
    "nth_program",
    "partition",
    "playback",
    "program_stream",
    "record",
    "recording_from_data",
    "recording_to_data",
    "refine",
    "relative_measure",
    "run_events",
    "run_trace",
    "schedule_pair",
    "sever_and_project",
    "step",
    "step_count",
    "step_events",
    "trace_family",
    "u_weight",
]
