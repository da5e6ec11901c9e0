"""udlab: an executable laboratory for program-weight measures over a
prefix-free counter machine with observable emulation.

The pieces compose bottom-up, one submodule each: a bit-exact
self-delimiting encoding (udlab.encoding), a deterministic stepper with
EXEC/DVT emulation events (udlab.machine), exhaustive canonical enumeration
with Kraft masses (udlab.enumeration), a fair dovetailing schedule
(udlab.dovetailer), k-step counterfactual equivalence partitions
(udlab.equivalence), exact-rational class measures with their recursive
decomposition (udlab.measure), and a record/replay harness for
state-identical but counterfactually inequivalent systems (udlab.replay).

The package root re-exports nothing: import names from the submodules.
Importing udlab alone loads none of them, so each CLI command loads only
the modules it runs.
"""

__version__ = "0.1.0"
