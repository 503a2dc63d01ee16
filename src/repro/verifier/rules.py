"""The verifier rule registry.

``MODULE_RULES`` run once per parsed file; ``TREE_RULES`` run once over
the whole module set.  ``RULE_CATALOG`` is the operator-facing list the
CLI prints with ``repro verify --rules``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.verifier.engine import ModuleRule, TreeRule
from repro.verifier.flow import check_flow
from repro.verifier.rules_determinism import check_determinism
from repro.verifier.rules_exhaustiveness import check_exhaustiveness
from repro.verifier.rules_layering import check_layering
from repro.verifier.rules_protocol import check_protocol

MODULE_RULES: List[ModuleRule] = [
    check_determinism,
    check_protocol,
    check_layering,
]

TREE_RULES: List[TreeRule] = [
    check_exhaustiveness,
    check_flow,
]

RULE_CATALOG: List[Tuple[str, str]] = [
    ("D103", "directory listing (os.listdir/scandir/walk, glob.glob/"
             "iglob, Path.iterdir/glob/rglob) used without sorted()"),
    ("D202", "iteration over a set-typed local/attribute in "
             "repro.nt/repro.workload/repro.replay outside sorted()"),
    ("P301", "IRP handler path neither completes nor forwards the packet"),
    ("P302", "IRP handler path completes/forwards more than once "
             "(use-after-complete)"),
    ("L501", "repro.analysis/repro.stats imports repro.nt outside the "
             "tracing read-side whitelist"),
    ("L502", "repro.nt imports an upper layer (workload/analysis/replay/"
             "cli/verifier)"),
    ("L503", "repro.common imports another repro package"),
    ("T401", "IrpMajor member missing from records.py record emission"),
    ("T402", "FastIoOp member missing from records.py record emission"),
    ("T403", "IrpMajor member missing from FileSystemDriver._IRP_HANDLERS"),
    ("T404", "FastIoOp member missing from FileSystemDriver._FASTIO_HANDLERS"),
    ("T405", "SpanCause member never stamped by any instrumentation site"),
    ("T406", "StorageKind member missing from StorageDriver's "
             "_SERVICE_HANDLERS table"),
    ("T407", "StorageKind member not used by any PERSONALITIES entry"),
    ("F601", "wall-clock/entropy source: a direct call anywhere "
             "(time.time, datetime.now, random.*, numpy legacy global "
             "RNG, unseeded Random()/default_rng(), uuid1/4, os.urandom, "
             "secrets.*), and in repro.nt/repro.workload/repro.replay any "
             "time.* call, also through the call graph (reported at the "
             "earliest sim-scope frame)"),
    ("F602", "identity-dependent value (id(), default object hash) "
             "flows into an iterated/ordered/serialized container "
             "(a set, or an id()-keyed dict's keys) across function "
             "boundaries — the dirty_maps bug class"),
    ("U801", "ticks/bytes/seconds quantities mixed in arithmetic, "
             "comparison, or a call argument without an explicit "
             "conversion constant"),
    ("U802", "float-producing expression flows into tick-valued state "
             "in the exact-arithmetic layers (repro.nt.storage, "
             "repro.nt.cache, repro.common.clock)"),
]
