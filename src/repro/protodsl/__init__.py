"""Guarded-action protocol DSL and its static checker pipeline.

One :class:`~repro.protodsl.defs.ProtocolDef` generates everything the
rest of the system needs from a coherence protocol:

- the runtime ``CoherenceProtocol`` subclass ``SnoopyCache`` drives
  (:class:`repro.cache.protocols.dsl.DSLProtocol`),
- the :class:`~repro.protodsl.defs.ProtocolFacts` table the cache fast
  paths and DMA hook gate on, and
- the single-line transition table derived without a simulator
  (:func:`repro.protodsl.oracle.line_table`);

with the static **guard checker** (:mod:`repro.protodsl.check`)
proving exhaustiveness, disjointness, reachability and fact
consistency over the finite guard space before any simulation runs.

Import note: this package deliberately re-exports only the simulator-
independent pieces (definitions and checker).  The runtime lives in
the protocols package and the table in :mod:`repro.protodsl.oracle`
— import that submodule directly — because both depend on the cache
layer, and pulling them in here would make the package unimportable
from inside that layer.
"""

from repro.protodsl.check import GuardFinding, check_guards
from repro.protodsl.defs import (
    GUARD_ALIGNED_LONGWORD,
    GUARD_ALWAYS,
    GUARD_NOT_ALIGNED_LONGWORD,
    AcquireThenWrite,
    AsWriteMiss,
    Goto,
    Invalidate,
    ProtocolDef,
    ProtocolFacts,
    ReadForOwnership,
    ReadMissRule,
    ReadThenWrite,
    SilentWrite,
    SnoopRule,
    Stay,
    TakeData,
    WriteAllocate,
    WriteHitRule,
    WriteMissRule,
    WriteNoAllocate,
    WriteThrough,
)

__all__ = [
    "AcquireThenWrite",
    "AsWriteMiss",
    "GUARD_ALIGNED_LONGWORD",
    "GUARD_ALWAYS",
    "GUARD_NOT_ALIGNED_LONGWORD",
    "Goto",
    "GuardFinding",
    "Invalidate",
    "ProtocolDef",
    "ProtocolFacts",
    "ReadForOwnership",
    "ReadMissRule",
    "ReadThenWrite",
    "SilentWrite",
    "SnoopRule",
    "Stay",
    "TakeData",
    "WriteAllocate",
    "WriteHitRule",
    "WriteMissRule",
    "WriteNoAllocate",
    "WriteThrough",
    "check_guards",
]
