"""Causal request tracing, flight recording and postmortems.

Three layers, each usable alone:

- :mod:`repro.causal.context` — trace/span identity allocated by the
  kernel and propagated through thread creation, wakeups, scheduling,
  RPC and DMA (carried on the existing telemetry events).
- :mod:`repro.causal.assemble` — span-tree assembly and the exact-sum
  critical-path decomposition: per-request latency split into run /
  sched_wait / bus_arb_wait / transfer / blocked_on_lock segments that
  sum exactly to the turnaround, with streaming percentiles per class.
- :mod:`repro.causal.recorder` / :mod:`~repro.causal.crash` /
  :mod:`~repro.causal.postmortem` — the always-on flight recorder
  (bounded ring, low-rate categories only) and the deterministic
  ``firefly-crash/1`` report rendered by ``firefly-sim postmortem``.
"""

from repro.causal.assemble import (REQUEST_BOUNDS, SEGMENTS, RequestRecord,
                                   RequestTracer, trace_requests)
from repro.causal.context import ContextAllocator, TraceContext
from repro.causal.crash import CRASH_SCHEMA, capture_crash, find_cycle
from repro.causal.postmortem import (PINNED_DEADLOCK_SEED, extract_crash,
                                     render_crash_report, report_digest,
                                     run_pinned_deadlock, validate_crash)
from repro.causal.recorder import (DEFAULT_CAPACITY, LOW_RATE_CATEGORIES,
                                   FlightRecorder)

__all__ = [
    "CRASH_SCHEMA",
    "ContextAllocator",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "LOW_RATE_CATEGORIES",
    "PINNED_DEADLOCK_SEED",
    "REQUEST_BOUNDS",
    "RequestRecord",
    "RequestTracer",
    "SEGMENTS",
    "TraceContext",
    "capture_crash",
    "extract_crash",
    "find_cycle",
    "render_crash_report",
    "report_digest",
    "run_pinned_deadlock",
    "trace_requests",
    "validate_crash",
]
