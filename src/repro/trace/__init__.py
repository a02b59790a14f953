"""Address-trace tooling: record, store, and replay reference streams.

The paper's own methodology was trace-driven ("Trace-driven simulation
of the MicroVAX CPU, carried out for us by Deborrah Zukowski...").
This package provides the equivalent loop for the reproduction: any
reference source can be recorded to a trace file, and a trace file can
drive a CPU — so cache/protocol experiments can be replayed exactly,
compared across protocols on identical streams, or fed from externally
produced traces.
"""

from repro.trace.format import TraceRecord, decode_record, encode_record
from repro.trace.recorder import RecordingSource
from repro.trace.replay import TraceSource, load_trace, save_trace
from repro.trace.stats import TraceReduction, reduce_trace, working_set_curve

__all__ = [
    "RecordingSource",
    "TraceRecord",
    "TraceReduction",
    "TraceSource",
    "decode_record",
    "encode_record",
    "load_trace",
    "reduce_trace",
    "save_trace",
    "working_set_curve",
]
