"""Per-layer attribution of a traced run's host time.

The traced run profiles the measurement window with :mod:`cProfile`
and this module folds the per-function self times into the layers of
the simulator, named after its ``repro`` packages.  cProfile charges
every Python call, so layers made of many small calls (events, stats)
read high; the shares serve attribution, not speed claims, which come
from the untraced runs.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Iterable, Tuple

import repro

#: Layers in reporting order.  Every profiled function lands in exactly
#: one of them, so the shares sum to 1.
LAYERS = ("events", "processor", "cache", "mbus", "io", "topaz",
          "memory", "stats", "common", "other")

# Module path (relative to the ``repro`` package, without ".py") ->
# layer.  The first matching prefix wins, so specific modules come
# before their package.  A path matching none is ``other``: stdlib,
# builtins, generator glue, and the machine builder and workload
# bodies in ``repro.system`` / ``repro.workloads``.
_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("common/events", "events"),
    ("common/stats", "stats"),
    ("common/", "common"),
    ("processor/", "processor"),
    ("cache/", "cache"),
    ("protodsl/", "cache"),
    ("bus/mbus", "mbus"),
    ("bus/qbus", "io"),
    ("io/", "io"),
    ("topaz/rpc", "io"),
    ("topaz/", "topaz"),
    ("memory/", "memory"),
)

_REPRO = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_HERE = os.path.dirname(os.path.abspath(__file__))


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    path = os.path.abspath(filename)
    if not path.startswith(_REPRO):
        return "other"
    module = os.path.splitext(path[len(_REPRO):])[0].replace(os.sep, "/")
    for prefix, layer in _PREFIXES:
        if module.startswith(prefix):
            return layer
    return "other"


def is_hook(filename: str) -> bool:
    """Whether a profiled function is the benchmark's own tracing code.

    The counting hooks the traced run installs live in this directory;
    their time is tracing overhead, not any layer's, and is left out of
    the shares (it is part of ``trace.overhead``).
    """
    return os.path.dirname(os.path.abspath(filename)) == _HERE


def aggregate(stats: pstats.Stats) -> Tuple[Dict[str, float],
                                             Dict[Tuple[str, str], int]]:
    """Fold a profile into (layer -> self seconds, (file, func) -> calls).

    Builtins (``~`` filenames) count as ``other``.  Call counts are kept
    per function so callers can count work at named entry points.
    """
    self_time = {layer: 0.0 for layer in LAYERS}
    calls: Dict[Tuple[str, str], int] = {}
    for (filename, _line, func), entry in stats.stats.items():
        ncalls, tottime = entry[1], entry[2]
        if filename == "~":
            self_time["other"] += tottime
        elif not is_hook(filename):
            self_time[layer_of(filename)] += tottime
            key = (os.path.abspath(filename), func)
            calls[key] = calls.get(key, 0) + ncalls
    return self_time, calls


def shares(self_time: Dict[str, float]) -> Dict[str, float]:
    """Each layer's fraction of the total self time."""
    total = sum(self_time.values())
    return {layer: (self_time[layer] / total if total else 0.0)
            for layer in LAYERS}


def count_calls(calls: Dict[Tuple[str, str], int], module_file: str,
                funcs: Iterable[str] = ()) -> int:
    """Calls into ``module_file``: to the named functions, or to all."""
    target = os.path.abspath(module_file)
    wanted = set(funcs)
    return sum(n for (filename, func), n in calls.items()
               if filename == target and (not wanted or func in wanted))
