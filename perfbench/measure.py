"""One measured run of one workload: time it, check it, digest it.

The timed region is the workload's public ``run`` call and nothing
else: building the machine comes before it, and the correctness
check, the digest and the per-layer counts come after it.

A traced run additionally profiles the measurement window (from the
moment the machine opens its window to the end of ``run``) and counts
the cache's fast-path outcomes.  Both hooks live in this file, so
:mod:`layers` can leave their own time out of the layer shares.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import pstats
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import repro.common.events
import repro.common.stats
from repro.cache.cache import SnoopyCache

import layers
from workloads import Built, Outcome, Workload, check

#: Simulator entry points that schedule work (``events.scheduled``).
SCHEDULING_CALLS = ("timeout", "event", "process", "call_at")

_CACHE_COUNTERS = ("ifetch", "dread", "dwrite")
_DMA_COUNTERS = ("dma.read_hit", "dma.read_miss",
                 "dma.write_hit", "dma.write_miss")


@dataclass
class Rep:
    """Everything one run measured."""

    wall_s: float                  # the whole run() call
    window_wall_s: float           # from window open to the end of run()
    cycles: int                    # simulated: warm-up + window
    instructions: int              # retired by all CPUs, warm-up + window
    digest: str
    observed: Dict[str, float]     # the quantities behind the errors
    counts: Dict[str, float]       # simulated per-layer values
    problems: Tuple[str, ...] = ()
    profile: Dict[str, float] = field(default_factory=dict)
    #: Reference-host seconds per host second around the run (see
    #: :mod:`calibrate`); None for a run the caller did not bracket.
    host_scale: Optional[float] = None


class _Window:
    """Snapshots taken the moment the machine opens its window.

    Installed on the machine instance in place of ``mark_window``; the
    workloads' own ``run`` methods call it after the warm-up.
    """

    def __init__(self, built: Built,
                 profiler: Optional[cProfile.Profile] = None,
                 fast: Optional["_FastPathCounter"] = None) -> None:
        self.opened_at: Optional[float] = None
        self.topaz: Dict[str, int] = {}
        self.grant_wait = (0, 0.0)
        self.fast = (0, 0)
        original = built.machine.mark_window
        kernel = built.kernel
        wait = built.machine.mbus.grant_wait

        def mark_window() -> None:
            original()
            if kernel is not None:
                self.topaz = kernel.stats.totals()
            self.grant_wait = (wait.count, wait.mean * wait.count)
            if fast is not None:
                self.fast = (fast.attempts, fast.served)
            self.opened_at = time.perf_counter()
            if profiler is not None:
                profiler.enable()

        built.machine.mark_window = mark_window


class _FastPathCounter:
    """Counts the cache's non-suspending hit paths and their outcomes."""

    def __init__(self) -> None:
        self.attempts = 0
        self.served = 0
        self._saved = {}

    def install(self) -> None:
        for name in ("cpu_read_fast", "cpu_write_fast"):
            original = getattr(SnoopyCache, name)
            self._saved[name] = original
            setattr(SnoopyCache, name, self._counted(original))

    def remove(self) -> None:
        for name, original in self._saved.items():
            setattr(SnoopyCache, name, original)
        self._saved.clear()

    def _counted(self, original):
        def counted(cache, *args):
            served = original(cache, *args)
            self.attempts += 1
            self.served += served
            return served
        return counted


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _topaz_window(built: Built, window: _Window) -> Dict[str, int]:
    if built.kernel is None:
        return {}
    totals = built.kernel.stats.totals()
    return {key: value - window.topaz.get(key, 0)
            for key, value in totals.items()}


def digest(built: Built, out: Outcome, topaz: Dict[str, int]) -> str:
    """Hash of every simulated output of the window.

    Covers the window ``MachineMetrics`` and the windowed statistics of
    every CPU, cache, the MBus, the Topaz kernel and the Ethernet.  A
    change that only speeds the simulator up leaves it unchanged.
    """
    machine = built.machine
    document = {
        "metrics": out.metrics.to_dict(),
        "cpus": [cpu.stats.windowed() for cpu in machine.cpus],
        "caches": [cache.stats.windowed() for cache in machine.caches],
        "mbus": machine.mbus.stats.windowed(),
        "topaz": topaz,
        "ethernet": (built.rpc.io.ethernet.stats.windowed()
                     if built.rpc is not None else {}),
        "rpc": [out.goodput_mbit, out.rpc_calls, out.wire_util],
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def layer_counts(built: Built, out: Outcome, window: _Window,
                 topaz: Dict[str, int]) -> Dict[str, float]:
    """Simulated per-layer values of the window (identical per seed)."""
    m = out.metrics
    machine = built.machine
    instructions = sum(c.instructions for c in m.cpus)
    stall = sum(cpu.stats.get_windowed("bus_stall_cycles")
                for cpu in machine.cpus)
    hits = misses = probes = snoop_hits = dma = 0
    for cache in machine.caches:
        counters = cache.stats.windowed()
        hits += sum(counters.get(f"{k}.hit", 0) for k in _CACHE_COUNTERS)
        misses += sum(counters.get(f"{k}.miss", 0) for k in _CACHE_COUNTERS)
        probes += counters.get("snoop.probes", 0)
        snoop_hits += counters.get("snoop.hits", 0)
        dma += sum(counters.get(k, 0) for k in _DMA_COUNTERS)
    wait = machine.mbus.grant_wait
    waits = wait.count - window.grant_wait[0]
    wait_cycles = wait.mean * wait.count - window.grant_wait[1]
    acquires = topaz.get("lock_acquires", 0)
    contended = topaz.get("lock_contended", 0)
    return {
        "processor.instructions": instructions,
        "processor.tpi": m.mean_tpi,
        "processor.idle_frac": _ratio(sum(c.idle_fraction for c in m.cpus),
                                      len(m.cpus)),
        "processor.stall_per_instr": _ratio(stall, instructions),
        "cache.refs": hits + misses,
        "cache.miss_rate": _ratio(misses, hits + misses),
        "cache.snoop_probes": probes,
        "cache.snoop_hit_frac": _ratio(snoop_hits, probes),
        "cache.dma_ops": dma,
        "mbus.transactions": m.bus_ops,
        "mbus.load": m.bus_load,
        "mbus.wait_per_txn": _ratio(wait_cycles, waits),
        "mbus.cache_supplied_frac": _ratio(m.bus_reads_cache, m.bus_reads),
        "io.qbus_load": m.qbus_load,
        "io.wire_util": out.wire_util,
        "io.rpc_calls": out.rpc_calls,
        "topaz.context_switches": topaz.get("context_switches", 0),
        "topaz.blocks": topaz.get("blocks", 0),
        "topaz.migrations": topaz.get("migrations", 0),
        "topaz.lock_contended_frac": _ratio(contended, acquires + contended),
    }


def _profile_metrics(profiler: cProfile.Profile,
                     fast: _FastPathCounter,
                     window: _Window) -> Dict[str, float]:
    self_time, calls = layers.aggregate(pstats.Stats(profiler))
    result = {f"{layer}.self_share": share
              for layer, share in layers.shares(self_time).items()}
    result["events.scheduled"] = layers.count_calls(
        calls, repro.common.events.__file__, SCHEDULING_CALLS)
    result["stats.calls"] = layers.count_calls(
        calls, repro.common.stats.__file__)
    attempts = fast.attempts - window.fast[0]
    result["cache.fast_hit_frac"] = _ratio(fast.served - window.fast[1],
                                           attempts)
    return result


def run_once(workload: Workload, seed: int, trace: bool = False) -> Rep:
    """Build, run (timed) and check one instance of ``workload``.

    An exception raised inside the simulation — such as the exerciser's
    own counter self-check — propagates to the caller, which counts the
    run as failed.
    """
    built = workload.build(seed)
    profiler = cProfile.Profile() if trace else None
    fast = _FastPathCounter() if trace else None
    window = _Window(built, profiler, fast)
    if fast is not None:
        fast.install()
    try:
        started = time.perf_counter()
        out = workload.run(built, workload.warmup, workload.measure)
        ended = time.perf_counter()
    finally:
        if profiler is not None:
            profiler.disable()
        if fast is not None:
            fast.remove()

    topaz = _topaz_window(built, window)
    rep = Rep(
        wall_s=ended - started,
        window_wall_s=ended - window.opened_at,
        cycles=workload.warmup + workload.measure,
        instructions=sum(cpu.stats["instructions"].total
                         for cpu in built.machine.cpus),
        digest=digest(built, out, topaz),
        observed=workload.observe(out),
        counts=layer_counts(built, out, window, topaz),
        problems=check(built, out),
    )
    if trace:
        rep.profile = _profile_metrics(profiler, fast, window)
    return rep
