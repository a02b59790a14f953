"""Deterministic parallel trial executor.

``firefly-sim bench``, ``firefly-sim chaos`` and ``firefly-sim sweep``
all reduce to the same shape of work: an ordered list of *(scenario,
seed)* trials, each of which builds its entire simulated world from its
seed and returns plain data.  Trials share no mutable state — every
RNG stream is derived from the trial's own seed inside the trial — so
they can run in worker processes without changing a single simulated
bit.  This module provides that fan-out:

- :func:`run_ordered` — execute a list of picklable specs through a
  module-level worker function, either in-process (``jobs <= 1``) or
  on a :class:`~concurrent.futures.ProcessPoolExecutor`, returning
  results **in spec order** regardless of completion order.  With the
  same specs, ``jobs=N`` and ``jobs=1`` produce identical result
  lists (wall-clock timing fields aside, which are measurements of the
  host, not of the simulation).
- worker functions for the three consumers (:func:`bench_trial`,
  :func:`chaos_scenario`, :func:`sweep_point`), all module-level so
  they pickle by reference.
- :func:`run_sweep` — the ``firefly-sim sweep`` document builder: a
  (processor-count x seed) grid of machine runs with purely simulated
  metrics, byte-identical JSON at any job count.

Failure contract: a trial that raises in a worker is reported as a
single :class:`TrialFailure` naming the failing *(scenario, seed)* —
the child's traceback is summarised, never dumped raw — and a worker
process that dies outright (killed, segfault) surfaces the same way
instead of hanging the parent.  Remaining queued trials are cancelled,
and a ``KeyboardInterrupt`` in the parent terminates every worker
process before re-raising — Ctrl-C never leaks simulating workers.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, SimulationError

SWEEP_SCHEMA = "firefly-sweep/1"

#: Default (warmup, measure) cycles for one sweep point.
SWEEP_WARMUP = 20_000
SWEEP_MEASURE = 60_000


class TrialFailure(SimulationError):
    """One trial failed inside a worker; names the (scenario, seed)."""

    def __init__(self, label: str, detail: str) -> None:
        super().__init__(f"trial {label} failed: {detail}")
        self.label = label
        self.detail = detail


def _guarded(worker: Callable, spec) -> Tuple[str, object]:
    """Run one trial in the child, tagging the outcome.

    Exceptions are flattened to a string in the child rather than
    re-raised: a pickled exception that fails to unpickle in the
    parent (custom ``__init__`` signatures, unpicklable payloads)
    would otherwise break the pool and lose the error entirely.
    """
    try:
        return ("ok", worker(spec))
    except Exception as exc:  # noqa: BLE001 - summarised for the parent
        return ("error", f"{type(exc).__name__}: {exc}")


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Kill the pool's worker processes outright.

    Used on KeyboardInterrupt only: ``shutdown(cancel_futures=True)``
    cancels *queued* work but lets already-running trials finish, so a
    Ctrl-C during a long fan-out would leave workers simulating for
    minutes after the user asked to stop.  The process handles are a
    private attribute of the executor; degrade to a plain shutdown if a
    future Python hides them.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except OSError:
            pass


def run_ordered(specs: Sequence, worker: Callable, jobs: int = 1,
                describe: Callable[[object], str] = str,
                on_result: Optional[Callable[[object, object], None]] = None
                ) -> List:
    """Run ``worker(spec)`` for every spec; results in spec order.

    ``worker`` must be a module-level function and each spec a small
    picklable value that carries *everything* the trial needs (names
    and seeds, not live objects).  ``jobs <= 1`` runs in-process with
    identical semantics — the parallel path is pure fan-out, never a
    behaviour switch.

    ``on_result(spec, result)`` is invoked in **spec order** as each
    trial's result is collected, on both the serial and parallel paths.
    Campaign resume rides on this: every result the callback saw is
    durable even if a later trial fails, and spec-order delivery keeps
    append-only stores deterministic at any job count.

    A ``KeyboardInterrupt`` during a fan-out terminates the worker
    processes and re-raises — no leaked workers, no swallowed Ctrl-C.
    """
    if jobs is None:
        jobs = 1
    if jobs <= 1 or len(specs) <= 1:
        results = []
        for spec in specs:
            tag, payload = _guarded(worker, spec)
            if tag != "ok":
                raise TrialFailure(describe(spec), payload)
            if on_result is not None:
                on_result(spec, payload)
            results.append(payload)
        return results
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(specs)))
    try:
        futures = [pool.submit(_guarded, worker, spec) for spec in specs]
        results = []
        for spec, future in zip(specs, futures):
            try:
                tag, payload = future.result()
            except BrokenProcessPool:
                raise TrialFailure(
                    describe(spec),
                    "worker process died before returning a result") from None
            except Exception as exc:  # transport failures, not trial errors
                raise TrialFailure(
                    describe(spec),
                    f"{type(exc).__name__}: {exc}") from None
            if tag != "ok":
                raise TrialFailure(describe(spec), payload)
            if on_result is not None:
                on_result(spec, payload)
            results.append(payload)
        return results
    except KeyboardInterrupt:
        # Raised outside future.result() (e.g. between collections):
        # same contract — tear the workers down before propagating.
        _terminate_workers(pool)
        raise
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


# ---------------------------------------------------------------------------
# workers (module-level: they pickle by reference into worker processes)


def bench_trial(spec: Tuple[str, bool, int]) -> Dict:
    """One seeded bench trial: ``(scenario_name, quick, seed)``.

    Returns the trial record plus the simulated metrics; the caller
    keeps metrics only for trial 0, matching the serial path.  Wall
    time is measured inside the worker, exactly as the serial path
    times the bare runner call.
    """
    from repro.observatory import bench

    name, quick, seed = spec
    scenario = next(s for s in bench.SCENARIOS if s.name == name)
    horizon = scenario.horizon(quick)
    start = bench._now()
    cycles, metrics = scenario.runner(scenario, horizon, seed)
    elapsed = bench._now() - start
    return {
        "seed": seed,
        "cycles": cycles,
        "wall_seconds": elapsed,
        "ticks_per_second": cycles / elapsed if elapsed > 0 else 0.0,
        "metrics": metrics,
    }


def chaos_scenario(spec: Tuple[str, bool, int]):
    """One chaos scenario: ``(scenario_name, quick, seed)``.

    Returns the :class:`~repro.faults.chaos.ScenarioOutcome` — plain
    dataclasses all the way down, so it crosses the process boundary
    intact.  Imported lazily; :mod:`repro.faults.chaos` imports
    observatory modules.
    """
    from repro.faults import chaos

    name, quick, seed = spec
    scenario = next(s for s in chaos.CHAOS_SCENARIOS if s.name == name)
    horizon = scenario.horizon(quick)
    return scenario.runner(scenario, horizon, seed)


def serve_scenario(spec: Tuple[str, bool, int]):
    """One serving scenario: ``(scenario_name, quick, seed)``.

    Returns the :class:`~repro.serving.engine.ServeOutcome` — plain
    dataclasses and dicts, so it crosses the process boundary intact.
    """
    from repro.serving import engine

    name, quick, seed = spec
    scenario = next(s for s in engine.SERVE_SCENARIOS if s.name == name)
    horizon = scenario.horizon(quick)
    return scenario.runner(scenario, horizon, seed)


def sweep_point(spec: Tuple[int, str, str, int, int, int]) -> Dict:
    """One sweep grid point:
    ``(processors, protocol, generation, seed, warmup, measure)``.
    """
    from repro.system import FireflyConfig, FireflyMachine, Generation

    processors, protocol, generation, seed, warmup, measure = spec
    machine = FireflyMachine(FireflyConfig(
        processors=processors, protocol=protocol,
        generation=Generation(generation), seed=seed))
    metrics = machine.run(warmup_cycles=warmup, measure_cycles=measure)
    return {
        "processors": processors,
        "seed": seed,
        "cycles": machine.sim.now,
        "bus_load": metrics.bus_load,
        "mean_tpi": metrics.mean_tpi,
        "mean_miss_rate": metrics.mean_miss_rate,
        "mean_cpu_krate": metrics.mean_cpu_krate,
        "dirty_fraction": metrics.dirty_fraction,
    }


# ---------------------------------------------------------------------------
# the sweep document


def run_sweep(processor_counts: Sequence[int], seeds: Sequence[int],
              protocol: str = "firefly", generation: str = "microvax",
              warmup: int = SWEEP_WARMUP, measure: int = SWEEP_MEASURE,
              jobs: int = 1,
              progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Run the (processors x seed) grid and return the sweep document.

    The document contains only simulated quantities — no wall-clock
    fields — so serialising it with sorted keys yields byte-identical
    JSON for any ``jobs`` value.
    """
    if not processor_counts:
        raise ConfigurationError("sweep needs at least one processor count")
    if not seeds:
        raise ConfigurationError("sweep needs at least one seed")
    for count in processor_counts:
        if count < 1:
            raise ConfigurationError(f"processor count must be >= 1, "
                                     f"got {count}")
    specs = [(processors, protocol, generation, seed, warmup, measure)
             for processors in processor_counts for seed in seeds]
    if progress is not None:
        progress(f"sweep: {len(specs)} point(s) "
                 f"({len(processor_counts)} processor count(s) x "
                 f"{len(seeds)} seed(s), jobs={max(1, jobs)})")
    points = run_ordered(specs, sweep_point, jobs=jobs,
                         describe=_describe_sweep_spec)
    return {
        "schema": SWEEP_SCHEMA,
        "protocol": protocol,
        "generation": generation,
        "warmup_cycles": warmup,
        "measure_cycles": measure,
        "processor_counts": list(processor_counts),
        "seeds": list(seeds),
        "points": points,
    }


def _describe_sweep_spec(spec) -> str:
    processors, protocol, _generation, seed, _warmup, _measure = spec
    return f"(sweep np={processors} protocol={protocol}, seed {seed})"


def describe_bench_spec(spec) -> str:
    name, _quick, seed = spec
    return f"({name}, seed {seed})"


def describe_chaos_spec(spec) -> str:
    name, _quick, seed = spec
    return f"({name}, seed {seed})"


def describe_serve_spec(spec) -> str:
    name, _quick, seed = spec
    return f"({name}, seed {seed})"
