"""Deterministic parallel trial executor and the one scenario harness.

``firefly-sim bench``, ``chaos``, ``serve``, ``sweep`` and ``campaign``
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
  host, not of the simulation).  Every harness calls it exactly once,
  at any job count: there is no separate serial path.
- :class:`Scenario` and :class:`Horizon`, the one type for a pinned
  named scenario of the bench, chaos and serve harnesses, and
  :func:`select_scenarios`, the one lookup by kind.  Each harness keeps
  its tuple in its own module (see :data:`SCENARIO_REGISTRIES`); this
  module imports none of them, so each can import the type eagerly.
- :func:`scenario_trial` and :func:`sweep_point`, the two workers
  (module-level, so they pickle by reference): one named scenario of
  any kind at one seed, and one machine of the sweep grid.
- :func:`run_sweep` — the ``firefly-sim sweep`` document builder: a
  (processor-count x seed) grid of machine runs with purely simulated
  metrics, byte-identical JSON at any job count.

Failure contract: a trial that raises is reported as a single
:class:`TrialFailure` naming the failing trial — ``(kind/name, seed N)``
for a named scenario — at any job count.  In a worker the child's
traceback is summarised, never dumped raw, and a worker process that
dies outright (killed, segfault) surfaces the same way instead of
hanging the parent.  Remaining queued trials are cancelled, and a
``KeyboardInterrupt`` in the parent terminates every worker process
before re-raising — Ctrl-C never leaks simulating workers.
"""

from __future__ import annotations

import importlib
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
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

    A clean fan-out returns only after its worker processes have
    exited.  A ``KeyboardInterrupt`` during a fan-out terminates them
    and re-raises — no leaked workers, no swallowed Ctrl-C.
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
        pool.shutdown(wait=True)
        return results
    except KeyboardInterrupt:
        # Raised outside future.result() (e.g. between collections):
        # same contract — tear the workers down before propagating.
        _terminate_workers(pool)
        raise
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


# ---------------------------------------------------------------------------
# named scenarios: one type, one lookup, one worker


@dataclass(frozen=True)
class Horizon:
    """Warm-up and measurement cycles for one scenario run."""

    warmup: int
    measure: int

    @property
    def total(self) -> int:
        return self.warmup + self.measure


@dataclass(frozen=True)
class Scenario:
    """One pinned, named scenario of the bench, chaos or serve harness.

    ``runner(scenario, horizon, seed)`` builds its whole world from
    ``seed`` and returns plain data: ``(simulated_cycles, metrics)``
    for bench, a :class:`~repro.faults.chaos.ScenarioOutcome` for
    chaos, a :class:`~repro.serving.engine.ServeOutcome` for serve.
    """

    name: str
    description: str
    full: Horizon
    quick: Horizon
    runner: Callable[["Scenario", Horizon, int], object]

    def horizon(self, quick: bool) -> Horizon:
        return self.quick if quick else self.full


#: Where each harness keeps its pinned scenarios: (module, tuple name).
#: Looked up at call time, so a test that swaps the module's tuple
#: changes what every caller sees.
SCENARIO_REGISTRIES: Dict[str, Tuple[str, str]] = {
    "bench": ("repro.observatory.bench", "SCENARIOS"),
    "chaos": ("repro.faults.chaos", "CHAOS_SCENARIOS"),
    "serve": ("repro.serving.engine", "SERVE_SCENARIOS"),
}


def select_scenarios(kind: str,
                     names: Optional[Sequence[str]] = None
                     ) -> List[Scenario]:
    """The pinned scenarios of harness ``kind`` named by ``names``.

    ``names=None`` selects every pinned scenario, in pinned order;
    otherwise the result follows ``names``, and any unknown name is a
    :class:`ConfigurationError` listing the pinned ones.
    """
    module, attribute = SCENARIO_REGISTRIES[kind]
    pinned = getattr(importlib.import_module(module), attribute)
    if names is None:
        return list(pinned)
    by_name = {scenario.name: scenario for scenario in pinned}
    unknown = sorted(set(names) - set(by_name))
    if unknown:
        raise ConfigurationError(
            f"unknown {kind} scenario(s) {', '.join(unknown)}; "
            f"pinned: {', '.join(scenario.name for scenario in pinned)}")
    return [by_name[name] for name in names]


def host_seconds() -> float:
    """The host's clock, for throughput only — never fed to a model."""
    return time.perf_counter()  # lint: allow(V102)


def scenario_trial(spec: Tuple[str, str, bool, int]) -> Tuple[object, float]:
    """One named scenario at one seed: ``(kind, name, quick, seed)``.

    Returns ``(result, wall_seconds)``: whatever the scenario's runner
    returned, and the host time of that call (bench turns it into
    ticks/s; chaos and serve ignore it).  Module-level, so it pickles
    by reference into worker processes.
    """
    kind, name, quick, seed = spec
    (scenario,) = select_scenarios(kind, [name])
    horizon = scenario.horizon(quick)
    start = host_seconds()
    result = scenario.runner(scenario, horizon, seed)
    return result, host_seconds() - start


def describe_trial(spec: Tuple[str, str, bool, int]) -> str:
    kind, name, _quick, seed = spec
    return f"({kind}/{name}, seed {seed})"


# ---------------------------------------------------------------------------
# the sweep grid


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
