"""Postmortem rendering and the pinned deadlock scenario.

Two halves:

- :func:`render_crash_report` turns a ``firefly-crash/1`` dict into
  the text the ``firefly-sim postmortem`` subcommand prints — the
  error, the wait-for cycle (resource + holder + waiters), per-CPU run
  state, the in-flight bus op and the recent causal timeline.  It
  first runs :func:`validate_crash`, so a damaged report from a file
  fails with a :class:`ConfigurationError` naming the bad field's path
  (``wait_for/cycle/0/waiter``), never a traceback.
- :func:`run_pinned_deadlock` builds a deliberately deadlocking
  two-thread program (classic AB/BA lock order) on a 2-CPU kernel with
  a flight recorder attached, runs it until the kernel's deadlock
  detector fires, and captures the crash report.  Deterministic end to
  end, so the report digests identically across runs — the CI smoke
  and the golden-digest test both pin it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from repro.common.errors import (ConfigurationError, DeadlockError,
                                 SimulationError)
from repro.causal.crash import CRASH_SCHEMA, capture_crash
from repro.causal.recorder import FlightRecorder

PINNED_DEADLOCK_SEED = 1987
"""Seed of the pinned scenario (any seed deadlocks; pinned for CI)."""


def run_pinned_deadlock(seed: int = PINNED_DEADLOCK_SEED,
                        capacity: int = 512) -> Dict[str, Any]:
    """Run the AB/BA deadlock and return its crash report.

    Raises :class:`SimulationError` if — against its whole purpose —
    the program terminates.
    """
    from repro.topaz import ops
    from repro.topaz.kernel import TopazKernel

    kernel = TopazKernel.build(processors=2, threads_hint=4, seed=seed)
    recorder = FlightRecorder(kernel, capacity=capacity)
    mutex_a = kernel.mutex("fork-a")
    mutex_b = kernel.mutex("fork-b")

    def philosopher(first, second, spin):
        # The stagger makes both inner Lock()s land while the partner
        # already holds the other mutex: a certain AB/BA deadlock.
        yield ops.Compute(spin)
        yield ops.Lock(first)
        yield ops.Compute(400)
        yield ops.Lock(second)
        yield ops.Compute(10)          # pragma: no cover - never reached
        yield ops.Unlock(second)
        yield ops.Unlock(first)

    kernel.fork(philosopher, mutex_a, mutex_b, 20, name="left-fork")
    kernel.fork(philosopher, mutex_b, mutex_a, 20, name="right-fork")

    try:
        kernel.run_until_quiescent(max_cycles=2_000_000,
                                   slice_cycles=5_000)
    except DeadlockError as error:
        report = capture_crash(error, subject=kernel, recorder=recorder)
        recorder.detach()
        return report
    raise SimulationError(
        "pinned deadlock scenario terminated without deadlocking")


def report_digest(report: Dict[str, Any]) -> str:
    """A short sha256 over the canonical JSON form of a crash report."""
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def extract_crash(document: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Find a crash report inside a loaded JSON document.

    Accepts a bare ``firefly-crash/1`` report, or a ``firefly-chaos/1``
    campaign report whose scenarios captured one (first crash wins).
    """
    if not isinstance(document, dict):
        return None
    if document.get("schema") == CRASH_SCHEMA:
        return document
    scenarios = document.get("scenarios")
    for scenario in scenarios if isinstance(scenarios, list) else ():
        crash = scenario.get("crash") if isinstance(scenario, dict) else None
        if crash:
            return crash
    return None


_NULL = type(None)
_EDGE = {"waiter": (str,), "resource": (str,), "holder?": (str,)}

#: Every field :func:`render_crash_report` reads.  A dict is an object
#: with these keys (``?`` marks one that may be absent or null), a
#: one-element list is a list of that rule, a tuple the scalar types.
_CRASH_FIELDS = {
    "time": (int, _NULL),
    "error": {"type": (str,), "message": (str,)},
    "wait_for": {"edges": [_EDGE],
                 "cycle": [dict(_EDGE, holder=(str,))]},
    "cpus?": [{"cpu": (int,), "running?": (str,),
               "queued_kernel_bundles?": (int,)}],
    "ready_queue?": [(str,)],
    "bus?": {"in_flight?": (str,), "queue_depth?": (int,)},
    "caches?": [{"cache": (int,), "valid_lines": (int,),
                 "dirty_fraction": (int, float)}],
    "recent_events?": [{"time": (int,), "name": (str,), "track": (str,),
                        "args?": {}}],
    "recorder?": {"recorded": (int,), "kept": (int,), "dropped": (int,)},
}

_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "a list", dict: "an object",
               _NULL: "null"}


def _check(value: Any, rule, where: str) -> None:
    """Type first, then value: ``bool`` is never a number, numbers are
    never negative.  Errors name the path from the report root."""
    kinds = (dict,) if isinstance(rule, dict) else \
        (list,) if isinstance(rule, list) else rule
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigurationError(
            f"crash report: {where} must be "
            f"{' or '.join(_TYPE_NAMES[kind] for kind in kinds)}, got "
            f"{_TYPE_NAMES.get(type(value), type(value).__name__)}")
    if isinstance(value, (int, float)) and value < 0:
        raise ConfigurationError(
            f"crash report: {where} is {value}, must be >= 0")
    if isinstance(rule, list):
        for index, item in enumerate(value):
            _check(item, rule[0], f"{where}/{index}")
    elif isinstance(rule, dict):
        for key, child in rule.items():
            name = key.rstrip("?")
            path = f"{where}/{name}" if where else name
            if key.endswith("?") and value.get(name) is None:
                continue
            if name not in value:
                raise ConfigurationError(f"crash report: {path} is missing")
            _check(value[name], child, path)


def validate_crash(report: Any) -> Dict[str, Any]:
    """Check every field :func:`render_crash_report` reads; returns it.

    Raises :class:`ConfigurationError` naming the first bad field's
    path (``wait_for/cycle/0/waiter``), so a hand-edited or truncated
    crash JSON fails with a message, not an ``AttributeError``.
    """
    if not isinstance(report, dict):
        raise ConfigurationError(
            f"crash report must be an object, got "
            f"{_TYPE_NAMES.get(type(report), type(report).__name__)}")
    if report.get("schema") != CRASH_SCHEMA:
        raise ConfigurationError(
            f"crash report: schema is {report.get('schema')!r}, expected "
            f"{CRASH_SCHEMA!r}")
    _check(report, _CRASH_FIELDS, "")
    return report


def render_crash_report(report: Dict[str, Any]) -> str:
    """The human-readable postmortem of one (validated) crash report."""
    validate_crash(report)
    lines = []
    error = report.get("error", {})
    lines.append(f"postmortem ({report.get('schema', '?')}) "
                 f"at t={report.get('time')}")
    lines.append(f"error: {error.get('type')}: {error.get('message')}")

    wait_for = report.get("wait_for", {})
    cycle = wait_for.get("cycle") or []
    if cycle:
        lines.append("")
        lines.append(f"wait-for cycle ({len(cycle)} threads):")
        for edge in cycle:
            lines.append(f"  {edge['waiter']} waits on {edge['resource']} "
                         f"held by {edge['holder']}")
    edges = wait_for.get("edges") or []
    extra = [e for e in edges if e not in cycle]
    if extra:
        lines.append("other waiters:")
        for edge in extra:
            holder = f" held by {edge['holder']}" if edge.get("holder") else ""
            lines.append(f"  {edge['waiter']} waits on "
                         f"{edge['resource']}{holder}")

    cpus = report.get("cpus")
    if cpus is not None:
        lines.append("")
        lines.append("per-CPU state:")
        for row in cpus:
            running = row.get("running") or "idle"
            queued = row.get("queued_kernel_bundles", 0)
            note = f" (+{queued} queued kernel bundles)" if queued else ""
            lines.append(f"  cpu{row['cpu']}: {running}{note}")
        ready = report.get("ready_queue") or []
        lines.append(f"  ready queue: {', '.join(ready) if ready else '[]'}")

    bus = report.get("bus")
    if bus is not None:
        in_flight = bus.get("in_flight") or "idle"
        lines.append(f"bus: {in_flight} "
                     f"(queue depth {bus.get('queue_depth', 0)})")
    caches = report.get("caches")
    if caches:
        parts = [f"cache{c['cache']}: {c['valid_lines']} valid, "
                 f"{c['dirty_fraction']:.0%} dirty" for c in caches]
        lines.append("caches: " + "; ".join(parts))

    recent = report.get("recent_events") or []
    if recent:
        lines.append("")
        lines.append(f"causal timeline (last {len(recent)} events):")
        for event in recent[-16:]:
            args = event.get("args") or {}
            detail = " ".join(f"{k}={v}" for k, v in sorted(args.items())
                              if k in ("thread", "reason", "cause", "tid",
                                       "span", "op", "initiator"))
            lines.append(f"  t={event['time']:>8} {event['name']:<14} "
                         f"[{event['track']}] {detail}".rstrip())
        if len(recent) > 16:
            lines.append(f"  ... ({len(recent) - 16} earlier retained)")
    recorder = report.get("recorder")
    if recorder:
        lines.append(f"recorder: {recorder['recorded']} recorded, "
                     f"{recorder['kept']} kept, "
                     f"{recorder['dropped']} aged out")
    lines.append(f"report digest: {report_digest(report)}")
    return "\n".join(lines)
