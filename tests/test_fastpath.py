"""The hot-path contract: fast paths change wall-clock, never a bit.

The simulator's cache-hit fast paths (:meth:`SnoopyCache.cpu_read_fast`
/ :meth:`cpu_write_fast`) and the batched RNG draws exist purely for
host throughput.  These tests pin the contract from
docs/PERFORMANCE.md: with the fast paths forced off (every access
through the original generator machinery), every simulated metric and
every telemetry event count is identical, for every registered
protocol; and every batched RNG sequence equals its unbatched twin
element for element.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.cache.protocols import available_protocols
from repro.common.rng import RandomStream, StreamFactory
from repro.system import FireflyConfig, FireflyMachine
from repro.telemetry import telemetry_for_machine

WARMUP = 2_000
MEASURE = 10_000


def _run_machine(protocol: str, fast: bool, seed: int = 1987,
                 with_telemetry: bool = False):
    """(metrics dict, telemetry event count) for one small run."""
    machine = FireflyMachine(FireflyConfig(
        processors=2, protocol=protocol, seed=seed))
    hub = None
    if with_telemetry:
        hub, sampler = telemetry_for_machine(machine)
        sampler.start()
    if not fast:
        for cpu in machine.cpus:
            cpu.fast_path = False
    metrics = machine.run(warmup_cycles=WARMUP, measure_cycles=MEASURE)
    return metrics.to_dict(), (hub.emitted if hub is not None else None)


class TestFastPathEquivalence:
    @pytest.mark.parametrize("protocol", sorted(available_protocols()))
    def test_metrics_identical_fast_on_vs_off(self, protocol):
        """Every protocol: silent-write/read fast paths are invisible.

        This exercises ``silent_write_result`` against the protocol's
        own ``write_hit`` on live traffic — a protocol whose declared
        silent result diverged from its generator path would drift
        here.
        """
        fast, _ = _run_machine(protocol, fast=True)
        slow, _ = _run_machine(protocol, fast=False)
        assert fast == slow

    def test_telemetry_event_counts_identical(self):
        """With probes LIVE, the fast write path emits the exact same
        transition events the generator path would."""
        fast_metrics, fast_events = _run_machine(
            "firefly", fast=True, with_telemetry=True)
        slow_metrics, slow_events = _run_machine(
            "firefly", fast=False, with_telemetry=True)
        assert fast_metrics == slow_metrics
        assert fast_events == slow_events
        assert fast_events > 0

    def test_same_seed_same_metrics(self):
        first, _ = _run_machine("firefly", fast=True, seed=1988)
        second, _ = _run_machine("firefly", fast=True, seed=1988)
        assert first == second

    def test_different_seed_differs(self):
        first, _ = _run_machine("firefly", fast=True, seed=1987)
        second, _ = _run_machine("firefly", fast=True, seed=1990)
        assert first != second


#: The stream names the simulator actually derives from a root seed.
NAMED_STREAMS = (
    "faults",
    "topaz.kernel",
    "cpu0.refs",
    "cpu0.prefetch",
    "cpu0.data",
    "cpu4.refs",
    "thread0.footprint",
    "thread15.footprint",
)


class TestBatchedRngIdentity:
    @pytest.mark.parametrize("name", NAMED_STREAMS)
    def test_prebound_calls_match_plain_random(self, name):
        """The pre-bound fast rewrites consume the exact same
        Mersenne-Twister words as the stdlib calls they stand for."""
        stream = RandomStream(1987, name)
        twin = random.Random((1987 << 32) ^ zlib.crc32(name.encode()))
        assert [stream.randint(0, 99) for _ in range(50)] \
            == [twin.randrange(0, 100) for _ in range(50)]
        assert [stream.choice("abcdef") for _ in range(50)] \
            == [twin.choice("abcdef") for _ in range(50)]
        assert [stream.bernoulli(0.3) for _ in range(50)] \
            == [twin.random() < 0.3 for _ in range(50)]

    def test_factory_streams_are_independent_of_order(self):
        a_first = StreamFactory(3)
        b_first = StreamFactory(3)
        a1 = a_first.stream("alpha")
        _ = a_first.stream("beta")
        _ = b_first.stream("beta")
        a2 = b_first.stream("alpha")
        assert [a1.random() for _ in range(32)] \
            == [a2.random() for _ in range(32)]
