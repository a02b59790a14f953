"""The resilient serving layer: policies, workload engine, SLO gates."""

import json
import re

import pytest

from repro.common.errors import ConfigurationError
from repro.io import IoSubsystem, RemoteEndpoint
from repro.serving import (
    ArrivalSpec,
    CircuitBreaker,
    ResilienceParams,
    ResilientTransport,
    ServerSpec,
    ServingWorkload,
    SloSpec,
    TierSpec,
    Topology,
    run_serve_campaign,
)
from repro.serving.policies import _sleep
from repro.topaz import ops
from repro.topaz.kernel import TopazKernel
from repro.topaz.rpc import RpcParams, RpcTransport


def make_pool(pool=1, turnaround=8_000, seed=1987, processors=2,
              threads_hint=12):
    """A kernel plus a pool of RPC transports to distinct endpoints."""
    kernel = TopazKernel.build(processors=processors,
                               threads_hint=threads_hint, seed=seed,
                               io_enabled=True)
    io = IoSubsystem(kernel.machine)
    _, buffer_qbus = io.alloc(512, "serve buffer")
    params = RpcParams(payload_bytes=256, packets_per_call=1,
                       reply_bytes=64,
                       server_turnaround_cycles=turnaround)
    transports = [RpcTransport(kernel, io.ethernet, buffer_qbus,
                               params=params,
                               remote=RemoteEndpoint(turnaround))
                  for _ in range(pool)]
    return kernel, io, transports


class TestResilienceParams:
    def test_errors_name_field_and_value(self):
        with pytest.raises(ConfigurationError,
                           match=r"ResilienceParams\.max_attempts must "
                                 r"be positive, got 0"):
            ResilienceParams(max_attempts=0)
        with pytest.raises(ConfigurationError,
                           match=r"ResilienceParams\.backoff_base_cycles "
                                 r"must be positive, got -5"):
            ResilienceParams(backoff_base_cycles=-5)
        with pytest.raises(ConfigurationError,
                           match=r"ResilienceParams\."
                                 r"attempt_timeout_cycles must be >= 0, "
                                 r"got -1"):
            ResilienceParams(attempt_timeout_cycles=-1)
        with pytest.raises(ConfigurationError,
                           match=r"ResilienceParams\.backoff_multiplier "
                                 r"must be >= 1\.0, got 0\.5"):
            ResilienceParams(backoff_multiplier=0.5)

    def test_defaults_are_valid(self):
        params = ResilienceParams()
        assert params.max_attempts == 1
        assert params.hedge_after_cycles == 0


class TestCircuitBreaker:
    def test_closed_to_open_after_threshold(self):
        breaker = CircuitBreaker("s0", threshold=3, open_cycles=1_000,
                                 half_open_probes=1)
        assert breaker.allow(0) == ()
        assert breaker.record(False, 10) == ()
        assert breaker.record(False, 20) == ()
        assert breaker.record(False, 30) == \
            ((CircuitBreaker.CLOSED, CircuitBreaker.OPEN),)
        assert breaker.trips == 1
        assert breaker.allow(40) is None

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker("s0", threshold=2, open_cycles=1_000,
                                 half_open_probes=1)
        breaker.record(False, 10)
        breaker.record(True, 20)
        breaker.record(False, 30)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_closes_or_reopens(self):
        breaker = CircuitBreaker("s0", threshold=1, open_cycles=100,
                                 half_open_probes=1)
        breaker.record(False, 0)
        assert breaker.state == CircuitBreaker.OPEN
        # Before expiry: refused.  After: one probe admitted.
        assert breaker.allow(50) is None
        assert breaker.allow(150) == \
            ((CircuitBreaker.OPEN, CircuitBreaker.HALF_OPEN),)
        breaker.note_attempt()
        assert breaker.allow(151) is None  # probe budget spent
        assert breaker.record(True, 160) == \
            ((CircuitBreaker.HALF_OPEN, CircuitBreaker.CLOSED),)
        # And the failing-probe path reopens.
        breaker.record(False, 200)
        breaker.allow(400)
        breaker.note_attempt()
        assert breaker.record(False, 410) == \
            ((CircuitBreaker.HALF_OPEN, CircuitBreaker.OPEN),)
        assert breaker.trips == 3


class TestUnarmedEquivalence:
    def run_world(self, wrapped: bool, calls=3):
        kernel, io, transports = make_pool(seed=1987)
        resilient = ResilientTransport(kernel, transports, armed=False)
        outcomes = []

        def client():
            for _ in range(calls):
                if wrapped:
                    result = yield from resilient.call()
                else:
                    result = yield from transports[0].call()
                outcomes.append(result)

        kernel.fork(client)
        kernel.run_until_quiescent(max_cycles=5_000_000)
        return kernel, io, transports[0], resilient

    def test_unarmed_wrapper_is_byte_identical(self):
        bare_kernel, bare_io, bare_transport, _ = self.run_world(False)
        kernel, io, transport, resilient = self.run_world(True)
        assert kernel.sim.now == bare_kernel.sim.now
        assert transport.stats["calls"].total == \
            bare_transport.stats["calls"].total == 3
        assert io.ethernet.stats["tx_frames"].total == \
            bare_io.ethernet.stats["tx_frames"].total
        # The unarmed constructor is provably inert: no RNG stream, no
        # breakers, no hedge sync objects were created.
        assert resilient._rng is None
        assert resilient.breakers == []
        assert resilient._hedge_mutex is None


class TestRetriesAndDeadlines:
    def test_late_attempts_retry_then_give_up(self):
        # Every attempt takes ~50k+ cycles against a 10k lateness bar,
        # so the call burns its whole attempt budget and reports it.
        kernel, io, transports = make_pool(turnaround=50_000)
        params = ResilienceParams(attempt_timeout_cycles=10_000,
                                  max_attempts=2,
                                  backoff_base_cycles=1_000)
        resilient = ResilientTransport(kernel, transports, params)
        outcomes = []

        def client():
            outcome = yield from resilient.call()
            outcomes.append(outcome)

        kernel.fork(client)
        kernel.run_until_quiescent(max_cycles=5_000_000)
        outcome = outcomes[0]
        assert outcome.status == "deadline"
        assert outcome.attempts == 2
        assert outcome.retries == 1
        assert resilient.stats["retries"].total == 1
        assert resilient.stats["late_attempts"].total == 2
        assert resilient.counters()["failed.deadline"] == 1

    def test_expired_deadline_sheds_before_any_attempt(self):
        kernel, io, transports = make_pool()
        resilient = ResilientTransport(kernel, transports,
                                       ResilienceParams(max_attempts=2))
        outcomes = []

        def client():
            me = yield ops.CurrentThread()
            yield ops.Compute(100)
            me.deadline = kernel.sim.now  # already exhausted
            outcome = yield from resilient.call()
            outcomes.append(outcome)

        kernel.fork(client)
        kernel.run_until_quiescent(max_cycles=1_000_000)
        assert outcomes[0].status == "deadline"
        assert outcomes[0].attempts == 0
        # No attempt reached the wire.
        assert transports[0].stats["calls"].total == 0

    def test_forked_children_inherit_the_deadline(self):
        kernel, io, transports = make_pool()
        seen = []

        def child():
            me = yield ops.CurrentThread()
            seen.append(me.deadline)
            yield ops.Compute(1)

        def parent():
            me = yield ops.CurrentThread()
            me.deadline = 123_456
            yield ops.Fork(child, name="deadline-child")
            yield ops.Compute(1)

        kernel.fork(parent)
        kernel.run_until_quiescent(max_cycles=1_000_000)
        assert seen == [123_456]


class TestSheddingAndBreakers:
    def test_max_in_flight_sheds_the_second_caller(self):
        kernel, io, transports = make_pool(turnaround=20_000)
        resilient = ResilientTransport(
            kernel, transports, ResilienceParams(max_in_flight=1))
        outcomes = []

        def client():
            outcome = yield from resilient.call()
            outcomes.append(outcome)

        kernel.fork(client, name="c0")
        kernel.fork(client, name="c1")
        kernel.run_until_quiescent(max_cycles=5_000_000)
        statuses = sorted(o.status for o in outcomes)
        assert statuses == ["ok", "shed"]
        shed = next(o for o in outcomes if o.status == "shed")
        assert shed.shed_reason == "in-flight"
        assert shed.latency == 0
        assert resilient.counters()["shed"] == 1
        assert resilient.stats["shed.in-flight"].total == 1

    def test_breaker_opens_and_sheds_until_probe_window(self):
        kernel, io, transports = make_pool(turnaround=50_000)
        params = ResilienceParams(attempt_timeout_cycles=10_000,
                                  max_attempts=2,
                                  backoff_base_cycles=1_000,
                                  breaker_failure_threshold=1,
                                  breaker_open_cycles=10_000)
        resilient = ResilientTransport(kernel, transports, params)
        outcomes = []

        def client():
            first = yield from resilient.call()
            outcomes.append(first)
            # Past the open window: the breaker goes half-open and
            # admits exactly one probe, which also fails late.
            yield ops.DeviceCall(_sleep(kernel.sim, 20_000), label="idle")
            second = yield from resilient.call()
            outcomes.append(second)

        kernel.fork(client)
        kernel.run_until_quiescent(max_cycles=10_000_000)
        first, second = outcomes
        # First call: attempt 1 trips the breaker; the retry finds the
        # pool fully open and is shed.
        assert first.status == "shed"
        assert first.shed_reason == "breaker-open"
        assert second.status in ("shed", "deadline")
        breaker = resilient.breakers[0]
        assert breaker.trips == 2
        assert resilient.stats["breaker_transitions"].total >= 3
        assert resilient.stats["shed.breaker-open"].total >= 1


class TestHedging:
    def test_hedge_races_a_second_server(self):
        kernel, io, transports = make_pool(pool=2, turnaround=20_000,
                                           threads_hint=16)
        resilient = ResilientTransport(
            kernel, transports, ResilienceParams(hedge_after_cycles=1_000))
        outcomes = []

        def client():
            outcome = yield from resilient.call()
            outcomes.append(outcome)

        kernel.fork(client)
        kernel.run_until_quiescent(max_cycles=5_000_000)
        outcome = outcomes[0]
        assert outcome.ok
        assert outcome.hedged
        assert outcome.attempts == 2
        assert outcome.server in (0, 1)
        assert resilient.stats["hedges"].total == 1
        # The loser finished in the background and was counted.
        assert resilient.stats["hedge_waste"].total == 1
        assert transports[0].stats["calls"].total \
            + transports[1].stats["calls"].total == 2


#: Integer topology fields (counts and cycle figures).
INT_PATHS = (
    "tiers[0].workers", "tiers[0].queue_limit", "tiers[0].deadline_cycles",
    "tiers[0].calls_per_request", "tiers[0].arrivals.mean_gap_cycles",
    "tiers[0].arrivals.period_cycles", "tiers[0].slo.p99_cycles",
    "servers.pool", "servers.turnaround_cycles", "servers.payload_bytes",
    "servers.packets_per_call", "servers.reply_bytes",
)

#: Real-valued topology fields (rates and factors).
NUMBER_PATHS = ("tiers[0].slo.success_rate", "tiers[0].arrivals.burst_factor",
                "tiers[0].arrivals.amplitude")

#: (path, bad value) pairs: every field refuses null, a string and a
#: bool; an integer field also refuses a float.
BAD_NUMBERS = ([(path, value) for path in INT_PATHS
                for value in (None, "2", True, 2.5)]
               + [(path, value) for path in NUMBER_PATHS
                  for value in (None, "0.5", False)])


def _topology_document():
    """A valid topology document with every numeric field spelt out."""
    return {"tiers": [{"name": "web", "workers": 2, "queue_limit": 8,
                       "deadline_cycles": 100_000, "calls_per_request": 1,
                       "arrivals": {"mean_gap_cycles": 10_000},
                       "slo": {"p99_cycles": 90_000,
                               "success_rate": 0.9}}],
            "servers": {"pool": 2}}


class TestTopology:
    def test_from_dict_round_trips(self):
        topology = Topology(
            tiers=(TierSpec(name="web", workers=2,
                            arrivals=ArrivalSpec(process="bursty",
                                                 mean_gap_cycles=10_000,
                                                 period_cycles=50_000),
                            deadline_cycles=100_000,
                            slo=SloSpec(p99_cycles=90_000,
                                        success_rate=0.9)),),
            servers=ServerSpec(pool=3))
        again = Topology.from_dict(topology.to_dict())
        assert again.to_dict() == topology.to_dict()

    def test_validation_errors_name_the_path(self):
        with pytest.raises(ConfigurationError,
                           match=r"topology: tiers\[0\]\.arrivals\."
                                 r"process must be one of"):
            Topology(tiers=(TierSpec(
                name="t", arrivals=ArrivalSpec(process="lumpy")),)) \
                .validate()
        with pytest.raises(ConfigurationError,
                           match=r"tiers\[1\]\.name duplicates"):
            Topology(tiers=(TierSpec(name="a"),
                            TierSpec(name="a"))).validate()
        with pytest.raises(ConfigurationError, match="unknown key"):
            Topology.from_dict({"tiers": [], "turbo": True})
        with pytest.raises(ConfigurationError,
                           match=r"tiers\[0\] unknown key"):
            Topology.from_dict(
                {"tiers": [{"name": "a", "wrkers": 2}]})
        with pytest.raises(ConfigurationError,
                           match=r"period_cycles must be positive for "
                                 r"bursty"):
            ArrivalSpec(process="bursty", period_cycles=0).validate("a")

    @pytest.mark.parametrize("path,value", BAD_NUMBERS)
    def test_non_numeric_field_names_the_path(self, path, value):
        """A null, string or bool number (or a float count) is a
        ConfigurationError naming the field, never a TypeError from the
        range check."""
        document = _topology_document()
        *parents, leaf = path.replace("[0]", ".0").split(".")
        node = document
        for key in parents:
            node = node[int(key)] if key.isdigit() else node[key]
        node[leaf] = value
        pattern = re.escape(f"topology: {path} must be")
        with pytest.raises(ConfigurationError, match=pattern):
            Topology.from_dict(document)

    def test_arrival_gaps_are_positive_and_modulated(self):
        class FixedRng:
            def expovariate(self, mean):
                return mean

        rng = FixedRng()
        poisson = ArrivalSpec(process="poisson", mean_gap_cycles=1_000)
        assert poisson.next_gap(rng, 0) == 1_000
        bursty = ArrivalSpec(process="bursty", mean_gap_cycles=1_000,
                             burst_factor=4.0, period_cycles=2_000)
        on = bursty.next_gap(rng, 0)        # on-phase: gaps shrink
        off = bursty.next_gap(rng, 1_000)   # off-phase: gaps grow
        assert on == 250 and off == 4_000
        diurnal = ArrivalSpec(process="diurnal", mean_gap_cycles=1_000,
                              period_cycles=4_000, amplitude=0.5)
        peak = diurnal.next_gap(rng, 1_000)   # sin=1: rate x1.5
        trough = diurnal.next_gap(rng, 3_000)  # sin=-1: rate x0.5
        assert peak < 1_000 < trough


class TestServingWorkload:
    def mini_topology(self, slo=SloSpec()):
        return Topology(
            tiers=(TierSpec(name="mini", workers=2,
                            arrivals=ArrivalSpec(process="poisson",
                                                 mean_gap_cycles=40_000),
                            deadline_cycles=300_000, queue_limit=8,
                            slo=slo),),
            servers=ServerSpec(pool=1, turnaround_cycles=8_000))

    def test_open_loop_serves_and_counts(self):
        workload = ServingWorkload(self.mini_topology(), seed=1987)
        workload.run(warmup_cycles=40_000, measure_cycles=300_000)
        report = workload.class_report()["mini"]
        assert report["ok"] > 0
        assert report["latency"]["count"] == report["ok"]
        assert report["latency"]["p99"] >= report["latency"]["p50"] > 0
        assert workload.slo_failures() == []

    def test_impossible_slo_fails_the_gate(self):
        slo = SloSpec(p99_cycles=1, success_rate=1.0)
        workload = ServingWorkload(self.mini_topology(slo), seed=1987)
        workload.run(warmup_cycles=40_000, measure_cycles=300_000)
        failures = workload.slo_failures()
        assert failures
        assert any("exceeds budget 1" in f for f in failures)

    def test_same_seed_replays_byte_identically(self):
        def one_run():
            workload = ServingWorkload(self.mini_topology(), seed=2024)
            workload.run(warmup_cycles=40_000, measure_cycles=200_000)
            return (workload.kernel.sim.now, workload.class_report())

        assert one_run() == one_run()


class TestServeCampaign:
    def test_slo_violation_exits_nonzero(self, monkeypatch):
        from repro import cli
        from repro.serving import engine

        def failing_runner(scenario, horizon, seed):
            outcome = engine.ServeOutcome(
                name=scenario.name, description=scenario.description,
                seed=seed, warmup=horizon.warmup,
                measure=horizon.measure)
            outcome.slo_failures = ["mini: p99 999 cycles exceeds "
                                    "budget 1"]
            return outcome

        scenario = engine.ServeScenario(
            "always-fail", "pinned failure for the exit-code contract",
            full=engine.ServeHorizon(0, 0),
            quick=engine.ServeHorizon(0, 0), runner=failing_runner)
        monkeypatch.setattr(engine, "SERVE_SCENARIOS", (scenario,))
        assert cli.main(["serve", "--quick"]) == 1
        report = engine.run_serve_campaign(quick=True)
        assert not report.ok
        assert report.outcomes[0].verdict == "FAIL"

    def test_unknown_scenario_is_a_config_error(self):
        with pytest.raises(ConfigurationError,
                           match="unknown serve scenario"):
            run_serve_campaign(scenarios=["no-such"], quick=True)

    @pytest.mark.slow
    def test_report_identical_at_any_job_count(self):
        def report_json(jobs):
            report = run_serve_campaign(
                seed=1987, quick=True, jobs=jobs,
                scenarios=["steady-poisson", "bursty-shed"])
            return json.dumps(report.to_dict(), sort_keys=True)

        assert report_json(1) == report_json(2)


class TestCausalUnderChaos:
    @pytest.mark.slow
    def test_segments_sum_exactly_with_backoff_under_qbus_timeouts(self):
        """Satellite: injected QBus device timeouts force retries, and
        every traced request's turnaround still decomposes exactly —
        the backoff wait shows up as its own segment."""
        from repro.causal.assemble import SEGMENTS
        from repro.faults.models import QBusFaultModel
        from repro.faults.plan import FaultKind, FaultPlan, spec
        from repro.serving.engine import (SERVE_ETHERNET, ServeHorizon,
                                          _chaos_resilience,
                                          _chaos_topology, _drive_serving)

        workload = ServingWorkload(_chaos_topology(), _chaos_resilience(),
                                   seed=1987,
                                   ethernet_params=SERVE_ETHERNET)
        plan = FaultPlan([
            spec(FaultKind.QBUS_TIMEOUT, window=(0.10, 0.30), timeouts=2),
            spec(FaultKind.QBUS_TIMEOUT, window=(0.45, 0.65), timeouts=5),
        ])
        qbus_model = QBusFaultModel(timeout_cycles=4_000, max_retries=3,
                                    degraded_penalty_cycles=30)
        tracer, injector = _drive_serving(
            workload, ServeHorizon(60_000, 400_000), plan=plan,
            qbus_model=qbus_model)
        assert workload.resilient.stats["retries"].total > 0
        assert tracer.assembled > 0
        backoff_total = 0
        for record in tracer.finished:
            assert sum(record.segments.values()) == record.turnaround, \
                record.to_dict()
            assert set(record.segments) == set(SEGMENTS)
            backoff_total += record.segments["backoff"]
        # The retried request's exponential backoff is attributed to
        # the dedicated segment, not smeared into transfer time.
        assert backoff_total > 0
