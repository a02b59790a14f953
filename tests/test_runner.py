"""The deterministic parallel trial executor (repro.observatory.runner).

The load-bearing claim: ``jobs=N`` is a pure fan-out — same results,
same order, same bytes in every serialised document — and a trial that
fails (or a worker process that dies) surfaces as one clean
:class:`TrialFailure` naming the trial, never a hang or a raw child
traceback.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.campaign import parse_spec
from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.faults.chaos import run_campaign
from repro.observatory.bench import run_suite
from repro.observatory.runner import (
    SCENARIO_REGISTRIES,
    Horizon,
    Scenario,
    TrialFailure,
    run_ordered,
    run_sweep,
    select_scenarios,
    sweep_point,
)
from repro.serving.engine import run_serve_campaign

pytestmark = pytest.mark.observatory


# Module-level so they pickle by reference into worker processes.
def _square(spec):
    return spec * spec


def _fail_on_three(spec):
    if spec == 3:
        raise ValueError("three is right out")
    return spec


def _die_on_two(spec):
    if spec == 2:
        os._exit(13)  # simulates a segfaulting / killed worker
    return spec


def _slow_square(spec):
    time.sleep(20)
    return spec * spec


class TestRunOrdered:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_in_spec_order(self, jobs):
        specs = list(range(10))
        assert run_ordered(specs, _square, jobs=jobs) \
            == [n * n for n in specs]

    def test_parallel_run_reaps_its_workers(self):
        """A clean ``jobs=2`` run waits for its pool: no worker is
        still alive when ``run_ordered`` returns."""
        before = set(multiprocessing.active_children())
        assert run_ordered(list(range(4)), _square, jobs=2) \
            == [0, 1, 4, 9]
        assert set(multiprocessing.active_children()) <= before

    def test_empty_specs(self):
        assert run_ordered([], _square, jobs=4) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_names_the_trial(self, jobs):
        with pytest.raises(TrialFailure) as exc:
            run_ordered([1, 2, 3, 4], _fail_on_three, jobs=jobs,
                        describe=lambda s: f"(scenario-x, seed {s})")
        message = str(exc.value)
        assert "(scenario-x, seed 3)" in message
        assert "ValueError" in message
        assert "three is right out" in message

    def test_dead_worker_surfaces_cleanly(self):
        """A worker process that exits hard must not hang the parent;
        the failure names the trial whose result never arrived."""
        with pytest.raises(TrialFailure) as exc:
            run_ordered([1, 2, 4], _die_on_two, jobs=2,
                        describe=lambda s: f"(chaos-y, seed {s})")
        assert "seed" in str(exc.value)
        assert "worker process died" in str(exc.value)


class TestOnResult:
    """The ``on_result`` streaming callback: delivered in spec order on
    both paths, and every completed-before-the-failure trial is seen
    even when a later trial raises — the hook the campaign ledger's
    resume guarantee stands on."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_callback_runs_in_spec_order(self, jobs):
        seen = []
        results = run_ordered(
            list(range(8)), _square, jobs=jobs,
            on_result=lambda spec, result: seen.append((spec, result)))
        assert seen == [(n, n * n) for n in range(8)]
        assert results == [n * n for n in range(8)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_completed_trials_delivered_before_failure(self, jobs):
        seen = []
        with pytest.raises(TrialFailure):
            run_ordered([1, 2, 3, 4], _fail_on_three, jobs=jobs,
                        on_result=lambda spec, result:
                        seen.append(spec))
        assert seen == [1, 2]

    def test_callback_exception_propagates(self):
        def boom(spec, result):
            raise RuntimeError("ledger disk full")

        with pytest.raises(RuntimeError, match="ledger disk full"):
            run_ordered([1, 2], _square, jobs=1, on_result=boom)



class TestKeyboardInterrupt:
    def test_ctrl_c_terminates_workers(self):
        """Ctrl-C mid-campaign must kill the worker pool, not leak
        processes that keep simulating (the pre-fix behaviour:
        ``shutdown(cancel_futures=True)`` cancels *queued* futures but
        lets running workers finish their 20-second trials).

        The timer delivers a real SIGINT to this process while four
        workers are mid-trial; the assertions are that KeyboardInterrupt
        propagates (no swallowing) and every child is reaped within a
        bounded, much-shorter-than-a-trial window.
        """
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("active_children introspection needs fork")
        before = set(multiprocessing.active_children())
        timer = threading.Timer(
            1.0, lambda: os.kill(os.getpid(), signal.SIGINT))
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_ordered(list(range(8)), _slow_square, jobs=4)
        finally:
            timer.cancel()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            leaked = [child
                      for child in multiprocessing.active_children()
                      if child not in before and child.is_alive()]
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked, f"leaked workers: {leaked}"


SWEEP_KW = dict(processor_counts=[1, 2], seeds=[1987, 1988],
                warmup=1_000, measure=4_000)


class TestByteIdentity:
    def test_sweep_jobs4_byte_identical_to_serial(self):
        serial = run_sweep(jobs=1, **SWEEP_KW)
        parallel = run_sweep(jobs=4, **SWEEP_KW)
        assert json.dumps(serial, indent=2, sort_keys=True) \
            == json.dumps(parallel, indent=2, sort_keys=True)

    def test_sweep_point_grid_order(self):
        document = run_sweep(jobs=2, **SWEEP_KW)
        assert [(p["processors"], p["seed"])
                for p in document["points"]] \
            == [(1, 1987), (1, 1988), (2, 1987), (2, 1988)]

    @pytest.mark.slow
    def test_chaos_report_byte_identical_across_jobs(self):
        kw = dict(quick=True, scenarios=["bus-parity", "cpu-offline"])
        serial = run_campaign(jobs=1, **kw)
        parallel = run_campaign(jobs=2, **kw)
        assert json.dumps(serial.to_dict(), indent=2, sort_keys=True) \
            == json.dumps(parallel.to_dict(), indent=2, sort_keys=True)
        assert serial.render() == parallel.render()

    def test_bench_simulated_content_identical_across_jobs(self):
        """BENCH documents byte-compare after dropping the wall-clock
        measurement fields — those describe the host, and a host
        running N workers is a different host."""
        kw = dict(quick=True, trials=2, scenarios=["exerciser-1cpu"],
                  skip_overhead=True)
        serial = self._normalised(run_suite(jobs=1, **kw))
        parallel = self._normalised(run_suite(jobs=2, **kw))
        assert serial == parallel

    @staticmethod
    def _normalised(document):
        document = json.loads(json.dumps(document, sort_keys=True))
        document.pop("host", None)
        for entry in document["scenarios"].values():
            entry.pop("median_ticks_per_second", None)
            entry.pop("noise", None)
            for trial in entry["trials"]:
                trial.pop("wall_seconds", None)
                trial.pop("ticks_per_second", None)
        return json.dumps(document, sort_keys=True)


class TestSweepValidation:
    def test_rejects_empty_grid(self):
        with pytest.raises(Exception):
            run_sweep(processor_counts=[], seeds=[1987])
        with pytest.raises(Exception):
            run_sweep(processor_counts=[1], seeds=[])

    def test_rejects_bad_processor_count(self):
        with pytest.raises(Exception):
            run_sweep(processor_counts=[0], seeds=[1987])

    def test_sweep_point_worker_is_self_contained(self):
        point = sweep_point((1, "firefly", "microvax", 1987, 1_000, 4_000))
        assert point["processors"] == 1
        assert point["seed"] == 1987
        assert 0.0 < point["bus_load"] <= 1.0


# -- the one scenario harness ---------------------------------------------


def _raise_in_runner(scenario, horizon, seed):
    raise ValueError(f"{scenario.name} blew up")


#: Each harness's top-level runner, at one job and its default seed.
_HARNESS_RUNS = {
    "bench": lambda: run_suite(quick=True, trials=1, skip_overhead=True),
    "chaos": lambda: run_campaign(quick=True),
    "serve": lambda: run_serve_campaign(quick=True),
}


@pytest.mark.parametrize("kind", sorted(SCENARIO_REGISTRIES))
class TestScenarioRegistry:
    """bench, chaos and serve share one Scenario type, one lookup and
    one worker, so they share one contract."""

    def test_names_unique_and_quick_is_shorter(self, kind):
        pinned = select_scenarios(kind)
        names = [scenario.name for scenario in pinned]
        assert names and len(names) == len(set(names))
        for scenario in pinned:
            assert scenario.quick.total < scenario.full.total, scenario.name

    def test_campaign_group_rejects_unknown_name_with_pinned_list(self,
                                                                  kind):
        pinned = ", ".join(s.name for s in select_scenarios(kind))
        with pytest.raises(ConfigurationError) as direct:
            select_scenarios(kind, ["no-such"])
        assert str(direct.value) == (f"unknown {kind} scenario(s) no-such; "
                                     f"pinned: {pinned}")
        with pytest.raises(ConfigurationError) as grouped:
            parse_spec({"schema": "firefly-campaign/1", "name": "unit",
                        "matrix": [{"kind": kind,
                                    "scenarios": ["no-such"]}]})
        assert str(grouped.value).endswith(f": {direct.value}")

    def test_raising_runner_is_a_trial_failure_at_one_job(self, kind,
                                                           monkeypatch):
        module, attribute = SCENARIO_REGISTRIES[kind]
        monkeypatch.setattr(
            importlib.import_module(module), attribute,
            (Scenario("doomed", "raises from its runner",
                      full=Horizon(0, 2), quick=Horizon(0, 1),
                      runner=_raise_in_runner),))
        with pytest.raises(TrialFailure) as failure:
            _HARNESS_RUNS[kind]()
        assert failure.value.label == f"({kind}/doomed, seed 1987)"
        assert failure.value.detail == "ValueError: doomed blew up"


@pytest.mark.parametrize("argv", [
    ["bench"], ["chaos"], ["serve"], ["sweep"],
    ["campaign", "run", "spec.yaml"], ["campaign", "resume", "spec.yaml"],
])
@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_one_is_rejected(argv, jobs, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--jobs", jobs])
    assert exit_info.value.code == 2
    assert f"argument --jobs: must be >= 1, got {jobs}" \
        in capsys.readouterr().err
