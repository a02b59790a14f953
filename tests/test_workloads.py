"""Workload-level tests: exerciser, make, compiler, matrix, pipeline, RPC."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.common.errors import ConfigurationError
from repro.io.subsystem import IoSubsystem
from repro.system import CoherenceChecker
from repro.topaz.kernel import TopazKernel
from repro.workloads.matrix import MatrixWorkload
from repro.workloads.multiprogramming import BoundedBuffer, MultiprogrammingMix
from repro.workloads.parallel_compiler import CompilerParams, ParallelCompiler
from repro.workloads.parallel_make import MakeJob, ParallelMake, sample_project
from repro.workloads.rpc_server import RpcWorkload
from repro.workloads.semaphore import TopazSemaphore
from repro.workloads.threads_exerciser import (
    ExerciserParams,
    build_exerciser,
    exerciser_expectations,
)


def kernel_with(processors=2, io=False, **kw):
    kernel = TopazKernel.build(processors=processors, threads_hint=24,
                               seed=31, io_enabled=io, **kw)
    return kernel


class TestExerciser:
    def test_builds_and_runs_coherently(self):
        kernel = build_exerciser(2, ExerciserParams(threads=6))
        metrics = kernel.run(warmup_cycles=30_000, measure_cycles=60_000)
        assert metrics.bus_ops > 0
        assert all(c.instructions > 0 for c in metrics.cpus)
        CoherenceChecker(kernel.machine).check()

    def test_counters_protected_by_mutexes_stay_sane(self):
        kernel = build_exerciser(3, ExerciserParams(threads=8))
        kernel.run(warmup_cycles=50_000, measure_cycles=100_000)
        # The exerciser's own checks (AssertionError) did not fire, and
        # the shared counters hold plausible values.
        assert kernel.stats["lock_acquires"].total > 0

    def test_produces_heavy_sharing_on_multiple_cpus(self):
        # The standard Table 2 shape: 16 threads on 5 CPUs, so the
        # ready queue outgrows the affinity window and some migration
        # survives the scheduler's avoidance.
        kernel = build_exerciser(5, ExerciserParams(threads=16))
        metrics = kernel.run(warmup_cycles=100_000, measure_cycles=200_000)
        assert metrics.bus_writes_mshared > 0
        assert kernel.total_migrations > 0

    def test_expectations_match_paper_methodology(self):
        one = exerciser_expectations(1)
        five = exerciser_expectations(5)
        # One CPU: ~850 K refs/sec expected; five: ~752 K.
        assert one["total_krate"] == pytest.approx(849, abs=5)
        assert five["total_krate"] == pytest.approx(752, abs=5)
        assert one["reads_krate"] == pytest.approx(688, abs=5)
        assert five["writes_krate"] == pytest.approx(141, abs=3)

    def test_param_validation(self):
        with pytest.raises(ConfigurationError):
            ExerciserParams(threads=0)
        with pytest.raises(ConfigurationError):
            ExerciserParams(rendezvous_every=0)


class TestSemaphore:
    def test_bounds_concurrency(self):
        kernel = kernel_with(processors=4)
        sem = TopazSemaphore(kernel, 2, "slots")
        inside = kernel.alloc_shared(1, "inside")
        max_seen = []

        from repro.topaz import Compute, Read, Write

        def worker():
            yield from sem.acquire()
            count = yield Read(inside)
            yield Write(inside, count + 1)
            max_seen.append(count + 1)
            yield Compute(100)
            count = yield Read(inside)
            yield Write(inside, count - 1)
            yield from sem.release()

        for i in range(6):
            kernel.fork(worker, name=f"w{i}")
        kernel.run_until_quiescent(max_cycles=10_000_000)
        assert max(max_seen) <= 2

    def test_validation(self):
        kernel = kernel_with(processors=1)
        with pytest.raises(ConfigurationError):
            TopazSemaphore(kernel, -1)


class TestParallelMake:
    def test_build_completes_and_orders_dependencies(self):
        kernel = kernel_with(processors=2, io=True)
        io = IoSubsystem(kernel.machine)
        jobs = [
            MakeJob("a.o", compute_instructions=500),
            MakeJob("b.o", compute_instructions=500),
            MakeJob("prog", compute_instructions=200,
                    dependencies=("a.o", "b.o")),
        ]
        make = ParallelMake(kernel, io, jobs, max_parallel=2)
        span = make.run(max_cycles=50_000_000)
        assert span > 0
        assert all(t.done for t in make._threads.values())
        # The link job finished last.
        CoherenceChecker(kernel.machine).check()

    def test_cycle_detected(self):
        kernel = kernel_with(processors=1, io=True)
        io = IoSubsystem(kernel.machine)
        jobs = [MakeJob("a", dependencies=("b",)),
                MakeJob("b", dependencies=("a",))]
        make = ParallelMake(kernel, io, jobs)
        with pytest.raises(ConfigurationError):
            make.start()

    def test_unknown_dependency_rejected(self):
        kernel = kernel_with(processors=1, io=True)
        io = IoSubsystem(kernel.machine)
        with pytest.raises(ConfigurationError):
            ParallelMake(kernel, io, [MakeJob("a", dependencies=("ghost",))])

    def test_duplicate_names_rejected(self):
        kernel = kernel_with(processors=1, io=True)
        io = IoSubsystem(kernel.machine)
        with pytest.raises(ConfigurationError):
            ParallelMake(kernel, io, [MakeJob("a"), MakeJob("a")])

    def test_sample_project_shape(self):
        jobs = sample_project(4)
        assert len(jobs) == 5
        assert jobs[-1].dependencies == ("mod0.o", "mod1.o",
                                         "mod2.o", "mod3.o")

    def test_more_processors_build_faster(self):
        def build(nproc):
            kernel = kernel_with(processors=nproc, io=True)
            io = IoSubsystem(kernel.machine)
            make = ParallelMake(kernel, io, sample_project(4),
                                max_parallel=nproc)
            return make.run(max_cycles=80_000_000)

        assert build(4) < build(1)


class TestParallelCompiler:
    def test_compiles_and_speeds_up(self):
        def compile_on(nproc):
            kernel = kernel_with(processors=nproc, io=True)
            io = IoSubsystem(kernel.machine)
            compiler = ParallelCompiler(kernel, io, CompilerParams(
                procedures=8))
            return compiler.run(max_cycles=80_000_000)

        serial = compile_on(1)
        parallel = compile_on(4)
        assert parallel < serial
        # Amdahl: far from ideal 4x because parse + I/O are serial.
        assert parallel > serial / 4

    def test_params_validation(self):
        with pytest.raises(ConfigurationError):
            CompilerParams(procedures=0)


class TestMatrix:
    def test_result_verified_against_numpy(self):
        kernel = kernel_with(processors=3, shared_region_words=4096)
        workload = MatrixWorkload(kernel, n=6, workers=3)
        span = workload.run(max_cycles=50_000_000)
        assert span > 0  # verify() ran inside run()
        CoherenceChecker(kernel.machine).check()

    def test_operands_are_genuinely_shared(self):
        kernel = kernel_with(processors=3, shared_region_words=4096)
        workload = MatrixWorkload(kernel, n=6, workers=3)
        workload.run(max_cycles=50_000_000)
        # B is read column-wise by every worker (A's rows are private
        # to their band), so B's words end up in several caches.
        holders = sum(1 for cache in kernel.machine.caches
                      if cache.present(workload._b_base))
        assert holders >= 2

    def test_workers_capped_at_rows(self):
        kernel = kernel_with(processors=2, shared_region_words=4096)
        workload = MatrixWorkload(kernel, n=3, workers=10)
        assert workload.workers == 3

    def test_validation(self):
        kernel = kernel_with(processors=1, shared_region_words=4096)
        with pytest.raises(ConfigurationError):
            MatrixWorkload(kernel, n=0)


class TestMultiprogramming:
    def test_pipeline_total_is_exact(self):
        kernel = kernel_with(processors=3)
        mix = MultiprogrammingMix(kernel, independent_apps=0,
                                  pipeline_items=15)
        mix.run_pipeline(max_cycles=30_000_000)
        total = kernel._coherent_value(mix.pipeline_out_address)
        assert total == mix.expected_pipeline_total()
        CoherenceChecker(kernel.machine).check()

    def test_apps_progress_concurrently_with_pipeline(self):
        kernel = kernel_with(processors=4)
        mix = MultiprogrammingMix(kernel, independent_apps=3,
                                  pipeline_items=10)
        mix.run_pipeline(max_cycles=30_000_000)
        assert all(p.iterations > 0 for p in mix.progress.values())

    def test_apps_live_in_ultrix_spaces(self):
        kernel = kernel_with(processors=2)
        MultiprogrammingMix(kernel, independent_apps=2)
        ultrix = [s for s in kernel.address_spaces
                  if s.kind.value == "ultrix"]
        assert len(ultrix) == 2

    def test_bounded_buffer_blocks_producer(self):
        kernel = kernel_with(processors=2)
        buffer = BoundedBuffer(kernel, capacity=2, name="b")
        from repro.topaz import Compute
        consumed = []

        def producer():
            for i in range(6):
                yield from buffer.put(i)

        def consumer():
            yield Compute(500)  # let the producer fill and block
            for _ in range(6):
                value = yield from buffer.take()
                consumed.append(value)

        kernel.fork(producer)
        kernel.fork(consumer)
        kernel.run_until_quiescent(max_cycles=10_000_000)
        assert consumed == [0, 1, 2, 3, 4, 5]

    def test_pipeline_requires_items(self):
        kernel = kernel_with(processors=1)
        mix = MultiprogrammingMix(kernel, independent_apps=1,
                                  pipeline_items=0)
        with pytest.raises(ConfigurationError):
            mix.run_pipeline()


class TestRpcWorkload:
    def test_single_point_runs(self):
        workload = RpcWorkload(processors=2, client_threads=2)
        result = workload.run(warmup_cycles=100_000,
                              measure_cycles=400_000)
        assert result.goodput_mbit > 0.5
        assert 0 < result.wire_utilization < 1
        assert result.calls_completed > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RpcWorkload(client_threads=0)

    def test_import_and_build_leave_numpy_unloaded(self):
        """The paper workloads never pay numpy's import: only the
        matrix multiply loads it, and only when one is built."""
        code = ("import sys, repro, repro.workloads\n"
                "repro.workloads.RpcWorkload(5, 3)\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.split('.')[0] == 'numpy'))\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
