"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest -q perfbench

The slowdown test times real simulations, so it takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import repro.bus.mbus  # noqa: E402
import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from measure import run_once  # noqa: E402


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=str(cwd), capture_output=True, text=True,
                          timeout=170)


# -- the contract with BENCHMARK.json --------------------------------------

def test_declared_metrics_match_benchmark_json():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
def test_emitted_metrics_match_benchmark_json(trace):
    spec = _spec()
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    done = _run_cli("--workload", "table1-1cpu", "--seed", "1",
                    "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace == "1":
        shares = [v["value"] for k, v in result["metrics"].items()
                  if k.endswith(".self_share")]
        assert sum(shares) == pytest.approx(1.0, abs=1e-9)
        assert result["metrics"]["topaz.self_share"]["value"] == 0.0
        assert result["metrics"]["io.self_share"]["value"] == 0.0


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rpc-a5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.mark.parametrize("fault", ["coherence", "self-check"])
def test_a_failed_check_counts_as_a_failed_run(monkeypatch, fault):
    from repro.common.errors import CoherenceViolation
    from repro.system import CoherenceChecker, FireflyMachine

    if fault == "coherence":
        def broken_check(self):
            raise CoherenceViolation(0, "injected")
        monkeypatch.setattr(CoherenceChecker, "check", broken_check)
    else:
        def broken_run(self, *args):
            raise AssertionError("exerciser check failed: injected")
        monkeypatch.setattr(FireflyMachine, "run", broken_run)
    _, line = run.run_workload("table1-1cpu", 1, 0.0, trace=False)
    assert not line["correct"]
    # The untimed first run, then one timed pass over the three seeds.
    assert line["failed"] == line["attempted"] == 4


# -- host-speed calibration -------------------------------------------------

def test_a_run_is_scaled_by_the_chunks_around_it():
    clock = calibrate.HostClock()
    clock.chunks = [calibrate.REFERENCE_S, 3 * calibrate.REFERENCE_S,
                    calibrate.REFERENCE_S]
    # A host running at half speed around run 0, and again around run 1.
    assert clock.scale(0) == pytest.approx(0.5)
    assert clock.scale(1) == pytest.approx(0.5)


def test_timed_runs_carry_their_scale_and_the_warm_up_does_not(tmp_path):
    out = tmp_path / "result.json"
    done = _run_cli("--workload", "table1-1cpu", "--seed", "1",
                    "--seconds", "1", "--trace", "0", "--out", str(out))
    assert done.returncode == 0, done.stderr
    document = json.loads(out.read_text())
    scales = [sample["host_scale"] for sample in document["samples"]]
    assert scales[0] is None
    assert len(scales) == 4 and all(s > 0 for s in scales[1:])
    assert document["host_speed"]["sim_cycles_per_s"] > 0


# -- fidelity references ----------------------------------------------------

def test_references_are_the_paper_values():
    assert workloads.TABLE2_BUS_LOAD == 0.54        # Table 2, L, 5 CPUs
    assert workloads.TABLE2_MISS_RATE == 0.17       # Table 2, M, 5 CPUs
    assert workloads.TABLE2_REFS_KRATE == 1075.0    # Table 2, K refs/s/CPU
    assert workloads.TABLE1_MISS_RATE == 0.2        # section 5.2, M
    assert workloads.RPC_GOODPUT_MBIT == 4.6        # section 6, Mbit/s
    # Table 1's model at NP=1, from the paper's closed forms:
    # TPI(L) = 11.9 + 1.145/(1-L) + 2.13*(1-0.2)*L/2, NP = L*TPI/1.145.
    load, tpi = workloads.MODEL_NP1.load, workloads.MODEL_NP1.tpi
    assert tpi == pytest.approx(11.9 + 1.145 / (1 - load) + 0.852 * load,
                                rel=1e-9)
    assert load * tpi / 1.145 == pytest.approx(1.0, rel=1e-6)

    refs = {name: {r.metric: r.value for r in w.references}
            for name, w in workloads.WORKLOADS.items()}
    assert refs == {
        "table2-5cpu": {"bus_load_err": 0.54, "miss_rate_err": 0.17,
                        "refs_rate_err": 1075.0},
        "table1-1cpu": {"bus_load_err": load, "miss_rate_err": 0.2,
                        "tpi_err": tpi},
        "rpc-a5": {"goodput_err": 4.6},
    }


def test_fidelity_pools_seeds_and_floors_at_the_resolution():
    rpc = workloads.WORKLOADS["rpc-a5"]
    raw = rpc.fidelity([{"goodput_err": 4.6 * 1.2},
                        {"goodput_err": 4.6 * 1.0}])
    assert raw == {"goodput_err": pytest.approx(0.1)}
    errors = workloads.floored(raw)
    assert set(errors) == set(workloads.ERR_METRICS)
    assert errors["goodput_err"] == pytest.approx(0.1)
    assert errors["bus_load_err"] == workloads.RESOLUTION   # no reference
    near = rpc.fidelity([{"goodput_err": 4.6 * 1.001}])
    assert near["goodput_err"] == pytest.approx(0.001)
    assert workloads.floored(near)["goodput_err"] == workloads.RESOLUTION


# -- layer attribution ------------------------------------------------------

@pytest.mark.parametrize("module, layer", [
    ("common/events.py", "events"),
    ("common/stats.py", "stats"),
    ("common/rng.py", "common"),
    ("processor/refgen.py", "processor"),
    ("cache/protocols/firefly.py", "cache"),
    ("protodsl/defs.py", "cache"),
    ("bus/mbus.py", "mbus"),
    ("bus/qbus.py", "io"),
    ("io/ethernet.py", "io"),
    ("topaz/rpc.py", "io"),
    ("topaz/kernel.py", "topaz"),
    ("memory/main_memory.py", "memory"),
    ("system/machine.py", "other"),
    ("workloads/threads_exerciser.py", "other"),
])
def test_layer_of_repro_modules(module, layer):
    package = Path(repro.bus.mbus.__file__).resolve().parent.parent
    assert layers.layer_of(str(package / module)) == layer


def test_layer_of_outside_the_package():
    assert layers.layer_of(json.__file__) == "other"


# -- an injected slowdown shows where it was injected ------------------------

#: A slower snoop broadcast: a busy-wait per cache attached to the bus,
#: around every ``MBus.transaction``.  It is compiled under the MBus
#: module's filename, so the profiler charges its time to the ``mbus``
#: layer as it would a slower ``MBus.transaction``; a pure loop, so no
#: builtin call time leaks into ``other``.  (A fixed cost per
#: transaction would not separate the workloads: the one-CPU stream
#: issues more transactions per host second than the five-CPU exerciser.)
_SLOW_TRANSACTION = """
def transaction(self, *args, **kwargs):
    for _ in range(_SPIN * len(self.snoopers)):
        pass
    return (yield from _original(self, *args, **kwargs))
"""


def _slow_mbus(monkeypatch, spin=300):
    namespace = {"_original": repro.bus.mbus.MBus.transaction,
                 "_SPIN": spin}
    exec(compile(_SLOW_TRANSACTION, repro.bus.mbus.__file__, "exec"),
         namespace)
    monkeypatch.setattr(repro.bus.mbus.MBus, "transaction",
                        namespace["transaction"])


_SHORT = {"table2-5cpu": (50_000, 100_000), "table1-1cpu": (100_000, 300_000)}


def _short(name):
    warmup, measure = _SHORT[name]
    return dataclasses.replace(workloads.WORKLOADS[name],
                               warmup=warmup, measure=measure)


def _cycles_per_s(name, reps=3):
    walls = sorted(run_once(_short(name), 1).wall_s for _ in range(reps))
    return sum(_SHORT[name]) / walls[len(walls) // 2]


def _mbus_share(name):
    rep = run_once(_short(name), 1, trace=True)
    return rep.profile["mbus.self_share"], rep.digest


def test_mbus_slowdown_is_attributed_and_hits_the_loaded_bus_harder(
        monkeypatch):
    base_share, base_digest = _mbus_share("table2-5cpu")
    base = {name: _cycles_per_s(name) for name in _SHORT}

    _slow_mbus(monkeypatch)
    slow_share, slow_digest = _mbus_share("table2-5cpu")
    slow = {name: _cycles_per_s(name) for name in _SHORT}

    assert slow_digest == base_digest        # a host-side change only
    assert slow_share > base_share + 0.1
    drop = {name: 1.0 - slow[name] / base[name] for name in _SHORT}
    assert drop["table2-5cpu"] > drop["table1-1cpu"] > 0.0


# -- comparing result files -------------------------------------------------

def _document(host, value, digest="abc", raw=None):
    return {"workload": "rpc-a5", "digests": {"3": digest},
            "provenance": {"host": host, "seed": 1},
            "metrics": {"sim_cycles_per_s": {"value": value,
                                             "unit": "cycles/s"},
                        "goodput_err": {"value": 0.03, "unit": "relative"},
                        "tpi_err": {"value": 0.03, "unit": "relative"}},
            "fidelity_raw": {"goodput_err": raw, "tpi_err": None}}


@pytest.mark.parametrize("other_host, verdict", [
    (False, "worse"), (True, "cross-host")])
def test_compare_labels_other_hosts_cross_host(tmp_path, capsys,
                                                other_host, verdict):
    host = run.host_fingerprint()
    moved = dict(host, cpu_model="another CPU") if other_host else host
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_document(host, 1000.0)))
    b.write_text(json.dumps(_document(moved, 500.0)))
    assert run.compare(str(a), str(b)) == 0
    out = capsys.readouterr().out
    assert verdict in out
    assert "simulation identical" in out
    if other_host:
        assert "worse" not in out and "better" not in out


def test_compare_shows_raw_errors_inside_the_floor(tmp_path, capsys):
    host = run.host_fingerprint()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_document(host, 1000.0, raw=0.004)))
    b.write_text(json.dumps(_document(host, 1000.0, raw=0.012)))
    assert run.compare(str(a), str(b)) == 0
    lines = {line.split()[0]: line
             for line in capsys.readouterr().out.splitlines()[1:]}
    assert "raw 0.004 -> 0.012" in lines["goodput_err"]
    assert "n/a (no reference on this workload)" in lines["tpi_err"]
