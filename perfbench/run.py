#!/usr/bin/env python3
"""Outside-in benchmark of the Firefly simulator on three paper workloads.

Usage, from the root of a source checkout (no install needed)::

    python3 perfbench/run.py --workload table2-5cpu --seed 1 \\
        --seconds 30 --trace 0 [--out result.json]
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py compare before.json after.json

``--trace 0`` prints the end-to-end metrics (host speed, set-up time,
peak memory, fidelity to the paper); ``--trace 1`` adds one profiled
run and prints the per-layer metrics.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("table2-5cpu", "table1-1cpu", "rpc-a5")

#: Fresh interpreters started per run to time set-up.
SETUP_SAMPLES = 7
#: Untraced runs per benchmark run, at the least, whatever --seconds says.
MIN_REPS = 2

#: End-to-end metrics (printed with --trace 0): name -> unit.
END_TO_END = {
    "sim_cycles_per_s": "cycles/s",
    "sim_instr_per_s": "instr/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bus_load_err": "absolute",
    "miss_rate_err": "absolute",
    "refs_rate_err": "relative",
    "tpi_err": "relative",
    "goodput_err": "relative",
}

#: Per-layer metrics (printed with --trace 1): name -> unit.
PER_LAYER = {
    "events.self_share": "fraction",
    "events.scheduled": "count",
    "events.per_host_s": "1/s",
    "processor.self_share": "fraction",
    "processor.instructions": "count",
    "processor.tpi": "ticks/instr",
    "processor.idle_frac": "fraction",
    "processor.stall_per_instr": "cycles/instr",
    "cache.self_share": "fraction",
    "cache.refs": "count",
    "cache.miss_rate": "fraction",
    "cache.fast_hit_frac": "fraction",
    "cache.snoop_probes": "count",
    "cache.snoop_hit_frac": "fraction",
    "cache.dma_ops": "count",
    "mbus.self_share": "fraction",
    "mbus.transactions": "count",
    "mbus.per_host_s": "1/s",
    "mbus.load": "fraction",
    "mbus.wait_per_txn": "cycles",
    "mbus.cache_supplied_frac": "fraction",
    "io.self_share": "fraction",
    "io.qbus_load": "fraction",
    "io.wire_util": "fraction",
    "io.rpc_calls": "count",
    "topaz.self_share": "fraction",
    "topaz.context_switches": "count",
    "topaz.blocks": "count",
    "topaz.migrations": "count",
    "topaz.lock_contended_frac": "fraction",
    "memory.self_share": "fraction",
    "stats.self_share": "fraction",
    "stats.calls": "count",
    "common.self_share": "fraction",
    "other.self_share": "fraction",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (a set-up probe failed)."""


# -- set-up time ----------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """Child side: time imports and build in this fresh interpreter.

    A calibration chunk follows, untimed by the probe, to scale the
    probe's seconds by the host's speed at the time.
    """
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    imported = time.perf_counter()
    workloads.WORKLOADS[workload].build(seed)
    built = time.perf_counter()
    from calibrate import chunk
    print(json.dumps({"import_s": imported - started,
                      "build_s": built - imported,
                      "calibration_s": chunk()}))


def time_setup(workload: str, seed: int) -> dict:
    """Median import and build seconds over fresh interpreters.

    In reference-host seconds (see :mod:`calibrate`), and the unscaled
    median as ``host_setup_s``.
    """
    from calibrate import REFERENCE_S
    imports, builds, hosts = [], [], []
    for _ in range(SETUP_SAMPLES):
        try:
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--setup-probe", "--workload", workload, "--seed", str(seed)],
                cwd=str(ROOT), capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up probe timed out: {exc}") from exc
        if child.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{child.stderr}")
        sample = json.loads(child.stdout.strip().splitlines()[-1])
        scale = REFERENCE_S / sample["calibration_s"]
        imports.append(sample["import_s"] * scale)
        builds.append(sample["build_s"] * scale)
        hosts.append(sample["import_s"] + sample["build_s"])
    median = statistics.median
    return {"setup_s": median([i + b for i, b in zip(imports, builds)]),
            "import_s": median(imports), "build_s": median(builds),
            "host_setup_s": median(hosts)}


# -- provenance -----------------------------------------------------------

def _git(*args: str):
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> dict:
    """What makes two timings comparable: same CPU, kernel and runtime."""
    import numpy
    return {"cpu_model": _cpu_model(), "cores": os.cpu_count(),
            "kernel": platform.release(),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def provenance(seed: int) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": _git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "host": host_fingerprint(), "seed": seed}


# -- one workload ---------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (result document, JSON line)."""
    setup = time_setup(name, seed)

    sys.path.insert(0, str(SRC))
    from calibrate import HostClock
    from measure import run_once
    from workloads import ERR_METRICS, WORKLOADS, floored
    workload = WORKLOADS[name]

    # Untraced runs cycle over the run's seeds; a traced run needs only
    # the first, whose untraced wall time it is compared with.
    seeds = workload.sub_seeds(seed)
    if trace:
        seeds = seeds[:1]
    reps, failures = [], []

    def attempt(run_seed: int, traced: bool = False):
        try:
            rep = run_once(workload, run_seed, trace=traced)
        except Exception:  # a failed run is a counted operation
            failures.append(traceback.format_exc())
            print(failures[-1], file=sys.stderr)
            return None
        reps.append((run_seed, rep))
        return rep

    # One untimed run first warms the interpreter up.  Peak memory is
    # read after it, before the calibration loop allocates its own.
    attempt(seeds[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Every timed run is bracketed by calibration chunks, each taken
    # after the garbage of the run before it has been collected.
    clock = HostClock()
    timed = 0

    def timed_attempt(run_seed: int, traced: bool = False) -> None:
        nonlocal timed
        rep = attempt(run_seed, traced)
        gc.collect()
        clock.tick()
        if rep is not None:
            rep.host_scale = clock.scale(timed)
        timed += 1

    budget = seconds / 2 if trace else seconds
    started = time.perf_counter()
    gc.collect()
    clock.tick()

    def more_runs() -> bool:
        # Whole passes over the seeds, so that each seed is timed as
        # often as the others; stop at the budget rather than start a
        # pass it cannot finish.
        if timed < max(MIN_REPS, len(seeds)) or timed % len(seeds):
            return True
        elapsed = time.perf_counter() - started
        return elapsed * (timed + len(seeds)) / timed < budget

    while more_runs():
        timed_attempt(seeds[timed % len(seeds)])
    if trace:
        timed_attempt(seeds[0], traced=True)

    # Every run of one seed must simulate the same thing, traced or not.
    first = {}
    for run_seed, rep in reps:
        reference = first.setdefault(run_seed, rep)
        if rep.digest != reference.digest:
            rep.problems += (f"seed {run_seed}: digest {rep.digest} differs "
                             f"from {reference.digest}",)
        for problem in rep.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    failed = len(failures) + sum(1 for _, rep in reps if rep.problems)
    untraced = [rep for _, rep in reps
                if rep.host_scale is not None and not rep.profile]
    traced = next((rep for _, rep in reps if rep.profile), None)

    values, raw_errors, host = {}, {}, {}
    if untraced and len(first) == len(seeds):
        raw_errors = workload.fidelity([first[s].observed for s in seeds])
        median = statistics.median
        values.update({
            # Host times in reference-host seconds; see calibrate.py.
            "sim_cycles_per_s": median([r.cycles / (r.wall_s * r.host_scale)
                                        for r in untraced]),
            "sim_instr_per_s": median([r.instructions
                                       / (r.wall_s * r.host_scale)
                                       for r in untraced]),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": peak_rss_mb,
            **floored(raw_errors),
            **first[seeds[0]].counts,
            "setup.import_s": setup["import_s"],
            "setup.build_s": setup["build_s"],
        })
        host = {
            "sim_cycles_per_s": median([r.cycles / r.wall_s
                                        for r in untraced]),
            "setup_s": setup["host_setup_s"],
            "host_scale": median([r.host_scale for r in untraced]),
        }
        if traced is not None:
            window_wall = median([r.window_wall_s * r.host_scale
                                  for r in untraced])
            values.update(traced.profile)
            values["events.per_host_s"] = (values["events.scheduled"]
                                           / window_wall)
            values["mbus.per_host_s"] = (values["mbus.transactions"]
                                         / window_wall)
            values["trace.overhead"] = (traced.window_wall_s
                                        * traced.host_scale / window_wall)

    wanted = PER_LAYER if trace else END_TO_END
    metrics = {key: {"value": values[key], "unit": unit}
               for key, unit in wanted.items() if key in values}
    line = {"correct": failed == 0 and len(metrics) == len(wanted),
            "attempted": len(reps) + len(failures), "failed": failed,
            "metrics": metrics}
    document = {
        "schema": "perfbench/1", "workload": name, "seconds": seconds,
        "trace": int(trace), "provenance": provenance(seed),
        "digests": {str(s): rep.digest for s, rep in first.items()},
        "horizon": {"warmup": workload.warmup, "measure": workload.measure},
        "runs": len(untraced), "attempted": line["attempted"],
        "failed": failed, "metrics": metrics,
        # Unscaled medians on this host, beside the reference-host ones.
        "host_speed": host,
        # The unfloored errors; null where this workload has no reference.
        "fidelity_raw": {key: raw_errors.get(key) for key in ERR_METRICS},
        "samples": [{"seed": s, "traced": bool(rep.profile),
                     "wall_s": rep.wall_s, "window_wall_s": rep.window_wall_s,
                     "host_scale": rep.host_scale}
                    for s, rep in reps],
    }
    return document, line


def _print_report(document: dict, line: dict) -> None:
    host = document["provenance"]["host"]
    digests = ", ".join(f"{s}={d}" for s, d in document["digests"].items())
    print(f"{document['workload']}: seed {document['provenance']['seed']}, "
          f"{document['runs']} untraced runs of "
          f"{document['horizon']['warmup']}+{document['horizon']['measure']} "
          f"cycles; digests {digests}")
    print(f"host: {host['cpu_model']} x{host['cores']}, kernel "
          f"{host['kernel']}, python {host['python']}, numpy {host['numpy']}; "
          f"git {document['provenance']['git_sha']} "
          f"dirty={document['provenance']['dirty']}")
    speed = document["host_speed"]
    if speed:
        print(f"unscaled on this host: {speed['sim_cycles_per_s']:.6g} "
              f"cycles/s, set-up {speed['setup_s']:.4g} s; median host "
              f"scale {speed['host_scale']:.4g}")
    raw = document["fidelity_raw"]
    for key, metric in line["metrics"].items():
        note = ""
        if key in raw:
            note = ("  (no reference on this workload)" if raw[key] is None
                    else f"  (raw {raw[key]:.6g})")
        print(f"  {key:28s} {metric['value']:>16.6g} {metric['unit']}{note}")


# -- comparing two result files -------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    """Print B against A per metric; cross-host pairs get no verdict."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    direction = {m["name"]: (m["better"], m.get("bound"))
                 for m in spec["end_to_end"] + spec["per_layer"]}
    cross_host = a["provenance"]["host"] != b["provenance"]["host"]
    shared = sorted(set(a["digests"]) & set(b["digests"]))
    differ = [s for s in shared if a["digests"][s] != b["digests"][s]]
    if a["workload"] != b["workload"] or not shared:
        simulation = "not comparable (different workload or seeds)"
    else:
        simulation = (f"differs on seeds {', '.join(differ)}" if differ
                      else f"identical on seeds {', '.join(shared)}")
    print(f"{a['workload']} -> {b['workload']}: "
          f"{'cross-host' if cross_host else 'same host'}; "
          f"simulation {simulation}")
    raws_a = a.get("fidelity_raw", {})
    raws_b = b.get("fidelity_raw", {})
    for key, metric in b["metrics"].items():
        if key not in a["metrics"] or key not in direction:
            continue
        before, after = a["metrics"][key]["value"], metric["value"]
        better, bound = direction[key]
        ratio = after / before if before else float("nan")
        raw_a, raw_b = raws_a.get(key), raws_b.get(key)
        raw = (f" raw {raw_a:.6g} -> {raw_b:.6g}"
               if raw_a is not None and raw_b is not None else "")
        if key in raws_b and raw_a is None and raw_b is None:
            verdict = "n/a (no reference on this workload)"
        elif cross_host:
            verdict = "cross-host"
        elif bound is None:
            verdict = ""
        else:
            worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
            verdict = ("worse" if worse > bound
                       else "better" if worse < -bound else "no change")
        print(f"  {key:28s} {before:>14.6g} -> {after:<14.6g} "
              f"x{ratio:.3f} {verdict}{raw}")
    return 0


# -- entry point ----------------------------------------------------------

def _run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            command += ["--out", f"{args.out}.{name}.json"]
        child = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                               text=True)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 and not lines:
            return child.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return _run_all(args)
    try:
        document, line = run_workload(args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
    _print_report(document, line)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
