"""Bit-for-bit pins of the three paper workloads over short windows.

Each case runs one of the paper's experiments through its public entry
point — the one-CPU synthetic machine behind Table 1, Table 2's
five-CPU Threads exerciser and §6's RPC loop with three clients on five
CPUs — and hashes every windowed ``MachineMetrics`` field (plus the RPC
call count and goodput).  The pinned digests were recorded before the
event core's direct dispatch landed: a change to the kernel or a model
that only speeds the simulator up must leave them unchanged.
"""

import hashlib
import json

import pytest

from repro.system import FireflyConfig, FireflyMachine
from repro.system.metrics import collect_metrics
from repro.workloads.rpc_server import RpcWorkload
from repro.workloads.threads_exerciser import build_exerciser


def _digest(document) -> str:
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _table1_1cpu():
    machine = FireflyMachine(FireflyConfig(processors=1, seed=1))
    return {"metrics": machine.run(50_000, 200_000).to_dict()}


def _table2_5cpu():
    kernel = build_exerciser(5, seed=1)
    return {"metrics": kernel.machine.run(50_000, 100_000).to_dict()}


def _rpc_a5():
    rpc = RpcWorkload(5, 3, seed=1)
    result = rpc.run(100_000, 1_000_000)
    metrics = collect_metrics(rpc.kernel.machine, 1_000_000)
    return {"metrics": metrics.to_dict(),
            "calls": result.calls_completed,
            "goodput_mbit": result.goodput_mbit}


PINS = (
    ("table1-1cpu", _table1_1cpu, "41a4d92930db04de"),
    ("table2-5cpu", _table2_5cpu, "1c9e624b1f95485f"),
    ("rpc-a5", _rpc_a5, "1d9539bf78ffee19"),
)


@pytest.mark.parametrize("name,run,expected", PINS,
                         ids=[name for name, _, _ in PINS])
def test_paper_workload_digest_is_pinned(name, run, expected):
    assert _digest(run()) == expected
