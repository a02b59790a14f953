"""Unit tests for the discrete-event kernel."""

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, count

import pytest

from repro.common.errors import DeadlockError, SimulationError
from repro.common.events import Simulator


class TestTimeouts:
    def test_timeout_advances_clock(self, sim):
        log = []

        def proc():
            yield sim.timeout(5)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [5]

    def test_zero_timeout_runs_same_time(self, sim):
        log = []

        def proc():
            yield sim.timeout(0)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [0]

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_sequential_timeouts_accumulate(self, sim):
        log = []

        def proc():
            for _ in range(3):
                yield sim.timeout(7)
                log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [7, 14, 21]

    def test_interleaving_is_time_ordered(self, sim):
        log = []

        def proc(name, delay):
            yield sim.timeout(delay)
            log.append(name)
            yield sim.timeout(delay)
            log.append(name)

        sim.process(proc("slow", 10))
        sim.process(proc("fast", 3))
        sim.run()
        assert log == ["fast", "fast", "slow", "slow"]


class TestEvents:
    def test_event_delivers_value(self, sim):
        event = sim.event("e")
        got = []

        def waiter():
            value = yield event
            got.append(value)

        def firer():
            yield sim.timeout(4)
            event.succeed(42)

        sim.process(waiter())
        sim.process(firer())
        sim.run()
        assert got == [42]

    def test_multiple_waiters_all_resume(self, sim):
        event = sim.event()
        got = []

        def waiter(i):
            yield event
            got.append(i)

        def firer():
            yield sim.timeout(2)
            event.succeed()

        for i in range(3):
            sim.process(waiter(i))
        sim.process(firer())
        sim.run()
        assert sorted(got) == [0, 1, 2]

    def test_late_waiter_sees_fired_value(self, sim):
        event = sim.event()
        got = []

        def firer():
            event.succeed("early")
            yield sim.timeout(1)

        def late():
            yield sim.timeout(5)
            value = yield event
            got.append(value)

        sim.process(firer())
        sim.process(late())
        sim.run()
        assert got == ["early"]

    def test_double_fire_is_error(self, sim):
        event = sim.event("once")
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fired_and_value_properties(self, sim):
        event = sim.event()
        assert not event.fired
        event.succeed(7)
        assert event.fired
        assert event.value == 7


def self_firing(sim, event):
    def gen():
        yield sim.timeout(2)
        event.succeed()
    return gen()


class TestProcesses:
    def test_join_returns_result(self, sim):
        def child():
            yield sim.timeout(3)
            return "payload"

        def parent():
            proc = sim.process(child(), "child")
            result = yield proc
            return result, sim.now

        parent_proc = sim.process(parent(), "parent")
        sim.run()
        assert parent_proc.result == ("payload", 3)

    def test_join_after_done_is_immediate(self, sim):
        def child():
            return "done"
            yield  # pragma: no cover

        def parent():
            proc = sim.process(child())
            yield sim.timeout(10)
            result = yield proc
            return result

        parent_proc = sim.process(parent())
        sim.run()
        assert parent_proc.result == "done"

    def test_bad_waitable_raises(self, sim):
        def proc():
            yield "not a waitable"

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_done_and_result_flags(self, sim):
        def proc():
            yield sim.timeout(1)
            return 5

        p = sim.process(proc())
        assert not p.done
        sim.run()
        assert p.done and p.result == 5


class TestResources:
    def test_mutual_exclusion(self, sim):
        res = sim.resource("r")
        log = []

        def user(name, hold):
            yield res.acquire()
            log.append((name, "in", sim.now))
            yield sim.timeout(hold)
            res.release(res.holder)
            log.append((name, "out", sim.now))

        sim.process(user("a", 5))
        sim.process(user("b", 5))
        sim.run()
        # b enters only after a leaves.
        assert log == [("a", "in", 0), ("a", "out", 5),
                       ("b", "in", 5), ("b", "out", 10)]

    def test_priority_order(self, sim):
        res = sim.resource()
        order = []

        def holder():
            yield res.acquire()
            yield sim.timeout(10)
            res.release(res.holder)

        def requester(name, priority):
            yield sim.timeout(1)
            yield res.acquire(priority=priority)
            order.append(name)
            res.release(res.holder)

        sim.process(holder())
        sim.process(requester("low", 5))
        sim.process(requester("high", 1))
        sim.process(requester("mid", 3))
        sim.run()
        assert order == ["high", "mid", "low"]

    def test_fifo_within_priority(self, sim):
        res = sim.resource()
        order = []

        def holder():
            yield res.acquire()
            yield sim.timeout(10)
            res.release(res.holder)

        def requester(name):
            yield sim.timeout(1)
            yield res.acquire(priority=2)
            order.append(name)
            res.release(res.holder)

        sim.process(holder())
        for name in ("first", "second", "third"):
            sim.process(requester(name))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_release_by_non_holder_is_error(self, sim):
        res = sim.resource()
        errors = []

        def holder():
            yield res.acquire()
            yield sim.timeout(5)
            res.release(res.holder)

        def intruder():
            yield sim.timeout(1)
            me = sim.process(noop())
            try:
                res.release(me)
            except SimulationError as exc:
                errors.append(exc)

        def noop():
            return
            yield  # pragma: no cover

        sim.process(holder())
        sim.process(intruder())
        sim.run()
        assert len(errors) == 1

    def test_wait_accounting(self, sim):
        res = sim.resource()

        def user(delay):
            yield sim.timeout(delay)
            yield res.acquire()
            yield sim.timeout(10)
            res.release(res.holder)

        sim.process(user(0))
        sim.process(user(0))
        sim.run()
        assert res.grants == 2
        assert res.total_wait == 10  # the second waited one tenure


class TestRunControl:
    def test_run_until_lands_exactly(self, sim):
        def proc():
            yield sim.timeout(100)

        sim.process(proc())
        sim.run_until(42)
        assert sim.now == 42
        sim.run_until(200)
        assert sim.now == 200

    def test_run_until_past_is_error(self, sim):
        sim.run_until(10)
        with pytest.raises(SimulationError):
            sim.run_until(5)

    def test_deadlock_detection(self, sim):
        event = sim.event("never")

        def stuck():
            yield event

        sim.process(stuck(), "stuck")
        with pytest.raises(DeadlockError) as excinfo:
            sim.run(check_deadlock=True)
        assert "stuck" in str(excinfo.value)

    def test_peek_next_event(self, sim):
        def proc():
            yield sim.timeout(9)

        assert sim.peek() is None or sim.peek() == 0
        sim.process(proc())
        sim.run_until(0)
        assert sim.peek() == 9

    def test_call_at_runs_callback(self, sim):
        fired = []
        sim.call_at(6, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [6]


# -- dispatch order under adversarial schedules --------------------------

#: Adversarial delay palette: same-tick ties (0 twice), dense small
#: delays, and far-future timers well beyond the dense population.
DELAYS = (0, 0, 1, 1, 2, 3, 7, 64, 1023, 1024, 1500, 4096)

#: Resource contender priorities: ties are common on purpose, so grants
#: exercise both the priority order and the request order within one.
PRIORITIES = (0, 1, 1, 2)

#: Contenders share this many resources (contender ``c`` uses ``c % n``).
RESOURCES = 2

SEEDS = range(1987, 2002)


@dataclass
class Script:
    """A schedule generated outside the simulation.

    The kernel and the reference below replay the identical schedule:
    ``plans`` are timeout-only workers, ``chains`` bare callback chains,
    ``contenders`` rounds of ``(gap, priority, hold)`` on a shared
    resource, and ``waiters`` delay plans after each of which a process
    waits on an already-fired event and joins an already-finished one.
    """

    plans: list = field(default_factory=list)
    chains: list = field(default_factory=list)
    contenders: list = field(default_factory=list)
    waiters: list = field(default_factory=list)


def _script(seed: int) -> Script:
    """The adversarial script drawn from ``seed``."""
    rng = random.Random(seed)
    return Script(
        plans=[[rng.choice(DELAYS) for _ in range(30)] for _ in range(12)],
        chains=[[rng.choice(DELAYS) for _ in range(10)] for _ in range(6)],
        contenders=[[(rng.choice(DELAYS), rng.choice(PRIORITIES),
                      rng.choice(DELAYS)) for _ in range(8)]
                    for _ in range(6)],
        waiters=[[rng.choice(DELAYS) for _ in range(10)] for _ in range(3)],
    )


def _kernel_log(script: Script, until=None):
    """``(dispatch log, sim._seq)`` of the script on the real kernel.

    With ``until``, the run drains to that horizon first and logs
    ``peek()`` and ``now`` there before finishing.
    """
    sim = Simulator()
    log = []

    def worker(wid, plan):
        for delay in plan:
            yield sim.timeout(delay)
            log.append(("proc", wid, sim.now))

    def contender(cid, res, rounds):
        for gap, priority, hold in rounds:
            yield sim.timeout(gap)
            granted = yield res.acquire(priority)
            assert granted is res and res.holder is me[cid]
            log.append(("grant", cid, sim.now))
            yield sim.timeout(hold)
            res.release(me[cid])
            log.append(("release", cid, sim.now))

    fired = sim.event("fired")
    fired.succeed("early")

    def finished():
        return "payload"
        yield  # pragma: no cover

    def waiter(lid, plan, done):
        for delay in plan:
            yield sim.timeout(delay)
            assert (yield fired) == "early"
            log.append(("event", lid, sim.now))
            assert (yield done) == "payload"
            log.append(("join", lid, sim.now))

    for wid, plan in enumerate(script.plans):
        sim.process(worker(wid, plan), name=f"w{wid}")
    resources = [sim.resource(f"r{r}") for r in range(RESOURCES)]
    me = [sim.process(contender(cid, resources[cid % RESOURCES], rounds),
                      name=f"c{cid}")
          for cid, rounds in enumerate(script.contenders)]
    if script.waiters:
        done = sim.process(finished(), name="done")
        for lid, plan in enumerate(script.waiters):
            sim.process(waiter(lid, plan, done), name=f"l{lid}")

    def start_chain(cid, offsets):
        pending = iter(offsets)

        def fire():
            log.append(("call", cid, sim.now))
            nxt = next(pending, None)
            if nxt is not None:
                sim.call_at(nxt, fire)

        sim.call_at(next(pending), fire)

    for cid, offsets in enumerate(script.chains):
        start_chain(cid, offsets)

    if until is None:
        sim.run()
    else:
        sim.run_until(until)
        log.append(("peek", sim.peek(), sim.now))
        sim.run()
    return log, sim._seq


def _programs(script: Script) -> list:
    """Each process of the script as a flat list of operations.

    Processes are listed in the kernel's creation order: workers,
    contenders, then (with waiters) the finished process and the
    waiters.
    """
    programs = []
    for wid, plan in enumerate(script.plans):
        programs.append([op for delay in plan
                         for op in (("sleep", delay), ("log", "proc", wid))])
    for cid, rounds in enumerate(script.contenders):
        res = cid % RESOURCES
        programs.append([op for gap, priority, hold in rounds for op in (
            ("sleep", gap), ("acquire", res, priority),
            ("log", "grant", cid), ("sleep", hold), ("release", res),
            ("log", "release", cid))])
    if script.waiters:
        programs.append([])  # returns on its first step
        for lid, plan in enumerate(script.waiters):
            programs.append([op for delay in plan for op in (
                ("sleep", delay), ("wait",), ("log", "event", lid),
                ("wait",), ("log", "join", lid))])
    return programs


def _reference_log(script: Script, until=None):
    """The same script dispatched by an independent reference.

    No heap: the pending set is a plain list, and each step takes the
    entry with the least ``(time, schedule order)`` by linear scan — the
    kernel's documented order, with same-time entries first-in
    first-out.  A dispatched process runs its operations until one
    blocks: a sleep schedules its wake-up; an acquire of a free resource
    schedules the grant at the current time, and of a held one queues
    by ``(priority, request order)``; a release hands the resource to
    the least queued request and schedules that grant; a wait on the
    fired event or the finished process schedules its resume at the
    current time.  Returns ``(dispatch log, schedules counted)``.
    """
    programs = _programs(script)
    pending = []  # (time, order, kind, ident, pc)
    counter = count(1)
    for pid in range(len(programs)):
        pending.append((0, next(counter), "proc", pid, 0))
    for cid, offsets in enumerate(script.chains):
        pending.append((offsets[0], next(counter), "call", cid, 0))
    holders = [None] * RESOURCES
    queues = [[] for _ in range(RESOURCES)]  # (priority, order, pid, pc)
    requests = count()
    log = []
    peeked = until is None
    while pending:
        entry = min(pending)
        time, _, kind, ident, pc = entry
        if not peeked and time > until:
            log.append(("peek", time, until))
            peeked = True
        pending.remove(entry)
        if kind == "call":
            log.append(("call", ident, time))
            if pc + 1 < len(script.chains[ident]):
                pending.append((time + script.chains[ident][pc + 1],
                                next(counter), "call", ident, pc + 1))
            continue
        ops = programs[ident]
        while pc < len(ops):
            op = ops[pc]
            pc += 1
            if op[0] == "log":
                log.append((op[1], op[2], time))
            elif op[0] == "release":
                res = op[1]
                assert holders[res] == ident
                holders[res] = None
                if queues[res]:
                    request = min(queues[res])
                    queues[res].remove(request)
                    holders[res] = request[2]
                    pending.append((time, next(counter), "proc",
                                    request[2], request[3]))
            elif op[0] == "acquire" and holders[op[1]] is not None:
                queues[op[1]].append((op[2], next(requests), ident, pc))
                break
            else:
                if op[0] == "acquire":
                    holders[op[1]] = ident
                delay = op[1] if op[0] == "sleep" else 0
                pending.append((time + delay, next(counter), "proc",
                                ident, pc))
                break
    if not peeked:
        log.append(("peek", None, until))
    return log, next(counter) - 1


class TestDispatchOrder:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_adversarial_schedule_matches_reference(self, seed):
        script = _script(seed)
        log, seq = _kernel_log(script)
        assert (log, seq) == _reference_log(script)
        times = [entry[2] for entry in log]
        assert times == sorted(times), "dispatch time went backwards"
        for wid, plan in enumerate(script.plans):
            landed = [now for kind, ident, now in log
                      if kind == "proc" and ident == wid]
            assert landed == list(accumulate(plan))
        for kind, rounds in (("grant", 8), ("release", 8), ("event", 10),
                             ("join", 10)):
            per_process = Counter(ident for k, ident, _ in log if k == kind)
            assert set(per_process.values()) == {rounds}

    @pytest.mark.parametrize("seed", (1987, 1993))
    def test_run_until_then_run(self, seed):
        """Partial drains and peek() agree with the reference too."""
        script = _script(seed)
        assert _kernel_log(script, until=900) == _reference_log(script,
                                                                until=900)

    def test_seq_counts_every_logical_schedule(self):
        """``_seq`` counts a schedule for each wake-up, whether it went
        through the heap or resumed in place: a start, a timeout, an
        uncontended grant, a fired-event wait, a finished join and a
        callback are one each."""
        sim = Simulator()
        res = sim.resource()
        fired = sim.event()
        fired.succeed(1)

        def child():
            return 7
            yield  # pragma: no cover

        def parent():
            kid = sim.process(child())        # start: 1
            yield sim.timeout(3)              # 1
            yield res.acquire()               # 1
            res.release(res.holder)
            assert (yield fired) == 1         # 1
            assert (yield kid) == 7           # 1

        proc = sim.process(parent())          # start: 1
        sim.call_at(1, lambda: None)          # 1
        sim.run()
        assert proc.done and sim.now == 3
        assert sim._seq == 7

    def test_zero_delay_storm_is_fifo(self):
        """Zero-delay self-reschedules dispatch in schedule order
        within one tick: round-robin over the workers, hop by hop."""
        sim = Simulator()
        log = []

        def storm(wid):
            for hop in range(50):
                yield sim.timeout(0)
                log.append((wid, hop, sim.now))

        for wid in range(8):
            sim.process(storm(wid), name=f"s{wid}")
        sim.run()
        assert log == [(wid, hop, 0) for hop in range(50)
                       for wid in range(8)]

    def test_lone_far_future_sleeper(self):
        sim = Simulator()
        fired = []
        sim.call_at(10_240, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10_240]
        assert sim.now == 10_240


#: A lone worker's plan: wake-ups at 0, 1, 2, 5, 5, 69, 76, 1099.
LONE_PLAN = [0, 1, 1, 3, 0, 64, 7, 1023]


class TestLoneProcessHorizon:
    """One process and nothing else queued: every wake-up is the next
    event, so every one resumes in place unless the horizon stops it."""

    @pytest.mark.parametrize("horizon", (0, 1, 4, 5, 68, 69, 1098, 5000))
    def test_timeouts_straddling_run_until(self, horizon):
        """``run_until`` stops with ``now`` on the horizon, ``peek()`` on
        the first wake-up after it and nothing dispatched beyond it;
        ``run`` then finishes the plan on time."""
        script = Script(plans=[LONE_PLAN])
        wakes = list(accumulate(LONE_PLAN))
        after = [t for t in wakes if t > horizon]
        log, seq = _kernel_log(script, until=horizon)
        assert log == ([("proc", 0, t) for t in wakes if t <= horizon]
                       + [("peek", after[0] if after else None, horizon)]
                       + [("proc", 0, t) for t in after])
        assert (log, seq) == _reference_log(script, until=horizon)

    @pytest.mark.parametrize("horizon", (0, 3, 64, 100, 2000))
    def test_lone_contender_straddling_run_until(self, horizon):
        """Uncontended grants resume in place within the horizon only."""
        script = Script(contenders=[[(3, 1, 0), (0, 0, 64), (1, 2, 7),
                                     (1023, 1, 0)]])
        log, seq = _kernel_log(script, until=horizon)
        peek = next(i for i, entry in enumerate(log) if entry[0] == "peek")
        assert all(entry[2] <= horizon for entry in log[:peek])
        assert (log, seq) == _reference_log(script, until=horizon)


class TestSchedulingErrorContext:
    def test_negative_timeout_names_process_and_now(self):
        sim = Simulator()

        def offender():
            yield sim.timeout(5)
            yield sim.timeout(-3)

        sim.process(offender(), name="culprit")
        with pytest.raises(SimulationError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "-3" in message
        assert "now=5" in message
        assert "'culprit'" in message

    def test_negative_call_at_names_delay_and_now(self):
        sim = Simulator()
        sim.call_at(7, lambda: None)
        sim.run()
        with pytest.raises(SimulationError) as excinfo:
            sim.call_at(-2, lambda: None)
        message = str(excinfo.value)
        assert "-2" in message
        assert "now=7" in message
