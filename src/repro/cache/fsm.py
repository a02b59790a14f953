"""Protocol FSM enumeration: regenerating Figure 3 from live code.

The paper's Figure 3 is the state-transition diagram of a cache line
under processor (P) and memory-bus (M) stimuli, with the MShared
response in parentheses where it selects the successor.  Rather than
transcribing the figure, this module *measures* it: it builds a real
two-cache rig, places the focal cache's line in each state, applies
each stimulus, and records the observed successor state and bus
operations.  The Figure 3 benchmark then checks the enumeration against
a golden table typed in from the paper — so the figure is evidence that
the implemented protocol is the published one.

The same machinery enumerates the baseline protocols (their diagrams
appear in the Archibald & Baer survey), which the protocol unit tests
use to pin each baseline's state machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bus.mbus import MBus
from repro.cache.cache import CacheGeometry, SnoopyCache
from repro.cache.line import LineState
from repro.cache.protocols import PROTOCOL_FACTS, protocol_by_name
from repro.common.errors import ConfigurationError
from repro.common.events import Simulator
from repro.common.types import AccessKind, BusOp, MemRef
from repro.memory.main_memory import MainMemory, MemoryModule

#: States each protocol's lines can occupy (besides INVALID), and the
#: state a *peer* cache naturally holds when it shares the line.
#: Generated from the DSL definitions' facts tables — these used to be
#: hand-maintained dictionaries that every new protocol had to edit.
PROTOCOL_STATES: Dict[str, Tuple[LineState, ...]] = {
    name: facts.states for name, facts in PROTOCOL_FACTS.items()
}

PEER_COSTATE: Dict[str, LineState] = {
    name: facts.peer_costate for name, facts in PROTOCOL_FACTS.items()
}


@dataclass(frozen=True)
class Transition:
    """One observed arc of the protocol FSM.

    ``peer_end`` records where the stimulus left the *peer* cache's
    line, when a peer was present (None otherwise) — the static
    verifier's structural pass uses it to prove that no arc parks the
    focal cache in a silent-write state while the peer still holds a
    copy.
    """

    start: LineState
    stimulus: str
    peer_holds: bool
    end: LineState
    bus_ops: Tuple[str, ...]
    peer_end: Optional[LineState] = None

    def label(self) -> str:
        """Compact rendering, e.g. ``S --P-write (MShared)--> S [MWrite]``.

        The parenthesised MShared response (the figure's convention) is
        only meaningful on processor-initiated arcs that reached the
        bus; M-side arcs are annotated with the operation alone.
        """
        annotation = ""
        if self.bus_ops and self.stimulus.startswith("P-"):
            annotation = " (MShared)" if self.peer_holds else " (not MShared)"
        ops = f" [{', '.join(self.bus_ops)}]" if self.bus_ops else ""
        return (f"{self.start.value:>3} --{self.stimulus}{annotation}--> "
                f"{self.end.value}{ops}")


class ProbeRig:
    """A bus, memory and N one-line caches for single-stimulus probes.

    The probed line is placed directly into a state (:meth:`inject`)
    rather than reached by replaying a prefix, so the transition
    function can be enumerated over its whole domain; one stimulus then
    runs through the real cache/bus/protocol code and the result is
    read back.  Figure 3's enumeration below and the model checker
    (:mod:`repro.verify.model`) both drive this rig.
    """

    ADDRESS = 0  # the one line-aligned word every probe touches

    def __init__(self, protocol, caches: int = 2) -> None:
        self.sim = Simulator()
        self.memory = MainMemory([MemoryModule(0, 1 << 10, is_master=True)])
        self.mbus = MBus(self.sim, self.memory)
        geometry = CacheGeometry(1, 1)
        self.caches = [SnoopyCache(self.mbus, protocol, i, geometry)
                       for i in range(caches)]

    def inject(self, index: int, state: LineState, value: int) -> None:
        """Fill cache ``index``'s probe line with ``value`` in ``state``."""
        line, _, tag, _ = self.caches[index].lookup(self.ADDRESS)
        line.fill(tag, (value,), state)

    def apply(self, stimulus: str, index: int, value: int = 0) -> None:
        """Run one stimulus to completion.

        ``P-*`` and ``DMA-*`` stimuli act through cache ``index``;
        ``M-*`` stimuli are bare bus transactions initiated by port
        ``index``, which therefore does not snoop them.  ``value`` is
        the word a write stores.
        """
        cache = self.caches[index]
        address = self.ADDRESS
        if stimulus == "P-read":
            gen = cache.cpu_read(MemRef(address, AccessKind.DATA_READ))
        elif stimulus == "P-write":
            gen = cache.cpu_write(MemRef(address, AccessKind.DATA_WRITE),
                                  value)
        elif stimulus == "DMA-read":
            gen = cache.dma_read(address)
        elif stimulus == "DMA-write":
            gen = cache.dma_write(address, value)
        elif stimulus == "M-read":
            gen = self.mbus.transaction(index, BusOp.MREAD, address,
                                        initiator=index)
        elif stimulus == "M-write":
            gen = self.mbus.transaction(index, BusOp.MWRITE, address,
                                        initiator=index, data=(value,))
        else:
            raise ConfigurationError(f"unknown stimulus {stimulus!r}")
        self.sim.process(gen, "stimulus")
        self.sim.run()

    def ops_snapshot(self) -> Dict[str, int]:
        return {key: counter.total for key, counter in self.mbus.stats.items()
                if key.startswith("op.") or key == "write.victim"}

    def ops_delta(self, before: Dict[str, int]) -> Tuple[str, ...]:
        after = self.ops_snapshot()
        labels: List[str] = []
        for key in sorted(set(before) | set(after)):
            count = after.get(key, 0) - before.get(key, 0)
            if key == "write.victim" or count <= 0:
                continue
            name = key[len("op."):]
            labels.extend([name] * count)
        victims = (after.get("write.victim", 0)
                   - before.get("write.victim", 0))
        for _ in range(victims):
            # One of the MWrites was a victim write; relabel it.
            labels.remove("MWrite")
            labels.append("MWrite(victim)")
        return tuple(sorted(labels))


def line_view(caches, memory, address: int):
    """((state value, word | None) per cache, memory word) for one word."""
    views = []
    for cache in caches:
        state = cache.state_of(address)
        views.append((state.value, None if state is LineState.INVALID
                      else cache.peek(address)))
    return tuple(views), memory.peek(address)


def _probe(protocol_name: str, start: LineState, stimulus: str,
           peer_holds: bool, protocol=None) -> Transition:
    """Apply one stimulus in a fresh rig.

    Cache 0 is the focal cache and cache 1 its peer.  Clean states
    match memory; dirty states deliberately differ from it.
    """
    rig = ProbeRig(protocol if protocol is not None
                   else protocol_by_name(protocol_name))
    clean_value = 111
    rig.memory.poke(rig.ADDRESS, clean_value)
    value = 222 if start.is_dirty else clean_value
    if start is not LineState.INVALID:
        rig.inject(0, start, value)
    if peer_holds:
        rig.inject(1, PEER_COSTATE[protocol_name], value)

    before = rig.ops_snapshot()
    if stimulus.startswith("M-"):
        rig.apply(stimulus, 1, 444)  # the peer initiates M-side arcs
    else:
        rig.apply(stimulus, 0, 333)

    focal, peer = rig.caches
    return Transition(
        start=start,
        stimulus=stimulus if start is not LineState.INVALID
        else stimulus + "-miss",
        peer_holds=peer_holds,
        end=focal.state_of(rig.ADDRESS),
        bus_ops=rig.ops_delta(before),
        peer_end=peer.state_of(rig.ADDRESS) if peer_holds else None,
    )


def enumerate_transitions(protocol_name: str,
                          protocol=None) -> List[Transition]:
    """Every (state, stimulus, peer-presence) arc of a protocol's FSM.

    Redundant arcs — where the peer's presence cannot matter because no
    bus operation occurs — are collapsed to the ``peer_holds=False``
    variant.  ``protocol`` optionally overrides the instance probed
    (the static verifier passes deliberately mutated protocols through
    here); the name still selects the state vocabulary.
    """
    transitions: List[Transition] = []
    seen = set()
    for result in full_transition_table(protocol_name, protocol).values():
        if not result.bus_ops and result.peer_holds:
            continue  # peer unobservable without a bus op
        key = (result.start, result.stimulus, result.peer_holds,
               result.end, result.bus_ops)
        if key not in seen:
            seen.add(key)
            transitions.append(result)
    return transitions


def full_transition_table(
        protocol_name: str, protocol=None,
) -> Dict[Tuple[LineState, str, bool], Transition]:
    """The complete, un-collapsed transition function over its domain.

    Unlike :func:`enumerate_transitions` (which drops arcs that a
    figure would not draw), every applicable (state, stimulus,
    peer-presence) combination is probed and kept: the static
    verifier's totality and determinism checks need the whole domain.
    M-side stimuli only apply to resident lines, and always with the
    peer as initiator, so their domain is (valid state, stimulus,
    False).
    """
    if protocol_name not in PROTOCOL_STATES:
        raise ConfigurationError(f"unknown protocol {protocol_name!r}")
    states = (LineState.INVALID,) + PROTOCOL_STATES[protocol_name]
    table: Dict[Tuple[LineState, str, bool], Transition] = {}
    for start in states:
        for stimulus in ("P-read", "P-write", "M-read", "M-write"):
            for peer_holds in (False, True):
                if stimulus.startswith("M-") and (
                        peer_holds or start is LineState.INVALID):
                    # The peer initiates M-side arcs, and they need a
                    # resident line to probe.
                    continue
                table[(start, stimulus, peer_holds)] = _probe(
                    protocol_name, start, stimulus, peer_holds, protocol)
    return table


def transition_map(protocol_name: str) -> Dict[Tuple[str, str, bool], str]:
    """{(start, stimulus, peer_holds): end} — handy for golden checks."""
    return {
        (t.start.value, t.stimulus, t.peer_holds): t.end.value
        for t in enumerate_transitions(protocol_name)
    }
