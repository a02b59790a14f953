"""The pure single-line transition table generated from a definition.

:func:`line_table` derives, from a
:class:`~repro.protodsl.defs.ProtocolDef` alone and with **no simulator
in the loop**, the transition function over the same (state, stimulus,
peer-presence) domain :func:`repro.cache.fsm.full_transition_table`
*measures* on a live rig.  The pinned-data tests
(``tests/test_protodsl_oracle.py``) hold the measured table, the pinned
cells and this table equal for every registered protocol, so a newly
added definition has an oracle derived from the definition itself.

The derivation mirrors the MBus transaction semantics: the MShared
response is the OR over the responding snoopers, and the initiator
never snoops its own operation.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cache.fsm import Transition
from repro.cache.line import LineState
from repro.common.errors import SimulationError
from repro.common.types import BusOp
from repro.protodsl.defs import (
    AcquireThenWrite,
    AsWriteMiss,
    Goto,
    Invalidate,
    ProtocolDef,
    ReadForOwnership,
    ReadThenWrite,
    SilentWrite,
    TakeData,
    WriteAllocate,
    WriteNoAllocate,
    WriteThrough,
)


def _snoop_outcome(defn: ProtocolDef, op: BusOp, state: LineState):
    """(end state, MShared asserted) for one snooped cell."""
    rule = defn.snoop_rule(op, state)
    if rule is None:
        raise SimulationError(
            f"{defn.name} has no snoop rule for {op.value} in "
            f"{state.value} (the guard checker should have caught this)")
    effect = rule.effect
    if isinstance(effect, Goto):
        end = effect.state
    elif isinstance(effect, TakeData):
        end = effect.state
    elif isinstance(effect, Invalidate):
        end = LineState.INVALID
    else:  # Stay
        end = state
    return end, rule.shared


def _pure_write_hit(defn: ProtocolDef, start: LineState,
                    peer: LineState) -> Tuple[LineState, LineState,
                                              List[str]]:
    """(focal end, peer end, bus ops) for a write hit in ``start``."""
    action = defn.write_hit_rule(start).action
    if isinstance(action, SilentWrite):
        end = action.next_state if action.next_state is not None else start
        return end, peer, []
    if isinstance(action, WriteThrough):
        peer_end, shared = (_snoop_outcome(defn, BusOp.MWRITE, peer)
                            if peer is not LineState.INVALID
                            else (peer, False))
        end = action.shared_state if shared else action.exclusive_state
        return end, peer_end, [BusOp.MWRITE.value]
    if isinstance(action, AcquireThenWrite):
        peer_end = peer
        if peer is not LineState.INVALID:
            peer_end, _ = _snoop_outcome(defn, BusOp.MINVALIDATE, peer)
        return action.next_state, peer_end, [BusOp.MINVALIDATE.value]
    # AsWriteMiss: re-fetch through the write-miss table.  The probe
    # geometry is one aligned longword, and the resident line is the
    # probed one, so victimisation applies to ``start`` itself.
    return _pure_write_miss(defn, start, peer)


def _pure_write_miss(defn: ProtocolDef, resident: LineState,
                     peer: LineState) -> Tuple[LineState, LineState,
                                               List[str]]:
    """(focal end, peer end, bus ops) for the aligned-longword
    write-miss path, with ``resident`` the line being displaced
    (INVALID when the slot is empty)."""
    ops: List[str] = []
    peer_end = peer
    if resident is not LineState.INVALID and resident.is_dirty:
        ops.append("MWrite(victim)")
        if peer_end is not LineState.INVALID:
            peer_end, _ = _snoop_outcome(defn, BusOp.MWRITE, peer_end)
    action = defn.write_miss_rule(True).action
    if isinstance(action, ReadThenWrite):
        filled, peer_end, read_ops = _pure_read_miss(defn, LineState.INVALID,
                                                     peer_end)
        hit_end, peer_end, hit_ops = _pure_write_hit(defn, filled, peer_end)
        return hit_end, peer_end, ops + read_ops + hit_ops
    if isinstance(action, ReadForOwnership):
        if peer_end is not LineState.INVALID:
            peer_end, _ = _snoop_outcome(defn, BusOp.MREAD_EX, peer_end)
        return action.fill_state, peer_end, ops + [BusOp.MREAD_EX.value]
    if isinstance(action, WriteAllocate):
        shared = False
        if peer_end is not LineState.INVALID:
            peer_end, shared = _snoop_outcome(defn, BusOp.MWRITE, peer_end)
        end = action.shared_state if shared else action.exclusive_state
        return end, peer_end, ops + [BusOp.MWRITE.value]
    # WriteNoAllocate: the cache is left untouched.
    if peer_end is not LineState.INVALID:
        peer_end, _ = _snoop_outcome(defn, BusOp.MWRITE, peer_end)
    return resident, peer_end, ops + [BusOp.MWRITE.value]


def _pure_read_miss(defn: ProtocolDef, resident: LineState,
                    peer: LineState) -> Tuple[LineState, LineState,
                                              List[str]]:
    ops: List[str] = []
    peer_end = peer
    if resident is not LineState.INVALID and resident.is_dirty:
        ops.append("MWrite(victim)")
        if peer_end is not LineState.INVALID:
            peer_end, _ = _snoop_outcome(defn, BusOp.MWRITE, peer_end)
    shared = False
    if peer_end is not LineState.INVALID:
        peer_end, shared = _snoop_outcome(defn, BusOp.MREAD, peer_end)
    rule = defn.read_miss
    end = rule.shared_state if shared else rule.exclusive_state
    return end, peer_end, ops + [BusOp.MREAD.value]


def line_table(defn: ProtocolDef
               ) -> Dict[Tuple[LineState, str, bool], Transition]:
    """The generated twin of :func:`repro.cache.fsm.full_transition_table`.

    Same domain, same :class:`~repro.cache.fsm.Transition` records
    (states, sorted bus-op labels, peer end states), derived from the
    definition alone.
    """
    states = (LineState.INVALID,) + tuple(defn.states)
    table: Dict[Tuple[LineState, str, bool], Transition] = {}
    for start in states:
        for stimulus in ("P-read", "P-write", "M-read", "M-write"):
            for peer_holds in (False, True):
                if stimulus.startswith("M-") and peer_holds:
                    continue
                if stimulus.startswith("M-") and start is LineState.INVALID:
                    continue
                peer = defn.peer_costate if peer_holds else LineState.INVALID
                if stimulus == "P-read":
                    if start is LineState.INVALID:
                        end, peer_end, ops = _pure_read_miss(
                            defn, start, peer)
                    else:
                        end, peer_end, ops = start, peer, []
                elif stimulus == "P-write":
                    if start is LineState.INVALID:
                        end, peer_end, ops = _pure_write_miss(
                            defn, start, peer)
                    else:
                        end, peer_end, ops = _pure_write_hit(
                            defn, start, peer)
                elif stimulus == "M-read":
                    end, _ = _snoop_outcome(defn, BusOp.MREAD, start)
                    peer_end, ops = peer, [BusOp.MREAD.value]
                else:  # M-write
                    end, _ = _snoop_outcome(defn, BusOp.MWRITE, start)
                    peer_end, ops = peer, [BusOp.MWRITE.value]
                table[(start, stimulus, peer_holds)] = Transition(
                    start=start,
                    stimulus=(stimulus if start is not LineState.INVALID
                              else stimulus + "-miss"),
                    peer_holds=peer_holds,
                    end=end,
                    bus_ops=tuple(sorted(ops)),
                    peer_end=peer_end if peer_holds else None,
                )
    return table
