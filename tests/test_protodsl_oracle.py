"""The live DSL protocols vs pinned reference data vs ``line_table``.

``DSLProtocol`` is the only code that executes a protocol.  The
hand-written classes it replaced and the pure N-cache interpreter the
model checker once offered survive as data: ``tests/data/
protocol_pins.json`` was generated once, while both still existed, by
a script that first asserted they agreed with the DSL classes,
:func:`repro.protodsl.oracle.line_table` and the simulator-backed
model checker.  Three layers pin the DSL pipeline against that file:

1. **Cells** — for every protocol, the transition table measured on the
   live rig (:func:`repro.cache.fsm.full_transition_table`) equals the
   pinned cells *and* the table ``line_table`` derives from the
   definition alone.
2. **Walks** — for the seven protocols that had a hand-written class,
   a seeded random stimulus walk over the DSL class hashes to the
   digest the legacy class's walk produced; the runtime coherence
   checker runs after every step.
3. **Reachable sets** — the model checker's BFS over three caches with
   DMA reaches exactly the pinned global state set, for every
   protocol.

A deliberate change to a definition changes the pinned JSON.  Rewrite
it from the live code with ``PYTHONPATH=src python -m
tests.test_protodsl_oracle``, put the printed digest in
:data:`PINS_SHA256` in the same change, and read the diff.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cache.fsm import full_transition_table
from repro.cache.line import LineState
from repro.cache.protocols import PROTOCOL_DEFINITIONS
from repro.common.rng import RandomStream
from repro.protodsl.oracle import line_table
from repro.verify.model import ModelChecker, verify_protocol
from tests.conftest import MiniRig

PINS_PATH = Path(__file__).parent / "data" / "protocol_pins.json"
PINS_SHA256 = ("c70aa8bd7f7b81e87f7afd5b140f2b6d"
               "8b789d4ade02d0119c922e74d1fef74d")

#: Protocols that had a hand-written class before the DSL.
SEVEN = ("berkeley", "dragon", "firefly", "mesi", "synapse", "write-once",
         "write-through")
NINE = sorted(PROTOCOL_DEFINITIONS)

WALK_SEED = 1987
WALK_STEPS = 300
WALK_ADDRESSES = (0, 8, 64, 72)  # two indexes, two tags each
REACHABLE_CACHES = 3


# -- the measurements the pins record ------------------------------------

def cell_records(table):
    """JSON-safe transition cells, ordered by (start, stimulus, peer)."""
    records = []
    for key in sorted(table, key=lambda k: (k[0].value, k[1], k[2])):
        cell = table[key]
        records.append({
            "start": cell.start.value,
            "stimulus": cell.stimulus,
            "peer_holds": cell.peer_holds,
            "end": cell.end.value,
            "bus_ops": list(cell.bus_ops),
            "peer_end": None if cell.peer_end is None else cell.peer_end.value,
        })
    return records


def _observable(rig):
    view = []
    for address in WALK_ADDRESSES:
        for cache in rig.caches:
            view.append([cache.state_of(address).value, cache.peek(address)])
        view.append(rig.memory.peek(address))
    for cache in rig.caches:
        view.append(sorted([key, counter.total]
                           for key, counter in cache.stats.items()))
    return view


def walk(rig, name):
    """Drive a seeded random stimulus walk; yield one record per step.

    DMA stimuli are drawn for every protocol except write-through: its
    hand-written class left a DMA-written copy in ``SHARED``, outside
    its own vocabulary, which the DSL definition normalises to
    ``VALID`` (docs/PROTOCOL_DSL.md); nothing metric-visible changes.
    """
    rng = RandomStream(WALK_SEED, f"protodsl-fuzz-{name}")
    with_dma = name != "write-through"
    for step in range(WALK_STEPS):
        address = WALK_ADDRESSES[rng.randint(0, len(WALK_ADDRESSES) - 1)]
        cache = rng.randint(0, 2)
        kind = rng.randint(0, 7 if with_dma else 5)
        result = None
        if kind < 3:
            result = rig.read(cache, address)
        elif kind < 6:
            partial = rng.randint(0, 3) == 0  # exercise both guards
            rig.write(cache, address, 10_000 + step, partial=partial)
        elif kind == 6:
            result = rig.run(rig.caches[0].dma_read(address))
        else:
            rig.run(rig.caches[0].dma_write(address, 20_000 + step))
        yield [step, kind, cache, address, result, _observable(rig)]


def walk_digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record).encode() + b"\n")
    return digest.hexdigest()


def reachable_records(checker):
    """The explored global states, JSON-safe and sorted."""
    return sorted([[[state, version] for state, version in caches], memory]
                  for caches, memory in checker.reachable)


def measure_pins():
    """The pinned document, measured on the live code."""
    cells, reachable, walks = {}, {}, {}
    for name in NINE:
        cells[name] = cell_records(full_transition_table(name))
        checker = ModelChecker(name, caches=REACHABLE_CACHES,
                               include_dma=True)
        assert checker.explore().ok, name
        reachable[name] = reachable_records(checker)
    for name in SEVEN:
        rig = MiniRig(protocol=name, caches=3, lines=4)
        digest = walk_digest(walk(rig, name))
        walks[name] = {"seed": WALK_SEED, "steps": WALK_STEPS,
                       "digest": digest}
    return {"schema": "firefly-protocol-pins/1",
            "reachable_setup": {"caches": REACHABLE_CACHES, "dma": True},
            "cells": cells, "reachable": reachable, "walks": walks}


def render_pins(document) -> str:
    """JSON with one cell, state or walk per line, for readable diffs."""
    def render(value, depth):
        pad = " " * (depth + 1)
        if isinstance(value, dict) and depth < 2:
            items = [f"{pad}{json.dumps(key)}: {render(value[key], depth + 1)}"
                     for key in sorted(value)]
        elif isinstance(value, list) and depth == 2:
            items = [pad + json.dumps(item, sort_keys=True)
                     for item in value]
        else:
            return json.dumps(value, sort_keys=True)
        opener, closer = "{}" if isinstance(value, dict) else "[]"
        return (opener + "\n" + ",\n".join(items) + "\n"
                + " " * depth + closer)
    return render(document, 0) + "\n"


@pytest.fixture(scope="module")
def pins():
    raw = PINS_PATH.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == PINS_SHA256, (
        f"{PINS_PATH.name} changed without updating PINS_SHA256")
    return json.loads(raw)


def test_pins_cover_every_protocol(pins):
    assert pins["reachable_setup"] == {"caches": REACHABLE_CACHES,
                                       "dma": True}
    assert sorted(pins["cells"]) == NINE
    assert sorted(pins["reachable"]) == NINE
    assert sorted(pins["walks"]) == list(SEVEN)
    assert all((walk["seed"], walk["steps"]) == (WALK_SEED, WALK_STEPS)
               for walk in pins["walks"].values())


class TestTableEquivalence:
    @pytest.mark.parametrize("name", SEVEN)
    def test_dsl_measures_identically_to_legacy(self, name, pins):
        """The pinned cells of these seven were measured on the
        hand-written classes."""
        measured = cell_records(full_transition_table(name))
        assert measured == pins["cells"][name]

    @pytest.mark.parametrize("name", NINE)
    def test_generated_line_table_matches_measurement(self, name, pins):
        measured = cell_records(full_transition_table(name))
        generated = cell_records(line_table(PROTOCOL_DEFINITIONS[name]))
        assert generated == measured == pins["cells"][name]


class TestFuzzLegacyVsDsl:
    """Seeded random walks hash to the legacy classes' digests."""

    @pytest.mark.parametrize("name", SEVEN)
    def test_random_walk_is_bit_identical(self, name, pins):
        rig = MiniRig(protocol=name, caches=3, lines=4)
        records = []
        for record in walk(rig, name):
            records.append(record)
            rig.check_coherence()
        assert walk_digest(records) == pins["walks"][name]["digest"]


class TestModelCheckerOracles:
    @pytest.mark.parametrize("name", NINE)
    def test_dsl_oracle_reaches_the_sim_oracle_state_set(self, name, pins):
        """The pinned set is the one the simulator-backed checker and
        the retired pure interpreter both reached."""
        checker = ModelChecker(name, caches=REACHABLE_CACHES,
                               include_dma=True)
        report = checker.explore()
        assert report.ok
        assert reachable_records(checker) == pins["reachable"][name]
        assert report.states_explored == len(pins["reachable"][name])

    @pytest.mark.parametrize("name", ("moesi", "bedrock"))
    def test_new_protocols_verify_clean(self, name):
        report = verify_protocol(name, caches=3, include_dma=True)
        assert report.ok


class TestMoesiBehaviour:
    """Dirty sharing without a memory update (the O state)."""

    def test_owner_supplies_and_memory_stays_stale(self):
        rig = MiniRig(protocol="moesi", caches=2)
        rig.write(0, 40, 7)      # M (silent after RFO)
        assert rig.read(1, 40) == 7
        assert rig.caches[0].state_of(40) is LineState.SHARED_DIRTY
        assert rig.caches[1].state_of(40) is LineState.SHARED
        assert rig.memory.peek(40) != 7  # owner, not memory, holds it
        rig.check_coherence()

    def test_write_to_shared_invalidates_the_owner(self):
        rig = MiniRig(protocol="moesi", caches=2)
        rig.write(0, 40, 7)
        rig.read(1, 40)          # cache0 O, cache1 S
        rig.write(1, 40, 9)      # upgrade invalidates the owner
        assert rig.caches[0].state_of(40) is LineState.INVALID
        assert rig.caches[1].state_of(40) is LineState.DIRTY
        assert rig.read(0, 40) == 9
        rig.check_coherence()


class TestBedrockBehaviour:
    """Directory-style MSI: S-grants and downgrade-with-writeback."""

    def test_read_fill_is_shared_even_without_sharers(self):
        rig = MiniRig(protocol="bedrock", caches=2)
        rig.read(0, 40)
        assert rig.caches[0].state_of(40) is LineState.SHARED

    def test_dirty_reader_downgrade_updates_home_node(self):
        rig = MiniRig(protocol="bedrock", caches=2)
        rig.write(0, 40, 7)      # M after the RFO
        assert rig.caches[0].state_of(40) is LineState.DIRTY
        assert rig.read(1, 40) == 7
        assert rig.caches[0].state_of(40) is LineState.SHARED
        assert rig.memory.peek(40) == 7  # write_back snarfed the data
        rig.check_coherence()

    def test_upgrade_from_shared(self):
        rig = MiniRig(protocol="bedrock", caches=2)
        rig.read(0, 40)
        rig.read(1, 40)
        rig.write(0, 40, 5)
        assert rig.caches[0].stats["invalidations_sent"].total == 1
        assert rig.caches[1].state_of(40) is LineState.INVALID
        assert rig.read(1, 40) == 5
        rig.check_coherence()


if __name__ == "__main__":
    PINS_PATH.write_text(render_pins(measure_pins()))
    print(hashlib.sha256(PINS_PATH.read_bytes()).hexdigest())
