"""The MDC: the Firefly's monochrome display controller.

Paper §3, §5: the MDC is a half-size board with a 10 MHz 29116
microprocessor and a one-megapixel frame buffer; three-quarters of the
buffer is the 1024x768 visible bitmap.  Its defining design choice is
*symmetry*: rather than being driven by programmed I/O from one
processor, it "operates by periodically polling a work queue in main
memory using DMA", so any processor paints by ordinary stores into the
queue.  Measured capabilities: ~16 megapixels/second for large areas,
~20,000 10-point characters/second from the off-screen font cache, and
keyboard/mouse state deposited into main memory sixty times a second.

The model keeps a real bitmap (one ``bytearray`` per scan line, one
byte per pixel), executes BitBlt-style commands with the published
throughput figures, and performs every queue access through the QBus
DMA path — so display activity shows up on the MBus exactly where the
hardware's would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bus.qbus import QBus
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.events import Simulator
from repro.common.stats import StatSet

ENTRY_WORDS = 6
"""Words per work-queue entry: opcode + four args + sequence."""


class DisplayCommand(enum.IntEnum):
    """Work-queue opcodes."""

    NOP = 0
    FILL_RECT = 1        # args: x, y, width, height
    PAINT_CHARS = 2      # args: x, y, count (10-point cells, font cache)
    BLT_FROM_MEMORY = 3  # args: qbus word address, words, x, y


@dataclass(frozen=True)
class MdcParams:
    """Throughput and polling constants (from the paper's figures)."""

    width: int = 1024
    height: int = 768
    pixels_per_cycle: float = 1.6       # 16 Mpixel/s at 100 ns cycles
    cycles_per_char: int = 500          # 20,000 chars/s
    char_cell: Tuple[int, int] = (8, 13)
    poll_interval_cycles: int = 2_000   # 200 us between queue polls
    input_period_cycles: int = 166_667  # 60 Hz keyboard/mouse deposits
    input_words: int = 6                # mouse x, y, buttons + key bitmap

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError("display must have positive size")
        if self.pixels_per_cycle <= 0 or self.cycles_per_char <= 0:
            raise ConfigurationError("throughput constants must be positive")


class MdcWorkQueue:
    """The in-memory command ring: head/tail words plus entries.

    Producers (any CPU) advance ``head``; the MDC advances ``tail``.
    Addresses exist in two views: Firefly physical (producer stores)
    and QBus (the MDC's DMA), related by the subsystem's map.
    """

    def __init__(self, firefly_base: int, qbus_base: int,
                 capacity: int) -> None:
        if capacity < 2:
            raise ConfigurationError("queue needs at least two entries")
        self.firefly_base = firefly_base
        self.qbus_base = qbus_base
        self.capacity = capacity

    @property
    def head_address(self) -> int:
        return self.firefly_base

    @property
    def tail_address(self) -> int:
        return self.firefly_base + 1

    def entry_address(self, slot: int) -> int:
        return self.firefly_base + 2 + (slot % self.capacity) * ENTRY_WORDS

    @property
    def head_qbus(self) -> int:
        return self.qbus_base

    @property
    def tail_qbus(self) -> int:
        return self.qbus_base + 1

    def entry_qbus(self, slot: int) -> int:
        return self.qbus_base + 2 + (slot % self.capacity) * ENTRY_WORDS

    @property
    def total_words(self) -> int:
        return 2 + self.capacity * ENTRY_WORDS

    def enqueue_direct(self, memory, command: DisplayCommand,
                       args: Tuple[int, ...] = ()) -> None:
        """Host-level enqueue by direct poke (device benches/tests).

        Workload code should instead store through a CPU cache (the
        symmetric path); see the display example.
        """
        head = memory.peek(self.head_address)
        tail = memory.peek(self.tail_address)
        if (head + 1) % self.capacity == tail % self.capacity:
            raise SimulationError("display work queue overflow")
        base = self.entry_address(head)
        words = [int(command)] + list(args) + [0] * (ENTRY_WORDS - 1
                                                     - len(args))
        for i, word in enumerate(words[:ENTRY_WORDS]):
            memory.poke(base + i, word)
        memory.poke(self.head_address, (head + 1) % self.capacity)


class DisplayController:
    """The MDC proper: poll loop, command execution, input deposits."""

    def __init__(self, sim: Simulator, qbus: QBus, queue: MdcWorkQueue,
                 input_firefly_base: int, input_qbus_base: int,
                 params: Optional[MdcParams] = None,
                 name: str = "mdc") -> None:
        self.sim = sim
        self.qbus = qbus
        self.queue = queue
        self.params = params or MdcParams()
        self.input_firefly_base = input_firefly_base
        self.input_qbus_base = input_qbus_base
        self.name = name
        self.stats = StatSet(name)
        p = self.params
        self.framebuffer = [bytearray(p.width) for _ in range(p.height)]
        self._tail = 0
        self._input_sequence = 0
        self._started = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Launch the poll loop and the 60 Hz input deposit process."""
        if self._started:
            return
        self.sim.process(self._poll_loop(), name=f"{self.name}.poll")
        self.sim.process(self._input_loop(), name=f"{self.name}.input")
        self._started = True

    # -- the poll loop ---------------------------------------------------------

    def _poll_loop(self):
        params = self.params
        while True:
            head_words = yield from self.qbus.dma_read_block(
                self.queue.head_qbus, 1)
            head = head_words[0] % self.queue.capacity
            self.stats.incr("polls")
            if head == self._tail:
                yield self.sim.timeout(params.poll_interval_cycles)
                continue
            while self._tail != head:
                entry = yield from self.qbus.dma_read_block(
                    self.queue.entry_qbus(self._tail), ENTRY_WORDS)
                yield from self._execute(entry)
                self._tail = (self._tail + 1) % self.queue.capacity
                yield from self.qbus.dma_write_block(
                    self.queue.tail_qbus, [self._tail])

    def _execute(self, entry: List[int]):
        opcode = entry[0]
        params = self.params
        if opcode == DisplayCommand.NOP:
            return
        if opcode == DisplayCommand.FILL_RECT:
            x, y, width, height = entry[1:5]
            pixels = self._clip_fill(x, y, width, height, value=1)
            yield self.sim.timeout(max(1, int(pixels / params.pixels_per_cycle)))
            self.stats.incr("fills")
            self.stats.incr("pixels_painted", pixels)
            return
        if opcode == DisplayCommand.PAINT_CHARS:
            x, y, count = entry[1:4]
            cell_w, cell_h = params.char_cell
            for i in range(count):
                self._clip_fill(x + i * cell_w, y, cell_w - 1, cell_h - 2,
                                value=1)
            yield self.sim.timeout(max(1, count * params.cycles_per_char))
            self.stats.incr("chars_painted", count)
            return
        if opcode == DisplayCommand.BLT_FROM_MEMORY:
            source, words, x, y = entry[1:5]
            data = yield from self.qbus.dma_read_block(source, words)
            pixels = words * 32
            # Unpack each word's 32 bits along a row at (x, y).
            row = bytearray(pixels)
            for i, word in enumerate(data):
                for bit in range(32):
                    row[i * 32 + bit] = (word >> bit) & 1
            self._paste_row(x, y, row)
            yield self.sim.timeout(max(1, int(pixels / params.pixels_per_cycle)))
            self.stats.incr("blts")
            self.stats.incr("pixels_painted", pixels)
            return
        raise SimulationError(f"MDC: unknown opcode {opcode}")

    def _clip_fill(self, x: int, y: int, width: int, height: int,
                   value: int) -> int:
        """Fill a clipped rectangle; return the pixel count painted."""
        p = self.params
        x0, y0 = max(0, x), max(0, y)
        x1, y1 = min(p.width, x + max(0, width)), min(p.height,
                                                      y + max(0, height))
        if x1 <= x0 or y1 <= y0:
            return 0
        span = bytes((value,)) * (x1 - x0)
        for row in self.framebuffer[y0:y1]:
            row[x0:x1] = span
        return (x1 - x0) * (y1 - y0)

    def _paste_row(self, x: int, y: int, row: bytearray) -> None:
        p = self.params
        if not 0 <= y < p.height:
            return
        x0 = max(0, x)
        x1 = min(p.width, x + len(row))
        if x1 <= x0:
            return
        self.framebuffer[y][x0:x1] = row[x0 - x:x1 - x]

    # -- input deposits --------------------------------------------------------------

    def _input_loop(self):
        """Sixty times a second: mouse position + raw keyboard bitmap."""
        while True:
            yield self.sim.timeout(self.params.input_period_cycles)
            self._input_sequence += 1
            seq = self._input_sequence
            mouse_x = (seq * 7) % self.params.width
            mouse_y = (seq * 3) % self.params.height
            words = [mouse_x, mouse_y, seq & 0x7]
            words += [(seq >> i) & 0xFFFF for i in range(
                self.params.input_words - 3)]
            yield from self.qbus.dma_write_block(self.input_qbus_base, words)
            self.stats.incr("input_deposits")

    # -- reporting ----------------------------------------------------------------------

    def lit_pixels(self) -> int:
        """Pixels currently set in the frame buffer."""
        return sum(row.count(1) for row in self.framebuffer)

    def render_ascii(self, scale: int = 32) -> str:
        """A downsampled view of the bitmap, for examples."""
        p = self.params
        rows = []
        for y in range(0, p.height, scale):
            band = self.framebuffer[y:y + scale]
            row = ""
            for x in range(0, p.width, scale):
                lit = sum(line.count(1, x, x + scale) for line in band)
                size = len(band) * min(scale, p.width - x)
                row += "#" if 2 * lit > size else ("+" if lit else ".")
            rows.append(row)
        return "\n".join(rows)
