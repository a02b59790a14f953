"""I/O device models: Ethernet, disk, display, and their assembly."""

import pytest

from repro.common.errors import ConfigurationError
from repro.io import (
    DiskController,
    DiskParams,
    DisplayCommand,
    EthernetController,
    EthernetParams,
    IoSubsystem,
    RemoteEndpoint,
)
from repro.io.mdc import ENTRY_WORDS, MdcParams, MdcWorkQueue
from repro.system import FireflyConfig, FireflyMachine


def io_machine(processors=2, **kw):
    machine = FireflyMachine(FireflyConfig(processors=processors,
                                           io_enabled=True, **kw))
    return machine, IoSubsystem(machine)


def run_gen(machine, gen):
    proc = machine.sim.process(gen, "io-test")
    machine.sim.run()
    assert proc.done
    return proc.result


class TestEthernet:
    def test_frame_bits(self):
        params = EthernetParams()
        # 64-byte payload: (64+18)*8 + 64 + 96 = 816 bits.
        assert params.frame_bits(64) == 816
        with pytest.raises(ConfigurationError):
            params.frame_bits(0)
        with pytest.raises(ConfigurationError):
            params.frame_bits(3000)

    def test_transmit_timing_includes_wire_and_overhead(self):
        machine, io = io_machine()

        def gen():
            start = machine.sim.now
            yield from io.ethernet.transmit_from(0, 1000)
            return machine.sim.now - start

        elapsed = run_gen(machine, gen())
        wire = EthernetParams().frame_bits(1000)
        overhead = EthernetParams().controller_overhead_cycles
        assert elapsed >= wire + overhead

    def test_frames_serialise_on_controller(self):
        machine, io = io_machine()
        finish_times = []

        def sender():
            yield from io.ethernet.transmit_from(0, 500)
            finish_times.append(machine.sim.now)

        machine.sim.process(sender(), "a")
        machine.sim.process(sender(), "b")
        machine.sim.run()
        assert len(finish_times) == 2
        gap = abs(finish_times[1] - finish_times[0])
        assert gap >= EthernetParams().frame_bits(500)

    def test_zero_and_negative_payloads_rejected_eagerly(self):
        machine, io = io_machine()
        # The ValueError fires at call time, before any simulated step:
        # a bad transfer never enqueues work on the controller.
        with pytest.raises(ValueError,
                           match=r"EthernetController\.transmit_from: "
                                 r"payload_bytes must be positive, "
                                 r"got 0"):
            io.ethernet.transmit_from(0, 0)
        with pytest.raises(ValueError,
                           match=r"EthernetController\.receive_into: "
                                 r"payload_bytes must be positive, "
                                 r"got -4"):
            io.ethernet.receive_into(0, -4)
        with pytest.raises(ValueError,
                           match=r"EthernetController\."
                                 r"receive_delivered_into"):
            io.ethernet.receive_delivered_into(0, -1)
        assert io.ethernet.stats["tx_frames"].total == 0
        assert machine.sim.now == 0

    def test_receive_lands_in_memory(self):
        machine, io = io_machine()
        base, qbus_addr = io.alloc(16, "rx buffer")

        def gen():
            yield from io.ethernet.receive_into(qbus_addr, 16,
                                                values=[1, 2, 3, 4])

        run_gen(machine, gen())
        assert [machine.memory.peek(base + i) for i in range(4)] == \
            [1, 2, 3, 4]

    def test_stats_and_goodput(self):
        machine, io = io_machine()

        def gen():
            yield from io.ethernet.transmit_from(0, 1200)

        io.ethernet.stats.mark_all()
        run_gen(machine, gen())
        window = machine.sim.now
        assert io.ethernet.stats["tx_frames"].total == 1
        assert io.ethernet.goodput_bits_per_second(window) > 0
        assert 0 < io.ethernet.wire_utilization(window) < 1

    def test_remote_endpoint(self):
        machine, io = io_machine()
        remote = RemoteEndpoint(turnaround_cycles=1234)

        def gen():
            start = machine.sim.now
            yield from remote.service(machine.sim)
            return machine.sim.now - start

        assert run_gen(machine, gen()) == 1234
        assert remote.requests_served == 1
        with pytest.raises(ConfigurationError):
            RemoteEndpoint(-1)


class TestDisk:
    def test_write_read_roundtrip_through_memory(self):
        machine, io = io_machine()
        base, qbus_addr = io.alloc(256, "disk buffer")
        for i in range(128):
            machine.memory.poke(base + i, 5000 + i)

        def gen():
            yield from io.disk.write_blocks(10, 1, qbus_addr)
            # wipe memory, read back
            for i in range(128):
                machine.memory.poke(base + i, 0)
            yield from io.disk.read_blocks(10, 1, qbus_addr)

        run_gen(machine, gen())
        assert machine.memory.peek(base) == 5000
        assert machine.memory.peek(base + 127) == 5127

    def test_media_persists(self):
        machine, io = io_machine()
        base, qbus_addr = io.alloc(128, "buf")
        machine.memory.poke(base, 77)

        def gen():
            yield from io.disk.write_blocks(3, 1, qbus_addr)

        run_gen(machine, gen())
        assert io.disk.peek_block(3)[0] == 77

    def test_seek_scales_with_distance(self):
        machine, io = io_machine()
        _, qbus_addr = io.alloc(128, "buf")
        times = []

        def gen(lbn):
            start = machine.sim.now
            yield from io.disk.read_blocks(lbn, 1, qbus_addr)
            times.append(machine.sim.now - start)

        run_gen(machine, gen(0))
        run_gen(machine, gen(100_000))  # long seek
        run_gen(machine, gen(100_001))  # adjacent: short seek
        assert times[1] > times[2]

    def test_bounds_checked(self):
        machine, io = io_machine()
        with pytest.raises(ConfigurationError):
            run_gen(machine, io.disk.read_blocks(-1, 1, 0))
        with pytest.raises(ConfigurationError):
            run_gen(machine, io.disk.read_blocks(10, 0, 0))
        with pytest.raises(ConfigurationError):
            run_gen(machine, io.disk.read_blocks(
                io.disk.params.blocks, 1, 0))

    def test_requests_serialise_on_mechanism(self):
        machine, io = io_machine()
        _, qbus_addr = io.alloc(256, "buf")
        finishes = []

        def reader(lbn):
            yield from io.disk.read_blocks(lbn, 1, qbus_addr)
            finishes.append(machine.sim.now)

        machine.sim.process(reader(5), "a")
        machine.sim.process(reader(6), "b")
        machine.sim.run()
        assert len(finishes) == 2 and finishes[0] != finishes[1]


class TestMdc:
    def test_fill_rect_paints_and_costs_pixel_time(self):
        machine, io = io_machine()
        io.mdc_queue.enqueue_direct(machine.memory,
                                    DisplayCommand.FILL_RECT,
                                    (10, 10, 100, 50))
        io.start()
        machine.sim.run_until(50_000)
        assert io.mdc.stats["pixels_painted"].total == 5000
        assert io.mdc.lit_pixels() == 5000

    def test_paint_chars_rate(self):
        """~20,000 chars/sec: 100 chars take ~50,000 cycles (5 ms)."""
        machine, io = io_machine()
        io.mdc_queue.enqueue_direct(machine.memory,
                                    DisplayCommand.PAINT_CHARS,
                                    (0, 0, 100))
        io.start()
        machine.sim.run_until(80_000)
        assert io.mdc.stats["chars_painted"].total == 100

    def test_clipping(self):
        machine, io = io_machine()
        io.mdc_queue.enqueue_direct(machine.memory,
                                    DisplayCommand.FILL_RECT,
                                    (1000, 700, 200, 200))
        io.start()
        machine.sim.run_until(100_000)
        painted = io.mdc.stats["pixels_painted"].total
        assert painted == (1024 - 1000) * (768 - 700)

    def test_blt_from_memory_unpacks_bits(self):
        machine, io = io_machine()
        src, src_qbus = io.alloc(2, "blt source")
        machine.memory.poke(src, 0b1011)
        io.mdc_queue.enqueue_direct(machine.memory,
                                    DisplayCommand.BLT_FROM_MEMORY,
                                    (src_qbus, 1, 0, 0))
        io.start()
        machine.sim.run_until(50_000)
        fb = io.mdc.framebuffer
        assert list(fb[0][:4]) == [1, 1, 0, 1]

    def test_queue_wraps_and_processes_in_order(self):
        machine, io = io_machine()
        for i in range(5):
            io.mdc_queue.enqueue_direct(machine.memory,
                                        DisplayCommand.FILL_RECT,
                                        (0, i, 10, 1))
        io.start()
        machine.sim.run_until(100_000)
        assert io.mdc.stats["fills"].total == 5

    def test_input_deposits_at_sixty_hertz(self):
        machine, io = io_machine()
        io.start()
        machine.sim.run_until(1_000_000)  # 100 ms -> 6 deposits
        deposits = io.mdc.stats["input_deposits"].total
        assert 5 <= deposits <= 7
        assert machine.memory.peek(io.mdc.input_firefly_base + 1) >= 0

    def test_queue_overflow_detected(self):
        machine, io = io_machine()
        queue = io.mdc_queue
        with pytest.raises(Exception):
            for _ in range(queue.capacity + 1):
                queue.enqueue_direct(machine.memory, DisplayCommand.NOP)

    def test_ascii_render(self):
        machine, io = io_machine()
        io.mdc_queue.enqueue_direct(machine.memory,
                                    DisplayCommand.FILL_RECT,
                                    (0, 0, 1024, 100))
        io.start()
        machine.sim.run_until(200_000)
        art = io.mdc.render_ascii(scale=128)
        assert "#" in art


class TestMultipleDisplays:
    def test_two_mdcs_on_one_machine(self):
        """Paper §5: 'It is easy to plug multiple display controllers
        into a single Firefly ... Many SRC researchers now have
        multiple displays.'  Two MDCs, two work queues, one QBus."""
        from repro.io.mdc import DisplayController, MdcWorkQueue
        machine, io = io_machine()
        base2, qbus2 = io.alloc(2 + 16 * ENTRY_WORDS, "second queue")
        input2, input2_q = io.alloc(8, "second input area")
        queue2 = MdcWorkQueue(base2, qbus2, capacity=16)
        mdc2 = DisplayController(machine.sim, machine.qbus, queue2,
                                 input2, input2_q, name="mdc2")

        io.mdc_queue.enqueue_direct(machine.memory,
                                    DisplayCommand.FILL_RECT,
                                    (0, 0, 100, 100))
        queue2.enqueue_direct(machine.memory, DisplayCommand.FILL_RECT,
                              (0, 0, 50, 50))
        io.start()
        mdc2.start()
        machine.sim.run_until(300_000)
        assert io.mdc.lit_pixels() == 100 * 100
        assert mdc2.lit_pixels() == 50 * 50
        # Both poll loops and both input deposits share the QBus.
        assert mdc2.stats["polls"].total > 0
        assert io.mdc.stats["polls"].total > 0


class TestSubsystem:
    def test_requires_qbus(self):
        machine = FireflyMachine(FireflyConfig(processors=1))
        with pytest.raises(ConfigurationError):
            IoSubsystem(machine)

    def test_arena_below_dma_reach(self):
        machine, io = io_machine()
        assert io.arena_base + io.arena_words <= (16 << 20) // 4

    def test_alloc_and_translate(self):
        machine, io = io_machine()
        firefly, qbus = io.alloc(64, "x")
        assert io.to_qbus(firefly) == qbus
        assert machine.qbus.map.translate(qbus) == firefly
        with pytest.raises(ConfigurationError):
            io.to_qbus(0)

    def test_arena_exhaustion(self):
        machine, io = io_machine()
        with pytest.raises(ConfigurationError):
            io.alloc(io.arena_words + 1, "too big")

    def test_display_traffic_shows_on_mbus(self):
        """MDC polling is DMA through the I/O cache: bus-visible."""
        machine, io = io_machine()
        machine.mbus.mark_window()
        io.start()
        machine.sim.run_until(200_000)
        assert machine.mbus.stats["ops"].windowed > 0
        assert machine.caches[0].stats["dma.read_miss"].total \
            + machine.caches[0].stats["dma.read_hit"].total > 0
