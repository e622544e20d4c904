"""Focused tests for the AXI endpoint state machines and misc utilities."""

import pytest

from repro.channels import (
    ChannelSink,
    ChannelSource,
    ProtocolChecker,
    axi4_interface,
    axi_lite_interface,
)
from repro.errors import ReproError, SimulationError
from repro.platform.axi_manager import AxiManager
from repro.platform.axi_subordinate import AxiLiteSubordinate, AxiSubordinate
from repro.platform.host_mem import HostMemoryController
from repro.sim import DEFAULT_CLOCK, ClockDomain, RegisterFile, Simulator, WordMemory


def lite_rig():
    sim = Simulator()
    interface = axi_lite_interface("ocl")
    sim.add(interface)
    regs = RegisterFile("regs", 8)
    subordinate = AxiLiteSubordinate("sub", interface, reg_read=regs.read,
                                     reg_write=regs.write)
    sim.add(subordinate)
    aw = ChannelSource("aw", interface.aw)
    w = ChannelSource("w", interface.w)
    ar = ChannelSource("ar", interface.ar)
    b = ChannelSink("b", interface.b)
    r = ChannelSink("r", interface.r)
    for m in (aw, w, ar, b, r):
        sim.add(m)
    return sim, interface, regs, subordinate, aw, w, ar, b, r


class TestAxiLiteSubordinate:
    def test_write_with_partial_strobe_merges(self):
        sim, iface, regs, sub, aw, w, ar, b, r = lite_rig()
        regs.write(4, 0xAABBCCDD)
        aw.send({"addr": 4})
        w.send({"data": 0x11223344, "strb": 0b0110})
        sim.run_until(lambda: len(b.received) == 1, max_cycles=40)
        assert regs.read(4) == 0xAA2233DD

    def test_w_before_aw_accepted(self):
        """AXI allows data before address; the subordinate buffers it."""
        sim, iface, regs, sub, aw, w, ar, b, r = lite_rig()
        w.send({"data": 0x55, "strb": 0xF})
        sim.run(5)
        assert len(b.received) == 0      # waiting for the address
        aw.send({"addr": 0})
        sim.run_until(lambda: len(b.received) == 1, max_cycles=40)
        assert regs.read(0) == 0x55

    def test_read_returns_current_register(self):
        sim, iface, regs, sub, aw, w, ar, b, r = lite_rig()
        regs.write(8, 0xCAFED00D)
        ar.send({"addr": 8})
        sim.run_until(lambda: len(r.received) == 1, max_cycles=40)
        assert iface.r.spec.extract(r.received[0], "data") == 0xCAFED00D

    def test_back_to_back_reads(self):
        sim, iface, regs, sub, aw, w, ar, b, r = lite_rig()
        regs.write(0, 1)
        regs.write(4, 2)
        ar.send({"addr": 0})
        ar.send({"addr": 4})
        sim.run_until(lambda: len(r.received) == 2, max_cycles=80)
        assert [iface.r.spec.extract(x, "data") for x in r.received] == [1, 2]

    def test_served_counters(self):
        sim, iface, regs, sub, aw, w, ar, b, r = lite_rig()
        aw.send({"addr": 0})
        w.send({"data": 9, "strb": 0xF})
        ar.send({"addr": 0})
        sim.run_until(lambda: sub.writes_served == 1 and sub.reads_served == 1,
                      max_cycles=60)


def full_rig():
    sim = Simulator()
    interface = axi4_interface("pcis")
    sim.add(interface)
    dram = WordMemory("dram", 1 << 16)
    beats_seen = []
    subordinate = AxiSubordinate(
        "sub", interface, dram,
        write_observer=lambda a, d, s: beats_seen.append((a, s)))
    sim.add(subordinate)
    aw = ChannelSource("aw", interface.aw)
    w = ChannelSource("w", interface.w)
    ar = ChannelSource("ar", interface.ar)
    b = ChannelSink("b", interface.b)
    r = ChannelSink("r", interface.r)
    for m in (aw, w, ar, b, r):
        sim.add(m)
    return sim, interface, dram, subordinate, beats_seen, aw, w, ar, b, r


class TestAxiSubordinateBursts:
    def test_four_beat_burst_lands_sequentially(self):
        sim, iface, dram, sub, seen, aw, w, ar, b, r = full_rig()
        aw.send({"addr": 0x100, "len": 3, "size": 6, "id": 7})
        for i in range(4):
            w.send({"data": 0x1000 + i, "strb": (1 << 64) - 1,
                    "last": 1 if i == 3 else 0, "id": 7})
        sim.run_until(lambda: len(b.received) == 1, max_cycles=60)
        for i in range(4):
            assert dram.read_word(0x100 + 64 * i) == 0x1000 + i
        assert iface.b.spec.extract(b.received[0], "id") == 7
        assert [a for a, _s in seen] == [0x100 + 64 * i for i in range(4)]

    def test_early_last_terminates_burst(self):
        sim, iface, dram, sub, seen, aw, w, ar, b, r = full_rig()
        aw.send({"addr": 0, "len": 7, "size": 6, "id": 1})
        w.send({"data": 5, "strb": (1 << 64) - 1, "last": 1, "id": 1})
        sim.run_until(lambda: len(b.received) == 1, max_cycles=60)
        assert sub.write_beats == 1

    def test_read_burst_streams_memory(self):
        sim, iface, dram, sub, seen, aw, w, ar, b, r = full_rig()
        for i in range(3):
            dram.write_word(0x200 + 64 * i, 0xAA00 + i)
        ar.send({"addr": 0x200, "len": 2, "size": 6, "id": 2})
        sim.run_until(lambda: len(r.received) == 3, max_cycles=80)
        datas = [iface.r.spec.extract(x, "data") for x in r.received]
        lasts = [iface.r.spec.extract(x, "last") for x in r.received]
        assert datas == [0xAA00, 0xAA01, 0xAA02]
        assert lasts == [0, 0, 1]

        # Precise wakes, against an R sink that never accepts: the
        # countdown schedules comb() once, at zero, and a memory write
        # wakes the subordinate only while it presents a beat.
        sim, dram = Simulator(), WordMemory("dram", 1 << 16)
        iface = sim.add(axi4_interface("pcis"))
        sub = sim.add(AxiSubordinate("sub", iface, dram, read_latency=3))
        ar = sim.add(ChannelSource("ar", iface.ar))
        sim.add(ChannelSink("r", iface.r, policy=lambda _c, _n: False))
        sim.run(2)
        dram.write_word(0x200, 0xBB00)
        assert sub not in sim._pending
        ar.send({"addr": 0x200, "len": 0, "size": 6, "id": 2})
        woken = []
        while not iface.r.valid.value:
            sim.step()
            woken.append(sub in sim._pending)
        # AR fires (wake), 2 -> 1 (none), 1 -> 0 (wake), beat presented.
        assert woken == [True, False, True, False]
        assert iface.r.spec.extract(iface.r.payload.value, "data") == 0xBB00
        dram.write_word(0x200, 0xBB01)
        assert sub in sim._pending
        sim.step()
        assert iface.r.spec.extract(iface.r.payload.value, "data") == 0xBB01


class TestManagerAgainstHostController:
    def test_pcim_path_is_protocol_clean(self):
        sim = Simulator()
        interface = axi4_interface("pcim", manager="fpga")
        sim.add(interface)
        host = WordMemory("host", 1 << 16)
        manager = AxiManager("mgr", interface)
        controller = HostMemoryController("ctl", interface, host, seed=4)
        sim.add(manager)
        sim.add(controller)
        checkers = [ProtocolChecker(f"c.{n}", ch, strict=True)
                    for n, ch in interface.channels.items()]
        for checker in checkers:
            sim.add(checker)
        manager.dma_write_bytes(0x400, bytes(range(200)))
        results = []
        manager.dma_read(0x400, 4, on_complete=results.append)
        sim.run_until(lambda: manager.idle, max_cycles=4000)
        assert host.read_bytes(0x400, 200) == bytes(range(200))
        assert results and len(results[0]) == 4
        assert all(not c.violations for c in checkers)

    def test_empty_write_rejected(self):
        interface = axi4_interface("pcim", manager="fpga")
        manager = AxiManager("mgr", interface)
        with pytest.raises(SimulationError):
            manager.dma_write(0, [])


class TestClockDomain:
    def test_conversions(self):
        clock = ClockDomain("clk", 100_000_000)
        assert clock.period_s == pytest.approx(1e-8)
        assert clock.cycles_to_seconds(100_000_000) == pytest.approx(1.0)
        assert clock.seconds_to_cycles(0.5) == 50_000_000
        assert clock.bandwidth_bytes_per_cycle(1e9) == pytest.approx(10.0)

    def test_default_is_250mhz(self):
        assert DEFAULT_CLOCK.frequency_hz == 250_000_000


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        from repro import errors

        for name in ("SimulationError", "CombinationalLoopError",
                     "WatchdogTimeout", "ProtocolViolationError",
                     "TraceFormatError", "ReplayError", "ConfigError",
                     "ResourceModelError"):
            assert issubclass(getattr(errors, name), ReproError)
