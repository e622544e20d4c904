"""Focused tests for the AXI endpoint state machines and misc utilities."""

import random

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
from repro.platform.pcie import PcieArbiter
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

        # Random bursts through the shift codecs: random addresses,
        # lengths, ids, strobes and data are written, then read back, and
        # every B and R word equals spec.pack of the expected fields.
        rng = random.Random(30)
        sim, iface, dram, sub, seen, aw, w, ar, b, r = full_rig()
        model, want_b, want_seen = {}, [], []
        for _ in range(12):
            length = rng.randint(1, 8)
            addr = rng.randrange(0, dram.size_bytes - 64 * length + 1, 64)
            burst_id = rng.getrandbits(16)
            aw.send({"addr": addr, "len": length - 1, "size": 6,
                     "id": burst_id})
            for beat in range(length):
                data, strb = rng.getrandbits(512), rng.getrandbits(64)
                w.send({"data": data, "strb": strb,
                        "last": int(beat == length - 1), "id": burst_id})
                mask = sum(0xFF << (8 * i) for i in range(64) if strb >> i & 1)
                word_addr = addr + 64 * beat
                model[word_addr] = ((model.get(word_addr, 0) & ~mask)
                                    | (data & mask))
                want_seen.append((word_addr, strb))
            want_b.append(iface.b.spec.pack({"id": burst_id, "resp": 0}))
        sim.run_until(lambda: len(b.received) == len(want_b), max_cycles=2000)
        assert b.received == want_b
        assert seen == want_seen
        assert all(dram.read_word(a) == v for a, v in model.items())
        want_r = []
        for _ in range(12):
            length = rng.randint(1, 8)
            addr = rng.choice([a for a in model
                               if a + 64 * length <= dram.size_bytes])
            burst_id = rng.getrandbits(16)
            ar.send({"addr": addr, "len": length - 1, "size": 6,
                     "id": burst_id})
            want_r += [iface.r.spec.pack({
                "data": model.get(addr + 64 * beat, 0), "id": burst_id,
                "resp": 0, "last": int(beat == length - 1)})
                for beat in range(length)]
        sim.run_until(lambda: len(r.received) == len(want_r), max_cycles=2000)
        assert r.received == want_r

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
        controller = AxiSubordinate("ctl", interface, host, read_latency=6,
                                    write_latency=6, jitter=4, seed=4)
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

    def test_pcie_credit_paces_beats(self):
        """The host end of pcim, built as F1Deployment builds it: every R
        and W beat crosses the PCIe link and waits for a beat's credit."""
        sim = Simulator()
        iface = sim.add(axi4_interface("pcim", manager="fpga"))
        host = WordMemory("host", 1 << 16)
        pcie = sim.add(PcieArbiter("pcie"))   # ahead of every credit user
        pcie.capacity = 0                     # no credit unless granted
        sub = sim.add(AxiSubordinate("host_mc", iface, host, read_latency=6,
                                     write_latency=6, jitter=4, seed=2,
                                     pcie=pcie))
        aw, w, ar = (sim.add(ChannelSource(n, iface.channels[n]))
                     for n in ("aw", "w", "ar"))
        b = sim.add(ChannelSink("b", iface.b))
        accept = []
        r = sim.add(ChannelSink("r", iface.r,
                                policy=lambda _c, _n: bool(accept)))

        def grant():
            """One beat of link credit, accrued in the next cycle only."""
            pcie.capacity = 64
            sim.step()
            pcie.capacity = 0

        def r_data():
            return [iface.r.spec.extract(x, "data") for x in r.received]

        host.write_word(0x400, 0xA0)
        host.write_word(0x440, 0xA1)
        ar.send({"addr": 0x400, "len": 1, "size": 6, "id": 3})
        sim.run(20)   # past the latency (6 + at most 4), but unpaid
        assert sub._read_burst is not None and sub._r_wait == 0
        assert not iface.r.valid.value
        host.write_word(0x400, 0xB0)   # nothing presented: no wake
        assert sub not in sim._pending
        grant()
        sim.step()
        assert iface.r.valid.value     # paid, so presented
        host.write_word(0x400, 0xB1)   # a presented beat is re-driven
        assert sub in sim._pending
        accept.append(True)
        sim.run(20)
        # The first beat fired; the second needs fresh credit.
        assert r_data() == [0xB1] and not iface.r.valid.value
        grant()
        sim.run(3)
        assert r_data() == [0xB1, 0xA1]
        assert [iface.r.spec.extract(x, "last") for x in r.received] == [0, 1]

        aw.send({"addr": 0x800, "len": 1, "size": 6, "id": 5})
        for i in range(2):
            w.send({"data": 0xC0 + i, "strb": (1 << 64) - 1, "last": i,
                    "id": 5})
        sim.run(20)
        # The first beat crossed on the initial allowance; READY then
        # falls and stays low while the link has no credit.
        assert sub.write_beats == 1
        assert iface.w.valid.value and not iface.w.ready.value
        grant()
        sim.run(20)
        assert sub.write_beats == 2 and len(b.received) == 1
        assert [host.read_word(0x800), host.read_word(0x840)] == [0xC0, 0xC1]

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
