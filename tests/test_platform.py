"""Tests for the platform layer: CPU model, DMA engines, host memory, PCIe."""

import pytest

from repro.channels import ProtocolChecker
from repro.errors import SimulationError
from repro.platform import (
    AxiManager,
    AxiSubordinate,
    CpuModel,
    DmaRead,
    DmaWrite,
    EnvironmentMode,
    HostMemRead,
    MmioRead,
    MmioWrite,
    WaitCycles,
    WaitHostWord,
    make_f1_interfaces,
)
from repro.sim import Module, RegisterFile, Simulator, WordMemory
from repro.sim.module import NEVER


def build_host_rig(mode=EnvironmentMode.HARDWARE, seed=0):
    """CPU model wired to app-side subordinates through pass-throughs."""
    from repro.channels import PassThrough

    sim = Simulator()
    env = make_f1_interfaces("env")
    app = make_f1_interfaces("app")
    for iface in list(env.values()) + list(app.values()):
        sim.add(iface)
    from repro.channels.axi import CHANNEL_ORDER
    for name in env:
        for ch in CHANNEL_ORDER:
            e, a = env[name].channels[ch], app[name].channels[ch]
            up, down = (e, a) if e.direction == "in" else (a, e)
            sim.add(PassThrough(f"thru.{name}.{ch}", up, down))
    host_mem = WordMemory("host", 1 << 20)
    cpu = CpuModel("cpu", env, host_mem, mode=mode, seed=seed)
    sim.add(cpu)
    host_mc = AxiSubordinate("hmc", env["pcim"], host_mem, read_latency=6,
                             write_latency=6, jitter=4, seed=seed)
    sim.add(host_mc)
    regs = RegisterFile("regs", 16)
    from repro.platform.axi_subordinate import AxiLiteSubordinate

    lite = AxiLiteSubordinate("ocl", app["ocl"], reg_read=regs.read,
                              reg_write=regs.write)
    sim.add(lite)
    dram = WordMemory("dram", 1 << 20)
    pcis = AxiSubordinate("pcis", app["pcis"], dram)
    sim.add(pcis)
    manager = AxiManager("pcim", app["pcim"])
    sim.add(manager)
    return sim, cpu, regs, dram, host_mem, manager


class TestMmio:
    def test_write_then_read(self):
        sim, cpu, regs, dram, host_mem, manager = build_host_rig()
        result = {}

        def program():
            yield MmioWrite("ocl", 8, 0xCAFE)
            result["value"] = yield MmioRead("ocl", 8)

        cpu.add_thread(program())
        sim.run_until(lambda: cpu.done, max_cycles=500)
        assert regs.read(8) == 0xCAFE
        assert result["value"] == 0xCAFE

    def test_unknown_interface_rejected(self):
        sim, cpu, *_ = build_host_rig()

        def program():
            yield MmioWrite("hbm", 0, 1)

        cpu.add_thread(program())
        with pytest.raises(SimulationError):
            sim.run_until(lambda: cpu.done, max_cycles=100)


class TestPcisDma:
    def test_aligned_roundtrip(self):
        sim, cpu, regs, dram, host_mem, manager = build_host_rig()
        payload = bytes(range(256))
        result = {}

        def program():
            yield DmaWrite(0x100, payload)
            result["readback"] = yield DmaRead(0x100, len(payload))

        cpu.add_thread(program())
        sim.run_until(lambda: cpu.done, max_cycles=5000)
        assert result["readback"] == payload
        assert dram.read_bytes(0x100, len(payload)) == payload

    def test_unaligned_write_uses_strobes_on_hardware(self):
        sim, cpu, regs, dram, host_mem, manager = build_host_rig()
        dram.write_bytes(0, b"\xEE" * 128)

        def program():
            yield DmaWrite(10, b"\x01\x02\x03")

        cpu.add_thread(program())
        sim.run_until(lambda: cpu.done, max_cycles=2000)
        data = dram.read_bytes(0, 32)
        assert data[9] == 0xEE            # neighbour preserved
        assert data[10:13] == b"\x01\x02\x03"
        assert data[13] == 0xEE

    def test_unaligned_write_corrupts_in_vendor_sim(self):
        """The vendor-sim inaccuracy: force-aligned, full-strobe writes."""
        sim, cpu, regs, dram, host_mem, manager = build_host_rig(
            mode=EnvironmentMode.VENDOR_SIM)
        dram.write_bytes(0, b"\xEE" * 128)

        def program():
            yield DmaWrite(10, b"\x01\x02\x03")

        cpu.add_thread(program())
        sim.run_until(lambda: cpu.done, max_cycles=2000)
        data = dram.read_bytes(0, 64)
        assert data[0:3] == b"\x01\x02\x03"   # landed at the aligned base
        assert data[3] == 0x00                # and padded with zeros

    def test_unaligned_read(self):
        sim, cpu, regs, dram, host_mem, manager = build_host_rig()
        dram.write_bytes(0, bytes(range(200)))
        result = {}

        def program():
            result["data"] = yield DmaRead(37, 50)

        cpu.add_thread(program())
        sim.run_until(lambda: cpu.done, max_cycles=2000)
        assert result["data"] == bytes(range(37, 87))

    def test_protocol_legality_under_dma(self):
        sim, cpu, regs, dram, host_mem, manager = build_host_rig()
        env = cpu.dma.interface
        checkers = [ProtocolChecker(f"chk.{n}", ch, strict=True)
                    for n, ch in env.channels.items()]
        for c in checkers:
            sim.add(c)

        def program():
            yield DmaWrite(0, bytes(range(128)))
            yield DmaRead(0, 128)

        cpu.add_thread(program())
        sim.run_until(lambda: cpu.done, max_cycles=5000)
        assert all(not c.violations for c in checkers)


class TestPcimManager:
    def test_fpga_writes_host_memory(self):
        sim, cpu, regs, dram, host_mem, manager = build_host_rig()
        manager.dma_write_bytes(0x2000, b"\x42" * 100)
        sim.run_until(lambda: manager.idle, max_cycles=2000)
        assert host_mem.read_bytes(0x2000, 100) == b"\x42" * 100

    def test_fpga_reads_host_memory(self):
        sim, cpu, regs, dram, host_mem, manager = build_host_rig()
        host_mem.write_bytes(0x3000, bytes(range(64)) * 3)
        results = []
        manager.dma_read(0x3000, 3, on_complete=results.append)
        sim.run_until(lambda: manager.idle, max_cycles=2000)
        assert len(results) == 1 and len(results[0]) == 3
        assert results[0][0] == int.from_bytes(bytes(range(64)), "little")

    def test_multi_burst_write(self):
        sim, cpu, regs, dram, host_mem, manager = build_host_rig()
        payload = bytes((i * 7) & 0xFF for i in range(64 * 20))  # 20 beats
        manager.dma_write_bytes(0x4000, payload)
        sim.run_until(lambda: manager.idle, max_cycles=5000)
        assert host_mem.read_bytes(0x4000, len(payload)) == payload

    def test_unaligned_manager_write_rejected(self):
        sim, cpu, regs, dram, host_mem, manager = build_host_rig()
        with pytest.raises(SimulationError):
            manager.dma_write(0x2001, [(0, 1)])


class TestHostThreads:
    def test_wait_cycles(self):
        sim, cpu, *_ = build_host_rig()
        log = []

        def program():
            yield WaitCycles(37)
            log.append(sim.cycle)

        cpu.add_thread(program())
        sim.run_until(lambda: cpu.done, max_cycles=200)
        assert log and log[0] >= 37

    def test_wait_host_word_and_mem_read(self):
        sim, cpu, regs, dram, host_mem, manager = build_host_rig()
        result = {}

        def waiter():
            yield WaitHostWord(0x500 - 0x500 % 64 + 64,
                               lambda w: w == 0x99)
            result["data"] = yield HostMemRead(0x540, 8)

        def poker():
            yield WaitCycles(30)
            host_mem.write_bytes(0x540, (0x99).to_bytes(8, "little"))

        cpu.add_thread(waiter())
        cpu.add_thread(poker())
        sim.run_until(lambda: cpu.done, max_cycles=500)
        assert result["data"] == (0x99).to_bytes(8, "little")

    def test_two_threads_interleave_operations(self):
        sim, cpu, regs, dram, host_mem, manager = build_host_rig()
        order = []

        def t1():
            yield MmioWrite("ocl", 0, 1)
            order.append("t1")
            yield WaitCycles(10)
            yield MmioWrite("ocl", 4, 2)
            order.append("t1")

        def t2():
            yield MmioWrite("ocl", 8, 3)
            order.append("t2")

        runnable_seen = set()

        def audit(_cycle):
            # The CPU's counters against a recount of the thread states:
            # its deadline is the earliest thread's, and a thread on an
            # engine (or done) is due at no cycle.
            states = [t["state"] for t in cpu._threads]
            live = sum(1 for state in states if state != "done")
            on_engine = states.count("engine")
            assert cpu._live == live
            assert cpu._wake_at == min(t["due"] for t in cpu._threads)
            assert all(t["due"] == NEVER for t in cpu._threads
                       if t["state"] in ("engine", "done"))
            engines_idle = (all(p.idle for p in cpu.mmio_ports.values())
                            and cpu.dma.idle)
            assert cpu.done == (live == 0 and engines_idle)
            runnable_seen.add(live - on_engine)

        cpu.add_thread(t1())
        cpu.add_thread(t2())
        sim.add_cycle_hook(audit)
        sim.run_until(lambda: cpu.done, max_cycles=1000)
        assert sorted(order) == ["t1", "t1", "t2"]
        assert regs[0] == 1 and regs[1] == 2 and regs[2] == 3
        # Both threads parked on the ocl port at some boundary, and ran
        # together at another.
        assert {0, 1, 2} <= runnable_seen

    def test_seeded_timing_is_deterministic(self):
        def run(seed):
            sim, cpu, regs, *_ = build_host_rig(seed=seed)

            def program():
                yield DmaWrite(0, b"\x11" * 256)
                yield MmioWrite("ocl", 0, 1)

            cpu.add_thread(program())
            return sim.run_until(lambda: cpu.done, max_cycles=5000)

        assert run(5) == run(5)
        assert run(5) != run(6) or run(7) != run(6)  # jitter varies by seed
