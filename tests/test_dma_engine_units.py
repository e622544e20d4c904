"""Direct unit tests for the pcis DMA engine's burst planning and the
monitor's runtime-window protocol safety."""

import pytest

from repro.channels import (
    Channel,
    ChannelSink,
    ChannelSource,
    Field,
    PayloadSpec,
    ProtocolChecker,
    axi4_interface,
)
from repro.core.encoder import TraceEncoder
from repro.core.events import ChannelInfo, ChannelTable
from repro.core.monitor import ChannelMonitor
from repro.core.store import TraceStore
from repro.platform.cpu import DmaRead, DmaWrite, PcisDmaEngine
from repro.sim import Simulator


def make_engine(model_strobes=True):
    sim = Simulator()
    interface = axi4_interface("pcis")
    sim.add(interface)
    engine = PcisDmaEngine("eng", interface, model_strobes=model_strobes,
                           seed=0)
    sim.add(engine)
    return engine


class TestWritePlanning:
    def test_aligned_write_full_strobes(self):
        engine = make_engine()
        bursts = engine._plan_write(DmaWrite(0, b"\x11" * 128))
        assert len(bursts) == 1
        addr, beats = bursts[0]
        assert addr == 0 and len(beats) == 2
        assert all(strobe == (1 << 64) - 1 for _d, strobe in beats)

    def test_unaligned_write_head_and_tail_strobes(self):
        engine = make_engine()
        bursts = engine._plan_write(DmaWrite(10, b"\xAA" * 70))
        addr, beats = bursts[0]
        assert addr == 0                       # aligned base
        assert len(beats) == 2                 # bytes 10..79 span 2 words
        head_strobe = beats[0][1]
        tail_strobe = beats[1][1]
        assert head_strobe == (((1 << 54) - 1) << 10)   # lanes 10..63
        assert tail_strobe == (1 << 16) - 1             # lanes 0..15

        def lane_loop(addr, data):
            """Per-byte reference: every lane of every word tested."""
            if not data:
                return []   # an empty write issues no burst at any address
            first_word = addr & ~63
            last_word = (addr + len(data) - 1) & ~63
            beats = []
            for word_addr in range(first_word, last_word + 64, 64):
                strobe = word = 0
                for lane in range(64):
                    if addr <= word_addr + lane < addr + len(data):
                        strobe |= 1 << lane
                        word |= data[word_addr + lane - addr] << (8 * lane)
                beats.append((word, strobe))
            return [(first_word + i * 64, beats[i:i + 8])
                    for i in range(0, len(beats), 8)]

        data = bytes((7 * i + 3) & 0xFF for i in range(1000))
        for offset in range(64):
            for length in (0, 1, 63, 64, 65, 127, 1000):
                addr = 0x1000 + offset
                op = DmaWrite(addr, data[:length])
                assert engine._plan_write(op) == \
                    lane_loop(addr, data[:length]), (offset, length)

    def test_vendor_sim_forces_alignment(self):
        engine = make_engine(model_strobes=False)
        bursts = engine._plan_write(DmaWrite(10, b"\xAA" * 70))
        addr, beats = bursts[0]
        assert addr == 0
        assert all(strobe == (1 << 64) - 1 for _d, strobe in beats)

        def aligned_copy(addr, data):
            """Reference: the data lands unshifted at the aligned base."""
            padded = data.ljust(-(-len(data) // 64) * 64, b"\0")
            beats = [(int.from_bytes(padded[i:i + 64], "little"),
                      (1 << 64) - 1) for i in range(0, len(padded), 64)]
            return [((addr & ~63) + i * 64, beats[i:i + 8])
                    for i in range(0, len(beats), 8)]

        data = bytes((5 * i + 1) & 0xFF for i in range(1000))
        for offset in range(0, 64, 7):
            for length in (0, 1, 63, 64, 65, 1000):
                op = DmaWrite(0x1000 + offset, data[:length])
                assert engine._plan_write(op) == \
                    aligned_copy(op.addr, op.data), (offset, length)

    def test_long_write_splits_bursts(self):
        engine = make_engine()
        bursts = engine._plan_write(DmaWrite(0, b"\x00" * (64 * 20)))
        assert [len(beats) for _a, beats in bursts] == [8, 8, 4]
        assert [a for a, _b in bursts] == [0, 512, 1024]


class TestReadPlanning:
    def test_unaligned_read_covers_span(self):
        engine = make_engine()
        bursts = engine._plan_read(DmaRead(37, 50))   # bytes 37..86
        assert bursts == [(0, 2)]

    def test_long_read_splits(self):
        engine = make_engine()
        bursts = engine._plan_read(DmaRead(0, 64 * 11))
        assert bursts == [(0, 8), (512, 3)]


class TestMonitorWindowProtocolSafety:
    def test_toggling_mid_transaction_never_breaks_handshakes(self):
        """Disable takes effect between transactions: the in-flight one is
        completed and logged; no VALID retraction, no payload change."""
        word = PayloadSpec([Field("data", 8)])
        sim = Simulator()
        up = Channel("up", word, direction="in")
        down = Channel("down", word, direction="in")
        table = ChannelTable([ChannelInfo(index=0, name="c", direction="in",
                                          content_bytes=1, payload_bits=8)])
        store = TraceStore("store")
        encoder = TraceEncoder("enc", table, store)
        source = ChannelSource("src", up)
        gate = {"ready": False}
        sink = ChannelSink("snk", down, policy=lambda c, n: gate["ready"])
        monitor = ChannelMonitor("mon", 0, up, down, encoder, "in")
        checker_up = ProtocolChecker("cu", up, strict=True)
        checker_down = ProtocolChecker("cd", down, strict=True)
        for module in (up, down, source, sink, monitor, checker_up,
                       checker_down, encoder, store):
            sim.add(module)
        source.send({"data": 1})
        sim.run(4)                 # start logged, end pending (sink stalled)
        monitor.enabled = False    # toggle mid-transaction
        gate["ready"] = True
        sim.run(4)                 # transaction completes while "disabled"
        source.send({"data": 2})   # second transaction: not recorded
        sim.run_until(lambda: len(sink.received) == 2, max_cycles=30)
        store.flush()
        from repro.core.packets import deserialize_packets

        packets = deserialize_packets(store.trace_bytes, table, True)
        starts = sum(1 for p in packets if p.starts & 1)
        ends = sum(1 for p in packets if p.ends & 1)
        assert (starts, ends) == (1, 1)   # first txn fully recorded, second not
        assert checker_up.violations == []
        assert checker_down.violations == []
        assert sink.received == [1, 2]    # and nothing was dropped on the wire
