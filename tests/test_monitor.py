"""Monitor + encoder + store tests: the formal-property stand-ins (§4.1).

The paper formally verified its channel monitor with JasperGold: intercepted
transactions handshake correctly, are never reordered, and are never
dropped — even when the trace encoder blocks. These tests assert the same
properties under randomised traffic and pathological store conditions.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels import (
    Channel,
    ChannelSink,
    ChannelSource,
    Field,
    PayloadSpec,
    ProtocolChecker,
)
from repro.core.encoder import TraceEncoder
from repro.core.events import ChannelInfo, ChannelTable
from repro.core.monitor import ChannelMonitor
from repro.core.packets import deserialize_packets
from repro.core.store import TraceStore
from repro.sim import Simulator

WORD = PayloadSpec([Field("data", 32)])


def build_rig(direction="in", staging=4096, bandwidth=64.0,
              record_output_contents=True, sink_policy=None):
    """One monitored channel: source -> up -> monitor -> down -> sink."""
    sim = Simulator()
    up = Channel("up", WORD, direction=direction)
    down = Channel("down", WORD, direction=direction)
    table = ChannelTable([ChannelInfo(
        index=0, name="down", direction=direction,
        content_bytes=WORD.byte_length, payload_bits=WORD.width)])
    store = TraceStore("store", staging_bytes=staging,
                       bandwidth_bytes_per_cycle=bandwidth)
    encoder = TraceEncoder("enc", table, store,
                           record_output_contents=record_output_contents)
    source = ChannelSource("src", up)
    kwargs = {"policy": sink_policy} if sink_policy else {}
    sink = ChannelSink("sink", down, **kwargs)
    monitor = ChannelMonitor("mon", 0, up, down, encoder, direction)
    for module in (up, down, source, sink, monitor, encoder, store):
        sim.add(module)
    return sim, source, sink, monitor, encoder, store, table


def recorded(store, table, with_validation=True):
    store.flush()
    return deserialize_packets(store.trace_bytes, table, with_validation)


class TestInputMonitor:
    def test_transparent_delivery(self):
        sim, src, sink, mon, enc, store, table = build_rig()
        for i in range(5):
            src.send({"data": 100 + i})
        sim.run_until(lambda: len(sink.received) == 5, max_cycles=50)
        assert [w for w in sink.received] == [100, 101, 102, 103, 104]
        assert mon.transactions == 5

    def test_start_and_end_recorded_with_content(self):
        sim, src, sink, mon, enc, store, table = build_rig()
        src.send({"data": 0xDEAD})
        sim.run_until(lambda: len(sink.received) == 1, max_cycles=20)
        packets = recorded(store, table)
        starts = [p for p in packets if p.starts & 1]
        ends = [p for p in packets if p.ends & 1]
        assert len(starts) == 1 and len(ends) == 1
        assert starts[0].contents[0] == (0xDEAD).to_bytes(4, "little")

    def test_start_end_same_cycle_single_packet(self):
        """A one-cycle handshake yields one packet with both bits set."""
        sim, src, sink, mon, enc, store, table = build_rig()
        sim.run(2)  # sink READY settles high before the transaction arrives
        src.send({"data": 1})
        sim.run_until(lambda: len(sink.received) == 1, max_cycles=20)
        packets = recorded(store, table)
        assert len(packets) == 1
        assert packets[0].starts == 1 and packets[0].ends == 1

    def test_stalled_receiver_start_before_end(self):
        cycle_gate = {"open": False}
        sim, src, sink, mon, enc, store, table = build_rig(
            sink_policy=lambda cyc, n: cycle_gate["open"])
        src.send({"data": 7})
        sim.run(3)
        assert mon._committed
        # Holding a committed transaction while no wire moves, the monitor
        # is not re-evaluated: only a wire or a _committed flip moves it.
        evals, comb = [], mon.comb

        def counted_comb():
            evals.append(sim.cycle)
            comb()

        mon.comb = counted_comb
        sim.run(7)
        assert evals == []
        cycle_gate["open"] = True
        sim.run_until(lambda: len(sink.received) == 1, max_cycles=20)
        packets = recorded(store, table)
        assert len(packets) == 2
        assert packets[0].starts == 1 and packets[0].ends == 0
        assert packets[1].starts == 0 and packets[1].ends == 1

    def test_backpressure_blocks_start_but_never_drops(self):
        """A tiny, slow store throttles admission; traffic still all arrives."""
        sim, src, sink, mon, enc, store, table = build_rig(
            staging=64, bandwidth=1.0)
        payloads = list(range(200, 230))
        for p in payloads:
            src.send({"data": p})
        sim.run_until(lambda: len(sink.received) == len(payloads),
                      max_cycles=5000)
        assert sink.received == payloads
        assert mon.stalled_cycles > 0   # back-pressure actually bit
        packets = recorded(store, table)
        assert sum(1 for p in packets if p.starts & 1) == len(payloads)
        assert sum(1 for p in packets if p.ends & 1) == len(payloads)

    def test_protocol_checker_clean_on_both_sides(self):
        sim, src, sink, mon, enc, store, table = build_rig(
            staging=64, bandwidth=1.0)
        up_check = ProtocolChecker("upc", mon.up, strict=True)
        down_check = ProtocolChecker("dnc", mon.down, strict=True)
        sim.add(up_check)
        sim.add(down_check)
        for i in range(10):
            src.send({"data": i})
        sim.run_until(lambda: len(sink.received) == 10, max_cycles=2000)
        assert up_check.violations == []
        assert down_check.violations == []


class TestOutputMonitor:
    def test_end_recorded_with_content(self):
        sim, src, sink, mon, enc, store, table = build_rig(direction="out")
        src.send({"data": 0xBEEF})
        sim.run_until(lambda: len(sink.received) == 1, max_cycles=20)
        packets = recorded(store, table)
        assert len(packets) == 1
        assert packets[0].starts == 0 and packets[0].ends == 1
        assert packets[0].validation[0] == (0xBEEF).to_bytes(4, "little")

    def test_no_content_when_validation_disabled(self):
        sim, src, sink, mon, enc, store, table = build_rig(
            direction="out", record_output_contents=False)
        src.send({"data": 0xBEEF})
        sim.run_until(lambda: len(sink.received) == 1, max_cycles=20)
        packets = recorded(store, table, with_validation=False)
        assert packets[0].ends == 1
        assert packets[0].validation == {}


class TestReservationProperty:
    """Hypothesis storms standing in for the JasperGold proof obligations."""

    @given(
        payloads=st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                          min_size=1, max_size=25),
        staging=st.integers(min_value=64, max_value=256),
        bandwidth=st.floats(min_value=0.5, max_value=8.0),
        seed=st.integers(min_value=0, max_value=1 << 16),
    )
    @settings(max_examples=30, deadline=None)
    def test_no_drop_no_reorder_under_starved_store(self, payloads, staging,
                                                    bandwidth, seed):
        rng = random.Random(seed)
        sim, src, sink, mon, enc, store, table = build_rig(
            staging=staging, bandwidth=bandwidth,
            sink_policy=lambda cyc, n: rng.random() < 0.5)
        for p in payloads:
            src.send({"data": p})
        sim.run_until(lambda: len(sink.received) == len(payloads),
                      max_cycles=500 * len(payloads) + 2000)
        assert sink.received == payloads
        packets = recorded(store, table)
        contents = [p.contents[0] for p in packets if p.starts & 1]
        assert contents == [v.to_bytes(4, "little") for v in payloads]
        # End events were logged in their exact cycles: per-channel starts
        # and ends must strictly alternate in the packet stream.
        state = 0
        for packet in packets:
            if packet.starts & 1 and packet.ends & 1:
                assert state == 0
            elif packet.starts & 1:
                assert state == 0
                state = 1
            elif packet.ends & 1:
                assert state == 1
                state = 0
        assert state == 0


class TestEncoderErrors:
    def test_wrong_content_length_rejected(self):
        sim, src, sink, mon, enc, store, table = build_rig()
        sim.elaborate()
        with pytest.raises(Exception):
            enc.record_start(0, b"\x00")  # needs 5 bytes

    def test_start_on_output_channel_rejected(self):
        sim, src, sink, mon, enc, store, table = build_rig(direction="out")
        with pytest.raises(Exception):
            enc.record_start(0, b"\x00" * 5)
