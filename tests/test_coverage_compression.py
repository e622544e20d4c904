"""Tests for ordering coverage and trace compression."""

from pathlib import Path

import pytest

from repro.analysis.coverage import (
    OrderingCoverage,
    render_coverage,
    trace_order_items,
)
from repro.core.events import ChannelInfo, ChannelTable
from repro.core.packets import CyclePacket
from repro.core.trace_file import TraceFile


def table3():
    return ChannelTable([
        ChannelInfo(index=i, name=n, direction=d, content_bytes=1,
                    payload_bits=8)
        for i, (n, d) in enumerate(
            [("a", "in"), ("b", "out"), ("c", "out")])
    ])


def trace_of(end_sequence):
    """Build a trace whose ends occur in the given per-packet groups."""
    table = table3()
    index = {c.name: c.index for c in table.channels}
    packets = []
    for group in end_sequence:
        ends = 0
        validation = {}
        for name in group:
            ends |= 1 << index[name]
            if not table.is_input(index[name]):
                validation[index[name]] = b"\x00"
        packets.append(CyclePacket(ends=ends, validation=validation))
    return TraceFile.from_packets(table, packets, with_validation=True)


class TestOrderItems:
    def test_sequential_orders_observed(self):
        items = trace_order_items(trace_of([["a"], ["b"]]))
        assert ("a", "<", "b") in items
        assert ("b", "<", "a") not in items

    def test_simultaneous_marked(self):
        items = trace_order_items(trace_of([["a", "b"]]))
        assert ("a", "=", "b") in items

    def test_window_limits_pairing(self):
        sequence = [["a"]] + [["c"]] * 10 + [["b"]]
        items = trace_order_items(trace_of(sequence), window=3)
        assert ("a", "<", "b") not in items   # too far apart
        assert ("c", "<", "b") in items


class TestOrderingCoverage:
    def test_one_sided_pair_detection(self):
        coverage = OrderingCoverage()
        coverage.add_trace(trace_of([["a"], ["b"]]))
        assert ("a", "b") in coverage.one_sided_pairs()
        coverage.add_trace(trace_of([["b"], ["a"]]))
        assert ("a", "b") not in coverage.one_sided_pairs()

    def test_new_items_counted(self):
        coverage = OrderingCoverage()
        first = coverage.add_trace(trace_of([["a"], ["b"]]))
        again = coverage.add_trace(trace_of([["a"], ["b"]]))
        assert first > 0 and again == 0

    def test_ratio_bounds(self):
        coverage = OrderingCoverage()
        assert coverage.ratio == 0.0
        coverage.add_trace(trace_of([["a"], ["b"], ["a"], ["c"], ["b"]]))
        assert 0.0 < coverage.ratio <= 1.0

    def test_render(self):
        coverage = OrderingCoverage()
        coverage.add_trace(trace_of([["a"], ["b"]]))
        text = render_coverage(coverage)
        assert "ordering coverage" in text
        assert "one order" in text

    def test_atop_trace_has_the_telltale_one_sided_pair(self):
        """The real §5.3 situation: AW-end always precedes W-end."""
        from repro.apps import atop_echo
        from repro.core import VidiConfig
        from repro.platform import F1Deployment

        acc_factory, host_factory = atop_echo.make(buggy=True, n_words=8)
        deployment = F1Deployment("cov", acc_factory, VidiConfig.r2(), seed=2)
        result = {}
        deployment.cpu.add_thread(host_factory(result, seed=2, scale=0.5))
        deployment.run_to_completion()
        # window=1: adjacent-packet orderings only, so burst pipelining
        # does not blur the per-transaction AW-before-W invariant.
        coverage = OrderingCoverage(window=1)
        coverage.add_trace(deployment.recorded_trace())
        assert ("pcim.aw", "pcim.w") in coverage.one_sided_pairs()


class TestTraceCompression:
    """The v3 writer always compresses; DEFLATE bodies of the legacy v1/v2
    containers stay readable (fixtures in tests/data)."""

    DATA = Path(__file__).parent / "data"

    def fixture(self, name):
        return (self.DATA / f"{name}.trace").read_bytes()

    def test_uncompressed_roundtrip(self):
        table = table3()
        packets = [CyclePacket(starts=0b001, ends=0b001,
                               contents={0: bytes([i & 0xFF])})
                   for i in range(200)]
        trace = TraceFile.from_packets(table, packets, with_validation=True,
                                       metadata={"k": 1})
        blob = trace.to_bytes()
        again = TraceFile.from_bytes(blob)
        assert again.body == trace.body
        assert again.metadata == {"k": 1}
        # v3 RUN frames are DEFLATEd: the frames undercut the flat body.
        assert again.container_stats["frame_bytes"] < len(trace.body)

    def test_compressed_roundtrip_and_smaller(self):
        for version in (1, 2):
            plain = self.fixture(f"small_v{version}")
            compressed = self.fixture(f"small_v{version}z")
            loaded = TraceFile.from_bytes(compressed)
            assert loaded.body == TraceFile.from_bytes(plain).body
            assert loaded.metadata == {"app": "unit"}
            assert len(compressed) < len(plain)

    def test_save_load_compressed(self, tmp_path):
        trace = TraceFile.load(self.DATA / "small_v2z.trace")
        trace.save(tmp_path / "c.trace")
        again = TraceFile.load(tmp_path / "c.trace")
        assert again.format_version == 3
        assert again.body == trace.body

    def test_corrupt_compressed_body_detected(self):
        from repro.errors import TraceFormatError

        for name in ("small_v1z", "small_v2z"):
            blob = bytearray(self.fixture(name))
            blob[-1] ^= 0xFF
            with pytest.raises(TraceFormatError):
                TraceFile.from_bytes(bytes(blob))
