"""Tests for the profile/audit/coverage CLI subcommands and trace-parser
robustness under random corruption."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.dram_dma import make
from repro.core import TraceFile, VidiConfig
from repro.errors import TraceFormatError
from repro.platform import F1Deployment
from repro.tools import main


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    acc_factory, host_factory = make(polling=False)
    deployment = F1Deployment("clian", acc_factory, VidiConfig.r2(), seed=6)
    result = {}
    deployment.cpu.add_thread(host_factory(result, seed=6, scale=0.5))
    deployment.run_to_completion()
    assert result["ok"]
    path = tmp_path_factory.mktemp("tr") / "dma.trace"
    deployment.recorded_trace({"app": "dram_dma"}).save(path)
    return str(path)


class TestProfileCommand:
    def test_profile_prints_busiest_channels(self, trace_path, capsys):
        assert main(["profile", trace_path]) == 0
        out = capsys.readouterr().out
        assert "trace profile" in out
        assert "activity timeline" in out
        assert "pcis.w" in out

    def test_bucket_option(self, trace_path, capsys):
        assert main(["profile", trace_path, "--buckets", "5"]) == 0
        out = capsys.readouterr().out
        assert "t04" in out and "t05" not in out


class TestAuditCommand:
    def test_permissive_policy_exits_zero(self, trace_path, capsys):
        assert main(["audit", trace_path,
                     "--allow", "pcim:rw:0x0:0x400000"]) == 0
        assert "no out-of-policy" in capsys.readouterr().out

    def test_restrictive_policy_exits_one(self, trace_path, capsys):
        assert main(["audit", trace_path,
                     "--allow", "pcim:write:0x0:0x40"]) == 1
        assert "out-of-policy" in capsys.readouterr().out

    def test_bad_window_syntax(self, trace_path, capsys):
        assert main(["audit", trace_path, "--allow", "nonsense"]) == 2
        assert "error: expected IFACE:OPS:BASE:LEN (e.g. " \
            "pcim:write:0x10000:0x1000), got 'nonsense'" in \
            capsys.readouterr().err


class TestCoverageCommand:
    def test_coverage_over_traces(self, trace_path, capsys):
        assert main(["coverage", trace_path, trace_path]) == 0
        out = capsys.readouterr().out
        assert "ordering coverage" in out
        assert "+0 ordering observation(s)" in out   # second pass adds nothing


class TestTraceParserRobustness:
    """Random corruption must yield TraceFormatError, never crashes."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_corrupted_container_fails_cleanly(self, data):
        from repro.core.events import ChannelInfo, ChannelTable
        from repro.core.packets import CyclePacket

        table = ChannelTable([
            ChannelInfo(index=0, name="a", direction="in", content_bytes=2,
                        payload_bits=16),
            ChannelInfo(index=1, name="b", direction="out", content_bytes=1,
                        payload_bits=8),
        ])
        trace = TraceFile.from_packets(
            table,
            [CyclePacket(starts=1, ends=0b11, contents={0: b"\x01\x02"},
                         validation={1: b"\x03"})] * 3)
        blob = bytearray(trace.to_bytes())
        n_flips = data.draw(st.integers(min_value=1, max_value=6))
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        for _ in range(n_flips):
            position = rng.randrange(len(blob))
            blob[position] ^= 1 << rng.randrange(8)
        try:
            parsed = TraceFile.from_bytes(bytes(blob))
            parsed.packets()          # decoding must also be crash-free
        except (TraceFormatError, KeyError, ValueError):
            pass   # clean, typed rejection is the accepted outcome

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_garbage_input_rejected(self, blob):
        with pytest.raises((TraceFormatError, ValueError, KeyError,
                            IndexError, OverflowError)):
            TraceFile.from_bytes(blob)
            raise ValueError("parsed garbage")   # force failure if accepted
