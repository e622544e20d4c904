"""Tests for the trace containers: the one (v3) writer, and the read-only
v1/v2 loaders and v2 salvage, run against the fixtures in ``tests/data``."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.events import ChannelInfo, ChannelTable
from repro.core.mutation import FRAME_REGIONS, TraceMutator, corrupt_frame
from repro.core.packets import CyclePacket, scan_packet_prefix
from repro.core.trace_file import FRAME_ANCHOR, TraceFile
from repro.errors import ConfigError, TraceFormatError, TraceIntegrityError

DATA = Path(__file__).parent / "data"
# SHA-256 of the body each fixture family was written from (tests/data).
BODY_SHA256 = {
    "small":
        "496a4e270b5e0661a6ce1c02fac718afcc085be98ef0381063c7814923755500",
    "sha256_s3":
        "22967421cb0dd6c62e88fa90b199a92d8733ccd53ff2fad0bc18ff92d8065f04",
}


def fixture(name: str) -> bytes:
    return (DATA / f"{name}.trace").read_bytes()


def legacy(version: int) -> bytes:
    """The pristine legacy container of :func:`small_trace`."""
    return fixture(f"small_v{version}")


def small_table() -> ChannelTable:
    return ChannelTable([
        ChannelInfo(index=0, name="a.req", direction="in",
                    content_bytes=4, payload_bits=32),
        ChannelInfo(index=1, name="a.rsp", direction="out",
                    content_bytes=4, payload_bits=32),
    ])


def small_trace(n_packets: int = 6) -> TraceFile:
    table = small_table()
    packets = []
    for i in range(n_packets):
        packet = CyclePacket(starts=1, ends=2)
        packet.contents[0] = i.to_bytes(4, "little")
        packet.validation[1] = (i * 3).to_bytes(4, "little")
        packets.append(packet)
    return TraceFile.from_packets(table, packets, metadata={"app": "unit"})


def anchored_trace() -> TraceFile:
    """small_trace(8) as a window from ordinal 10, anchored at 3 and 6."""
    trace = small_trace(8)
    trace.metadata["ring"] = {"ordinal": 10, "cycle": 40,
                              "checkpoint": {"regs": [0]}}
    trace.anchors = {k: {"ordinal": 10 + k, "cycle": 40 + 5 * k,
                         "checkpoint": {"regs": [k]}} for k in (3, 6)}
    return trace


def header_of(blob: bytes) -> dict:
    return json.loads(blob[20:20 + int.from_bytes(blob[8:16], "little")])


class TestRoundTrip:
    def test_writes_only_v3(self, tmp_path):
        trace = small_trace()
        blob = trace.to_bytes()
        assert blob[:8] == b"VIDITRC3"
        # Anchorless, ring-less: the bytes the v2-era to_bytes(version=3)
        # wrote for the same trace.
        assert blob == fixture("small_v3")
        trace.save(tmp_path / "t.trace")
        assert (tmp_path / "t.trace").read_bytes() == blob
        loaded = TraceFile.load(tmp_path / "t.trace")
        assert loaded.format_version == 3
        assert bytes(loaded.body) == bytes(trace.body)
        assert loaded.metadata == {"app": "unit"}

    @pytest.mark.parametrize("name", ["small_v1", "small_v1z", "small_v2",
                                      "small_v2z", "sha256_s3_v1",
                                      "sha256_s3_v2"])
    def test_fixture_loads(self, name):
        """Each legacy fixture loads with the table, body and metadata it
        was written from: rewritten, it is byte for byte the v3 fixture
        the same writer made of the same trace."""
        stem, version = name.rsplit("_v", 1)
        loaded = TraceFile.from_bytes(fixture(name))
        assert loaded.format_version == int(version[0])
        assert not loaded.salvaged
        assert hashlib.sha256(loaded.body).hexdigest() == BODY_SHA256[stem]
        reference = TraceFile.from_bytes(fixture(f"{stem}_v3"))
        assert loaded.metadata == reference.metadata
        assert loaded.table.to_dict() == reference.table.to_dict()
        assert loaded.to_bytes() == fixture(f"{stem}_v3")

    def test_v1_traces_still_load(self, tmp_path):
        """Pre-v2 archives keep loading, and re-saving writes v3."""
        loaded = TraceFile.load(DATA / "small_v1.trace")
        assert loaded.format_version == 1
        assert bytes(loaded.body) == bytes(small_trace().body)
        loaded.save(tmp_path / "again.trace")
        again = TraceFile.load(tmp_path / "again.trace")
        assert again.format_version == 3
        assert bytes(again.body) == bytes(loaded.body)

    def test_anchor_round_trip(self):
        trace = anchored_trace()
        blob = trace.to_bytes()
        loaded = TraceFile.from_bytes(blob)
        assert loaded.anchors == trace.anchors
        assert loaded.metadata == trace.metadata
        assert bytes(loaded.body) == bytes(trace.body)
        assert loaded.to_bytes() == blob


class TestFramingRejections:
    """Short blobs, truncated segments and trailing garbage must all fail
    loudly, for both legacy container versions."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_short_blob(self, version):
        blob = legacy(version)
        for cut in (0, 3, 7):
            with pytest.raises(TraceFormatError):
                TraceFile.from_bytes(blob[:cut])

    def test_bad_magic(self):
        blob = small_trace().to_bytes()
        with pytest.raises(TraceFormatError):
            TraceFile.from_bytes(b"NOTATRCE" + blob[8:])

    @pytest.mark.parametrize("version", [1, 2])
    def test_truncated_header(self, version):
        blob = legacy(version)
        preamble = 16 if version == 1 else 20
        with pytest.raises(TraceFormatError):
            TraceFile.from_bytes(blob[:preamble + 5])

    @pytest.mark.parametrize("version", [1, 2])
    def test_trailing_garbage_rejected(self, version):
        blob = legacy(version)
        with pytest.raises(TraceFormatError):
            TraceFile.from_bytes(blob + b"\x00" * 9)

    def test_v1_truncated_body(self):
        with pytest.raises(TraceFormatError):
            TraceFile.from_bytes(legacy(1)[:-5])


class TestCrcDetection:
    def test_every_single_byte_flip_detected(self):
        """Exhaustive: no single-byte corruption of a v2 or v3 blob loads."""
        for pristine in (legacy(2), small_trace().to_bytes()):
            blob = bytearray(pristine)
            for position in range(len(blob)):
                blob[position] ^= 0x41
                with pytest.raises(TraceFormatError):
                    TraceFile.from_bytes(bytes(blob))
                blob[position] ^= 0x41

    def test_header_corruption_is_integrity_error(self):
        for pristine in (legacy(2), small_trace().to_bytes()):
            blob = bytearray(pristine)
            blob[25] ^= 1   # inside the JSON header
            with pytest.raises(TraceIntegrityError):
                TraceFile.from_bytes(bytes(blob))

    def test_body_corruption_is_integrity_error(self):
        blob = bytearray(legacy(2))
        blob[-20] ^= 1  # inside the body, near the footer
        with pytest.raises(TraceIntegrityError):
            TraceFile.from_bytes(bytes(blob))

    def test_corrupt_frame_never_silently_accepted(self):
        rng = random.Random(0)
        blob = legacy(2)
        for i in range(60):
            region = FRAME_REGIONS[i % len(FRAME_REGIONS)]
            _desc, damaged = corrupt_frame(blob, rng, region=region)
            with pytest.raises(TraceFormatError):
                TraceFile.from_bytes(damaged)

    def test_corrupt_frame_needs_v2(self):
        for blob in (legacy(1), small_trace().to_bytes()):
            with pytest.raises(ConfigError):
                corrupt_frame(blob, random.Random(0))


class TestSalvage:
    """v2 salvage, on the pristine fixture (six packets)."""

    def test_truncation_salvages_packet_prefix(self):
        blob = legacy(2)
        trace = TraceFile.from_bytes(blob)
        body_start = len(blob) - len(trace.body) - 12
        # Cut in the middle of packet 5's serialized bytes.
        cut = body_start + trace.index().offset_of(5) + 3
        salvaged = TraceFile.from_bytes(blob[:cut], salvage=True)
        assert salvaged.salvaged
        assert salvaged.metadata["salvaged"]["packets"] == 5
        assert bytes(trace.body).startswith(bytes(salvaged.body))
        assert salvaged.packet_count == 5

    def test_interior_corruption_salvages_leading_packets(self):
        blob = bytearray(legacy(2))
        trace = TraceFile.from_bytes(bytes(blob))
        body_start = len(blob) - len(trace.body) - 12
        offset = trace.index().offset_of(3)
        blob[body_start + offset] ^= 0xFF   # break packet 3's bitvector
        salvaged = TraceFile.from_bytes(bytes(blob), salvage=True)
        assert salvaged.salvaged
        # At least the packets before the flipped byte survive.
        assert salvaged.metadata["salvaged"]["packets"] >= 3
        assert salvaged.packet_count >= 3

    def test_salvage_without_flag_still_raises(self):
        with pytest.raises(TraceIntegrityError):
            TraceFile.from_bytes(legacy(2)[:-1])

    def test_salvage_requires_intact_header(self):
        blob = bytearray(legacy(2))
        blob[25] ^= 1
        with pytest.raises(TraceIntegrityError):
            TraceFile.from_bytes(bytes(blob[:-4]), salvage=True)

    def test_corrupt_compressed_body_cannot_salvage(self):
        blob = bytearray(fixture("small_v2z"))
        blob[-16] ^= 1
        with pytest.raises(TraceIntegrityError):
            TraceFile.from_bytes(bytes(blob), salvage=True)

    def test_intact_blob_salvage_is_identity(self):
        loaded = TraceFile.from_bytes(legacy(2), salvage=True)
        assert not loaded.salvaged
        assert bytes(loaded.body) == bytes(TraceFile.from_bytes(
            legacy(2)).body)


class TestScanPacketPrefix:
    def test_full_body_scans_completely(self):
        trace = small_trace(5)
        packets, nbytes = scan_packet_prefix(trace.body, trace.table,
                                             trace.with_validation)
        assert packets == 5
        assert nbytes == len(trace.body)

    def test_empty_body(self):
        trace = small_trace(1)
        assert scan_packet_prefix(b"", trace.table, True) == (0, 0)

    def test_garbage_tail_stops_scan(self):
        trace = small_trace(4)
        body = bytes(trace.body) + b"\xff\xff"
        packets, nbytes = scan_packet_prefix(body, trace.table, True)
        assert packets == 4
        assert nbytes == len(trace.body)


class TestV3Writer:
    def test_header_has_no_ring(self):
        """The window start lives in the genesis ANCHOR only; a shard's
        ``ring: None`` writes no window at all."""
        assert header_of(anchored_trace().to_bytes())["metadata"] == {
            "app": "unit"}
        shard = small_trace()
        shard.metadata["ring"] = None
        blob = shard.to_bytes()
        assert header_of(blob)["metadata"] == {"app": "unit"}
        assert "ring" not in TraceFile.from_bytes(blob).metadata

    def test_anchors_restart_epochs(self):
        """Each anchor restarts the dedup dictionary and the DEFLATE
        stream, so a later epoch decodes with no earlier history: damage
        in the first epoch salvages from the next anchor on."""
        trace = anchored_trace()
        blob = bytearray(trace.to_bytes())
        genesis = 20 + int.from_bytes(blob[8:16], "little")
        first_run = genesis + 9 + int.from_bytes(
            blob[genesis + 1:genesis + 5], "little")
        assert blob[first_run] != FRAME_ANCHOR
        blob[first_run + 9] ^= 0xFF   # inside epoch 0's RUN payload
        with pytest.raises(TraceIntegrityError):
            TraceFile.from_bytes(bytes(blob))
        salvaged = TraceFile.from_bytes(bytes(blob), salvage=True)
        assert bytes(salvaged.body) == bytes(trace.index().slice(3, 8))
        assert salvaged.metadata["ring"] == trace.anchors[3]
        assert salvaged.anchors == {3: trace.anchors[6]}

    def test_salvaged_rewrite_keeps_anchors(self):
        """``vidi salvage -o``: a torn container's surviving window,
        rewritten, keeps its anchors and its salvage record."""
        trace = anchored_trace()
        blob = trace.to_bytes()
        salvaged = TraceFile.from_bytes(blob[:-9], salvage=True)  # no END
        assert salvaged.salvaged
        again = TraceFile.from_bytes(salvaged.to_bytes())
        assert again.anchors == salvaged.anchors == trace.anchors
        assert again.metadata == salvaged.metadata
        assert bytes(again.body) == bytes(salvaged.body)

    def test_mutated_trace_drops_anchors(self):
        """A mutation moves packet ordinals: the built trace has none."""
        mutator = TraceMutator(anchored_trace())
        mutator.packets.pop(1)
        built = mutator.build()
        assert built.anchors == {}
        loaded = TraceFile.from_bytes(built.to_bytes())
        assert loaded.anchors == {}
        assert loaded.container_stats["anchors"] == 1   # genesis only

    def test_legacy_salvage_rewrites_as_v3(self, tmp_path):
        """A torn v2 archive salvaged and saved becomes a v3 trace."""
        blob = legacy(2)
        salvaged = TraceFile.from_bytes(blob[:-20], salvage=True)
        salvaged.save(tmp_path / "s.trace")
        again = TraceFile.load(tmp_path / "s.trace")
        assert again.format_version == 3
        assert again.metadata == salvaged.metadata
        assert bytes(again.body) == bytes(salvaged.body)


class TestSalvagedReplay:
    def test_salvaged_prefix_replays_cleanly(self):
        """A crash-truncated recording still replays: the availability
        guarantee end to end (record -> truncate -> salvage -> replay)."""
        from repro.apps.registry import get_app
        from repro.core import VidiConfig, compare_traces
        from repro.harness.runner import bench_config, record_run, replay_run

        spec = get_app("sha256")
        metrics = record_run(spec, bench_config(VidiConfig.r2), seed=11)
        trace = metrics.result["trace"]
        blob = trace.to_bytes()
        salvaged = TraceFile.from_bytes(blob[:2 * len(blob) // 3],
                                        salvage=True)
        assert salvaged.salvaged
        assert 0 < salvaged.packet_count < trace.packet_count
        replay = replay_run(spec, salvaged, max_cycles=400_000)
        report = compare_traces(trace, replay.result["validation"],
                                prefix=True)
        assert report.clean
