"""Tests for the flight recorder: dedup dictionary, v3 frame container,
ring-buffer retention, and wrap-boundary suffix replay."""

import hashlib
import random
import zlib

import pytest

from repro.core.decoder import expand_dedup_stream
from repro.core.events import ChannelInfo, ChannelTable
from repro.core.mutation import (
    V3_FRAME_REGIONS,
    corrupt_backref,
    corrupt_v3_frame,
)
from repro.core.packets import (
    DEDUP_MIN_BYTES,
    DEDUP_SLOT_BYTES,
    CyclePacket,
    DedupDict,
)
from repro.core.trace_file import (
    FRAME_ANCHOR,
    FRAME_END,
    FRAME_RUN,
    TraceFile,
    build_v3_container,
)
from repro.core.trace_ring import RingTraceStore
from repro.errors import ConfigError, TraceFormatError, TraceIntegrityError

from tests.declaration_audit import audit_event_sims


def small_table() -> ChannelTable:
    return ChannelTable([
        ChannelInfo(index=0, name="a.req", direction="in",
                    content_bytes=8, payload_bits=64),
        ChannelInfo(index=1, name="a.rsp", direction="out",
                    content_bytes=8, payload_bits=64),
    ])


def repetitive_trace(n_packets: int = 24, distinct: int = 3) -> TraceFile:
    """A trace whose contents repeat, so dedup emits real backrefs."""
    table = small_table()
    packets = []
    for i in range(n_packets):
        packet = CyclePacket(starts=1, ends=2)
        packet.contents[0] = (i % distinct).to_bytes(8, "little")
        packet.validation[1] = (i % distinct * 7).to_bytes(8, "little")
        packets.append(packet)
    return TraceFile.from_packets(table, packets, metadata={"app": "unit"})


class TestDedupDict:
    def test_ascending_slots_then_lru_eviction(self):
        dedup = DedupDict(slots=2)
        assert dedup.insert(b"aaaa") == 0
        assert dedup.insert(b"bbbb") == 1
        # Touch slot 0, so the LRU victim is slot 1.
        assert dedup.find(b"aaaa") == 0
        assert dedup.insert(b"cccc") == 1
        assert dedup.find(b"bbbb") is None
        assert dedup.get(1) == b"cccc"
        assert dedup.evictions == 1

    def test_get_rejects_out_of_range_and_unwritten_slots(self):
        dedup = DedupDict(slots=4)
        dedup.insert(b"xxxx")
        with pytest.raises(TraceFormatError):
            dedup.get(1)            # in range, never written
        with pytest.raises(TraceFormatError):
            dedup.get(4)            # out of range
        with pytest.raises(TraceFormatError):
            dedup.get(-1)

    def test_clear_resets_slots_but_not_counters(self):
        dedup = DedupDict(slots=2)
        dedup.insert(b"aaaa")
        dedup.find(b"aaaa")
        dedup.clear()
        assert dedup.find(b"aaaa") is None
        with pytest.raises(TraceFormatError):
            dedup.get(0)
        assert dedup.insert(b"bbbb") == 0   # slot numbering restarts
        assert dedup.inserts == 2           # cumulative stats survive

    def test_capacity_bounds(self):
        with pytest.raises(TraceFormatError):
            DedupDict(slots=0)
        with pytest.raises(TraceFormatError):
            DedupDict(slots=(1 << (8 * DEDUP_SLOT_BYTES)) + 1)


class TestDedupStream:
    def _streams(self, trace: TraceFile, slots: int = 8):
        """(flat body, dedup-coded stream) for the same packet sequence."""
        table = trace.table
        dedup = DedupDict(slots=slots)
        flat, coded = bytearray(), bytearray()
        for packet in trace.packets():
            packet.serialize_into(flat, table, True)
            packet.serialize_into(coded, table, True, dedup=dedup)
        return bytes(flat), bytes(coded)

    def test_round_trip_is_byte_identical_to_flat(self):
        trace = repetitive_trace(24)
        flat, coded = self._streams(trace)
        assert len(coded) < len(flat)          # repeats actually dedup
        out = bytearray()
        n, consumed = expand_dedup_stream(coded, trace.table, True,
                                          DedupDict(slots=8), out)
        assert n == trace.packet_count
        assert consumed == len(coded)
        assert bytes(out) == flat == bytes(trace.body)

    def test_round_trip_survives_lru_eviction(self):
        # More distinct payloads than slots: both sides must evict in
        # lockstep for the expansion to stay correct.
        trace = repetitive_trace(40, distinct=6)
        flat, coded = self._streams(trace, slots=2)
        out = bytearray()
        expand_dedup_stream(coded, trace.table, True, DedupDict(slots=2), out)
        assert bytes(out) == flat

    def test_backref_into_fresh_dictionary_is_detected(self):
        # Decode only the tail of a coded stream: its backrefs point at
        # slots a fresh dictionary never wrote.
        trace = repetitive_trace(6, distinct=1)
        _, coded = self._streams(trace)
        first = bytearray()
        packet = trace.packets()[0]
        packet.serialize_into(first, trace.table, True,
                              dedup=DedupDict(slots=8))
        tail = coded[len(first):]
        with pytest.raises(TraceFormatError):
            expand_dedup_stream(tail, trace.table, True, DedupDict(slots=8),
                                bytearray())
        n, consumed = expand_dedup_stream(tail, trace.table, True,
                                          DedupDict(slots=8), bytearray(),
                                          tolerate_tail=True)
        assert (n, consumed) == (0, 0)


class TestV3RoundTrip:
    def test_round_trip(self):
        trace = repetitive_trace(24)
        blob = trace.to_bytes()
        assert blob[:8] == b"VIDITRC3"
        loaded = TraceFile.from_bytes(blob)
        assert loaded.format_version == 3
        assert bytes(loaded.body) == bytes(trace.body)
        assert loaded.table.to_dict() == trace.table.to_dict()
        assert loaded.metadata["app"] == "unit"
        assert not loaded.salvaged

    def test_container_stats_report_dedup_and_compression(self):
        trace = repetitive_trace(24)
        loaded = TraceFile.from_bytes(trace.to_bytes())
        stats = loaded.container_stats
        assert stats["format"] == 3
        assert stats["packets"] == trace.packet_count
        assert stats["backrefs"] > 0
        assert stats["literals"] > 0
        assert stats["anchors"] >= 1
        assert stats["body_bytes"] == len(trace.body)

    def test_truncation_salvages_anchor_led_prefix(self):
        trace = repetitive_trace(24)
        blob = trace.to_bytes()
        cut = len(blob) - 9     # inside the last RUN frame / END marker
        with pytest.raises(TraceFormatError):
            TraceFile.from_bytes(blob[:cut])
        salvaged = TraceFile.from_bytes(blob[:cut], salvage=True)
        assert salvaged.salvaged
        assert 0 < salvaged.packet_count <= trace.packet_count
        assert bytes(trace.body).startswith(bytes(salvaged.body))


class TestV3Corruption:
    def test_corruption_never_silently_accepted(self):
        """Mirror of the v2 ``corrupt_frame`` property: damage any region
        of a v3 container and the loader either raises a typed error or
        loads content identical to the original — never silently wrong."""
        trace = repetitive_trace(24)
        blob = trace.to_bytes()
        rng = random.Random(7)
        for round_index in range(6):
            for region in V3_FRAME_REGIONS:
                description, damaged = corrupt_v3_frame(blob, rng,
                                                        region=region)
                try:
                    loaded = TraceFile.from_bytes(damaged)
                except TraceFormatError:
                    continue
                assert bytes(loaded.body) == bytes(trace.body), description
                assert loaded.table.to_dict() == trace.table.to_dict(), \
                    description

    def test_corrupt_backref_passes_crc_fails_decode(self):
        """The backref mutant re-frames with valid CRCs — only the dedup
        decode itself can reject it (the hole the v2 fuzzer cannot poke)."""
        trace = repetitive_trace(24)
        blob = trace.to_bytes()
        description, damaged = corrupt_backref(blob, random.Random(3))
        assert "backref" in description
        with pytest.raises(TraceFormatError):
            TraceFile.from_bytes(damaged)
        # Salvage still recovers the intact packets before the poisoned
        # backref (possibly zero if it poisoned the first one).
        salvaged = TraceFile.from_bytes(damaged, salvage=True)
        assert salvaged.salvaged
        assert salvaged.packet_count < trace.packet_count
        assert bytes(trace.body).startswith(bytes(salvaged.body))

    def test_trace_without_repeats_has_no_backrefs_to_corrupt(self):
        table = small_table()
        packets = []
        for i in range(4):
            packet = CyclePacket(starts=1, ends=1)
            packet.contents[0] = (1000 + i).to_bytes(8, "little")
            packets.append(packet)
        trace = TraceFile.from_packets(table, packets)
        with pytest.raises(ConfigError):
            corrupt_backref(trace.to_bytes(), random.Random(0))


def feed_ring(ring: RingTraceStore, table: ChannelTable, n_packets: int,
              anchor_every: int, slots: int = 8, checkpoints: bool = False):
    """Feed a dedup-coded packet stream with periodic re-anchors.

    Mirrors the deployment's contract: the encoder's dictionary is reset
    at the exact packet boundary the anchor watermark is taken at. With
    ``checkpoints`` each anchor carries a (dummy) checkpoint. Returns the
    flat (un-deduped) per-packet bodies for reference.
    """
    dedup = DedupDict(slots=slots)
    flats = []
    for i in range(n_packets):
        packet = CyclePacket(starts=1, ends=2)
        packet.contents[0] = (i % 3).to_bytes(8, "little")
        packet.validation[1] = (i % 3 * 7).to_bytes(8, "little")
        flat, coded = bytearray(), bytearray()
        packet.serialize_into(flat, table, True)
        packet.serialize_into(coded, table, True, dedup=dedup)
        ring.accept(bytes(coded))
        flats.append(bytes(flat))
        if (i + 1) % anchor_every == 0 and i + 1 < n_packets:
            dedup.clear()
            ring.request_anchor(ordinal=i + 1, cycle=i + 1,
                                checkpoint={"regs": [i + 1]}
                                if checkpoints else None)
    ring.flush()
    return flats


class TestRingTraceStore:
    def test_starts_with_genesis_anchor_and_ends_with_end_frame(self):
        ring = RingTraceStore("ring", retain_words=64)
        frames = ring.frame_list()
        assert frames and frames[0][0] == FRAME_ANCHOR
        stream = ring.frame_stream(end=True)
        assert stream[-9] == FRAME_END

    def test_no_eviction_window_expands_to_full_stream(self):
        table = small_table()
        ring = RingTraceStore("ring", retain_words=1 << 16)
        flats = feed_ring(ring, table, 30, anchor_every=10)
        assert ring.evicted_epochs == 0
        body, start, info = ring.expand(table, True, 8)
        assert start["ordinal"] == 0 and start["checkpoint"] is None
        assert bytes(body) == b"".join(flats)
        assert info["packets"] == 30

    def test_eviction_is_epoch_granular_and_anchor_led(self):
        table = small_table()
        ring = RingTraceStore("ring", retain_words=8)   # tiny budget
        flats = feed_ring(ring, table, 60, anchor_every=10)
        assert ring.evicted_epochs > 0
        frames = ring.frame_list()
        assert frames[0][0] == FRAME_ANCHOR
        body, start, info = ring.expand(table, True, 8)
        k = start["ordinal"]
        assert k > 0 and k % 10 == 0     # an anchor boundary, not mid-epoch
        # The retained window is the exact suffix of the flat stream.
        assert bytes(body) == b"".join(flats[k:])

    def test_last_epoch_is_never_evicted(self):
        table = small_table()
        ring = RingTraceStore("ring", retain_words=1)   # can't hold anything
        feed_ring(ring, table, 40, anchor_every=8)
        body, start, info = ring.expand(table, True, 8)
        assert start["ordinal"] == 32                   # last anchor only
        assert info["packets"] == 8

    def test_reset_state_returns_to_genesis(self):
        table = small_table()
        ring = RingTraceStore("ring", retain_words=8)
        feed_ring(ring, table, 40, anchor_every=8)
        ring.reset_state()
        assert ring.evicted_epochs == 0
        frames = ring.frame_list()
        assert len(frames) == 1 and frames[0][0] == FRAME_ANCHOR
        body, start, _ = ring.expand(table, True, 8)
        assert len(body) == 0 and start["ordinal"] == 0

    def test_torn_frame_at_wrap_salvages_to_anchor_led_suffix(self):
        """Satellite 3: a container torn mid-frame after the ring wrapped
        still salvages to a window led by a later re-anchor."""
        table = small_table()
        ring = RingTraceStore("ring", retain_words=8, run_bytes=64)
        flats = feed_ring(ring, table, 60, anchor_every=10)
        assert ring.evicted_epochs > 0
        blob = build_v3_container(table, True, {"app": "unit"},
                                  ring.frame_stream(end=True), 8)
        intact = TraceFile.from_bytes(blob)
        first_kept = intact.metadata["ring"]["ordinal"]
        # Tear the first retained epoch: flip a byte in its first RUN
        # payload, so salvage must resync to the *next* ANCHOR frame.
        damaged = bytearray(blob)
        run_at = damaged.index(bytes([FRAME_RUN]),
                               8 + 8 + 4 + int.from_bytes(blob[8:16],
                                                          "little"))
        damaged[run_at + 9] ^= 0xFF
        with pytest.raises(TraceFormatError):
            TraceFile.from_bytes(bytes(damaged))
        salvaged = TraceFile.from_bytes(bytes(damaged), salvage=True)
        assert salvaged.salvaged
        k = salvaged.metadata["ring"]["ordinal"]
        assert k > first_kept and k % 10 == 0
        assert bytes(salvaged.body) == b"".join(flats[k:])


class TestRingRewrite:
    def test_rewrite_matches_ring_container(self):
        """Rewriting a ring window (TraceFile.save, ``vidi salvage -o``)
        keeps what the ring container holds: window start, checkpoint
        anchors, body, and one epoch per anchor."""
        table = small_table()
        ring = RingTraceStore("ring", retain_words=8, run_bytes=64)
        feed_ring(ring, table, 60, anchor_every=10, checkpoints=True)
        retained = TraceFile.from_bytes(build_v3_container(
            table, True, {"app": "unit"}, ring.frame_stream(end=True), 8))
        assert retained.metadata["ring"]["ordinal"] > 0
        assert len(retained.anchors) >= 2
        rewritten = TraceFile.from_bytes(retained.to_bytes())
        assert rewritten.anchors == retained.anchors
        assert rewritten.metadata == retained.metadata
        assert bytes(rewritten.body) == bytes(retained.body)
        assert rewritten.container_stats["anchors"] == \
            retained.container_stats["anchors"]


class TestFlightRecorderEndToEnd:
    """Record/replay the DMA app under flight-recorder mode and pin the
    wrap-boundary replay guarantees (acceptance criteria)."""

    SEED = 5

    @pytest.fixture(scope="class")
    def recordings(self):
        from repro.apps.registry import get_app
        from repro.core import VidiConfig
        from repro.harness.runner import bench_config, record_run

        spec = get_app("dram_dma")
        # Equal anchor strides: the stride changes record timing (each
        # anchor resets the dedup dictionary), so only retention differs.
        full = record_run(
            spec, bench_config(VidiConfig.r2, flight_recorder=True,
                               flight_anchor_stride=512),
            seed=self.SEED)
        small = record_run(
            spec, bench_config(VidiConfig.r2, flight_recorder=True,
                               flight_retain_words=512,
                               flight_anchor_stride=512),
            seed=self.SEED)
        return spec, full, small

    def test_wrapped_window_carries_reanchor_checkpoint(self, recordings):
        _, full, small = recordings
        assert full.result["trace"].metadata.get("ring") is None
        assert small.result["flight"]["evicted_epochs"] > 0
        ring = small.result["trace"].metadata["ring"]
        assert ring["ordinal"] > 0
        assert ring["checkpoint"]       # architectural state to restore
        assert small.result["flight"]["retained_words"] <= \
            2 * small.result["flight"]["retain_words"]

    def test_retention_budget_does_not_perturb_recording(self, recordings):
        """Framing/eviction are host-side: a small-retention flight trace
        is byte-identical to the same window carved out of an unbounded
        flight recording of the same run."""
        _, full, small = recordings
        full_trace = full.result["trace"]
        small_trace = small.result["trace"]
        k = small_trace.metadata["ring"]["ordinal"]
        carved = full_trace.index().slice(k, full_trace.packet_count)
        assert bytes(small_trace.body) == bytes(carved)

    def test_flight_blob_round_trips_with_ring_metadata(self, recordings):
        _, _, small = recordings
        # Pinned: the store's drain bookkeeping must not move record
        # timing or a single framed byte.
        assert small.cycles == 19342
        assert hashlib.sha256(small.result["flight_blob"]).hexdigest() == (
            "869cf264c57bb4f7f69012536be7a81e44f9e13c4b55025e76789c9ae5bf7b4c")
        loaded = TraceFile.from_bytes(small.result["flight_blob"])
        assert loaded.format_version == 3
        assert bytes(loaded.body) == bytes(small.result["trace"].body)
        ring = loaded.metadata["ring"]
        assert ring["ordinal"] == \
            small.result["trace"].metadata["ring"]["ordinal"]
        assert ring["checkpoint"]

    @pytest.mark.parametrize("scheduler", ["event", "audit", "compiled"])
    def test_suffix_replay_matches_carved_window_replay(self, recordings,
                                                        scheduler,
                                                        monkeypatch):
        """The acceptance property: replaying the ring suffix is
        bit-identical to replaying the same window of the full trace,
        under every scheduler and under the declaration audit."""
        from repro.harness.runner import replay_run

        if scheduler == "audit":
            audit_event_sims(monkeypatch)
            scheduler = "event"
        spec, full, small = recordings
        full_trace = full.result["trace"]
        small_trace = small.result["trace"]
        ring = small_trace.metadata["ring"]
        carved = TraceFile(
            table=full_trace.table,
            body=full_trace.index().slice(ring["ordinal"],
                                          full_trace.packet_count),
            with_validation=full_trace.with_validation,
            metadata={**full_trace.metadata, "ring": ring})
        suffix_replay = replay_run(spec, small_trace, scheduler=scheduler)
        carved_replay = replay_run(spec, carved, scheduler=scheduler)
        assert bytes(suffix_replay.result["validation"].body) == \
            bytes(carved_replay.result["validation"].body)
        assert suffix_replay.cycles == carved_replay.cycles

    def test_torn_flight_blob_salvages_and_replays(self, recordings):
        """Crash mid-write after wrap: the salvaged suffix still replays."""
        from repro.harness.runner import replay_run

        spec, _, small = recordings
        blob = small.result["flight_blob"]
        cut = len(blob) - 24        # tear inside the trailing frames
        salvaged = TraceFile.from_bytes(blob[:cut], salvage=True)
        assert salvaged.salvaged
        assert salvaged.metadata["ring"]["checkpoint"]
        assert 0 < salvaged.packet_count <= small.result["trace"].packet_count
        replay = replay_run(spec, salvaged)
        assert replay.result["validation"].packet_count > 0
