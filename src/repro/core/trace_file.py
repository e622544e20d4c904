"""Trace container: header + serialized cycle packets, save/load support.

A :class:`TraceFile` is what Vidi's software runtime persists to disk after
a recording and hands back for replay or offline analysis (validation,
mutation). The header carries everything needed to interpret the body:
the channel table (names, directions, content lengths), whether output
contents were recorded, and free-form metadata (application name, workload
seed, run configuration).

Every writer emits the v3 frame container (docs/TRACE_FORMAT.md): the
flight recorder's ring store, the trace service's streamer and
:meth:`TraceFile.to_bytes` alike. The v1 and v2 containers are read-only
legacy formats: :meth:`TraceFile.from_bytes` still loads and salvages
them, nothing writes them.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.decoder import expand_dedup_stream
from repro.core.events import ChannelTable
from repro.core.packets import (DEFAULT_DEDUP_SLOTS, CyclePacket, DedupDict,
                                PacketLayout, TraceIndex, deserialize_packets,
                                scan_packet_prefix, serialize_packets)
from repro.errors import TraceFormatError, TraceIntegrityError

_MAGIC = b"VIDITRC1"      # legacy, read-only
_MAGIC_V2 = b"VIDITRC2"   # legacy, read-only
_MAGIC_V3 = b"VIDITRC3"
# v2 container framing (legacy, read-only): magic(8) + header_len(8) +
# header_crc32(4) + header + body + footer[body_len(8) + body_crc32(4)].
# Header and body are independently CRC32-framed so any at-rest corruption
# is caught before bytes reach the decoder; a blob torn before its footer
# leaves a salvageable packet prefix.
_PREAMBLE_V2 = 8 + 8 + 4
_FOOTER_V2 = 8 + 4

# --- v3 frame container (docs/TRACE_FORMAT.md) --------------------------
# Same preamble/header as v2, but the body is a sequence of CRC-framed
# *frames* instead of a raw packet stream:
#
#   frame := kind(1) + payload_len(4 LE) + payload_crc32(4 LE) + payload
#
#   RUN    — a compressed run of dedup-coded cycle packets. Within one
#            anchor-led epoch, RUN payloads are consecutive segments of a
#            single DEFLATE stream cut at Z_SYNC_FLUSH boundaries: the
#            32 KiB compression window carries across frames (near
#            whole-stream ratio) while any frame *prefix* of the epoch
#            still decodes — which is all salvage ever replays, since a
#            torn frame forces a resync to the next ANCHOR anyway.
#            Standalone zlib streams (one per frame) are also accepted on
#            decode for hand-built containers;
#   ANCHOR — a re-anchoring point: JSON {ordinal, cycle, checkpoint},
#            zlib-compressed (checkpoint word values hex-packed); resets
#            the dedup dictionary *and* the RUN compression stream on
#            both sides and (for ring traces) carries the architectural
#            checkpoint replay restores from;
#   END    — empty clean-close marker; its absence means the recording
#            was cut short (crash) and the stream needs salvage.
#
# Every frame carries its own CRC32, so salvage can recover the longest
# valid frame prefix and — unlike v2 — *re-synchronise* past a torn or
# corrupt frame by scanning for the next CRC-valid ANCHOR frame. That is
# what makes the ring buffer's wrapped suffix loadable: eviction always
# leaves an ANCHOR-led frame sequence.
FRAME_RUN = 0x52      # 'R'
FRAME_ANCHOR = 0x41   # 'A'
FRAME_END = 0x45      # 'E'
_FRAME_KINDS = (FRAME_RUN, FRAME_ANCHOR, FRAME_END)
_FRAME_HEADER = 1 + 4 + 4
DEFAULT_V3_COMPRESS_LEVEL = 3
_V3_RUN_BYTES = 1 << 16   # raw stream bytes per RUN frame in to_bytes()


def encode_frame(kind: int, payload: bytes) -> bytes:
    """Frame ``payload`` as ``kind + len + crc32 + payload``."""
    return b"".join([
        kind.to_bytes(1, "little"),
        len(payload).to_bytes(4, "little"),
        zlib.crc32(payload).to_bytes(4, "little"),
        payload,
    ])


_WORD_MAP_KEYS = ("dram_words", "registers", "host_words")


def _pack_checkpoint_words(checkpoint: Optional[Dict[str, Any]]):
    """Hex-pack checkpoint word values for the ANCHOR payload.

    A 64-byte storage word is ~155 decimal digits but a fixed 128 hex
    digits, and hex compresses better — together this shaves ~15-20% off
    an ANCHOR frame, the ring's dominant incompressible payload.
    """
    if not isinstance(checkpoint, dict):
        return checkpoint
    packed = dict(checkpoint)
    for key in _WORD_MAP_KEYS:
        words = packed.get(key)
        if isinstance(words, dict):
            packed[key] = {a: format(v, "x") for a, v in words.items()}
    return packed


def _unpack_checkpoint_words(checkpoint):
    if not isinstance(checkpoint, dict):
        return checkpoint
    unpacked = dict(checkpoint)
    for key in _WORD_MAP_KEYS:
        words = unpacked.get(key)
        if isinstance(words, dict):
            unpacked[key] = {a: int(v, 16) if isinstance(v, str) else v
                             for a, v in words.items()}
    return unpacked


def encode_anchor_frame(ordinal: int, cycle: int,
                        checkpoint: Optional[Dict[str, Any]]) -> bytes:
    """An ANCHOR frame: packet ordinal + cycle + optional checkpoint dict."""
    payload = json.dumps({
        "ordinal": ordinal,
        "cycle": cycle,
        "checkpoint": _pack_checkpoint_words(checkpoint),
    }).encode("utf-8")
    return encode_frame(FRAME_ANCHOR, zlib.compress(payload, 6))


def encode_end_frame() -> bytes:
    """The clean-close END frame."""
    return encode_frame(FRAME_END, b"")


def _run_frames(stream: bytearray) -> List[bytes]:
    """One epoch's RUN frames: a single DEFLATE stream cut at sync-flush
    boundaries, so the compression window spans frames (as the ring store
    emits them)."""
    cobj = zlib.compressobj(DEFAULT_V3_COMPRESS_LEVEL)
    return [encode_frame(FRAME_RUN,
                         cobj.compress(stream[offset:offset + _V3_RUN_BYTES])
                         + cobj.flush(zlib.Z_SYNC_FLUSH))
            for offset in range(0, len(stream), _V3_RUN_BYTES)]


def _parse_anchor_payload(payload: bytes) -> Dict[str, Any]:
    try:
        anchor = json.loads(zlib.decompress(payload))
        return {"ordinal": int(anchor["ordinal"]),
                "cycle": int(anchor["cycle"]),
                "checkpoint": _unpack_checkpoint_words(
                    anchor.get("checkpoint"))}
    except (zlib.error, ValueError, KeyError, TypeError) as exc:
        raise TraceFormatError(f"corrupt anchor frame: {exc}") from exc


def build_v3_container(table: ChannelTable, with_validation: bool,
                       metadata: Dict[str, Any], frame_stream: bytes,
                       dedup_slots: int) -> bytes:
    """Assemble a v3 container around an already-framed byte stream.

    The one preamble writer: the ring store hands over its retained frames
    verbatim (END included), :meth:`TraceFile.to_bytes` the frames it
    encodes from a flat body.
    """
    header = json.dumps({
        "channels": table.to_dict(),
        "with_validation": with_validation,
        "metadata": metadata,
        "compressed": False,
        "v3": {"dedup_slots": dedup_slots},
    }).encode("utf-8")
    return b"".join([
        _MAGIC_V3,
        len(header).to_bytes(8, "little"),
        zlib.crc32(header).to_bytes(4, "little"),
        header,
        frame_stream,
    ])


def _find_anchor_resync(blob: bytes, start: int) -> Optional[int]:
    """Next offset >= ``start`` where a CRC-valid ANCHOR frame begins.

    A one-byte scan: candidate positions are where the ANCHOR kind byte
    appears; a real anchor must then pass length bounds, its payload CRC32
    and JSON decode — a coincidental match has ~2^-32 odds.
    """
    needle = bytes([FRAME_ANCHOR])
    size = len(blob)
    pos = start
    while True:
        pos = blob.find(needle, pos)
        if pos < 0:
            return None
        if pos + _FRAME_HEADER <= size:
            plen = int.from_bytes(blob[pos + 1:pos + 5], "little")
            crc = int.from_bytes(blob[pos + 5:pos + 9], "little")
            end = pos + _FRAME_HEADER + plen
            if end <= size:
                payload = blob[pos + _FRAME_HEADER:end]
                if zlib.crc32(payload) == crc:
                    try:
                        _parse_anchor_payload(payload)
                        return pos
                    except TraceFormatError:
                        pass
        pos += 1


def _scan_v3_frames(blob: bytes, offset: int):
    """Walk the frame stream; returns ``(segments, reasons, end_seen)``.

    ``segments`` is a list of lists of ``(kind, payload)`` frames: a new
    segment starts wherever damage forced a resync to a later CRC-valid
    ANCHOR frame. ``reasons`` holds one human-readable string per damage
    site (empty for a pristine stream); ``end_seen`` reports whether the
    clean-close END frame terminated the stream.
    """
    segments: List[List[tuple]] = [[]]
    reasons: List[str] = []
    end_seen = False
    size = len(blob)
    while offset < size:
        damage = None
        kind = blob[offset]
        plen = crc = 0
        payload = b""
        if offset + _FRAME_HEADER > size:
            damage = "truncated frame header"
        elif kind not in _FRAME_KINDS:
            damage = f"unknown frame kind 0x{kind:02x}"
        else:
            plen = int.from_bytes(blob[offset + 1:offset + 5], "little")
            crc = int.from_bytes(blob[offset + 5:offset + 9], "little")
            if offset + _FRAME_HEADER + plen > size:
                damage = "truncated frame payload"
            else:
                payload = blob[offset + _FRAME_HEADER:
                               offset + _FRAME_HEADER + plen]
                if zlib.crc32(payload) != crc:
                    damage = "frame CRC32 mismatch"
        if damage is not None:
            reasons.append(f"{damage} at byte {offset}")
            if kind == FRAME_RUN and damage == "truncated frame payload":
                # A torn tail write: the partial payload bytes are genuine
                # (truncation, not corruption), and sync-flush DEFLATE
                # decodes any prefix — keep what survives for the tolerant
                # expansion instead of dropping the whole frame.
                segments[-1].append((FRAME_RUN,
                                     blob[offset + _FRAME_HEADER:]))
            resync = _find_anchor_resync(blob, offset + 1)
            if resync is None:
                break
            segments.append([])
            offset = resync
            continue
        offset += _FRAME_HEADER + plen
        if kind == FRAME_END:
            end_seen = True
            if offset != size:
                reasons.append(
                    f"{size - offset} trailing byte(s) after the END frame")
            break
        segments[-1].append((kind, payload))
    return segments, reasons, end_seen


def _expand_v3_frames(frames: List[tuple], table: ChannelTable,
                      with_validation: bool, dedup_slots: int,
                      tolerate: bool):
    """Expand an ANCHOR-led frame window into a flat packet body.

    Returns ``(body, start, info)`` where ``start`` is the first anchor's
    ``{ordinal, cycle, checkpoint}`` and ``info`` gathers expansion stats.
    ``info["anchor_points"]`` maps the body-relative packet ordinal of
    every later checkpoint-carrying anchor inside the body to that anchor:
    the points sharded replay cuts at. ``info["index"]`` is the body's
    :class:`TraceIndex`, from the offsets and layouts the expansion found.
    Each ANCHOR resets the dedup dictionary exactly like the encoder did;
    anchor ordinals are checked for consistency with the packet count so a
    mismatched window fails loudly instead of replaying garbage.
    """
    dedup = DedupDict(dedup_slots, encoding=False)
    body = bytearray()
    walk: Tuple[List[int], List[PacketLayout]] = ([], [])
    epoch = bytearray()
    # RUN frames within an epoch are segments of one DEFLATE stream
    # (Z_SYNC_FLUSH boundaries); the decompressor persists across frames
    # and restarts at each ANCHOR. A frame that *finishes* its stream
    # (standalone zlib body, e.g. a hand-built container) sets .eof and
    # the next frame simply starts a fresh stream.
    dobj = None
    start: Optional[Dict[str, Any]] = None
    info = {"packets": 0, "stream_bytes": 0, "dropped_stream_bytes": 0,
            "anchors": 0, "stopped": None}
    points: Dict[int, Dict[str, Any]] = {}

    def flush_epoch() -> bool:
        """Expand the buffered epoch; False if expansion had to stop."""
        if not epoch:
            return True
        n, consumed = expand_dedup_stream(
            epoch, table, with_validation, dedup, body,
            tolerate_tail=tolerate, index=walk)
        info["packets"] += n
        info["stream_bytes"] += consumed
        leftover = len(epoch) - consumed
        epoch.clear()
        if leftover:
            info["dropped_stream_bytes"] += leftover
            info["stopped"] = "undecodable packet inside a run frame"
            return False
        return True

    for kind, payload in frames:
        if kind == FRAME_ANCHOR:
            anchor = _parse_anchor_payload(payload)
            info["anchors"] += 1
            if start is None:
                start = anchor
                continue
            if not flush_epoch():
                break
            expected = start["ordinal"] + info["packets"]
            if anchor["ordinal"] != expected:
                if not tolerate:
                    raise TraceFormatError(
                        f"anchor ordinal {anchor['ordinal']} does not match "
                        f"the {expected} packets expanded so far")
                info["stopped"] = "anchor ordinal mismatch"
                break
            if anchor["checkpoint"] is not None:
                points[info["packets"]] = anchor
            dedup.clear()
            dobj = None
        elif kind == FRAME_RUN:
            if start is None:
                # Caller trims to an ANCHOR-led window; tolerate strays.
                continue
            try:
                if dobj is None or dobj.eof:
                    dobj = zlib.decompressobj()
                epoch += dobj.decompress(payload)
            except zlib.error as exc:
                if not tolerate:
                    raise TraceFormatError(
                        f"corrupt compressed run frame: {exc}") from exc
                info["stopped"] = "undecompressible run frame"
                break
    else:
        flush_epoch()
    info["backrefs"] = dedup.hits
    info["literals"] = dedup.inserts
    info["anchor_points"] = {k: anchor for k, anchor in points.items()
                             if 0 < k < info["packets"]}
    if start is None:
        start = {"ordinal": 0, "cycle": 0, "checkpoint": None}
    body = bytes(body)
    info["index"] = TraceIndex(body, table, with_validation, walk)
    return body, start, info


@dataclass
class TraceFile:
    """A recorded execution trace."""

    table: ChannelTable
    body: bytes
    with_validation: bool = True
    metadata: Dict[str, Any] = field(default_factory=dict)
    # Container version the trace was loaded from; every writer emits v3.
    format_version: int = field(default=3, compare=False)
    # Resume points inside the body, from a flight trace's ANCHOR frames:
    # body-relative packet ordinal -> {ordinal, cycle, checkpoint}. Packets
    # [k, ...) replay from that checkpoint (sharded replay cuts here).
    anchors: Dict[int, Dict[str, Any]] = field(
        default_factory=dict, repr=False, compare=False)
    # The index of ``body``: the one its dedup expansion found when it was
    # loaded from a v3 container or a flight recorder's ring, else built
    # by the first index() call.
    packet_index: Optional[TraceIndex] = field(
        default=None, repr=False, compare=False)
    container_stats: Optional[Dict[str, Any]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def salvaged(self) -> bool:
        """True when this trace is a salvage-recovered prefix."""
        return "salvaged" in self.metadata

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Length of the encoded packet stream (the paper's TS metric)."""
        return len(self.body)

    def packets(self) -> List[CyclePacket]:
        """Decode the body into cycle packets."""
        return deserialize_packets(self.body, self.table, self.with_validation)

    def index(self) -> TraceIndex:
        """The packet-offset index for this body (built once, cached)."""
        if self.packet_index is None:
            self.packet_index = TraceIndex(self.body, self.table,
                                           self.with_validation)
        return self.packet_index

    @property
    def packet_count(self) -> int:
        """Number of eventful-cycle packets in the body."""
        return len(self.index())

    def iter_packets(self) -> Iterator[CyclePacket]:
        """Decode packets lazily — no up-front list materialization."""
        view = memoryview(self.body)
        layouts: Dict[int, PacketLayout] = {}
        offset = 0
        size = len(view)
        while offset < size:
            packet, offset = CyclePacket.deserialize(
                view, offset, self.table, self.with_validation, layouts)
            yield packet

    @classmethod
    def from_packets(cls, table: ChannelTable, packets: List[CyclePacket],
                     with_validation: bool = True,
                     metadata: Dict[str, Any] | None = None) -> "TraceFile":
        """Build a trace from in-memory packets (used by the mutation tool)."""
        body = serialize_packets(packets, table, with_validation)
        return cls(table=table, body=body, with_validation=with_validation,
                   metadata=dict(metadata or {}))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize the trace as a v3 frame container.

        The body is dedup-coded and cut into zlib-compressed, CRC-framed
        RUN frames. A genesis ANCHOR carries the trace's
        ``metadata['ring']`` window start, if any (the JSON header does
        not repeat it), and an ANCHOR at every :attr:`anchors` ordinal
        carries that resume point. Each anchor restarts the dedup
        dictionary and the DEFLATE stream, as the ring store does, so the
        trace loads back with the same anchors and each stays a salvage
        resync point. An END frame closes the stream.
        """
        metadata = {k: v for k, v in self.metadata.items() if k != "ring"}
        ring = self.metadata.get("ring") or {}
        frames = [encode_anchor_frame(int(ring.get("ordinal", 0)),
                                      int(ring.get("cycle", 0)),
                                      ring.get("checkpoint"))]
        dedup = DedupDict(DEFAULT_DEDUP_SLOTS)
        stream = bytearray()
        for ordinal, packet in enumerate(self.iter_packets()):
            anchor = self.anchors.get(ordinal) if ordinal else None
            if anchor is not None:
                frames += _run_frames(stream)
                frames.append(encode_anchor_frame(
                    anchor["ordinal"], anchor["cycle"], anchor["checkpoint"]))
                dedup.clear()
                stream = bytearray()
            packet.serialize_into(stream, self.table, self.with_validation,
                                  dedup=dedup)
        frames += _run_frames(stream)
        frames.append(encode_end_frame())
        return build_v3_container(self.table, self.with_validation, metadata,
                                  b"".join(frames), DEFAULT_DEDUP_SLOTS)

    # ------------------------------------------------------------------
    @staticmethod
    def _parse_header(header_bytes: bytes) -> tuple:
        try:
            header = json.loads(header_bytes)
        except ValueError as exc:
            raise TraceFormatError(f"corrupt trace header: {exc}") from exc
        try:
            table = ChannelTable.from_dict(header["channels"])
            with_validation = bool(header["with_validation"])
            metadata = header.get("metadata", {})
            compressed = bool(header.get("compressed"))
        except Exception as exc:   # mutated-but-valid JSON headers
            raise TraceFormatError(f"corrupt trace header: {exc}") from exc
        return table, with_validation, metadata, compressed, header

    @staticmethod
    def _decompress(body: "bytes | memoryview") -> bytes:
        try:
            return zlib.decompress(bytes(body))
        except zlib.error as exc:
            raise TraceFormatError(f"corrupt compressed body: {exc}") from exc

    @classmethod
    def from_bytes(cls, blob: bytes, salvage: bool = False) -> "TraceFile":
        """Parse a serialized trace; validates magic, framing and CRCs.

        Loads the v3 container every writer emits and the read-only
        legacy v1 and v2 containers. With ``salvage=True`` a damaged
        container is recovered instead of raising: a v3 stream as its
        most recent ANCHOR-led frame window (:meth:`_from_bytes_v3`), a
        v2 blob whose *body* segment is damaged — truncated, missing its
        footer, or failing its CRC — as the longest decodable packet
        prefix. The result carries a ``metadata['salvaged']`` record with
        the recovered/dropped byte counts. The header segment must still be
        intact (without the channel table nothing can be interpreted), and
        v1 blobs have no redundancy to salvage with.
        """
        if len(blob) < 8:
            raise TraceFormatError(
                f"blob of {len(blob)} bytes is too short for a trace magic")
        magic = bytes(blob[:8])
        if magic == _MAGIC_V3:
            return cls._from_bytes_v3(blob, salvage)
        if magic == _MAGIC_V2:
            return cls._from_bytes_v2(blob, salvage)
        if magic == _MAGIC:
            return cls._from_bytes_v1(blob)
        raise TraceFormatError("not a Vidi trace (bad magic)")

    @classmethod
    def _from_bytes_v1(cls, blob: bytes) -> "TraceFile":
        if len(blob) < 16:
            raise TraceFormatError("trace truncated inside the v1 preamble")
        header_len = int.from_bytes(blob[8:16], "little")
        cursor = 16
        if cursor + header_len > len(blob):
            raise TraceFormatError(
                f"trace header truncated: {header_len} bytes declared, "
                f"{len(blob) - cursor} available")
        table, with_validation, metadata, compressed, _ = cls._parse_header(
            blob[cursor:cursor + header_len])
        cursor += header_len
        if cursor + 8 > len(blob):
            raise TraceFormatError("trace truncated before the body length")
        body_len = int.from_bytes(blob[cursor:cursor + 8], "little")
        cursor += 8
        body = blob[cursor:cursor + body_len]
        if len(body) != body_len:
            raise TraceFormatError("trace body truncated")
        if cursor + body_len != len(blob):
            raise TraceFormatError(
                f"{len(blob) - cursor - body_len} trailing byte(s) after "
                "the trace body")
        if compressed:
            body = cls._decompress(body)
        return cls(table=table, body=bytes(body),
                   with_validation=with_validation, metadata=metadata,
                   format_version=1)

    @classmethod
    def _from_bytes_v2(cls, blob: bytes, salvage: bool) -> "TraceFile":
        if len(blob) < _PREAMBLE_V2:
            raise TraceFormatError("trace truncated inside the v2 preamble")
        header_len = int.from_bytes(blob[8:16], "little")
        header_crc = int.from_bytes(blob[16:20], "little")
        header_end = _PREAMBLE_V2 + header_len
        if header_end > len(blob):
            raise TraceFormatError(
                f"trace header truncated: {header_len} bytes declared, "
                f"{len(blob) - _PREAMBLE_V2} available")
        header_bytes = bytes(blob[_PREAMBLE_V2:header_end])
        if zlib.crc32(header_bytes) != header_crc:
            raise TraceIntegrityError("trace header CRC32 mismatch")
        table, with_validation, metadata, compressed, _ = cls._parse_header(
            header_bytes)
        rest = memoryview(blob)[header_end:]
        damage: Optional[str] = None
        body: "bytes | memoryview" = b""
        if len(rest) < _FOOTER_V2:
            damage = "footer missing (crash before finalize?)"
        else:
            body_len = int.from_bytes(rest[-12:-4], "little")
            body_crc = int.from_bytes(rest[-4:], "little")
            body = rest[:-_FOOTER_V2]
            if body_len != len(body):
                damage = (f"body length mismatch: footer says {body_len}, "
                          f"{len(body)} present (truncation or trailing "
                          "garbage)")
            elif zlib.crc32(bytes(body)) != body_crc:
                damage = "body CRC32 mismatch"
        if damage is None:
            if compressed:
                body = cls._decompress(body)
            return cls(table=table, body=bytes(body),
                       with_validation=with_validation, metadata=metadata,
                       format_version=2)
        if not salvage:
            raise TraceIntegrityError(f"corrupt trace body: {damage}")
        # Salvage: recover the longest decodable packet prefix. When the
        # footer framing is consistent the damage is interior corruption and
        # the scan region is the body proper; otherwise (truncation, missing
        # footer) the trailing bytes may themselves be packet data, so scan
        # everything after the header.
        region = body if (len(rest) >= _FOOTER_V2
                          and len(body) == int.from_bytes(rest[-12:-4],
                                                          "little")) else rest
        if compressed:
            # DEFLATE has no packet alignment to resynchronise on; a partial
            # stream either inflates or it does not.
            try:
                region = zlib.decompress(bytes(region))
            except zlib.error as exc:
                raise TraceIntegrityError(
                    f"cannot salvage a corrupt compressed body: {exc}"
                ) from exc
        packets, good_bytes = scan_packet_prefix(region, table,
                                                 with_validation)
        metadata = dict(metadata)
        metadata["salvaged"] = {
            "reason": damage,
            "packets": packets,
            "bytes": good_bytes,
            "dropped_bytes": len(region) - good_bytes,
        }
        return cls(table=table, body=bytes(region[:good_bytes]),
                   with_validation=with_validation, metadata=metadata,
                   format_version=2)

    @classmethod
    def _from_bytes_v3(cls, blob: bytes, salvage: bool) -> "TraceFile":
        """Load a flight-recorder frame container.

        The frame stream is scanned frame-by-frame (each frame carries its
        own CRC32). A pristine stream is a single ANCHOR-led segment closed
        by END. Under ``salvage=True`` a damaged stream is recovered as the
        *most recent* ANCHOR-led window: damage splits the stream into
        segments by resyncing to the next CRC-valid ANCHOR frame, and the
        last segment that still leads with an anchor wins — for a ring
        buffer torn at the wrap point, that is exactly the suffix from the
        last re-anchor checkpoint. The expanded flat body then behaves like
        any other trace (index, replay, mutation), with
        ``metadata['ring']`` carrying the window's re-anchor point when it
        does not start at packet 0, and :attr:`anchors` the later
        re-anchor points inside the window.
        """
        blob = bytes(blob)
        if len(blob) < _PREAMBLE_V2:
            raise TraceFormatError("trace truncated inside the v3 preamble")
        header_len = int.from_bytes(blob[8:16], "little")
        header_crc = int.from_bytes(blob[16:20], "little")
        header_end = _PREAMBLE_V2 + header_len
        if header_end > len(blob):
            raise TraceFormatError(
                f"trace header truncated: {header_len} bytes declared, "
                f"{len(blob) - _PREAMBLE_V2} available")
        header_bytes = blob[_PREAMBLE_V2:header_end]
        if zlib.crc32(header_bytes) != header_crc:
            raise TraceIntegrityError("trace header CRC32 mismatch")
        table, with_validation, metadata, _, header = cls._parse_header(
            header_bytes)
        try:
            dedup_slots = int((header.get("v3") or {}).get(
                "dedup_slots", DEFAULT_DEDUP_SLOTS))
        except (TypeError, ValueError, AttributeError) as exc:
            raise TraceFormatError(f"corrupt v3 header info: {exc}") from exc
        segments, reasons, end_seen = _scan_v3_frames(blob, header_end)
        if not end_seen and not reasons:
            reasons.append("END frame missing (crash before finalize?)")
        if reasons and not salvage:
            raise TraceIntegrityError(
                f"corrupt trace frames: {reasons[0]}")
        chosen: Optional[List[tuple]] = None
        chosen_lead = 0
        for segment in reversed(segments):
            lead = 0
            while lead < len(segment) and segment[lead][0] != FRAME_ANCHOR:
                lead += 1
            if lead < len(segment):
                chosen = segment[lead:]
                chosen_lead = lead
                break
        if chosen is None:
            raise TraceIntegrityError(
                "no ANCHOR-led frame window survives in this v3 trace")
        if not reasons and chosen_lead:
            raise TraceFormatError("v3 stream does not begin with an anchor")
        body, start, info = _expand_v3_frames(
            chosen, table, with_validation, dedup_slots, tolerate=salvage)
        metadata = dict(metadata)
        damaged = bool(reasons) or info["dropped_stream_bytes"] or \
            info["stopped"]
        if damaged:
            metadata["salvaged"] = {
                "reason": "; ".join(reasons) or info["stopped"],
                "packets": info["packets"],
                "bytes": len(body),
                "dropped_bytes": info["dropped_stream_bytes"],
                "resynced_segments": len(segments) - 1,
            }
        if start["ordinal"] or start["checkpoint"] is not None:
            metadata["ring"] = {"ordinal": start["ordinal"],
                                "cycle": start["cycle"],
                                "checkpoint": start["checkpoint"]}
        trace = cls(table=table, body=body, with_validation=with_validation,
                    metadata=metadata, format_version=3,
                    anchors=info["anchor_points"], packet_index=info["index"])
        trace.container_stats = {
            "format": 3,
            "container_bytes": len(blob),
            "frame_bytes": len(blob) - header_end,
            "body_bytes": len(body),
            "stream_bytes": info["stream_bytes"],
            "packets": info["packets"],
            "anchors": info["anchors"],
            "backrefs": info["backrefs"],
            "literals": info["literals"],
            "segments": len(segments),
            "dedup_slots": dedup_slots,
        }
        return trace

    def save(self, path: str | Path) -> None:
        """Write the trace to disk as a v3 container (:meth:`to_bytes`)."""
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path: str | Path, salvage: bool = False) -> "TraceFile":
        """Read a trace from disk (``salvage=True``: recover what survives
        of a damaged container, see :meth:`from_bytes`)."""
        return cls.from_bytes(Path(path).read_bytes(), salvage=salvage)
