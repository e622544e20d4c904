"""Ring-buffer trace store — the flight recorder's bounded retention tier.

The always-on recording mode (the flight recorder, after rr's
deployability argument) needs *bounded storage*: keep recording forever,
retain only the last N storage words, and guarantee that whatever
survives a crash is a salvageable, bit-identical-replayable suffix. This
module supplies the storage half of that contract on top of the ordinary
:class:`~repro.core.store.TraceStore` drain pipeline:

* the drained byte stream (dedup-coded cycle packets, see
  :class:`~repro.core.packets.DedupDict`) is framed host-side into the v3
  container's CRC-framed RUN frames (zlib at
  :data:`~repro.core.config.DEFAULT_FLIGHT_COMPRESS_LEVEL`);
* periodic **re-anchor points** — requested by the deployment when the
  design is quiescent — insert ANCHOR frames carrying an architectural
  checkpoint at an *exact packet-stream byte watermark*, and reset the
  dedup dictionary so each anchor starts a self-contained epoch;
* the ring evicts whole epochs from the front once the retained frame
  bytes exceed the configured storage-word budget, so the surviving frame
  sequence always leads with an ANCHOR — exactly what the v3 loader (and
  its torn-frame resync salvage) needs to reconstruct a replayable suffix.

Framing, compression and eviction are *host-side* bookkeeping over already
drained bytes: they consume zero simulated cycles and cannot perturb
back-pressure or handshake timing. Two flight recordings that differ only
in retention budget therefore produce bit-identical packet streams — the
property the wrap-boundary replay tests pin. The anchor stride is another
matter: each anchor resets the encoder's dedup dictionary, which lengthens
the drained stream and so shifts record timing.

The retention policy itself lives in :class:`FrameRing`, which is shared
with the trace-service daemon: the daemon's per-tenant ingest keeps the
same epoch-granular, anchor-led window over frames it *receives* (already
framed by a remote recorder) instead of frames it emits locally.
:class:`FrameStreamParser` is the ingest-side complement — an incremental
splitter that reassembles CRC-checked frames from arbitrarily chunked
network reads.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.config import (DEFAULT_FLIGHT_COMPRESS_LEVEL,
                               DEFAULT_FLIGHT_RETAIN_WORDS)
from repro.core.store import STORAGE_WORD_BYTES, TraceStore
from repro.core.trace_file import (FRAME_ANCHOR, FRAME_END, FRAME_RUN,
                                   _FRAME_HEADER, _FRAME_KINDS,
                                   _expand_v3_frames, encode_anchor_frame,
                                   encode_end_frame, encode_frame)
from repro.errors import TraceFormatError

DEFAULT_RUN_BYTES = 1 << 16
"""Raw dedup-stream bytes gathered into one compressed RUN frame.

RUN frames within an epoch share one DEFLATE stream (cut at Z_SYNC_FLUSH
boundaries), so the chunk size no longer bounds the compression window —
it only sets the spill cadence and the granularity salvage loses to a
torn frame."""


class FrameRing:
    """Epoch-granular bounded retention over encoded v3 frames.

    Holds ``(kind, payload)`` frames (payloads already compressed) and
    evicts whole epochs — an ANCHOR and its RUN frames — from the front
    once the retained bytes exceed ``retain_bytes``. The last epoch is
    never evicted: with no later anchor to re-lead the window, the ring
    would hold nothing replayable; if anchors are sparse the ring
    temporarily overshoots its budget instead of destroying data.

    ``observer`` (when set) is called with ``(kind, payload)`` for every
    appended frame *before* eviction runs — the hook live ingest streaming
    uses to forward frames to the trace-service daemon as they are
    emitted. The observer sees the unbounded frame sequence; retention
    only governs what this ring keeps locally.
    """

    def __init__(self, retain_bytes: int,
                 observer: Optional[Callable[[int, bytes], None]] = None):
        self.retain_bytes = retain_bytes
        self.observer = observer
        self._frames: Deque[Tuple[int, bytes]] = deque()
        self._retained_bytes = 0
        self._retained_anchors = 0
        # Cumulative stats (never reduced by eviction).
        self.frames_emitted = 0
        self.anchors_emitted = 0
        self.frame_bytes_total = 0
        self.evicted_frames = 0
        self.evicted_bytes = 0
        self.evicted_epochs = 0

    # ------------------------------------------------------------------
    def append(self, kind: int, payload: bytes) -> None:
        """Retain one frame, notify the observer, evict stale epochs."""
        self._frames.append((kind, payload))
        size = _FRAME_HEADER + len(payload)
        self._retained_bytes += size
        self.frame_bytes_total += size
        self.frames_emitted += 1
        if kind == FRAME_ANCHOR:
            self._retained_anchors += 1
            self.anchors_emitted += 1
        if self.observer is not None:
            self.observer(kind, payload)
        self.evict()

    def evict(self) -> None:
        """Drop whole epochs from the front while over the byte budget."""
        while (self._retained_bytes > self.retain_bytes
               and self._retained_anchors > 1):
            self._drop_head()
            while self._frames and self._frames[0][0] != FRAME_ANCHOR:
                self._drop_head()
            self.evicted_epochs += 1

    def _drop_head(self) -> None:
        kind, payload = self._frames.popleft()
        size = _FRAME_HEADER + len(payload)
        self._retained_bytes -= size
        self.evicted_frames += 1
        self.evicted_bytes += size
        if kind == FRAME_ANCHOR:
            self._retained_anchors -= 1

    # ------------------------------------------------------------------
    @property
    def retained_bytes(self) -> int:
        return self._retained_bytes

    @property
    def retained_anchors(self) -> int:
        return self._retained_anchors

    def frame_list(self) -> List[Tuple[int, bytes]]:
        """The retained ``(kind, payload)`` frames, oldest first."""
        return list(self._frames)

    def frame_stream(self, end: bool = True) -> bytes:
        """The retained frames as encoded v3 frame bytes (+ END marker)."""
        parts = [encode_frame(kind, payload)
                 for kind, payload in self._frames]
        if end:
            parts.append(encode_end_frame())
        return b"".join(parts)

    def clear(self) -> None:
        """Forget everything, including the cumulative counters."""
        self._frames.clear()
        self._retained_bytes = 0
        self._retained_anchors = 0
        self.frames_emitted = 0
        self.anchors_emitted = 0
        self.frame_bytes_total = 0
        self.evicted_frames = 0
        self.evicted_bytes = 0
        self.evicted_epochs = 0

    def stats(self) -> Dict[str, Any]:
        return {
            "frames": self.frames_emitted,
            "anchors": self.anchors_emitted,
            "frame_bytes": self.frame_bytes_total,
            "retained_bytes": self._retained_bytes,
            "retained_anchors": self._retained_anchors,
            "evicted_frames": self.evicted_frames,
            "evicted_bytes": self.evicted_bytes,
            "evicted_epochs": self.evicted_epochs,
        }


class FrameStreamParser:
    """Incremental v3 frame splitter for chunked ingest reads.

    Network reads land on arbitrary byte boundaries; :meth:`feed` buffers
    the remainder and yields every complete ``(kind, payload)`` frame,
    CRC-verified. Damage — an unknown kind byte or a CRC mismatch —
    raises :class:`~repro.errors.TraceFormatError` immediately: the
    daemon journals raw bytes *before* parsing, so the on-disk copy keeps
    the torn evidence for v3 resync salvage while the live ring stops
    accepting a stream it can no longer trust.
    """

    def __init__(self):
        self._buf = bytearray()
        self.frames_parsed = 0
        self.bytes_consumed = 0
        self.end_seen = False

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered while waiting for the rest of a frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        self._buf += data
        frames: List[Tuple[int, bytes]] = []
        buf = self._buf
        offset = 0
        while offset + _FRAME_HEADER <= len(buf):
            kind = buf[offset]
            if kind not in _FRAME_KINDS:
                raise TraceFormatError(
                    f"ingest stream: unknown frame kind 0x{kind:02x}")
            plen = int.from_bytes(buf[offset + 1:offset + 5], "little")
            crc = int.from_bytes(buf[offset + 5:offset + 9], "little")
            end = offset + _FRAME_HEADER + plen
            if end > len(buf):
                break
            payload = bytes(buf[offset + _FRAME_HEADER:end])
            if zlib.crc32(payload) != crc:
                raise TraceFormatError(
                    f"ingest stream: frame CRC32 mismatch at relative "
                    f"byte {offset}")
            frames.append((kind, payload))
            self.frames_parsed += 1
            if kind == FRAME_END:
                self.end_seen = True
            offset = end
        del buf[:offset]
        self.bytes_consumed += offset
        return frames


class RingTraceStore(TraceStore):
    """A :class:`TraceStore` that retains a compressed, anchored ring.

    The simulated staging/drain path is inherited unchanged — monitors,
    grants and stalls behave exactly as with the plain store. What differs
    is what happens to drained bytes: instead of accumulating forever in
    ``self.data``, they are framed into compressed RUN frames (``data``
    only ever holds the not-yet-framed remainder) and old epochs are
    evicted — by the embedded :class:`FrameRing` — once the ring exceeds
    ``retain_words`` storage words.
    """

    is_ring = True

    def __init__(self, name: str, *, staging_bytes=None, bandwidth=None,
                 arbiter=None,
                 retain_words: int = DEFAULT_FLIGHT_RETAIN_WORDS,
                 run_bytes: int = DEFAULT_RUN_BYTES):
        kwargs = {}
        if staging_bytes is not None:
            kwargs["staging_bytes"] = staging_bytes
        if bandwidth is not None:
            kwargs["bandwidth_bytes_per_cycle"] = bandwidth
        super().__init__(name, arbiter=arbiter, **kwargs)
        self.retain_words = retain_words
        self._run_bytes = run_bytes
        self.ring = FrameRing(retain_words * STORAGE_WORD_BYTES)
        self._framed_raw = 0          # stream bytes already framed
        # Anchors queued by byte watermark: (watermark, ordinal, cycle,
        # checkpoint-dict). The watermark is total_packet_bytes at request
        # time, so the ANCHOR frame lands at the exact packet boundary the
        # encoder's dedup reset happened at.
        self._pending_anchors: Deque[Tuple[int, int, int, Optional[dict]]] = \
            deque()
        self._last_anchor_watermark = -1
        self._emit_genesis()

    # ------------------------------------------------------------------
    def set_observer(
            self,
            observer: Optional[Callable[[int, bytes], None]]) -> None:
        """Install a live frame observer (see :class:`FrameRing`).

        When installed after construction, the frames already retained —
        at minimum the genesis ANCHOR — are replayed to the observer
        first, so a late-attaching ingest stream still starts anchor-led.
        """
        self.ring.observer = None
        if observer is not None:
            for kind, payload in self.ring.frame_list():
                observer(kind, payload)
        self.ring.observer = observer

    # ------------------------------------------------------------------
    def _emit_genesis(self) -> None:
        self._emit_frame(FRAME_ANCHOR,
                         self._anchor_payload(0, 0, None))
        self._last_anchor_watermark = 0

    @staticmethod
    def _anchor_payload(ordinal: int, cycle: int,
                        checkpoint: Optional[dict]) -> bytes:
        # encode_anchor_frame returns a full frame; strip its header to get
        # the payload so all emission flows through _emit_frame accounting.
        return encode_anchor_frame(ordinal, cycle, checkpoint)[_FRAME_HEADER:]

    def _emit_frame(self, kind: int, payload: bytes) -> None:
        if kind == FRAME_ANCHOR:
            # New epoch: restart the shared DEFLATE stream, so an
            # anchor-led window decodes with no history from (possibly
            # evicted) earlier epochs.
            self._cobj = zlib.compressobj(DEFAULT_FLIGHT_COMPRESS_LEVEL)
        self.ring.append(kind, payload)

    def _emit_runs(self, raw: "bytes | bytearray") -> None:
        # Segments of one per-epoch DEFLATE stream: Z_SYNC_FLUSH makes
        # each frame boundary byte-aligned (any frame prefix of the epoch
        # decodes) while the 32 KiB window carries across frames.
        cobj = self._cobj
        for offset in range(0, len(raw), self._run_bytes):
            chunk = bytes(raw[offset:offset + self._run_bytes])
            self._emit_frame(FRAME_RUN, cobj.compress(chunk)
                             + cobj.flush(zlib.Z_SYNC_FLUSH))
        self._framed_raw += len(raw)

    # ------------------------------------------------------------------
    def request_anchor(self, ordinal: int, cycle: int,
                       checkpoint: Optional[dict]) -> bool:
        """Queue a re-anchor at the current packet-stream watermark.

        Called by the deployment's anchor hook at a quiescent instant,
        after the encoder's dedup dictionary has been reset. The ANCHOR
        frame is inserted exactly when framing reaches the watermark —
        which may be now (stream fully drained) or later (bytes still in
        staging). A watermark that already carries an anchor is skipped.
        """
        watermark = self.total_packet_bytes
        if watermark == self._last_anchor_watermark:
            return False
        self._pending_anchors.append((watermark, ordinal, cycle, checkpoint))
        self._last_anchor_watermark = watermark
        self._spill(force=False)
        return True

    # ------------------------------------------------------------------
    def _spill(self, force: bool) -> None:
        """Frame drained bytes, honouring pending anchor watermarks."""
        self._settle()
        data = self.data
        while True:
            if self._pending_anchors:
                watermark, ordinal, cycle, checkpoint = \
                    self._pending_anchors[0]
                if watermark == self._framed_raw:
                    self._pending_anchors.popleft()
                    self._emit_frame(
                        FRAME_ANCHOR,
                        self._anchor_payload(ordinal, cycle, checkpoint))
                    continue
                if watermark <= self._framed_raw + len(data):
                    take = watermark - self._framed_raw
                    self._emit_runs(data[:take])
                    del data[:take]
                    continue
            if len(data) >= self._run_bytes or (force and data):
                self._emit_runs(bytes(data))
                data.clear()
                continue
            break

    def accept(self, packet: bytes) -> None:
        # Piggyback spill checks on eventful cycles instead of overriding
        # seq(): the per-cycle drain path stays the base class's, so flight
        # recording adds zero per-cycle Python overhead on quiet cycles.
        # Spill timing is host-side bookkeeping — deferring it to the next
        # eventful cycle (or flush) cannot change what gets framed.
        super().accept(packet)
        # Accepted bytes neither staged nor framed, wherever they sit.
        unframed = (self.total_packet_bytes - self._staged_bytes
                    - self._framed_raw)
        if self._pending_anchors or unframed >= self._run_bytes:
            self._spill(force=False)

    def flush(self) -> None:
        """Drain and frame everything (end of a recording run)."""
        super().flush()   # drains staging into data; applies storage faults
        self._spill(force=True)

    # ------------------------------------------------------------------
    # serialization / expansion
    # ------------------------------------------------------------------
    def frame_list(self) -> List[Tuple[int, bytes]]:
        """The retained ``(kind, payload)`` frames, oldest first."""
        return self.ring.frame_list()

    def frame_stream(self, end: bool = True) -> bytes:
        """The retained frames as encoded v3 frame bytes (+ END marker)."""
        return self.ring.frame_stream(end=end)

    def expand(self, table, with_validation: bool, dedup_slots: int):
        """Expand the retained window to a flat packet body.

        Returns ``(body, start, info)`` exactly like the v3 loader's
        expansion: ``start`` is the window's re-anchor point (ordinal 0
        with no checkpoint when nothing was evicted). Call :meth:`flush`
        first so no bytes linger in staging or the unframed remainder.
        """
        return _expand_v3_frames(self.frame_list(), table, with_validation,
                                 dedup_slots, tolerate=False)

    # ------------------------------------------------------------------
    # counters (delegated to the embedded ring; names kept stable for the
    # metrics/benchmark consumers that predate the FrameRing extraction)
    # ------------------------------------------------------------------
    @property
    def frames_emitted(self) -> int:
        return self.ring.frames_emitted

    @property
    def anchors_emitted(self) -> int:
        return self.ring.anchors_emitted

    @property
    def frame_bytes_total(self) -> int:
        return self.ring.frame_bytes_total

    @property
    def evicted_frames(self) -> int:
        return self.ring.evicted_frames

    @property
    def evicted_bytes(self) -> int:
        return self.ring.evicted_bytes

    @property
    def evicted_epochs(self) -> int:
        return self.ring.evicted_epochs

    @property
    def storage_words(self) -> int:
        """Retained external footprint in storage words (ring + remainder)."""
        self._settle()
        retained = self.ring.retained_bytes + len(self.data)
        return (retained + STORAGE_WORD_BYTES - 1) // STORAGE_WORD_BYTES

    def stats(self) -> Dict[str, Any]:
        """Flight-recorder storage counters for metrics/benchmarks."""
        return {
            "stream_bytes": self.total_packet_bytes,
            "frame_bytes": self.ring.frame_bytes_total,
            "retained_bytes": self.ring.retained_bytes,
            "retained_words": self.storage_words,
            "retain_words": self.retain_words,
            "frames": self.ring.frames_emitted,
            "anchors": self.ring.anchors_emitted,
            "evicted_frames": self.ring.evicted_frames,
            "evicted_bytes": self.ring.evicted_bytes,
            "evicted_epochs": self.ring.evicted_epochs,
        }

    def reset_state(self) -> None:
        super().reset_state()
        observer = self.ring.observer
        self.ring.clear()
        self.ring.observer = observer
        self._framed_raw = 0
        self._pending_anchors.clear()
        self._last_anchor_watermark = -1
        self._emit_genesis()
