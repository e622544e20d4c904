"""Trace decoder: from stored cycle packets to per-channel replay feeds (§3.4).

The decoder reverses the encoder: it parses the serialized trace body into
cycle packets, then decomposes each packet into per-channel
:class:`~repro.core.packets.ChannelPacket` views paired with the packet's
``Ends`` bitvector. Every channel replayer receives the *full* sequence of
``(channel packet, Ends)`` pairs — the Ends fields are what let each
replayer reconstruct the vector clocks that encode the recorded
happens-before relations (§3.5).

Two feed representations exist:

* the **element feed** (:class:`ReplayElement`, :meth:`TraceDecoder.all_feeds`)
  mirrors the hardware decomposition one-to-one: every channel sees every
  packet, and replayers accumulate ``T_expected`` incrementally. Simple, but
  a replayer walks O(packets) elements even if its channel has two events.
* the **compact feed** (:class:`ReplayAction`, :meth:`TraceDecoder.compact_feeds`)
  precomputes, in one pass over the body, only the *actions* a replayer
  must gate — input starts (with their payload word) and output end
  credits — each carrying a snapshot of the ``T_expected`` prerequisites at
  that point in the stream. Replayers then walk O(own events) and compare
  against ready-made clocks; consumed actions never need revisiting. The
  two representations drive byte-identical replays (``tests/test_decoder_shim.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.events import ChannelTable
from repro.core.packets import (DEDUP_MIN_BYTES, DEDUP_SLOT_BYTES, CyclePacket,
                                DedupDict, PacketLayout, deserialize_packets,
                                iter_layouts, layout_at)
from repro.core.vector_clock import VectorClock
from repro.errors import TraceFormatError


def expand_dedup_stream(stream: "bytes | memoryview", table: ChannelTable,
                        with_validation: bool, dedup: DedupDict,
                        out: bytearray,
                        tolerate_tail: bool = False) -> Tuple[int, int]:
    """Expand a dedup-coded packet stream back to the flat body encoding.

    This is the exact inverse of
    :meth:`~repro.core.packets.CyclePacket.serialize_into` with a dedup
    dictionary: walking the same packets in order, a literal payload is
    inserted into ``dedup`` and a backref resolved through it, so the
    dictionary evolves bit-symmetrically with the encoder's and the
    expansion is byte-identical to what plain serialization would have
    produced. Appends to ``out`` and returns ``(n_packets, consumed)``.

    ``tolerate_tail=True`` (salvage): the first undecodable packet — torn
    by truncation or structurally corrupt (backref to an empty slot, width
    mismatch, mask bit on an ineligible channel) — is rolled back and
    expansion stops, reported via ``consumed < len(stream)``. With
    ``tolerate_tail=False`` the same conditions raise
    :class:`TraceFormatError`.
    """
    view = memoryview(stream)
    size = len(view)
    nbytes = table.bitvec_bytes
    hbytes = 2 * nbytes
    layouts: Dict[int, PacketLayout] = {}
    offset = 0
    count = 0
    while offset < size:
        mark = len(out)
        try:
            if offset + hbytes > size:
                raise TraceFormatError(
                    "dedup stream truncated inside a cycle-packet header")
            layout = layout_at(view, offset, table, with_validation, layouts)
            if not (layout.starts or layout.ends):
                raise TraceFormatError(
                    f"empty cycle packet at dedup-stream offset {offset}")
            if layout.start_error is not None:
                raise TraceFormatError(layout.start_error)
            if with_validation and layout.end_error is not None:
                raise TraceFormatError(layout.end_error)
            cursor = offset + hbytes
            mask = 0
            if layout.eligible:
                if cursor + nbytes > size:
                    raise TraceFormatError(
                        "dedup stream truncated inside a dedup mask")
                mask = int.from_bytes(view[cursor:cursor + nbytes], "little")
                cursor += nbytes
                if mask & ~layout.eligible:
                    raise TraceFormatError(
                        "dedup mask bit set for an ineligible channel")
            out += view[offset:offset + hbytes]
            for i, start, stop in layout.payloads:
                width = stop - start
                if (mask >> i) & 1:
                    if cursor + DEDUP_SLOT_BYTES > size:
                        raise TraceFormatError(
                            "dedup stream truncated inside a backref")
                    slot = int.from_bytes(
                        view[cursor:cursor + DEDUP_SLOT_BYTES], "little")
                    cursor += DEDUP_SLOT_BYTES
                    content = dedup.get(slot)
                    if len(content) != width:
                        raise TraceFormatError(
                            f"backref slot {slot} holds {len(content)} bytes "
                            f"but channel {table[i].name} needs {width}")
                    out += content
                else:
                    if cursor + width > size:
                        raise TraceFormatError(
                            "dedup stream truncated inside a literal payload")
                    content = bytes(view[cursor:cursor + width])
                    cursor += width
                    if width >= DEDUP_MIN_BYTES:
                        dedup.insert(content)
                    out += content
        except TraceFormatError:
            if tolerate_tail:
                del out[mark:]
                return count, offset
            raise
        offset = cursor
        count += 1
    return count, offset


@dataclass(frozen=True)
class ReplayElement:
    """One ``(channel packet, Ends)`` pair for one channel.

    ``start``/``end`` describe this channel's events in the source cycle
    packet (either may be false); ``content`` is present for input-channel
    starts; ``ends_mask`` is the cycle packet's full Ends bitvector.
    """

    start: bool
    end: bool
    content: Optional[bytes]
    ends_mask: int


@dataclass(frozen=True)
class ReplayAction:
    """One gated replay event for one channel.

    ``word`` is the payload to inject for an input-channel start, ``None``
    for an output-channel end credit. ``expected`` is the full ``T_expected``
    prerequisite vector at this point of the recorded stream — the sum of
    the ``Ends`` bitvectors of every packet *before* the one this action
    came from, exactly what the element feed accumulates incrementally.
    """

    word: Optional[int]
    expected: VectorClock


@dataclass
class CompactFeed:
    """A channel's compact replay feed: its gated actions, in trace order."""

    index: int
    direction: str
    actions: List[ReplayAction]


class TraceDecoder:
    """Offline decoder from trace bytes to per-channel replay feeds."""

    def __init__(self, table: ChannelTable, with_validation: bool = True):
        self.table = table
        self.with_validation = with_validation

    def decode_packets(self, blob: bytes) -> List[CyclePacket]:
        """Parse the serialized trace body into cycle packets."""
        return deserialize_packets(blob, self.table, self.with_validation)

    def channel_feed(self, packets: List[CyclePacket],
                     index: int) -> List[ReplayElement]:
        """The ``(channel packet, Ends)`` sequence for channel ``index``."""
        feed: List[ReplayElement] = []
        for packet in packets:
            feed.append(ReplayElement(
                start=bool((packet.starts >> index) & 1),
                end=bool((packet.ends >> index) & 1),
                content=packet.contents.get(index),
                ends_mask=packet.ends,
            ))
        return feed

    def all_feeds(self, blob: bytes) -> List[List[ReplayElement]]:
        """Per-channel feeds for the whole table, decoded from ``blob``."""
        packets = self.decode_packets(blob)
        return [self.channel_feed(packets, i) for i in range(self.table.n)]

    # ------------------------------------------------------------------
    def compact_feeds(self, blob: bytes) -> List[CompactFeed]:
        """Compact per-channel feeds for the whole table, in ONE body pass.

        Walks the packets once, maintaining the running completed-end
        counts; each input start / output end encountered becomes a
        :class:`ReplayAction` whose ``expected`` clock is snapshotted
        *before* the packet's own ends are added — matching the element
        feed, where an action is gated before its element's ``ends_mask``
        advances ``T_expected``.
        """
        table = self.table
        n = table.n
        counts = [0] * n
        feeds = [CompactFeed(i, "in" if table.is_input(i) else "out", [])
                 for i in range(n)]
        actions = [feed.actions for feed in feeds]
        view = memoryview(blob)
        for offset, layout in iter_layouts(view, table, self.with_validation):
            if layout.end_error is not None:
                # Legal without validation, where Ends is never walked for
                # payloads — but every end bit must name a channel here.
                raise TraceFormatError(layout.end_error)
            snapshot: Optional[VectorClock] = None
            for i, start, stop in layout.contents:
                if snapshot is None:
                    snapshot = VectorClock(counts)
                actions[i].append(ReplayAction(
                    int.from_bytes(view[offset + start:offset + stop],
                                   "little"),
                    snapshot))
            if layout.ended:
                # Emit every output-end action against the pre-packet
                # snapshot first; only then apply the packet's increments
                # (same-packet ends are concurrent, so none of them may
                # appear in another's prerequisite clock).
                for i in layout.ended_outputs:
                    if snapshot is None:
                        snapshot = VectorClock(counts)
                    actions[i].append(ReplayAction(None, snapshot))
                for i in layout.ended:
                    counts[i] += 1
        return feeds
