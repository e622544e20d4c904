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
* the **compact feed** (:class:`CompactFeed`, :meth:`TraceDecoder.compact_feeds`)
  lists, from one pass over the body, only the *actions* a replayer must
  gate — input starts (with their payload word) and output end credits —
  each with its delta prerequisites (:data:`Needs`): the ``T_expected``
  entries that grew since the channel's previous action, not a whole
  clock. Replayers then walk O(own events) and check O(entries that grew)
  per action; consumed actions never need revisiting. Element feeds are
  compiled to the same form, and the two drive byte-identical replays
  (``tests/test_decoder_shim.py``).

The body a compact feed is built from is walked once: a trace loaded from
a v3 container carries the offset and layout of every packet, found by the
dedup expansion that wrote it (:func:`expand_dedup_stream`).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.events import ChannelTable
from repro.core.packets import (DEDUP_MIN_BYTES, DEDUP_SLOT_BYTES, CyclePacket,
                                DedupDict, PacketLayout, TraceIndex,
                                decodable_index, deserialize_packets,
                                packet_layout)
from repro.errors import TraceFormatError


def expand_dedup_stream(stream: "bytes | memoryview", table: ChannelTable,
                        with_validation: bool, dedup: DedupDict,
                        out: bytearray, tolerate_tail: bool = False,
                        index: Optional[Tuple[List[int], List[PacketLayout]]]
                        = None) -> Tuple[int, int]:
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

    ``index``, an ``(offsets, layouts)`` pair of lists, receives the
    offset in ``out`` and the layout of every packet expanded: the
    :class:`~repro.core.packets.TraceIndex` of the flat body, found
    without a second header walk.
    """
    view = memoryview(stream)
    size = len(view)
    nbytes = table.bitvec_bytes
    hbytes = 2 * nbytes
    layouts: Dict[int, PacketLayout] = {}
    offsets_out, layouts_out = ([], []) if index is None else index
    offset = 0
    count = 0
    while offset < size:
        mark = len(out)
        try:
            if offset + hbytes > size:
                raise TraceFormatError(
                    "dedup stream truncated inside a cycle-packet header")
            header = int.from_bytes(view[offset:offset + hbytes], "little")
            layout = layouts.get(header)
            if layout is None:
                # Only headers that pass these checks are memoised.
                layout = packet_layout(table, header, with_validation)
                if not header:
                    raise TraceFormatError(
                        f"empty cycle packet at dedup-stream offset {offset}")
                if layout.start_error is not None:
                    raise TraceFormatError(layout.start_error)
                if with_validation and layout.end_error is not None:
                    raise TraceFormatError(layout.end_error)
                layouts[header] = layout
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
        offsets_out.append(mark)
        layouts_out.append(layout)
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


Needs = Tuple[Tuple[int, int], ...]
"""One gated action's *delta prerequisites*: a ``(channel, count)`` pair
for each ``T_expected`` entry that grew since the feed's previous action
(every nonzero entry for the feed's first action), ascending by channel.
Checked in feed order against a monotone ``T_current``, they admit an
action exactly when the full ``T_current >= T_expected`` would: every
entry not listed was already met when the previous action was."""


@dataclass
class CompactFeed:
    """A channel's compact replay feed: its gated actions, in trace order.

    ``actions[j]`` is action ``j``'s payload word for an input-channel
    start, ``None`` for an output-channel end credit; ``needs[j]`` is its
    :data:`Needs`. Action ``j``'s full ``T_expected`` — the sum of the
    ``Ends`` bitvectors of every packet *before* the one it came from — is
    each channel's count at its latest entry in ``needs[:j + 1]``.
    """

    index: int
    direction: str
    actions: List[Optional[int]]
    needs: List[Needs]


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
    def compact_feeds(self, blob: bytes,
                      index: Optional[TraceIndex] = None) -> List[CompactFeed]:
        """Compact per-channel feeds for the whole table, in ONE body pass.

        Reads each packet's offset and layout from ``index`` (a trace
        loaded from a v3 container carries its expansion's; without one,
        a header walk builds it) and keeps the running completed-end
        counts. Each input start / output end becomes an action whose
        needs are taken *before* the packet's own ends are counted —
        matching the element feed, where an action is gated before its
        element's ``ends_mask`` advances ``T_expected`` — from the channels
        ended since the feed's previous action: the packet ordinal that
        last ended each channel tells which. A body that does not decode
        raises what a walk over its headers would (see
        :func:`~repro.core.packets.decodable_index`).
        """
        table = self.table
        n = table.n
        index = decodable_index(blob, table, self.with_validation, index,
                                check_ends=True)
        view = memoryview(blob)
        counts = [0] * n
        ended_at = [-1] * n   # ordinal of the packet that last ended a channel
        acted_at = [0] * n    # ordinal of the packet of a feed's last action
        seen: List[int] = []  # channels ended so far, ascending
        feeds = [CompactFeed(i, "in" if table.is_input(i) else "out", [], [])
                 for i in range(n)]
        actions = [feed.actions for feed in feeds]
        needs = [feed.needs for feed in feeds]
        ordinal = 0
        for offset, layout in zip(index.offsets, index.layouts):
            if layout.end_error is not None:
                # Legal without validation, where Ends is never walked for
                # payloads — but every end bit must name a channel here.
                raise TraceFormatError(layout.end_error)
            # (Plain loops: on CPython 3.11 a comprehension is a call.)
            for i, start, stop in layout.contents:
                since = acted_at[i]
                acted_at[i] = ordinal
                actions[i].append(int.from_bytes(
                    view[offset + start:offset + stop], "little"))
                need = []
                for c in seen:
                    if ended_at[c] >= since:
                        need.append((c, counts[c]))
                needs[i].append(tuple(need))
            if layout.ended:
                # Every output-end action is gated on the pre-packet counts;
                # only then does the packet count its ends (same-packet ends
                # are concurrent, so none is another's prerequisite).
                for i in layout.ended_outputs:
                    since = acted_at[i]
                    acted_at[i] = ordinal
                    actions[i].append(None)
                    need = []
                    for c in seen:
                        if ended_at[c] >= since:
                            need.append((c, counts[c]))
                    needs[i].append(tuple(need))
                for i in layout.ended:
                    if not counts[i]:
                        insort(seen, i)
                    counts[i] += 1
                    ended_at[i] = ordinal
            ordinal += 1
        return feeds
