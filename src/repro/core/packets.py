"""Channel packets and cycle packets — the on-the-wire trace format (§3.1–3.2).

A *channel packet* is what one channel monitor reports for one cycle:
whether a handshake started, the content (for starts on input channels, or
for ends on output channels when output validation is enabled), and whether
a handshake ended.

A *cycle packet* aggregates all channel packets of one clock cycle:

* ``Starts`` — bitvector over all monitored channels (bits set only for
  input channels) marking handshake starts this cycle;
* ``Ends``   — bitvector over all monitored channels marking handshake ends
  this cycle (inputs *and* outputs — this is what carries the happens-before
  information transaction determinism needs);
* ``Contents`` — the binary-tree-compacted contents of starting input
  channels, followed (when output validation is on) by the contents of
  ending output channels.

The serialized trace is the concatenation of serialized cycle packets for
*eventful* cycles only; no timestamps are stored (see §6 for why). A
:class:`TraceIndex` holds the offset and layout of every packet of one
such body.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.contents_tree import pack_contents, unpack_contents
from repro.core.events import ChannelTable
from repro.errors import TraceFormatError

DEDUP_MIN_BYTES = 4
"""Payloads shorter than this are never dictionary-coded: a backref costs
two bytes, so tiny fields (AXI-Lite B responses, 1-byte doorbells) stay
literal and skip the dictionary entirely on both sides."""

DEDUP_SLOT_BYTES = 2
"""Wire width of one backref: a little-endian dictionary slot id."""

DEFAULT_DEDUP_SLOTS = 1024
"""Default bounded-dictionary capacity (must fit in DEDUP_SLOT_BYTES)."""


class DedupDict:
    """Bounded LRU content dictionary, reconstructible from the stream alone.

    The flight recorder's dedup transform replaces repeated ``Contents`` /
    ``Validation`` payloads with 2-byte *backrefs* into this dictionary.
    Encoder and decoder each hold one instance and drive it with the exact
    same event sequence — a literal payload is inserted, a backref touches
    its slot — so slot assignment and LRU eviction stay bit-symmetric
    without any dictionary state ever being serialized.

    Slot lifecycle: fresh literals take ascending free slots until the
    capacity is reached, then evict the least-recently-used slot (recency
    is advanced by both hits/backrefs and inserts). The encoder keys a
    reverse map on the payload bytes themselves (exact match, no collision
    risk) for :meth:`find`; a decoder's dictionary (``encoding=False``)
    only ever indexes by slot and keeps no reverse map.
    """

    def __init__(self, slots: int = DEFAULT_DEDUP_SLOTS,
                 encoding: bool = True):
        if not 1 <= slots <= 1 << (8 * DEDUP_SLOT_BYTES):
            raise TraceFormatError(
                f"dedup dictionary needs 1..{1 << (8 * DEDUP_SLOT_BYTES)} "
                f"slots, got {slots}")
        self.slots = slots
        self._content: List[Optional[bytes]] = [None] * slots
        self._by_content: Optional[Dict[bytes, int]] = (
            {} if encoding else None)
        self._order: "OrderedDict[int, None]" = OrderedDict()
        self._next_free = 0
        self.hits = 0
        self.inserts = 0
        self.evictions = 0

    def find(self, content: bytes) -> Optional[int]:
        """Encoder side: slot of ``content`` if cached (touches recency)."""
        slot = self._by_content.get(content)
        if slot is not None:
            self.hits += 1
            self._order.move_to_end(slot)
        return slot

    def insert(self, content: bytes) -> int:
        """Both sides: cache a literal payload; returns its slot."""
        by_content = self._by_content
        if self._next_free < self.slots:
            slot = self._next_free
            self._next_free += 1
        else:
            slot, _ = self._order.popitem(last=False)   # LRU victim
            if by_content is not None:
                old = self._content[slot]
                if old is not None:
                    by_content.pop(old, None)
            self.evictions += 1
        self._content[slot] = content
        if by_content is not None:
            by_content[content] = slot
        self._order[slot] = None
        self.inserts += 1
        return slot

    def get(self, slot: int) -> bytes:
        """Decoder side: resolve a backref (touches recency, counts a hit)."""
        if not 0 <= slot < self.slots or self._content[slot] is None:
            raise TraceFormatError(
                f"backref to unwritten dedup slot {slot}")
        self.hits += 1
        self._order.move_to_end(slot)
        return self._content[slot]     # type: ignore[return-value]

    def clear(self) -> None:
        """Reset to the empty dictionary (epoch re-anchor on both sides)."""
        self._content = [None] * self.slots
        if self._by_content is not None:
            self._by_content.clear()
        self._order.clear()
        self._next_free = 0


@dataclass
class ChannelPacket:
    """One channel monitor's report for one cycle."""

    start: bool = False
    end: bool = False
    content: bytes | None = None

    @property
    def is_empty(self) -> bool:
        return not (self.start or self.end)


def iter_bits(mask: int, n: int) -> List[int]:
    """Indices of set bits in ``mask`` among the low ``n`` positions, ascending."""
    out = []
    index = 0
    while mask:
        if mask & 1:
            out.append(index)
        mask >>= 1
        index += 1
        if index > n:
            raise TraceFormatError(f"bitvector has bits above channel count {n}")
    return out


Payload = Tuple[int, int, int]
"""One payload entry of a packet: ``(channel, start, stop)`` byte offsets
relative to the packet's first byte."""


@dataclass(frozen=True)
class PacketLayout:
    """Everything about a cycle packet that its ``(Starts, Ends)`` header
    fixes, given the channel table and ``with_validation`` (see
    :func:`packet_layout`).

    A header can be illegal in two independent ways, kept apart because
    decoders check them at different points: ``start_error`` (Starts has a
    bit at or above the channel count — then ``started`` is ``None`` — or a
    start bit on an output channel) and ``end_error`` (Ends has a bit at or
    above the channel count; ``ended`` then lists the bits below it). For a
    header with an output start, ``contents`` and ``size`` still count that
    channel's payload: the lenient walks
    (:class:`TraceIndex`, the backref scan) step
    over it rather than reject it.
    """

    starts: int
    ends: int
    started: Optional[Tuple[int, ...]]   # channels with a start bit
    ended: Tuple[int, ...]               # channels with an end bit
    ended_outputs: Tuple[int, ...]       # output channels among ``ended``
    contents: Tuple[Payload, ...]        # Contents entries, wire order
    validation: Tuple[Payload, ...]      # Validation entries, wire order
    payloads: Tuple[Payload, ...]        # contents + validation
    contents_end: int                    # offset where Validation begins
    size: int                            # header + payload bytes
    eligible: int                        # dedup-eligible channel mask
    start_error: Optional[str]
    end_error: Optional[str]
    legal: bool                          # CyclePacket.deserialize accepts it


def packet_layout(table: ChannelTable, header: int,
                  with_validation: bool) -> PacketLayout:
    """The layout shared by every cycle packet whose header is ``header``.

    ``header`` is the packet's leading ``2 * table.bitvec_bytes`` bytes as
    one little-endian int (Starts in the low half, Ends in the high half).
    The layout is a pure function of its arguments, so body walks memoise
    it per header: a recording has thousands of packets but only a few
    dozen distinct headers. This is the one place packet bitvectors are
    decoded bit by bit.
    """
    n = table.n
    width = 8 * table.bitvec_bytes
    starts = header & ((1 << width) - 1)
    ends = header >> width
    start_error: Optional[str] = None
    end_error: Optional[str] = None
    started: Optional[Tuple[int, ...]]
    try:
        started = tuple(iter_bits(starts, n))
    except TraceFormatError as exc:
        started, start_error = None, str(exc)
    else:
        for index in started:
            if not table.is_input(index):
                start_error = (
                    f"start bit set for output channel {table[index].name}")
                break
    try:
        ended = tuple(iter_bits(ends, n))
    except TraceFormatError as exc:
        end_error = str(exc)
        ended = tuple(iter_bits(ends & ((1 << n) - 1), n))
    ended_outputs = tuple(i for i in ended if not table.is_input(i))
    cursor = 2 * table.bitvec_bytes
    contents: List[Payload] = []
    for index in started or ():
        stop = cursor + table[index].content_bytes
        contents.append((index, cursor, stop))
        cursor = stop
    contents_end = cursor
    validation: List[Payload] = []
    if with_validation and end_error is None:
        for index in ended_outputs:
            stop = cursor + table[index].content_bytes
            validation.append((index, cursor, stop))
            cursor = stop
    payloads = tuple(contents + validation)
    eligible = 0
    for index, start, stop in payloads:
        if stop - start >= DEDUP_MIN_BYTES:
            eligible |= 1 << index
    legal = (header != 0 and start_error is None
             and not (with_validation and end_error is not None))
    return PacketLayout(
        starts=starts, ends=ends, started=started, ended=ended,
        ended_outputs=ended_outputs, contents=tuple(contents),
        validation=tuple(validation), payloads=payloads,
        contents_end=contents_end, size=cursor, eligible=eligible,
        start_error=start_error, end_error=end_error, legal=legal)


def layout_at(blob: "bytes | memoryview", offset: int, table: ChannelTable,
              with_validation: bool,
              layouts: Dict[int, PacketLayout]) -> PacketLayout:
    """Layout of the packet at ``offset``, memoised in the walk's ``layouts``.

    A header cut short by the end of ``blob`` reads as its surviving
    bytes; its layout still spans a full header, so it overruns.
    """
    header = int.from_bytes(
        blob[offset:offset + 2 * table.bitvec_bytes], "little")
    layout = layouts.get(header)
    if layout is None:
        layout = layouts[header] = packet_layout(table, header,
                                                 with_validation)
    return layout


@dataclass
class CyclePacket:
    """All transaction events of one clock cycle, plus contents."""

    starts: int = 0                                   # bitmask over channels
    ends: int = 0                                     # bitmask over channels
    contents: Dict[int, bytes] = field(default_factory=dict)      # input starts
    validation: Dict[int, bytes] = field(default_factory=dict)    # output ends

    @property
    def is_empty(self) -> bool:
        return self.starts == 0 and self.ends == 0

    def clear(self) -> None:
        """Reset to the empty packet in place (the encoder reuses one)."""
        self.starts = 0
        self.ends = 0
        self.contents.clear()
        self.validation.clear()

    # ------------------------------------------------------------------
    def channel_packet(self, index: int) -> ChannelPacket:
        """Decompose this cycle packet into one channel's packet (§3.4)."""
        return ChannelPacket(
            start=bool((self.starts >> index) & 1),
            end=bool((self.ends >> index) & 1),
            content=self.contents.get(index),
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def serialize(self, table: ChannelTable, with_validation: bool) -> bytes:
        """Encode as ``[Starts][Ends][Contents]`` with fixed-width bitvectors."""
        out = bytearray()
        self.serialize_into(out, table, with_validation)
        return bytes(out)

    def serialize_into(self, out: bytearray, table: ChannelTable,
                       with_validation: bool,
                       dedup: Optional[DedupDict] = None) -> Optional[int]:
        """Append the encoding to ``out`` without intermediate allocations.

        The Contents/Validation fields are dense concatenations in ascending
        channel order — exactly what the hardware's binary reduction tree
        (:func:`~repro.core.contents_tree.pack_contents`) produces, appended
        piecewise instead of joined; the round-trip property tests pin the
        two encodings byte-identical.

        With ``dedup`` set, the flight recorder's dictionary transform is
        applied: when any payload entry of this packet is wide enough to
        dictionary-code (``content_bytes >= DEDUP_MIN_BYTES``) a *dedup
        mask* bitvector is emitted after ``Ends``, and each masked entry is
        replaced by a 2-byte backref slot. Whether the mask is present is
        fully determined by ``Starts``/``Ends`` and the channel table, so
        the decoder needs no flag bytes. Channels are input xor output, so
        one mask covers Contents and Validation entries without ambiguity.
        Returns the byte count the *un-deduped* encoding would have cost
        (``None`` on the plain path) so callers can track the savings
        without a second pass.
        """
        nbytes = table.bitvec_bytes
        out += self.starts.to_bytes(nbytes, "little")
        out += self.ends.to_bytes(nbytes, "little")
        contents = self.contents
        validation = self.validation if with_validation else None
        if dedup is None:
            if contents:
                for index in sorted(contents):
                    out += contents[index]
            if validation:
                for index in sorted(validation):
                    out += validation[index]
            return None
        # Dedup path: one pass per payload dict, mask patched in place.
        flat = 2 * nbytes
        has_mask = False
        if contents:
            for content in contents.values():
                if len(content) >= DEDUP_MIN_BYTES:
                    has_mask = True
                    break
        if validation and not has_mask:
            for content in validation.values():
                if len(content) >= DEDUP_MIN_BYTES:
                    has_mask = True
                    break
        mask_pos = len(out)
        if has_mask:
            out += bytes(nbytes)   # placeholder, patched below
        mask = 0
        for source in (contents, validation):
            if not source:
                continue
            for index in sorted(source):
                content = source[index]
                width = len(content)
                flat += width
                if width >= DEDUP_MIN_BYTES:
                    slot = dedup.find(content)
                    if slot is not None:
                        mask |= 1 << index
                        out += slot.to_bytes(DEDUP_SLOT_BYTES, "little")
                        continue
                    dedup.insert(content)
                out += content
        if mask:
            out[mask_pos:mask_pos + nbytes] = mask.to_bytes(nbytes, "little")
        return flat

    @classmethod
    def deserialize(cls, blob: memoryview, offset: int, table: ChannelTable,
                    with_validation: bool,
                    layouts: Optional[Dict[int, PacketLayout]] = None
                    ) -> Tuple["CyclePacket", int]:
        """Decode one packet at ``offset``; returns (packet, next offset).

        ``layouts`` is the calling walk's header memo (see
        :func:`layout_at`); a one-off decode leaves it out.
        """
        size = len(blob)
        if offset + 2 * table.bitvec_bytes > size:
            raise TraceFormatError("trace truncated inside a cycle-packet header")
        layout = layout_at(blob, offset, table, with_validation,
                           {} if layouts is None else layouts)
        end = offset + layout.size
        if layout.legal and end <= size:
            # memoryview slices: the per-channel bytes() is the only copy.
            return cls(
                starts=layout.starts, ends=layout.ends,
                contents={i: bytes(blob[offset + start:offset + stop])
                          for i, start, stop in layout.contents},
                validation={i: bytes(blob[offset + start:offset + stop])
                            for i, start, stop in layout.validation},
            ), end
        # Illegal header or overrun: report the first fault in field order.
        if layout.start_error is not None:
            raise TraceFormatError(layout.start_error)
        split = offset + layout.contents_end
        unpack_contents(blob[offset + 2 * table.bitvec_bytes:split],
                        layout.started, table)
        if with_validation:
            if layout.end_error is not None:
                raise TraceFormatError(layout.end_error)
            unpack_contents(blob[split:end], layout.ended_outputs, table)
        raise TraceFormatError(f"empty cycle packet at offset {offset}")


def serialize_packets(packets: List[CyclePacket], table: ChannelTable,
                      with_validation: bool) -> bytes:
    """Concatenate serialized cycle packets (the trace body)."""
    return b"".join(p.serialize(table, with_validation) for p in packets)


def iter_layouts(blob: "bytes | memoryview", table: ChannelTable,
                 with_validation: bool) -> Iterator[Tuple[int, PacketLayout]]:
    """``(offset, layout)`` of each packet of a trace body, in order.

    The walk the decoders share: it reads only headers, and at the first
    packet :meth:`CyclePacket.deserialize` would reject it raises that
    method's :class:`TraceFormatError`.
    """
    view = memoryview(blob)
    size = len(view)
    layouts: Dict[int, PacketLayout] = {}
    offset = 0
    while offset < size:
        layout = layout_at(view, offset, table, with_validation, layouts)
        if not layout.legal or offset + layout.size > size:
            CyclePacket.deserialize(view, offset, table, with_validation,
                                    layouts)
        yield offset, layout
        offset += layout.size


class TraceIndex:
    """Packet ordinal → byte offset and layout over a trace body.

    Built in one pass that reads only packet *headers* (the fixed-width
    Starts/Ends bitvectors) and takes each packet's length from its
    header's memoised :func:`packet_layout` — no contents are decoded and
    no bytes are copied — or handed ``walk``, the ``(offsets, layouts)``
    lists of the dedup expansion that wrote the body
    (:func:`~repro.core.decoder.expand_dedup_stream`), which found both
    already. With the index, replay and the divergence detector seek to
    any packet (or slice out any packet range, e.g. a replay shard) in
    O(1) instead of re-scanning the stream, and the walks that decode
    every packet read each layout from ``layouts`` instead of parsing its
    header again (:func:`decodable_index`). ``decodable`` is true when
    :meth:`CyclePacket.deserialize` accepts every packet.
    """

    def __init__(self, body: bytes, table: ChannelTable,
                 with_validation: bool,
                 walk: Optional[Tuple[List[int], List[PacketLayout]]] = None):
        self.table = table
        self.with_validation = with_validation
        self.end = len(body)
        self._body = body
        if walk is not None:
            # The expansion wrote every packet whole from a legal header.
            self.offsets, self.layouts = walk
            self.decodable = True
            return
        hbytes = 2 * table.bitvec_bytes
        memo: Dict[int, PacketLayout] = {}
        view = memoryview(body)
        size = len(view)
        offsets: List[int] = []
        layouts: List[PacketLayout] = []
        decodable = True
        offset = 0
        while offset < size:
            if offset + hbytes > size:
                raise TraceFormatError(
                    "trace truncated inside a cycle-packet header")
            header = int.from_bytes(view[offset:offset + hbytes], "little")
            layout = memo.get(header)
            if layout is None:
                layout = memo[header] = packet_layout(table, header,
                                                      with_validation)
            if not layout.legal or offset + layout.size > size:
                # Lenient like a length walk: only bitvectors too wide to
                # size a packet stop it (replay and salvage check the rest).
                if layout.started is None:
                    raise TraceFormatError(layout.start_error)
                if with_validation and layout.end_error is not None:
                    raise TraceFormatError(layout.end_error)
                decodable = False
            offsets.append(offset)
            layouts.append(layout)
            offset += layout.size
        self.offsets = offsets
        self.layouts = layouts
        self.decodable = decodable

    def __len__(self) -> int:
        return len(self.offsets)

    def offset_of(self, ordinal: int) -> int:
        """Byte offset of packet ``ordinal`` (``len(self)`` maps to the end)."""
        if ordinal == len(self.offsets):
            return self.end
        return self.offsets[ordinal]

    def slice(self, start: int, stop: int) -> bytes:
        """The body bytes spanning packets ``[start, stop)`` — a valid
        trace body of its own (used to carve replay shards)."""
        return self._body[self.offset_of(start):self.offset_of(stop)]

    def packet_at(self, ordinal: int) -> CyclePacket:
        """Decode exactly one packet — the O(1) seek replay and the
        divergence detector use."""
        packet, _ = CyclePacket.deserialize(
            memoryview(self._body), self.offsets[ordinal], self.table,
            self.with_validation)
        return packet


def decodable_index(blob: "bytes | memoryview", table: ChannelTable,
                    with_validation: bool, index: Optional[TraceIndex] = None,
                    check_ends: bool = False) -> TraceIndex:
    """``index`` (a new :class:`TraceIndex` of ``blob`` if ``None``), once
    every packet of ``blob`` is known to decode.

    For a body with a packet that does not, this raises what a walk
    decoding the packets in order (:func:`iter_layouts`) raises first:
    :meth:`CyclePacket.deserialize`'s :class:`TraceFormatError` or, with
    ``check_ends``, the error of an earlier packet whose Ends has a bit
    beyond the table. A walk that takes its index from here (and, with
    ``check_ends``, raises at such a packet itself) therefore fails
    exactly like one that parses every header.
    """
    if index is None:
        try:
            index = TraceIndex(blob, table, with_validation)
        except TraceFormatError:
            index = None   # an in-order decoding walk fails here or earlier
    if index is not None and index.decodable:
        return index
    for _offset, layout in iter_layouts(blob, table, with_validation):
        if check_ends and layout.end_error is not None:
            raise TraceFormatError(layout.end_error)
    raise AssertionError("iter_layouts accepted a body with an undecodable "
                         "packet")


def deserialize_packets(blob: bytes, table: ChannelTable,
                        with_validation: bool) -> List[CyclePacket]:
    """Parse a trace body back into its cycle packets."""
    view = memoryview(blob)
    layouts: Dict[int, PacketLayout] = {}
    packets: List[CyclePacket] = []
    offset = 0
    while offset < len(view):
        packet, offset = CyclePacket.deserialize(view, offset, table,
                                                 with_validation, layouts)
        packets.append(packet)
    return packets


def scan_packet_prefix(blob: "bytes | memoryview", table: ChannelTable,
                       with_validation: bool) -> Tuple[int, int]:
    """Length of the longest decodable packet prefix of ``blob``.

    Returns ``(n_packets, n_bytes)``: the count of cycle packets that parse
    cleanly from offset 0 and the byte offset where the first undecodable
    packet (truncation, output-start bit, empty packet, content overrun)
    begins. A fully valid body returns ``(packet_count, len(blob))``.

    This is the salvage primitive: a trace whose body was cut short by a
    crash mid-recording — or corrupted from some point onward — still
    yields a loadable, replayable prefix trace.
    """
    count = 0
    offset = 0
    try:
        for start, layout in iter_layouts(blob, table, with_validation):
            count += 1
            offset = start + layout.size
    except TraceFormatError:
        pass
    return count, offset
