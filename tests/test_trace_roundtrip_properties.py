"""Property tests: the zero-copy trace datapath against reference encodings.

Random channel tables, contents and validation payloads, checked three ways:

* the staged ``serialize_into`` path is byte-identical to the seed
  algorithm (bitvectors + binary-reduction-tree ``pack_contents`` joins);
* the memoryview deserialize path round-trips every packet exactly;
* the :class:`~repro.core.packets.TraceIndex` agrees with a sequential
  scan, its slices are valid standalone bodies, and the one-pass compact
  feeds' payload words and delta needs match the legacy element-feed
  compilation under the delta rule (full prefix-sum clocks, diffed);
* every header-memoised body walk (decode, salvage scan, index, dedup
  expansion and the index it keeps, compact feeds, divergence records,
  backref scan, trace comparison) equals a per-packet reference loop kept
  below, on valid bodies and on truncated or malformed ones, error
  messages included.
"""

import random

import pytest

from repro.core.contents_tree import pack_contents, unpack_contents
from repro.core.decoder import (CompactFeed, TraceDecoder,
                                expand_dedup_stream)
from repro.core.divergence import (Divergence, DivergenceReport,
                                   _output_end_records, compare_traces)
from repro.core.events import ChannelInfo, ChannelTable
from repro.core.mutation import _backref_offsets
from repro.core.packets import (
    DEDUP_MIN_BYTES,
    DEDUP_SLOT_BYTES,
    CyclePacket,
    DedupDict,
    deserialize_packets,
    iter_bits,
    scan_packet_prefix,
    serialize_packets,
)
from repro.core.replayer import compile_elements
from repro.core.trace_file import TraceFile, TraceIndex
from repro.errors import TraceFormatError


def random_table(rng):
    n = rng.randint(1, 12)
    infos = [
        ChannelInfo(
            index=i,
            name=f"iface.ch{i}",
            direction=rng.choice(("in", "out")),
            content_bytes=rng.randint(1, 9),
            payload_bits=rng.randint(1, 64),
        )
        for i in range(n)
    ]
    return ChannelTable(infos)


def random_bytes(rng, length):
    return bytes(rng.getrandbits(8) for _ in range(length))


def random_packet(rng, table, with_validation, pools=None):
    """A non-empty cycle packet respecting the table's directions.

    With ``pools`` (channel -> candidate payloads) payloads repeat, so a
    dedup-coded stream of the packets carries backrefs.
    """
    def payload(i):
        if pools is None:
            return random_bytes(rng, table[i].content_bytes)
        return rng.choice(pools[i])

    while True:
        starts = 0
        contents = {}
        for i in table.input_indices:
            if rng.random() < 0.4:
                starts |= 1 << i
                contents[i] = payload(i)
        ends = 0
        validation = {}
        for i in range(table.n):
            if rng.random() < 0.4:
                ends |= 1 << i
                if with_validation and not table.is_input(i):
                    validation[i] = payload(i)
        if starts or ends:
            return CyclePacket(starts=starts, ends=ends, contents=contents,
                               validation=validation)


def random_trace(rng, with_validation, max_packets=40, repeats=False):
    table = random_table(rng)
    pools = None
    if repeats:
        pools = {i: [random_bytes(rng, table[i].content_bytes)
                     for _ in range(2)] for i in range(table.n)}
    packets = [random_packet(rng, table, with_validation, pools)
               for _ in range(rng.randint(1, max_packets))]
    body = serialize_packets(packets, table, with_validation)
    return table, packets, body


def reference_serialize(packet, table, with_validation):
    """The seed encoder's algorithm: bitvectors + reduction-tree joins."""
    out = packet.starts.to_bytes(table.bitvec_bytes, "little")
    out += packet.ends.to_bytes(table.bitvec_bytes, "little")
    out += pack_contents(packet.contents.items())
    if with_validation:
        out += pack_contents(packet.validation.items())
    return out


SEEDS = list(range(8))


class TestSerializationEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("with_validation", [True, False])
    def test_staged_path_matches_reference(self, seed, with_validation):
        rng = random.Random(seed)
        table, packets, body = random_trace(rng, with_validation)
        reference = b"".join(
            reference_serialize(p, table, with_validation) for p in packets)
        assert body == reference

    @pytest.mark.parametrize("seed", SEEDS)
    def test_serialize_into_appends(self, seed):
        """serialize_into extends the caller's buffer without clearing it."""
        rng = random.Random(seed)
        table, packets, _body = random_trace(rng, True)
        stage = bytearray(b"prefix")
        packets[0].serialize_into(stage, table, True)
        assert bytes(stage) == b"prefix" + packets[0].serialize(table, True)


class TestDeserializationRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("with_validation", [True, False])
    def test_round_trip(self, seed, with_validation):
        rng = random.Random(seed)
        table, packets, body = random_trace(rng, with_validation)
        decoded = deserialize_packets(body, table, with_validation)
        assert decoded == packets

    @pytest.mark.parametrize("seed", SEEDS)
    def test_memoryview_slice_of_larger_buffer(self, seed):
        """Decoding must not assume the body starts at the buffer origin."""
        rng = random.Random(seed)
        table, packets, body = random_trace(rng, True)
        padded = memoryview(b"\xAA" * 7 + body + b"\xBB" * 3)
        view = padded[7:7 + len(body)]
        offset = 0
        decoded = []
        while offset < len(view):
            packet, offset = CyclePacket.deserialize(view, offset, table, True)
            decoded.append(packet)
        assert decoded == packets

    @pytest.mark.parametrize("seed", SEEDS)
    def test_iter_packets_matches_packets(self, seed):
        rng = random.Random(seed)
        table, packets, body = random_trace(rng, True)
        trace = TraceFile(table=table, body=body, with_validation=True)
        assert list(trace.iter_packets()) == trace.packets() == packets


class TestTraceIndex:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("with_validation", [True, False])
    def test_offsets_match_sequential_scan(self, seed, with_validation):
        rng = random.Random(seed)
        table, packets, body = random_trace(rng, with_validation)
        index = TraceIndex(body, table, with_validation)
        assert len(index) == len(packets)
        view = memoryview(body)
        offset = 0
        for ordinal in range(len(packets)):
            assert index.offset_of(ordinal) == offset
            _packet, offset = CyclePacket.deserialize(
                view, offset, table, with_validation)
        assert index.offset_of(len(packets)) == len(body) == index.end

    @pytest.mark.parametrize("seed", SEEDS)
    def test_packet_at_random_ordinals(self, seed):
        rng = random.Random(seed)
        table, packets, body = random_trace(rng, True)
        index = TraceIndex(body, table, True)
        for _ in range(10):
            ordinal = rng.randrange(len(packets))
            assert index.packet_at(ordinal) == packets[ordinal]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_slices_are_standalone_bodies(self, seed):
        rng = random.Random(seed)
        table, packets, body = random_trace(rng, True)
        index = TraceIndex(body, table, True)
        n = len(packets)
        cuts = sorted({0, n, rng.randint(0, n), rng.randint(0, n)})
        assert b"".join(index.slice(a, b)
                        for a, b in zip(cuts, cuts[1:])) == body
        for a, b in zip(cuts, cuts[1:]):
            assert deserialize_packets(index.slice(a, b), table, True) \
                == packets[a:b]


def delta_needs(clocks):
    """The delta rule: per action, the entries of its full ``T_expected``
    clock that grew since the previous action's (all nonzero for the
    first)."""
    needs, prev = [], None
    for clock in clocks:
        needs.append(tuple((i, c) for i, c in enumerate(clock)
                           if c > (prev[i] if prev else 0)))
        prev = clock
    return needs


def ref_compile_elements(feed, direction, n):
    """An element feed's payload words and full ``T_expected`` clocks: the
    replayer's original incremental walk, summing ``ends_mask`` fields."""
    counts = [0] * n
    words, clocks = [], []
    for element in feed:
        if element.start and direction == "in":
            words.append(int.from_bytes(element.content, "little"))
            clocks.append(tuple(counts))
        elif element.end and direction == "out":
            words.append(None)
            clocks.append(tuple(counts))
        for i in range(n):
            if (element.ends_mask >> i) & 1:
                counts[i] += 1
    return words, clocks


class TestCompactFeeds:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("with_validation", [True, False])
    def test_one_pass_feeds_match_legacy_compilation(self, seed,
                                                     with_validation):
        rng = random.Random(seed)
        table, packets, body = random_trace(rng, with_validation)
        decoder = TraceDecoder(table, with_validation=with_validation)
        feeds = decoder.compact_feeds(body)
        assert [feed.index for feed in feeds] == list(range(table.n))
        for i, feed in enumerate(feeds):
            direction = table[i].direction
            assert feed.direction == direction
            legacy = decoder.channel_feed(packets, i)
            words, clocks = ref_compile_elements(legacy, direction, table.n)
            compiled = (words, delta_needs(clocks))
            assert (feed.actions, feed.needs) == compiled
            assert compile_elements(legacy, direction, table.n) == compiled


# ----------------------------------------------------------------------
# Differential tests: the header-memoised walks against per-packet loops.
# The ref_* functions below are the decoders as they were before packet
# layouts were memoised per header; each walk must agree with its loop
# on every input, including the exception type and message it raises.
# ----------------------------------------------------------------------

def ref_deserialize(blob, offset, table, with_validation):
    nbytes = table.bitvec_bytes
    if offset + 2 * nbytes > len(blob):
        raise TraceFormatError("trace truncated inside a cycle-packet header")
    starts = int.from_bytes(blob[offset:offset + nbytes], "little")
    ends = int.from_bytes(blob[offset + nbytes:offset + 2 * nbytes], "little")
    cursor = offset + 2 * nbytes
    started = iter_bits(starts, table.n)
    for index in started:
        if not table.is_input(index):
            raise TraceFormatError(
                f"start bit set for output channel {table[index].name}")
    content_len = sum(table[i].content_bytes for i in started)
    contents = unpack_contents(blob[cursor:cursor + content_len], started,
                               table)
    cursor += content_len
    validation = {}
    if with_validation:
        ended_outputs = [i for i in iter_bits(ends, table.n)
                         if not table.is_input(i)]
        val_len = sum(table[i].content_bytes for i in ended_outputs)
        validation = unpack_contents(blob[cursor:cursor + val_len],
                                     ended_outputs, table)
        cursor += val_len
    packet = CyclePacket(starts=starts, ends=ends, contents=contents,
                         validation=validation)
    if packet.is_empty:
        raise TraceFormatError(f"empty cycle packet at offset {offset}")
    return packet, cursor


def ref_deserialize_packets(blob, table, with_validation):
    view = memoryview(blob)
    packets = []
    offset = 0
    while offset < len(view):
        packet, offset = ref_deserialize(view, offset, table, with_validation)
        packets.append(packet)
    return packets


def ref_scan_packet_prefix(blob, table, with_validation):
    view = memoryview(blob)
    offset = count = 0
    while offset < len(view):
        try:
            _, next_offset = ref_deserialize(view, offset, table,
                                             with_validation)
        except TraceFormatError:
            break
        offset = next_offset
        count += 1
    return count, offset


def ref_index_offsets(body, table, with_validation):
    nbytes = table.bitvec_bytes
    view = memoryview(body)
    offsets = []
    offset = 0
    while offset < len(view):
        if offset + 2 * nbytes > len(view):
            raise TraceFormatError(
                "trace truncated inside a cycle-packet header")
        offsets.append(offset)
        starts = int.from_bytes(view[offset:offset + nbytes], "little")
        ends = int.from_bytes(view[offset + nbytes:offset + 2 * nbytes],
                              "little")
        offset += 2 * nbytes
        for i in iter_bits(starts, table.n):
            offset += table[i].content_bytes
        if with_validation:
            for i in iter_bits(ends, table.n):
                if not table.is_input(i):
                    offset += table[i].content_bytes
    return offsets


def _ref_entries(table, starts, ends, with_validation):
    entries = [(i, table[i].content_bytes) for i in iter_bits(starts, table.n)]
    if with_validation:
        entries += [(i, table[i].content_bytes)
                    for i in iter_bits(ends, table.n) if not table.is_input(i)]
    return entries


def ref_expand_dedup_stream(stream, table, with_validation, dedup, out,
                            tolerate_tail=False):
    view = memoryview(stream)
    size = len(view)
    nbytes = table.bitvec_bytes
    offset = count = 0
    while offset < size:
        mark = len(out)
        try:
            if offset + 2 * nbytes > size:
                raise TraceFormatError(
                    "dedup stream truncated inside a cycle-packet header")
            starts = int.from_bytes(view[offset:offset + nbytes], "little")
            ends = int.from_bytes(
                view[offset + nbytes:offset + 2 * nbytes], "little")
            if starts == 0 and ends == 0:
                raise TraceFormatError(
                    f"empty cycle packet at dedup-stream offset {offset}")
            for i in iter_bits(starts, table.n):
                if not table.is_input(i):
                    raise TraceFormatError(
                        f"start bit set for output channel {table[i].name}")
            entries = _ref_entries(table, starts, ends, with_validation)
            cursor = offset + 2 * nbytes
            mask = 0
            if any(width >= DEDUP_MIN_BYTES for _, width in entries):
                if cursor + nbytes > size:
                    raise TraceFormatError(
                        "dedup stream truncated inside a dedup mask")
                mask = int.from_bytes(view[cursor:cursor + nbytes], "little")
                cursor += nbytes
                eligible = 0
                for i, width in entries:
                    if width >= DEDUP_MIN_BYTES:
                        eligible |= 1 << i
                if mask & ~eligible:
                    raise TraceFormatError(
                        "dedup mask bit set for an ineligible channel")
            out += starts.to_bytes(nbytes, "little")
            out += ends.to_bytes(nbytes, "little")
            for i, width in entries:
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


def ref_compact_feeds(blob, table, with_validation):
    n = table.n
    counts = [0] * n
    words = [[] for _ in range(n)]
    clocks = [[] for _ in range(n)]
    view = memoryview(blob)
    offset = 0
    while offset < len(view):
        packet, offset = ref_deserialize(view, offset, table, with_validation)
        snapshot = tuple(counts)
        if packet.starts:
            for i in iter_bits(packet.starts, n):
                words[i].append(int.from_bytes(packet.contents[i], "little"))
                clocks[i].append(snapshot)
        if packet.ends:
            ended = iter_bits(packet.ends, n)
            for i in ended:
                if not table.is_input(i):
                    words[i].append(None)
                    clocks[i].append(snapshot)
            for i in ended:
                counts[i] += 1
    return [CompactFeed(i, "in" if table.is_input(i) else "out", words[i],
                        delta_needs(clocks[i])) for i in range(n)]


def ref_output_end_records(trace, table):
    outputs = list(table.output_indices)
    position = {ch: i for i, ch in enumerate(outputs)}
    counts = [0] * len(outputs)
    records = {ch: [] for ch in outputs}
    for packet in ref_deserialize_packets(trace.body, trace.table,
                                          trace.with_validation):
        snapshot = tuple(counts)
        ended_outputs = [ch for ch in outputs if (packet.ends >> ch) & 1]
        for ch in ended_outputs:
            records[ch].append((packet.validation.get(ch, b""), snapshot))
        for ch in ended_outputs:
            counts[position[ch]] += 1
    return records


def ref_backref_offsets(stream, table, with_validation):
    nbytes = table.bitvec_bytes
    offsets = []
    offset = 0
    while offset + 2 * nbytes <= len(stream):
        starts = int.from_bytes(stream[offset:offset + nbytes], "little")
        ends = int.from_bytes(
            stream[offset + nbytes:offset + 2 * nbytes], "little")
        entries = _ref_entries(table, starts, ends, with_validation)
        cursor = offset + 2 * nbytes
        mask = 0
        if any(width >= DEDUP_MIN_BYTES for _, width in entries):
            mask = int.from_bytes(stream[cursor:cursor + nbytes], "little")
            cursor += nbytes
        for i, width in entries:
            if (mask >> i) & 1:
                offsets.append(cursor)
                cursor += DEDUP_SLOT_BYTES
            else:
                cursor += width
        offset = cursor
    return offsets


def ref_compare_traces(reference, validation, prefix=False):
    table = reference.table
    ref_records = ref_output_end_records(reference, table)
    val_records = ref_output_end_records(validation, table)
    divergences = []
    total = 0
    for ch in table.output_indices:
        name = table[ch].name
        ref, val = ref_records[ch], val_records[ch]
        if len(ref) != len(val) and not prefix:
            divergences.append(Divergence(
                kind="count", channel=name, occurrence=min(len(ref), len(val)),
                detail=(f"recorded {len(ref)} transactions, "
                        f"replayed {len(val)}")))
        for k, ((ref_content, ref_vc), (val_content, val_vc)) in enumerate(
                zip(ref, val)):
            total += 1
            if ref_content != val_content:
                divergences.append(Divergence(
                    kind="content", channel=name, occurrence=k,
                    detail=(f"content {ref_content.hex()} -> "
                            f"{val_content.hex()} "
                            f"after {k} completions on this channel")))
            for j, (ref_n, val_n) in enumerate(zip(ref_vc, val_vc)):
                if val_n < ref_n:
                    other = table[table.output_indices[j]].name
                    divergences.append(Divergence(
                        kind="ordering", channel=name, occurrence=k,
                        detail=(f"recorded after {ref_n} ends on {other}, "
                                f"replayed after only {val_n}")))
    return DivergenceReport(divergences=divergences, output_transactions=total,
                            channels_compared=len(table.output_indices))


def outcome(fn, *args, **kwargs):
    """``("ok", result)``, or the exception's type and message."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:   # compared, never swallowed: see callers
        return type(exc), str(exc)


def dedup_stream(packets, table, with_validation, slots):
    """The dedup-coded stream of ``packets`` and each packet's offset."""
    dedup = DedupDict(slots)
    stream = bytearray()
    offsets = []
    for packet in packets:
        offsets.append(len(stream))
        packet.serialize_into(stream, table, with_validation, dedup=dedup)
    return bytes(stream), offsets


def body_offsets(packets, table, with_validation):
    offsets, offset = [], 0
    for packet in packets:
        offsets.append(offset)
        offset += len(packet.serialize(table, with_validation))
    return offsets


def malformed(rng, table, blob, offsets):
    """``(label, bytes)``: ``blob`` cut at every byte; then one packet's
    header given a Starts or Ends bit at or above the channel count, a
    start bit on an output channel, or all zeros — each whole and cut at
    every byte of that packet's payload."""
    for cut in range(len(blob)):
        yield f"cut at {cut}", blob[:cut]
    nbytes = table.bitvec_bytes
    width = 8 * nbytes
    ordinal = rng.randrange(len(offsets))
    offset = offsets[ordinal]
    stop = (offsets + [len(blob)])[ordinal + 1]
    starts = int.from_bytes(blob[offset:offset + nbytes], "little")
    ends = int.from_bytes(blob[offset + nbytes:offset + 2 * nbytes], "little")
    faults = {"all-zero header": (0, 0)}
    if table.n < width:
        high = 1 << rng.randrange(table.n, width)
        faults["Starts bit >= n"] = (starts | high, ends)
        faults["Ends bit >= n"] = (starts, ends | high)
    if table.output_indices:
        faults["output start"] = (
            starts | 1 << rng.choice(table.output_indices), ends)
    for label, (new_starts, new_ends) in faults.items():
        header = new_starts | new_ends << width
        damaged = (blob[:offset] + header.to_bytes(2 * nbytes, "little")
                   + blob[offset + 2 * nbytes:])
        yield label, damaged
        for cut in range(offset + 2 * nbytes, stop):
            yield f"{label}, cut at {cut}", damaged[:cut]


def body_walks(table, body, with_validation):
    """Each flat-body walk next to its reference loop; the walks that can
    read a packet index run without one and with a header walk's."""
    trace = TraceFile(table=table, body=body, with_validation=with_validation)
    decoder = TraceDecoder(table, with_validation=with_validation)
    status, index = outcome(TraceIndex, body, table, with_validation)
    indexed = TraceFile(table=table, body=body,
                        with_validation=with_validation,
                        packet_index=index if status == "ok" else None)
    return {
        "deserialize_packets": (
            outcome(deserialize_packets, body, table, with_validation),
            outcome(ref_deserialize_packets, body, table, with_validation)),
        "iter_packets": (
            outcome(lambda: list(trace.iter_packets())),
            outcome(ref_deserialize_packets, body, table, with_validation)),
        "scan_packet_prefix": (
            outcome(scan_packet_prefix, body, table, with_validation),
            outcome(ref_scan_packet_prefix, body, table, with_validation)),
        "TraceIndex": (
            outcome(lambda: TraceIndex(body, table, with_validation).offsets),
            outcome(ref_index_offsets, body, table, with_validation)),
        "compact_feeds": (
            outcome(decoder.compact_feeds, body),
            outcome(ref_compact_feeds, body, table, with_validation)),
        "_output_end_records": (
            outcome(_output_end_records, trace, table),
            outcome(ref_output_end_records, trace, table)),
        "compact_feeds over an index": (
            outcome(decoder.compact_feeds, body, indexed.packet_index),
            outcome(ref_compact_feeds, body, table, with_validation)),
        "_output_end_records over an index": (
            outcome(_output_end_records, indexed, table),
            outcome(ref_output_end_records, trace, table)),
    }


def stream_walks(table, stream, with_validation, slots):
    """Each dedup-stream walk next to its reference loop; an expansion's
    result includes its output bytes and the dictionary's counters."""
    def expand(fn, tolerate_tail):
        dedup, out = DedupDict(slots), bytearray()
        n, consumed = fn(stream, table, with_validation, dedup, out,
                         tolerate_tail=tolerate_tail)
        return n, consumed, bytes(out), dedup.hits, dedup.inserts

    def expanded(tolerate_tail):
        """The body the expansion writes and the packet index it keeps,
        as the trace :meth:`TraceFile.from_bytes` would load."""
        walk, out = ([], []), bytearray()
        expand_dedup_stream(stream, table, with_validation,
                            DedupDict(slots, encoding=False), out,
                            tolerate_tail=tolerate_tail, index=walk)
        body = bytes(out)
        return walk[0], TraceFile(
            table=table, body=body, with_validation=with_validation,
            packet_index=TraceIndex(body, table, with_validation, walk))

    def ref_expanded(tolerate_tail):
        out = bytearray()
        ref_expand_dedup_stream(stream, table, with_validation,
                                DedupDict(slots), out,
                                tolerate_tail=tolerate_tail)
        body = bytes(out)
        return (ref_index_offsets(body, table, with_validation),
                TraceFile(table=table, body=body,
                          with_validation=with_validation))

    walks = {
        "_backref_offsets": (
            outcome(_backref_offsets, stream, table, with_validation),
            outcome(ref_backref_offsets, stream, table, with_validation)),
    }
    decoder = TraceDecoder(table, with_validation=with_validation)
    for tolerate in (False, True):
        walks[f"expand tolerate_tail={tolerate}"] = (
            outcome(expand, expand_dedup_stream, tolerate),
            outcome(expand, ref_expand_dedup_stream, tolerate))
        got, want = outcome(expanded, tolerate), outcome(ref_expanded, tolerate)
        if got[0] != "ok" or want[0] != "ok":
            continue   # the expansion failed alike (compared above)
        (offsets, trace), (ref_offsets, ref_trace) = got[1], want[1]
        walks[f"expansion index tolerate_tail={tolerate}"] = (
            ("ok", offsets), ("ok", ref_offsets))
        walks[f"compact_feeds over the expansion index "
              f"tolerate_tail={tolerate}"] = (
            outcome(decoder.compact_feeds, trace.body, trace.packet_index),
            outcome(ref_compact_feeds, ref_trace.body, table,
                    with_validation))
        walks[f"_output_end_records over the expansion index "
              f"tolerate_tail={tolerate}"] = (
            outcome(_output_end_records, trace, table),
            outcome(ref_output_end_records, ref_trace, table))
    return walks


def assert_walks_agree(walks, label=""):
    for name, (got, want) in walks.items():
        assert got == want, f"{name} {label}"


# The differential tests below loop over their cases rather than
# parametrizing them, so the suite reports one line per walk; every
# assertion message names the failing case.
CASES = [(seed, with_validation)
         for with_validation in (True, False) for seed in SEEDS]


class TestHeaderMemoisedWalks:
    def test_body_walks_match_reference(self):
        for seed, with_validation in CASES:
            case = f"seed={seed} with_validation={with_validation}"
            rng = random.Random(seed)
            table, packets, body = random_trace(rng, with_validation)
            walks = body_walks(table, body, with_validation)
            assert walks["deserialize_packets"][0] == ("ok", packets), case
            assert_walks_agree(walks, case)

    def test_stream_walks_match_reference(self):
        for seed, with_validation in CASES:
            case = f"seed={seed} with_validation={with_validation}"
            rng = random.Random(seed)
            table, packets, body = random_trace(rng, with_validation,
                                                repeats=True)
            slots = rng.randint(1, 4)
            stream, _ = dedup_stream(packets, table, with_validation, slots)
            walks = stream_walks(table, stream, with_validation, slots)
            assert walks["expand tolerate_tail=False"][0][1][2] == body, case
            assert_walks_agree(walks, case)

    def test_streams_carry_backrefs(self):
        """The stream cases above exercise backrefs, not only literals."""
        backrefs = 0
        for seed in SEEDS:
            rng = random.Random(seed)
            table, packets, _ = random_trace(rng, True, repeats=True)
            stream, _ = dedup_stream(packets, table, True,
                                     rng.randint(1, 4))
            backrefs += len(ref_backref_offsets(stream, table, True))
        assert backrefs > 0

    def test_malformed_bodies_fail_like_reference(self):
        for seed, with_validation in CASES:
            case = f"seed={seed} with_validation={with_validation}"
            rng = random.Random(seed)
            table, packets, body = random_trace(rng, with_validation,
                                                max_packets=6)
            offsets = body_offsets(packets, table, with_validation)
            for label, damaged in malformed(rng, table, body, offsets):
                assert_walks_agree(
                    body_walks(table, damaged, with_validation),
                    f"{case}, {label}")

    def test_malformed_streams_fail_like_reference(self):
        for seed, with_validation in CASES:
            case = f"seed={seed} with_validation={with_validation}"
            rng = random.Random(seed)
            table, packets, _ = random_trace(rng, with_validation,
                                             max_packets=6, repeats=True)
            slots = rng.randint(1, 4)
            stream, offsets = dedup_stream(packets, table, with_validation,
                                           slots)
            for label, damaged in malformed(rng, table, stream, offsets):
                assert_walks_agree(
                    stream_walks(table, damaged, with_validation, slots),
                    f"{case}, {label}")


def output_only(packets, table):
    """What a validation trace of ``packets`` holds: output ends only."""
    outputs = 0
    for i in table.output_indices:
        outputs |= 1 << i
    kept = []
    for packet in packets:
        if packet.ends & outputs:
            kept.append(CyclePacket(ends=packet.ends & outputs,
                                    validation=dict(packet.validation)))
    return kept


def diverge(rng, packets, kind):
    """A copy of ``packets`` with one divergence of ``kind`` (``None``
    when ``packets`` offer no place for it)."""
    packets = [CyclePacket(ends=p.ends, validation=dict(p.validation))
               for p in packets]
    if kind == "content":
        packet = rng.choice(packets)
        ch = rng.choice(sorted(packet.validation))
        old = packet.validation[ch]
        packet.validation[ch] = bytes([old[0] ^ 0xFF]) + old[1:]
    elif kind == "count":
        index = rng.randrange(len(packets))
        packet = packets[index]
        ch = rng.choice(sorted(packet.validation))
        packet.ends &= ~(1 << ch)
        del packet.validation[ch]
        if not packet.ends:
            del packets[index]
    else:   # ordering: swap two neighbours that each end a channel
        #     the other does not, so neither end's occurrence shifts
        swaps = [i for i in range(len(packets) - 1)
                 if packets[i].ends & ~packets[i + 1].ends
                 and packets[i + 1].ends & ~packets[i].ends]
        if not swaps:
            return None
        i = rng.choice(swaps)
        packets[i], packets[i + 1] = packets[i + 1], packets[i]
    return packets


def check_compare_case(seed, kind, prefix):
    """``compare_traces`` equals its reference on one diverging pair, in
    both argument orders, and reports the divergence it was given."""
    case = f"seed={seed} kind={kind} prefix={prefix}"
    rng = random.Random(seed)
    diverged = None
    while diverged is None:
        table, packets, body = random_trace(rng, True)
        replayed = output_only(packets, table)
        if replayed:
            diverged = diverge(rng, replayed, kind)
    reference = TraceFile(table=table, body=body)
    validation = TraceFile.from_packets(table, diverged)
    for pair in ((reference, validation), (validation, reference)):
        got = compare_traces(*pair, prefix=prefix)
        assert got == ref_compare_traces(*pair, prefix=prefix), case
    if not (prefix and kind == "count"):
        assert compare_traces(reference, validation,
                              prefix=prefix).of_kind(kind), case


class TestCompareTraces:
    def test_matches_reference_on_diverging_pairs(self):
        for seed in SEEDS:
            for kind in ("content", "count", "ordering"):
                for prefix in (False, True):
                    check_compare_case(seed, kind, prefix)
