"""Unit tests for channel replayers with hand-built feeds (§3.5 semantics)."""

from repro.channels import Channel, ChannelSink, ChannelSource, Field, PayloadSpec
from repro.core.decoder import ReplayElement
from repro.core.replayer import (ChannelReplayer, ReplayCoordinator,
                                 compile_elements)
from repro.core.vector_clock import VectorClock
from repro.sim import Simulator

WORD = PayloadSpec([Field("data", 16)])


def start_element(value: int, ends_mask: int = 0) -> ReplayElement:
    return ReplayElement(start=True, end=False,
                         content=value.to_bytes(2, "little"),
                         ends_mask=ends_mask)


def end_element(ends_mask: int) -> ReplayElement:
    return ReplayElement(start=False, end=True, content=None,
                         ends_mask=ends_mask)


def filler(ends_mask: int) -> ReplayElement:
    """A cycle packet in which this channel had no event."""
    return ReplayElement(start=False, end=False, content=None,
                         ends_mask=ends_mask)


def fired_payloads(sim, channel):
    """Every payload that completes a handshake on ``channel``, read by a
    cycle hook from the wires of the cycle the handshake fires in."""
    fired = []

    def sample(_cycle):
        if channel.valid.value and channel.ready.value:
            fired.append(channel.payload.value)

    sim.add_cycle_hook(sample)
    return fired


def _dependent_start_gap(prereq_first):
    """Cycles from channel 1's end to channel 0's start that depends on it."""
    sim = Simulator()
    coordinator = ReplayCoordinator(2)
    ch0 = Channel("ch0", WORD, direction="in")
    ch1 = Channel("ch1", WORD, direction="in")
    dep = ChannelReplayer("rep0", 0, ch0, coordinator, "in",
                          [filler(0b10), start_element(9), end_element(0b01)])
    pre = ChannelReplayer("rep1", 1, ch1, coordinator, "in",
                          [start_element(5), end_element(0b10)])
    sinks = [ChannelSink("sink0", ch0), ChannelSink("sink1", ch1)]
    for module in (ch0, ch1, *((pre, dep) if prereq_first else (dep, pre)),
                   *sinks):
        sim.add(module)
    first = {}

    def seen(cycle):
        for i, sink in enumerate(sinks):
            if sink.received:
                first.setdefault(i, cycle)

    sim.add_cycle_hook(seen)
    sim.run(12)
    return first[0] - first[1]


class TestInputReplayer:
    def test_replays_contents_in_order(self):
        sim = Simulator()
        coordinator = ReplayCoordinator(1)
        channel = Channel("ch", WORD, direction="in")
        feed = [start_element(5), end_element(0b1),
                start_element(6), end_element(0b1)]
        replayer = ChannelReplayer("rep", 0, channel, coordinator, "in", feed)
        sink = ChannelSink("sink", channel)
        sim.add(channel)
        sim.add(replayer)
        sim.add(sink)
        sim.run_until(lambda: len(sink.received) == 2, max_cycles=30)
        assert sink.received == [5, 6]
        assert replayer.done
        assert coordinator.current.as_tuple() == (2,)

    def test_start_gated_on_other_channels_end(self):
        """A start whose T_expected includes channel 1 waits for it."""
        sim = Simulator()
        coordinator = ReplayCoordinator(2)
        channel = Channel("ch", WORD, direction="in")
        # One prior packet recorded an end on channel 1; our start follows.
        feed = [filler(0b10), start_element(9), end_element(0b01)]
        replayer = ChannelReplayer("rep", 0, channel, coordinator, "in", feed)
        sink = ChannelSink("sink", channel)
        sim.add(channel)
        sim.add(replayer)
        sim.add(sink)
        sim.run(10)
        assert sink.received == []          # waiting on channel 1
        coordinator.complete(1)             # channel 1's transaction ends
        sim.run(5)
        assert sink.received == [9]
        # With a replayer on channel 1, our start fires 1 cycle after its
        # end when that replayer runs before ours, 2 cycles when after.
        for prereq_first, gap in ((True, 1), (False, 2)):
            assert _dependent_start_gap(prereq_first) == gap

    def test_done_requires_drained_queue(self):
        sim = Simulator()
        coordinator = ReplayCoordinator(1)
        channel = Channel("ch", WORD, direction="in")
        feed = [start_element(1), end_element(0b1)]
        replayer = ChannelReplayer("rep", 0, channel, coordinator, "in", feed)
        sim.add(channel)
        sim.add(replayer)
        sim.run(5)                          # no sink: never fires
        assert not replayer.done


class TestOutputReplayer:
    def test_meters_ready_one_end_per_credit(self):
        sim = Simulator()
        coordinator = ReplayCoordinator(1)
        channel = Channel("ch", WORD, direction="out")
        feed = [end_element(0b1)]
        replayer = ChannelReplayer("rep", 0, channel, coordinator, "out", feed)
        source = ChannelSource("src", channel)
        sim.add(channel)
        sim.add(source)
        sim.add(replayer)
        fired = fired_payloads(sim, channel)
        source.send({"data": 0xAB})
        source.send({"data": 0xCD})
        sim.run(15)
        # Only one credit was in the trace: the second transaction stalls.
        assert replayer.replayed_transactions == 1
        assert channel.valid.value == 1 and channel.ready.value == 0
        assert fired == [0xAB]
        assert channel.payload.value == 0xCD

    def test_end_order_enforced_across_channels(self):
        """Channel 0's end must wait for channel 1's recorded end."""
        sim = Simulator()
        coordinator = ReplayCoordinator(2)
        channel = Channel("ch", WORD, direction="out")
        feed = [filler(0b10), end_element(0b01)]
        replayer = ChannelReplayer("rep", 0, channel, coordinator, "out", feed)
        source = ChannelSource("src", channel)
        sim.add(channel)
        sim.add(source)
        sim.add(replayer)
        source.send({"data": 1})
        sim.run(10)
        assert replayer.replayed_transactions == 0   # gated
        coordinator.complete(1)
        sim.run(5)
        assert replayer.replayed_transactions == 1
        assert replayer.done

    def test_validation_contents_capture_payloads(self):
        sim = Simulator()
        coordinator = ReplayCoordinator(1)
        channel = Channel("ch", WORD, direction="out")
        feed = [end_element(0b1), end_element(0b1)]
        replayer = ChannelReplayer("rep", 0, channel, coordinator, "out", feed)
        source = ChannelSource("src", channel)
        sim.add(channel)
        sim.add(source)
        sim.add(replayer)
        fired = fired_payloads(sim, channel)
        for value in (0x11, 0x22):
            source.send({"data": value})
        sim.run_until(lambda: replayer.done, max_cycles=30)
        assert fired == [0x11, 0x22]
        assert replayer.replayed_transactions == 2


class TestCoordinator:
    def test_version_bumps_on_completion(self):
        coordinator = ReplayCoordinator(3)
        v0 = coordinator.version
        coordinator.complete(2)
        assert coordinator.version == v0 + 1
        assert coordinator.current.as_tuple() == (0, 0, 1)

        # Exact-count release, registered by the replayers' own walks: on
        # channel 1 two wait for count 2, one for 1 and one for 4; one
        # waits on channel 0 for 1. Each is released by the completion
        # that reaches its count, and only then.
        coordinator = ReplayCoordinator(3)
        waits = [(1, 2), (1, 2), (1, 1), (1, 4), (0, 1)]
        replayers = []
        for i, (index, count) in enumerate(waits):
            feed = [filler(1 << index)] * count + [start_element(i)]
            replayer = ChannelReplayer(f"r{i}", 2, Channel(f"ch{i}", WORD),
                                       coordinator, "in", feed)
            replayer.seq()          # blocked on (index, count): waits
            replayers.append(replayer)
        assert coordinator.waiters[1] == {2: replayers[:2],
                                          1: [replayers[2]],
                                          4: [replayers[3]]}
        assert coordinator.waiters[0] == {1: [replayers[4]]}

        def gated():
            return [r._gated for r in replayers]

        coordinator.complete(1)
        assert gated() == [True, True, False, True, True]
        coordinator.complete(1)
        assert gated() == [False, False, False, True, True]
        coordinator.complete(2)     # nobody waits on channel 2
        coordinator.complete(1)     # count 3: nobody waits for it
        assert gated() == [False, False, False, True, True]
        # The later count stays registered, and nothing else does.
        assert coordinator.waiters == [{1: [replayers[4]]},
                                       {4: [replayers[3]]}, {}]
        coordinator.complete(0)
        assert gated() == [False, False, False, True, False]
        replayers[0].seq()          # its start is now met: out of actions
        assert replayers[0]._action_pos == 1
        coordinator.reset(live=5)
        assert coordinator.waiters == [{}, {}, {}]
        assert coordinator.current.as_tuple() == (0, 0, 0)


class TestDeltaNeeds:
    """The incremental T_expected check used by the replayer's fast walk.

    ``compile_elements`` (like ``TraceDecoder.compact_feeds``) keeps, per
    action, only the vector-clock entries that *grew* since the previous
    action. That is equivalent to the full ``geq`` check because actions
    are consumed strictly in order (earlier entries were already
    satisfied when the walk advanced) and ``T_current`` is monotone (a
    satisfied entry stays satisfied).
    """

    @staticmethod
    def _needs(*count_rows):
        """The needs ``compile_elements`` finds for an output feed whose
        actions have the full ``T_expected`` clocks ``count_rows``: filler
        elements carry the ends that raise each clock to the next row."""
        feed, counts = [], [0] * len(count_rows[0])
        for row in count_rows:
            while list(row) != counts:
                mask = 0
                for i, (have, want) in enumerate(zip(counts, row)):
                    if have < want:
                        mask |= 1 << i
                        counts[i] += 1
                feed.append(filler(mask))
            feed.append(end_element(0))
        actions, needs = compile_elements(feed, "out", len(counts))
        assert actions == [None] * len(count_rows)
        return needs

    def test_first_action_keeps_every_nonzero_entry(self):
        needs = self._needs((0, 2, 1))
        assert needs == [((1, 2), (2, 1))]

    def test_later_actions_keep_only_the_increments(self):
        needs = self._needs((1, 0, 0), (1, 0, 0), (1, 3, 0), (2, 3, 1))
        assert needs == [((0, 1),), (), ((1, 3),), ((0, 2), (2, 1))]

    def test_delta_walk_equals_full_geq_walk(self):
        """Sequential consumption under a monotone clock: the delta check
        admits exactly the same prefix as geq at every step."""
        rows = [(0, 0, 0), (1, 0, 0), (1, 2, 0), (1, 2, 0), (2, 2, 3)]
        needs = self._needs(*rows)
        # A monotone sequence of observed T_current states.
        states = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 2, 2),
                  (2, 2, 2), (2, 2, 3), (5, 5, 5)]
        pos_delta = pos_geq = 0
        for counts in states:
            current = VectorClock(list(counts))
            while (pos_delta < len(rows)
                   and all(current.counts[i] >= c
                           for i, c in needs[pos_delta])):
                pos_delta += 1
            while (pos_geq < len(rows)
                   and current.geq(VectorClock(list(rows[pos_geq])))):
                pos_geq += 1
            assert pos_delta == pos_geq
        assert pos_delta == len(rows)
