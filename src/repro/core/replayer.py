"""Channel replayers and their vector-clock coordination (§3.5).

During replay every monitored channel gets a replayer:

* an **input replayer** is the channel's sender: it recreates each recorded
  input transaction — same content, and started only once every recorded
  happens-before prerequisite (``T_current >= T_expected``) is satisfied;
* an **output replayer** is the channel's receiver: it controls when output
  transactions may *end* by granting READY one recorded end at a time,
  again gated on the vector clocks.

``T_expected`` accumulates the ``Ends`` bitvectors of consumed trace
elements; ``T_current`` counts transactions that actually completed, shared
through a :class:`ReplayCoordinator` (the broadcast bus of the paper's
design). A completion is observed in the sequential phase of the cycle its
handshake fires and is visible at once: a replayer later in elaboration
order acts on it in that same cycle, one earlier in elaboration order in
the next cycle — so a dependent start fires 1 or 2 cycles after its
prerequisite's end, depending on the two replayers' order.

A replayer whose next action is blocked waits on the *first* unmet
``(channel, count)`` entry of that action's prerequisites: it registers
with the coordinator as a waiter on that count of that channel and stays
idle (its ``seq()`` skips the action walk) until the completion that
brings the channel to the count releases it. Replay cost therefore follows
the completions that happen, not the number of replayers.

Replayers consume a :class:`~repro.core.decoder.CompactFeed` — only the
events this channel must gate, each with its delta prerequisites (the
``T_expected`` entries that grew since the previous action, see
:data:`~repro.core.decoder.Needs`), taken as the decoder emitted them — so
a replayer's sequential process walks O(own events) instead of O(all
packets) and checks O(entries that grew) per action. No full
``T_expected`` clock is kept: a stall report rebuilds the stuck action's
from the needs prefix. Legacy element feeds (``List[ReplayElement]``, the
one-element-per-packet hardware decomposition) are accepted too and
compiled to the same form at construction; the semantics are identical,
as ``tests/test_replayer_unit.py`` exercises through the legacy interface.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.channels.handshake import Channel
from repro.core.decoder import CompactFeed, Needs, ReplayElement
from repro.core.vector_clock import VectorClock
from repro.errors import ReplayError
from repro.sim.module import Module


class ReplayCoordinator:
    """Shared ``T_current`` and the replayers waiting on it.

    ``current`` counts the completed transactions per channel.
    ``waiters[channel]`` maps a count to the replayers whose action walk
    stopped on that channel's entry being below it. A replayer registers
    only on an unmet count, and a completion raises its channel's entry by
    exactly one, so the completion that reaches a count releases exactly
    that count's replayers: :meth:`complete` pops one entry and scans
    nothing.
    """

    def __init__(self, n_channels: int):
        self.current = VectorClock(n_channels)
        # Bumped on every completion: the replay watchdog's progress token.
        self.version = 0
        # Cycle of the most recent completion broadcast (None before the
        # first). The replay progress watchdog reads this to pin down where
        # a livelocked replay last made forward progress.
        self.last_progress_cycle: Optional[int] = None
        self.waiters: List[Dict[int, List["ChannelReplayer"]]] = [
            {} for _ in range(n_channels)]
        # Replayers with trace actions left or a transaction in flight;
        # replay is done when this reaches zero.
        self.live = 0

    def complete(self, index: int, cycle: Optional[int] = None) -> None:
        """Broadcast that one more transaction finished on ``index``, and
        release the replayers waiting for the count it reaches."""
        counts = self.current.counts
        now = counts[index] + 1
        counts[index] = now
        self.version += 1
        if cycle is not None:
            self.last_progress_cycle = cycle
        waiting = self.waiters[index]
        if waiting:
            released = waiting.pop(now, None)
            if released is not None:
                for replayer in released:
                    replayer._gated = False

    def reset(self, live: int) -> None:
        """Back to power-on: no completions, no waiters, ``live`` replayers."""
        counts = self.current.counts
        counts[:] = [0] * len(counts)
        self.version = 0
        self.last_progress_cycle = None
        for waiting in self.waiters:
            waiting.clear()
        self.live = live


def compile_elements(feed: Sequence[ReplayElement], direction: str,
                     n_channels: int, name: str = "feed"
                     ) -> Tuple[List[Optional[int]], List[Needs]]:
    """Compile a legacy element feed into gated actions.

    Returns ``(actions, needs)`` as a :class:`CompactFeed` holds them.
    Mirrors the replayer's original incremental walk: an action's full
    ``T_expected`` is the sum of the ``ends_mask`` fields of all elements
    before it, and its needs list that sum's entries for the channels
    whose ends were counted since the previous action — the rule
    :meth:`~repro.core.decoder.TraceDecoder.compact_feeds` applies.
    """
    counts = [0] * n_channels
    moved = set()   # channels whose count grew since the previous action
    actions: List[Optional[int]] = []
    needs: List[Needs] = []
    is_input = direction == "in"
    for element in feed:
        if element.start if is_input else element.end:
            if not is_input:
                actions.append(None)
            elif element.content is None:
                raise ReplayError(f"{name}: start element without content")
            else:
                actions.append(int.from_bytes(element.content, "little"))
            needs.append(tuple((i, counts[i]) for i in sorted(moved)))
            moved.clear()
        mask = element.ends_mask
        index = 0
        while mask:
            if mask & 1:
                counts[index] += 1
                moved.add(index)
            mask >>= 1
            index += 1
    return actions, needs


class ChannelReplayer(Module):
    """Replays one channel's recorded transaction events.

    It counts the transactions it replays (``replayed_transactions``) and
    broadcasts each completion to the coordinator; it keeps no copy of
    their payloads, which the validation monitor records into the
    validation trace.

    Scheduling: ``comb()`` reads only Python state (pending contents /
    ready credits), so the replayer declares an empty sensitivity set and
    wakes itself from every ``seq()`` site that mutates that state.
    """

    def __init__(self, name: str, index: int, channel: Channel,
                 coordinator: ReplayCoordinator, direction: str,
                 feed: Union[Sequence[ReplayElement], CompactFeed]):
        super().__init__(name)
        if direction not in ("in", "out"):
            raise ValueError(f"replayer direction must be 'in'/'out', got {direction!r}")
        self.index = index
        self.channel = channel
        self.coordinator = coordinator
        self.direction = direction
        # Payload words (None for output credits) and delta needs.
        if isinstance(feed, CompactFeed):
            self.actions: List[Optional[int]] = feed.actions
            self._needs: List[Needs] = feed.needs
        else:
            self.actions, self._needs = compile_elements(
                feed, direction, len(coordinator.current), name)
        self._action_pos = 0
        # Input-side sender state.
        self._pending_contents: List[int] = []
        self._current: Optional[int] = None
        # Output-side receiver state.
        self._ready_credits = 0
        self.replayed_transactions = 0
        # Set when the action walk stops: blocked on an unmet prerequisite
        # (and registered as a waiter on it) or out of actions. While set,
        # seq() skips the walk; only a release by the coordinator clears
        # it, so with our channel idle seq() is a no-op — the idle guard
        # declared below.
        self._gated = False
        self.sensitive_to()
        if direction == "in":
            self.drives(channel.valid, channel.payload)
        else:
            self.drives(channel.ready)
        self.seq_idle_when(("nofire", channel), ("truthy", "_gated"))
        if self.actions:
            coordinator.live += 1

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """All trace actions consumed and nothing left in flight."""
        if self._action_pos < len(self.actions):
            return False
        if self.direction == "in":
            return self._current is None and not self._pending_contents
        return self._ready_credits == 0

    # ------------------------------------------------------------------
    def comb(self) -> None:
        # Each output is driven only when its value changes.
        channel = self.channel
        if self.direction == "in":
            if self._current is None and self._pending_contents:
                self._current = self._pending_contents.pop(0)
            current = self._current
            valid, payload = (0, 0) if current is None else (1, current)
            if channel.valid.value != valid:
                channel.valid.drive(valid)
            if channel.payload.value != payload:
                channel.payload.drive(payload)
        else:
            ready = 1 if self._ready_credits > 0 else 0
            if channel.ready.value != ready:
                channel.ready.drive(ready)

    def _credit_underflow(self) -> None:
        raise ReplayError(
            f"{self.name}: output transaction completed without "
            "a replay credit"
        )

    def seq(self) -> None:
        channel = self.channel
        coordinator = self.coordinator
        # 1. Observe actual completion on our channel and broadcast it.
        if channel.valid.value and channel.ready.value:
            if self.direction == "in":
                self._current = None
                idle = not self._pending_contents
            else:
                self._ready_credits -= 1
                if self._ready_credits < 0:
                    self._credit_underflow()
                idle = not self._ready_credits
            self.replayed_transactions += 1
            coordinator.complete(
                self.index,
                self._sim.cycle if self._sim is not None else None)
            self.wake()   # _current/_ready_credits changed
            if idle and self._action_pos == len(self.actions):
                coordinator.live -= 1   # this was our last transaction
        if self._gated:
            return
        # 2. Consume as many actions as the vector clocks allow. The delta
        # prerequisites stand in for the full ``geq`` (see
        # :data:`~repro.core.decoder.Needs`); ``T_current``'s count list is
        # mutated in place, so one snapshot of it stays live across the walk.
        actions = self.actions
        needs = self._needs
        n_actions = len(actions)
        is_input = self.direction == "in"
        counts = coordinator.current.counts
        pos = self._action_pos
        while pos < n_actions:
            for index, count in needs[pos]:
                if counts[index] < count:
                    # Wait for this count; the completion that reaches it
                    # releases us and re-runs the walk.
                    waiting = coordinator.waiters[index]
                    waiting.setdefault(count, []).append(self)
                    break
            else:
                if is_input:
                    self._pending_contents.append(actions[pos])
                else:
                    self._ready_credits += 1
                self.wake()
                pos += 1
                continue
            break
        self._action_pos = pos
        # Blocked (and waiting) or out of actions: either way the walk has
        # nothing to do until a release.
        self._gated = True

    # ------------------------------------------------------------------
    def pending_report(self, channel_names: Optional[Sequence[str]] = None
                       ) -> dict:
        """Structured stall diagnostics for this replayer.

        Consumed by :meth:`~repro.core.shim.VidiShim.stall_report` when the
        replay progress watchdog fires: which action the replayer is stuck
        on, the ``T_expected`` prerequisite it is gated behind, and — when
        ``channel_names`` is given — exactly which channels have completed
        fewer transactions than that prerequisite demands.
        """
        report = {
            "channel": self.name,
            "index": self.index,
            "direction": self.direction,
            "actions_consumed": self._action_pos,
            "actions_total": len(self.actions),
            "replayed_transactions": self.replayed_transactions,
            "done": self.done,
        }
        if self.direction == "in":
            report["in_flight"] = self._current is not None
            report["pending_contents"] = len(self._pending_contents)
        else:
            report["ready_credits"] = self._ready_credits
        if self._action_pos < len(self.actions):
            expected = self.expected_at(self._action_pos)
            report["next_expected"] = expected
            current = self.coordinator.current
            waiting = [i for i in range(len(current))
                       if current[i] < expected[i]]
            if channel_names is not None:
                report["waiting_on"] = [
                    f"{channel_names[i]} (has {current[i]}, needs "
                    f"{expected[i]})" for i in waiting]
            else:
                report["waiting_on"] = waiting
        return report

    def expected_at(self, pos: int) -> Tuple[int, ...]:
        """Action ``pos``'s full ``T_expected``, rebuilt from the needs
        prefix: every entry takes its count at its latest need up to
        ``pos`` (the needs of one feed only ever raise an entry)."""
        expected = [0] * len(self.coordinator.current)
        for needs in self._needs[:pos + 1]:
            for index, count in needs:
                expected[index] = count
        return tuple(expected)

    def reset_state(self) -> None:
        super().reset_state()
        self._action_pos = 0
        self._pending_contents.clear()
        self._current = None
        self._ready_credits = 0
        self.replayed_transactions = 0
        self._gated = False
