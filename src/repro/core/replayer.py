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
with the coordinator as a waiter on that channel and stays idle (its
``seq()`` skips the action walk) until a completion on that channel reaches
the count and releases it. Replay cost therefore follows the completions
that happen, not the number of replayers.

Replayers consume :class:`~repro.core.decoder.ReplayAction` lists — only
the events this channel must gate, each carrying a precomputed
``T_expected`` snapshot — so a replayer's sequential process walks
O(own events) instead of O(all packets). Legacy element feeds
(``List[ReplayElement]``, the one-element-per-packet hardware decomposition)
are accepted too and compiled to actions at construction; the semantics are
identical, as ``tests/test_replayer_unit.py`` exercises through the legacy
interface.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.channels.handshake import Channel
from repro.core.decoder import CompactFeed, ReplayAction, ReplayElement
from repro.core.vector_clock import VectorClock
from repro.errors import ReplayError
from repro.sim.module import Module


class ReplayCoordinator:
    """Shared ``T_current``: completed-transaction counts per channel."""

    def __init__(self, n_channels: int):
        self.current = VectorClock(n_channels)
        # Bumped on every completion: the replay watchdog's progress token.
        self.version = 0
        # Cycle of the most recent completion broadcast (None before the
        # first). The replay progress watchdog reads this to pin down where
        # a livelocked replay last made forward progress.
        self.last_progress_cycle: Optional[int] = None
        # Per channel: the (count, replayer) pairs whose walk stopped on
        # that channel's T_current entry being below ``count``.
        self.waiters: List[List[Tuple[int, "ChannelReplayer"]]] = [
            [] for _ in range(n_channels)]
        # Replayers with trace actions left or a transaction in flight;
        # replay is done when this reaches zero.
        self.live = 0

    def complete(self, index: int, cycle: Optional[int] = None) -> None:
        """Broadcast that one more transaction finished on ``index``.

        Releases exactly the waiters on ``index`` whose count is now met.
        """
        self.current.increment(index)
        self.version += 1
        if cycle is not None:
            self.last_progress_cycle = cycle
        waiters = self.waiters[index]
        if waiters:
            now = self.current.counts[index]
            keep = []
            for entry in waiters:
                if entry[0] <= now:
                    replayer = entry[1]
                    replayer._gated = False
                else:
                    keep.append(entry)
            self.waiters[index] = keep

    def reset(self, live: int) -> None:
        """Back to power-on: no completions, no waiters, ``live`` replayers."""
        counts = self.current.counts
        counts[:] = [0] * len(counts)
        self.version = 0
        self.last_progress_cycle = None
        for waiters in self.waiters:
            waiters.clear()
        self.live = live


def compile_elements(feed: Sequence[ReplayElement], direction: str,
                     n_channels: int, name: str = "feed") -> List[ReplayAction]:
    """Compile a legacy element feed into gated actions.

    Mirrors the replayer's original incremental walk: an action's
    ``expected`` clock is the sum of the ``ends_mask`` fields of all
    elements before it — snapshotted *before* the action's own element
    advances the clock.
    """
    counts = [0] * n_channels
    actions: List[ReplayAction] = []
    for element in feed:
        if element.start and direction == "in":
            if element.content is None:
                raise ReplayError(f"{name}: start element without content")
            actions.append(ReplayAction(
                int.from_bytes(element.content, "little"),
                VectorClock(counts)))
        elif element.end and direction == "out":
            actions.append(ReplayAction(None, VectorClock(counts)))
        mask = element.ends_mask
        index = 0
        while mask:
            if mask & 1:
                counts[index] += 1
            mask >>= 1
            index += 1
    return actions


def _delta_needs(actions: Sequence[ReplayAction]
                 ) -> List[Tuple[Tuple[int, int], ...]]:
    """Per-action delta prerequisites: entries grown since the previous action.

    ``needs[j]`` lists ``(channel, count)`` pairs for exactly the clock
    entries where ``actions[j].expected`` exceeds ``actions[j-1].expected``
    (all nonzero entries for ``j == 0``). Checking only these against
    ``T_current`` is equivalent to the full componentwise ``geq`` whenever
    every earlier action of the feed has already been consumed — the
    sequential walk's invariant — because satisfied entries of a monotone
    clock stay satisfied.
    """
    needs: List[Tuple[Tuple[int, int], ...]] = []
    prev: Optional[List[int]] = None
    for action in actions:
        exp = action.expected.counts
        if prev is None:
            needs.append(tuple((i, c) for i, c in enumerate(exp) if c))
        else:
            needs.append(tuple((i, c) for i, c in enumerate(exp)
                               if c > prev[i]))
        prev = exp
    return needs


class ChannelReplayer(Module):
    """Replays one channel's recorded transaction events.

    Scheduling: ``comb()`` reads only Python state (pending contents /
    ready credits), so the replayer declares an empty sensitivity set and
    wakes itself from every ``seq()`` site that mutates that state.
    """

    comb_static = True

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
        if isinstance(feed, CompactFeed):
            self.actions: List[ReplayAction] = feed.actions
        else:
            self.actions = compile_elements(
                feed, direction, len(coordinator.current), name)
        self._action_pos = 0
        # Delta prerequisites: for action j, only the clock entries that
        # grew since action j-1 (the ``expected`` sequence is a prefix-sum
        # walk, hence componentwise nondecreasing along one feed). The
        # sequential walk consumes actions in order, so when it stands at
        # action j, action j-1's full clock was satisfied at consume time
        # and — ``T_current`` being monotone — still is; checking the
        # delta entries is therefore equivalent to the full ``geq``, at
        # O(entries that changed) instead of O(channels) per re-check.
        self._needs = _delta_needs(self.actions)
        # Input-side sender state.
        self._pending_contents: List[int] = []
        self._current: Optional[int] = None
        # Output-side receiver state.
        self._ready_credits = 0
        self.replayed_transactions = 0
        self.validation_contents: List[bytes] = []
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
        channel = self.channel
        if self.direction == "in":
            if self._current is None and self._pending_contents:
                self._current = self._pending_contents.pop(0)
            if self._current is not None:
                channel.valid.drive(1)
                channel.payload.drive(self._current)
            else:
                channel.valid.drive(0)
                channel.payload.drive(0)
        else:
            channel.ready.drive(1 if self._ready_credits > 0 else 0)

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
                self.validation_contents.append(channel.payload_bytes())
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
        # :func:`_delta_needs`); ``T_current``'s count list is mutated in
        # place, so one snapshot of it stays live across the walk.
        actions = self.actions
        needs = self._needs
        n_actions = len(actions)
        is_input = self.direction == "in"
        counts = coordinator.current.counts
        pos = self._action_pos
        while pos < n_actions:
            for index, count in needs[pos]:
                if counts[index] < count:
                    # Wait for this entry; a release re-runs the walk.
                    coordinator.waiters[index].append((count, self))
                    break
            else:
                if is_input:
                    self._pending_contents.append(actions[pos].word)
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
            expected = self.actions[self._action_pos].expected
            report["next_expected"] = expected.as_tuple()
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

    def reset_state(self) -> None:
        super().reset_state()
        self._action_pos = 0
        self._pending_contents.clear()
        self._current = None
        self._ready_credits = 0
        self.replayed_transactions = 0
        self.validation_contents.clear()
        self._gated = False
