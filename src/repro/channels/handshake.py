"""VALID/READY handshaked channels and endpoint helpers.

A :class:`Channel` is the wire bundle of Fig. 1 in the paper: ``valid`` and
``payload`` driven by the sender, ``ready`` driven by the receiver. A
*transaction* starts on the first cycle VALID is observed high after the
previous transaction ended and ends on the cycle both VALID and READY are
high. Per the protocol, the sender must hold VALID and the payload stable
until the handshake completes.

:class:`ChannelSource` and :class:`ChannelSink` are queue-backed endpoint
modules used by host models, accelerators and tests. The source never gates
VALID on READY (AXI rule); the sink's READY policy is pluggable so tests can
exercise arbitrary stall patterns.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.channels.payload import PayloadSpec
from repro.sim.module import Module


class Channel(Module):
    """A unidirectional VALID/READY channel carrying a structured payload."""

    has_comb = False  # pure wires; no behaviour of its own

    def __init__(self, name: str, spec: PayloadSpec, direction: str = "in"):
        super().__init__(name)
        if direction not in ("in", "out"):
            raise ValueError(f"channel direction must be 'in' or 'out', got {direction!r}")
        self.spec = spec
        self.direction = direction  # relative to the FPGA program ("in" = FPGA receives)
        self.valid = self.signal("valid")
        self.ready = self.signal("ready")
        self.payload = self.signal("payload", width=spec.width)

    # ------------------------------------------------------------------
    @property
    def fired(self) -> bool:
        """True when a handshake completes this cycle (transaction end event)."""
        return bool(self.valid.value and self.ready.value)

    @property
    def width(self) -> int:
        """Total monitored width: payload plus the two control signals."""
        return self.spec.width + 2

    def payload_dict(self) -> Dict[str, int]:
        """The current payload decomposed into named fields."""
        return self.spec.unpack(self.payload.value)

    def payload_bytes(self) -> bytes:
        """The current payload serialized as trace content."""
        return self.spec.to_bytes(self.payload.value)


class PassThrough(Module):
    """Zero-latency combinational wire between two channels.

    Used when Vidi is transparent (configuration R1): the upstream channel's
    sender-side signals are forwarded downstream and READY flows back, adding
    no cycles and no behaviour — the baseline against which recording
    overhead is measured.
    """

    comb_static = True

    def __init__(self, name: str, up: Channel, down: Channel):
        super().__init__(name)
        self.up = up
        self.down = down
        self.sensitive_to(up.valid, up.payload, down.ready)
        self.drives(down.valid, down.payload, up.ready)

    def comb(self) -> None:
        self.down.valid.drive(self.up.valid.value)
        self.down.payload.drive(self.up.payload.value)
        self.up.ready.drive(self.down.ready.value)


ReadyPolicy = Callable[[int, int], bool]
"""``policy(cycle, received_count) -> bool``: should READY be high next cycle?

Policies are evaluated exactly once per cycle (in the sink's sequential
process) and the decision is registered, so impure policies — random stall
storms, schedules — are safe and deterministic.
"""


def always_ready(_cycle: int, _count: int) -> bool:
    """The trivial sink policy: accept every cycle."""
    return True


class ChannelSource(Module):
    """Drives the sender side of a channel from a Python-level queue.

    ``send(payload_dict)`` enqueues a transaction; the source presents it on
    the wires, holds VALID/payload stable until the handshake fires, then
    moves to the next queued item (back-to-back, no idle bubble).
    """

    comb_static = True

    def __init__(self, name: str, channel: Channel):
        super().__init__(name)
        self.channel = channel
        self.queue: Deque[int] = deque()
        self._current: Optional[int] = None
        self.sent_count = 0
        # comb() reads only Python state (queue/_current); every mutation
        # site calls wake(), so no signal sensitivity is needed.
        self.sensitive_to()
        self.drives(channel.valid, channel.payload)
        # seq() only completes an in-flight handshake; with nothing in
        # flight it is a no-op (a freshly queued item is popped by comb()).
        self.seq_idle_when(("none", "_current"))

    def send(self, payload: Dict[str, int]) -> None:
        """Queue one transaction for transmission."""
        self.queue.append(self.channel.spec.pack(payload))
        self.wake()

    def send_packed(self, word: int) -> None:
        """Queue one transaction given as an already-packed word."""
        self.queue.append(word)
        self.wake()

    @property
    def idle(self) -> bool:
        """True when nothing is queued or in flight."""
        return self._current is None and not self.queue

    def comb(self) -> None:
        if self._current is None and self.queue:
            # Present a freshly queued item in the same cycle it was queued;
            # the commitment to it is latched in seq().
            self._current = self.queue.popleft()
        if self._current is not None:
            self.channel.valid.drive(1)
            self.channel.payload.drive(self._current)
        else:
            self.channel.valid.drive(0)
            self.channel.payload.drive(0)

    def seq(self) -> None:
        if self._current is not None and self.channel.ready.value:
            self._current = None
            self.sent_count += 1
            self.wake()   # comb must drop VALID (or present the next item)

    def reset_state(self) -> None:
        super().reset_state()
        self.queue.clear()
        self._current = None
        self.sent_count = 0


class ChannelSink(Module):
    """Consumes a channel, collecting payloads, with a pluggable READY policy.

    READY is a registered output: the policy is consulted once per cycle and
    its verdict drives READY on the *next* cycle. The sink therefore starts
    with READY low for one cycle after reset.
    """

    comb_static = True

    def __init__(self, name: str, channel: Channel,
                 policy: ReadyPolicy = always_ready):
        super().__init__(name)
        self.channel = channel
        self.policy = policy
        self.received: List[int] = []
        self._ready_now = 0
        self.sensitive_to()   # comb reads only the registered _ready_now
        self.drives(channel.ready)
        # An arbitrary READY policy must be consulted every cycle (it may
        # be impure), so seq() is normally unskippable. The trivial
        # always-ready policy is pure and ignores its arguments: once
        # READY is up and no handshake is completing, seq() does nothing.
        if policy is always_ready:
            self.seq_idle_when(("nofire", channel), ("truthy", "_ready_now"))

    def comb(self) -> None:
        self.channel.ready.drive(self._ready_now)

    def seq(self) -> None:
        if self.channel.valid.value and self.channel.ready.value:
            self.received.append(self.channel.payload.value)
        # The policy decides READY for the next cycle and gets its number.
        ready = 1 if self.policy(self._sim.cycle + 1,
                                 len(self.received)) else 0
        if ready != self._ready_now:
            self._ready_now = ready
            self.wake()

    def received_dicts(self) -> List[Dict[str, int]]:
        """All received payloads decomposed into field dicts."""
        return [self.channel.spec.unpack(w) for w in self.received]

    def reset_state(self) -> None:
        super().reset_state()
        self.received.clear()
        self._ready_now = 0
