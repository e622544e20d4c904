"""Environment-side streaming endpoints for the AXI-Stream ports.

The ingress :class:`StreamDriver` plays the role of a NIC/MAC delivering
packets to the design (with seeded inter-packet gaps — the arrival-timing
non-determinism of a network); the egress :class:`StreamCollector`
consumes the design's output stream with seeded stalls (a congested
downstream) and reassembles packets for checking.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.channels.axi_stream import AxisInterface, pack_packet, unpack_packets
from repro.channels.handshake import ChannelSink, ChannelSource
from repro.sim.module import Module


class StreamDriver(Module):
    """Feeds byte packets onto an ingress AXI-Stream port."""

    has_comb = False

    def __init__(self, name: str, interface: AxisInterface,
                 gap: int = 2, gap_jitter: int = 4,
                 seed: Optional[int] = 0):
        super().__init__(name)
        self.source = self.submodule(ChannelSource(f"{name}.t", interface.t))
        self.gap = gap
        self.gap_jitter = gap_jitter
        self._rng = random.Random(seed)
        self._pending: List[List[dict]] = []
        self._wait = 0
        self.packets_sent = 0
        # Out of packets and not counting down an inter-packet gap: the
        # remaining early-return in seq() needs no work.
        self.seq_idle_when(("falsy", "_wait"), ("falsy", "_pending"))

    def load_packets(self, packets: List[bytes]) -> None:
        """Queue byte packets for transmission (before or during the run)."""
        for packet in packets:
            self._pending.append(pack_packet(packet))

    @property
    def idle(self) -> bool:
        return not self._pending and self.source.idle

    def seq(self) -> None:
        if self._wait > 0:
            self._wait -= 1
            return
        if not self.source.idle or not self._pending:
            return
        beats = self._pending.pop(0)
        for beat in beats:
            self.source.send(beat)
        self.packets_sent += 1
        self._wait = self.gap + (self._rng.randrange(self.gap_jitter + 1)
                                 if self.gap_jitter else 0)

    def reset_state(self) -> None:
        super().reset_state()
        self._pending.clear()
        self._wait = 0
        self.packets_sent = 0


class StreamCollector(Module):
    """Consumes an egress AXI-Stream port, reassembling packets."""

    has_comb = False

    def __init__(self, name: str, interface: AxisInterface,
                 stall_probability: float = 0.2,
                 seed: Optional[int] = 0):
        super().__init__(name)
        rng = random.Random(seed)
        self.interface = interface
        self.sink = self.submodule(ChannelSink(
            f"{name}.t", interface.t,
            policy=lambda cyc, n: rng.random() >= stall_probability))

    def packets(self) -> List[bytes]:
        """Byte packets received so far."""
        beats = [self.interface.t.spec.unpack(word)
                 for word in self.sink.received]
        return unpack_packets(beats)

    @property
    def beats_received(self) -> int:
        return len(self.sink.received)
