"""Streaming packet filter — a SmartNIC-style dataplane on AXI-Stream.

The intro's networking motivation (hXDP-style offloads) as an evaluation
app for the streaming-interface extension: packets arrive on ``axis_in``,
the filter drops those matching a protocol rule, decrements TTL and fixes
the checksum on the rest, and forwards them on ``axis_out``. The control
plane (rule, expected packet count) lives behind ``ocl``; the design
refuses ingress (READY low) until the host starts it — a genuine
cross-channel ordering dependency between the control bus and the stream.

Header layout (first 16 bytes of each packet):

```
0   4  dst address
4   4  src address
8   1  TTL
9   1  protocol
10  2  payload length
12  2  checksum = low 16 bits of the sum of all other header bytes
14  2  padding
```
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.apps.base import REG_ARG0, REG_CTRL, Accelerator
from repro.apps.hostlib import random_bytes
from repro.channels.axi_stream import pack_packet, unpack_packets
from repro.channels.handshake import ChannelSink, ChannelSource
from repro.platform.cpu import MmioRead, MmioWrite, WaitHostWord

REG_DROP_PROTO = REG_ARG0        # protocol number to drop
REG_EXPECTED = REG_ARG0 + 1      # packets to process before the doorbell
REG_FORWARDED = REG_ARG0 + 2     # live counter (read back by the host)
REG_DROPPED = REG_ARG0 + 3

HEADER_BYTES = 16


def header_checksum(header: bytes) -> int:
    """Low 16 bits of the sum of header bytes, excluding the checksum field."""
    return (sum(header[:12]) + sum(header[14:16])) & 0xFFFF


def make_packet(rng: random.Random, proto: int) -> bytes:
    """A random packet with a consistent header."""
    payload = random_bytes(rng, rng.randrange(8, 120))
    header = bytearray(16)
    header[0:4] = rng.getrandbits(32).to_bytes(4, "little")
    header[4:8] = rng.getrandbits(32).to_bytes(4, "little")
    header[8] = rng.randrange(2, 64)           # TTL
    header[9] = proto
    header[10:12] = len(payload).to_bytes(2, "little")
    header[12:14] = header_checksum(bytes(header)).to_bytes(2, "little")
    return bytes(header) + payload


def filter_golden(packets: List[bytes],
                  drop_proto: int) -> Tuple[List[bytes], int]:
    """Golden model: (forwarded packets after rewrite, dropped count)."""
    forwarded: List[bytes] = []
    dropped = 0
    for packet in packets:
        header = bytearray(packet[:HEADER_BYTES])
        if header[9] == drop_proto or header[8] <= 1:
            dropped += 1
            continue
        header[8] -= 1
        header[12:14] = header_checksum(bytes(header)).to_bytes(2, "little")
        forwarded.append(bytes(header) + packet[HEADER_BYTES:])
    return forwarded, dropped


class PacketFilter(Accelerator):
    """Beat-pipelined filter between axis_in and axis_out."""

    def __init__(self, name: str, interfaces):
        super().__init__(name, interfaces, doorbell=True)
        self.axis_in = interfaces["axis_in"].t
        self.axis_out = interfaces["axis_out"].t
        self.rx = self.submodule(ChannelSink(
            f"{name}.rx", self.axis_in, policy=self._ingress_ready))
        self.tx = self.submodule(ChannelSource(f"{name}.tx", self.axis_out))
        self.started = False
        self._beats: List[dict] = []
        self._consumed = 0

    def _ingress_ready(self, _cycle: int, _count: int) -> bool:
        # The ordering dependency: no ingress before the control-plane start.
        return self.started and len(self.tx.queue) < 32

    def on_reg_write(self, index: int, value: int) -> None:
        self.regs[index] = value
        if index == REG_CTRL and (value & 1):
            self.started = True

    def kernel(self):
        return iter(())   # reactive dataplane; no batch kernel

    def seq(self) -> None:
        super().seq()
        # Consume newly arrived beats; on TLAST, filter and forward.
        received = self.rx.received
        while self._consumed < len(received):
            word = received[self._consumed]
            self._consumed += 1
            self._beats.append(self.axis_in.spec.unpack(word))
            if self._beats[-1]["last"]:
                packet = unpack_packets(self._beats)[0]
                self._beats.clear()
                self._process(packet)

    def _process(self, packet: bytes) -> None:
        forwarded, dropped = filter_golden([packet],
                                           self.regs[REG_DROP_PROTO])
        if forwarded:
            for beat in pack_packet(forwarded[0]):
                self.tx.send(beat)
            self.regs[REG_FORWARDED] += 1
        else:
            self.regs[REG_DROPPED] += dropped
        total = self.regs[REG_FORWARDED] + self.regs[REG_DROPPED]
        if total == self.regs[REG_EXPECTED]:
            self.on_done()

    def reset_state(self) -> None:
        super().reset_state()
        self.started = False
        self._beats.clear()
        self._consumed = 0


def host_program(result: dict, seed: int, n_packets: int = 24,
                 drop_proto: int = 17):
    """Control plane: configure, start, await completion, read counters."""
    from repro.apps.base import DOORBELL_ADDR

    yield MmioWrite("ocl", REG_DROP_PROTO * 4, drop_proto)
    yield MmioWrite("ocl", REG_EXPECTED * 4, n_packets)
    yield MmioWrite("ocl", REG_CTRL * 4, 1)
    yield WaitHostWord(DOORBELL_ADDR, lambda w: w >= 1)
    result["forwarded"] = yield MmioRead("ocl", REG_FORWARDED * 4)
    result["dropped"] = yield MmioRead("ocl", REG_DROPPED * 4)
    result["ok"] = True


def workload(seed: int, n_packets: int = 24,
             drop_proto: int = 17) -> List[bytes]:
    """The ingress packet list for one run (≈1/3 match the drop rule)."""
    rng = random.Random(seed)
    return [make_packet(rng, drop_proto if rng.random() < 0.34
                        else rng.randrange(1, 16))
            for _ in range(n_packets)]


def make(n_packets: int = 24, drop_proto: int = 17):
    """Factory triple: (accelerator, host, ingress packets per seed)."""
    def accelerator_factory(interfaces: Dict) -> PacketFilter:
        return PacketFilter("packet_filter", interfaces)

    def host_factory(result: dict, seed: int, scale: float = 1.0):
        return host_program(result, seed,
                            n_packets=max(4, int(n_packets * scale)),
                            drop_proto=drop_proto)

    return accelerator_factory, host_factory
