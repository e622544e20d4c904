"""Host-side memory controller: the environment end of the pcim interface.

When the FPGA masters DMA (pcim), the other end is the host's PCIe/memory
complex. This module accepts write bursts into host DRAM and serves read
bursts from it, with a configurable base latency plus seeded jitter — the
physical-timing non-determinism (PCIe arbitration, DRAM scheduling, cloud
neighbours) that makes FPGA executions unreproducible without Vidi.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Optional, Tuple

from repro.channels.axi import AxiInterface
from repro.sim.memory import WordMemory
from repro.sim.module import Module


class HostMemoryController(Module):
    """Subordinate on the environment side of an FPGA-managed interface.

    Scheduling: ``comb()`` reads the burst/latency state mutated in
    ``seq()`` (which wakes on every actual change — the PCIe-less pacing
    branch re-asserts defaults every cycle and must *not* wake) plus host
    memory contents, covered by a memory write subscription.
    """

    comb_static = True

    WORD_BYTES = 64

    def __init__(self, name: str, interface: AxiInterface, memory: WordMemory,
                 base_latency: int = 6, jitter: int = 4,
                 seed: Optional[int] = 0, pcie=None):
        super().__init__(name)
        self.interface = interface
        self.memory = memory
        self.base_latency = base_latency
        self.jitter = jitter
        self.pcie = pcie
        self._w_allow = 1
        self._r_paid = False
        self._rng = random.Random(seed)
        self._pending_aw: Deque[Tuple[int, int, int]] = deque()
        self._pending_w: Deque[Tuple[int, int, int]] = deque()
        self._b_queue: Deque[Tuple[int, int]] = deque()   # (id, delay remaining)
        self._read_burst: Optional[Tuple[int, int, int]] = None
        self._r_wait = 0
        self.write_beats = 0
        self.read_beats = 0
        self.sensitive_to()
        memory.on_write(self.wake)
        self.drives(interface.aw.ready, interface.w.ready,
                    interface.b.valid, interface.b.payload,
                    interface.ar.ready, interface.r.valid,
                    interface.r.payload)
        # seq() is a no-op when no request is presented and no burst or
        # response is in flight; without a PCIe arbiter the pacing branch
        # additionally requires the defaults to be already re-asserted.
        self.seq_idle_when(("low", interface.aw.valid),
                           ("low", interface.w.valid),
                           ("low", interface.ar.valid),
                           ("falsy", "_pending_aw"), ("falsy", "_pending_w"),
                           ("falsy", "_b_queue"), ("none", "_read_burst"))
        if pcie is None:
            self.seq_idle_when(("truthy", "_w_allow"), ("truthy", "_r_paid"))

    def _latency(self) -> int:
        if self.jitter <= 0:
            return self.base_latency
        return self.base_latency + self._rng.randrange(self.jitter + 1)

    # ------------------------------------------------------------------
    def comb(self) -> None:
        iface = self.interface
        iface.aw.ready.drive(0 if len(self._pending_aw) >= 4 else 1)
        iface.w.ready.drive(
            0 if (len(self._pending_w) >= 16 or not self._w_allow) else 1)
        if self._b_queue and self._b_queue[0][1] == 0:
            iface.b.valid.drive(1)
            iface.b.payload.drive(iface.b.spec.pack(
                {"id": self._b_queue[0][0], "resp": 0}))
        else:
            iface.b.valid.drive(0)
            iface.b.payload.drive(0)
        iface.ar.ready.drive(0 if self._read_burst is not None else 1)
        if self._read_burst is not None and self._r_wait == 0 and self._r_paid:
            addr, remaining, burst_id = self._read_burst
            iface.r.valid.drive(1)
            iface.r.payload.drive(iface.r.spec.pack({
                "data": self.memory.read_word(addr),
                "id": burst_id,
                "resp": 0,
                "last": 1 if remaining == 1 else 0,
            }))
        else:
            iface.r.valid.drive(0)
            iface.r.payload.drive(0)

    def seq(self) -> None:
        iface = self.interface
        # PCIe pacing: a write beat needs link credit before READY rises;
        # a read beat is "paid for" once, then presented until it fires.
        if self.pcie is None:
            if not self._w_allow:
                self._w_allow = 1
                self.wake()
            if not self._r_paid:
                self._r_paid = True
                self.wake()
        else:
            if iface.w.valid.value and not iface.w.ready.value:
                allow = 1 if self.pcie.request_app() else 0
                if allow != self._w_allow:
                    self._w_allow = allow
                    self.wake()
            elif iface.w.fired:
                if self._w_allow:
                    self._w_allow = 0
                    self.wake()
            if (self._read_burst is not None and self._r_wait <= 1
                    and not self._r_paid):
                self._r_paid = self.pcie.request_app()
                if self._r_paid:
                    self.wake()
        if iface.aw.fired:
            aw = iface.aw.payload_dict()
            self._pending_aw.append((aw["addr"], aw["len"] + 1, aw["id"]))
            self.wake()
        if iface.w.fired:
            w = iface.w.payload_dict()
            self._pending_w.append((w["data"], w["strb"], w["last"]))
            self.write_beats += 1
            self.wake()
        while self._pending_aw and self._pending_w:
            addr, remaining, burst_id = self._pending_aw[0]
            data, strb, last = self._pending_w.popleft()
            self.memory.write_word(addr, data, strobe=strb)
            remaining -= 1
            if last or remaining == 0:
                self._pending_aw.popleft()
                self._b_queue.append((burst_id, self._latency()))
            else:
                self._pending_aw[0] = (addr + self.WORD_BYTES, remaining, burst_id)
            self.wake()
        if self._b_queue:
            burst_id, delay = self._b_queue[0]
            if delay > 0:
                self._b_queue[0] = (burst_id, delay - 1)
                self.wake()
            elif iface.b.fired:
                self._b_queue.popleft()
                self.wake()
        if iface.ar.fired:
            ar = iface.ar.payload_dict()
            self._read_burst = (ar["addr"], ar["len"] + 1, ar["id"])
            self._r_wait = self._latency()
            self.wake()
        if self._read_burst is not None:
            if self._r_wait > 0:
                self._r_wait -= 1
                self.wake()
            elif iface.r.fired:
                addr, remaining, burst_id = self._read_burst
                self.read_beats += 1
                if self.pcie is not None:
                    self._r_paid = False   # next beat needs fresh credit
                if remaining == 1:
                    self._read_burst = None
                else:
                    self._read_burst = (addr + self.WORD_BYTES, remaining - 1,
                                        burst_id)
                self.wake()

    def reset_state(self) -> None:
        super().reset_state()
        self._pending_aw.clear()
        self._pending_w.clear()
        self._b_queue.clear()
        self._read_burst = None
        self._r_wait = 0
        self._w_allow = 1
        self._r_paid = False
        self.write_beats = 0
        self.read_beats = 0
