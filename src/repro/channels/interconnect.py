"""AXI interconnect: multiplex several managers onto one subordinate port.

The paper's trace store shares the PCIe interface with the application
through Xilinx's AXI-Interconnect IP (§4.1). This module provides that
structural piece for the simulated platform: an N-to-1 write-path and
read-path multiplexer with round-robin arbitration at transaction
granularity and in-order response routing.

Arbitration grants one manager the write path (AW+W until the last beat,
then the B response) and, independently, one manager the read path (AR,
then R beats until last). Grants are registered, so the mux never violates
the VALID/READY stability rules while switching.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence

from repro.channels.axi import AxiInterface
from repro.sim.module import Module


class AxiInterconnect(Module):
    """Round-robin N-manager to 1-subordinate AXI multiplexer.

    ``upstreams`` are interface bundles the managers drive; ``downstream``
    is the single port toward the subordinate. All bundles must share the
    same channel payload specs.
    """

    def __init__(self, name: str, upstreams: Sequence[AxiInterface],
                 downstream: AxiInterface):
        super().__init__(name)
        if not upstreams:
            raise ValueError("interconnect needs at least one manager port")
        self.upstreams = list(upstreams)
        self.downstream = downstream
        self._write_owner: Optional[int] = None
        self._write_rr = 0
        self._write_w_done = False     # the burst's AW has been consumed
        self._w_last_seen = False      # the burst's last W beat has fired
        self._b_queue: Deque[int] = deque()   # owners awaiting B, in order
        self._read_owner: Optional[int] = None
        self._read_rr = 0
        self._ar_done = False
        self.write_grants = [0] * len(self.upstreams)
        self.read_grants = [0] * len(self.upstreams)
        # comb() muxes every upstream/downstream wire it reads; grants and
        # bookkeeping are registered, with wake() at each seq() mutation.
        for up in self.upstreams:
            self.sensitive_to(up.aw.valid, up.aw.payload, up.w.valid,
                              up.w.payload, up.b.ready, up.ar.valid,
                              up.ar.payload, up.r.ready)
        self.sensitive_to(downstream.aw.ready, downstream.w.ready,
                          downstream.b.valid, downstream.b.payload,
                          downstream.ar.ready, downstream.r.valid,
                          downstream.r.payload)
        for up in self.upstreams:
            self.drives(up.aw.ready, up.w.ready, up.b.valid, up.b.payload,
                        up.ar.ready, up.r.valid, up.r.payload)
        self.drives(downstream.aw.valid, downstream.aw.payload,
                    downstream.w.valid, downstream.w.payload,
                    downstream.b.ready, downstream.ar.valid,
                    downstream.ar.payload, downstream.r.ready)
        # Idle iff neither path is owned, no B response is owed, and no
        # manager is requesting (arbitration scans the AW/AR valids).
        self.seq_idle_when(("none", "_write_owner"), ("none", "_read_owner"),
                           ("falsy", "_b_queue"))
        for up in self.upstreams:
            self.seq_idle_when(("low", up.aw.valid), ("low", up.ar.valid))

    # ------------------------------------------------------------------
    def comb(self) -> None:
        down = self.downstream
        # ---- write path: forward the owner's AW/W, stall the rest.
        owner = self._write_owner
        for index, up in enumerate(self.upstreams):
            selected = owner == index
            up.aw.ready.drive(down.aw.ready.value if selected
                              and not self._write_w_done else 0)
            up.w.ready.drive(down.w.ready.value if selected else 0)
        if owner is None:
            down.aw.valid.drive(0)
            down.aw.payload.drive(0)
            down.w.valid.drive(0)
            down.w.payload.drive(0)
        else:
            up = self.upstreams[owner]
            down.aw.valid.drive(0 if self._write_w_done else up.aw.valid.value)
            down.aw.payload.drive(up.aw.payload.value)
            down.w.valid.drive(up.w.valid.value)
            down.w.payload.drive(up.w.payload.value)
        # ---- B responses route to the oldest completed burst's owner.
        b_owner = self._b_queue[0] if self._b_queue else None
        for index, up in enumerate(self.upstreams):
            if index == b_owner:
                up.b.valid.drive(down.b.valid.value)
                up.b.payload.drive(down.b.payload.value)
            else:
                up.b.valid.drive(0)
                up.b.payload.drive(0)
        down.b.ready.drive(
            self.upstreams[b_owner].b.ready.value if b_owner is not None else 0)
        # ---- read path.
        r_owner = self._read_owner
        for index, up in enumerate(self.upstreams):
            selected = r_owner == index
            up.ar.ready.drive(down.ar.ready.value if selected
                              and not self._ar_done else 0)
            if selected:
                up.r.valid.drive(down.r.valid.value)
                up.r.payload.drive(down.r.payload.value)
            else:
                up.r.valid.drive(0)
                up.r.payload.drive(0)
        if r_owner is None:
            down.ar.valid.drive(0)
            down.ar.payload.drive(0)
            down.r.ready.drive(0)
        else:
            up = self.upstreams[r_owner]
            down.ar.valid.drive(0 if self._ar_done else up.ar.valid.value)
            down.ar.payload.drive(up.ar.payload.value)
            down.r.ready.drive(up.r.ready.value)

    # ------------------------------------------------------------------
    def _next_requester(self, start: int, want_write: bool) -> Optional[int]:
        n = len(self.upstreams)
        for offset in range(n):
            index = (start + offset) % n
            channel = (self.upstreams[index].aw if want_write
                       else self.upstreams[index].ar)
            if channel.valid.value:
                return index
        return None

    def seq(self) -> None:
        down = self.downstream
        # Write-path bookkeeping. A burst owns the path until both its AW
        # and its last W beat have been consumed downstream (either order).
        if self._write_owner is not None:
            if down.aw.fired:
                self._write_w_done = True
                self.wake()
            if down.w.fired and down.w.spec.extract(down.w.payload.value,
                                                    "last"):
                self._w_last_seen = True
                self.wake()
            if self._write_w_done and self._w_last_seen:
                self._b_queue.append(self._write_owner)
                self._write_owner = None
                self._write_w_done = False
                self._w_last_seen = False
                self.wake()
        if down.b.fired and self._b_queue:
            self._b_queue.popleft()
            self.wake()
        if self._write_owner is None:
            chosen = self._next_requester(self._write_rr, want_write=True)
            if chosen is not None:
                self._write_owner = chosen
                self._write_rr = (chosen + 1) % len(self.upstreams)
                self.write_grants[chosen] += 1
                self.wake()
        # Read-path bookkeeping.
        if self._read_owner is not None:
            if down.ar.fired:
                self._ar_done = True
                self.wake()
            if down.r.fired and down.r.spec.extract(down.r.payload.value,
                                                    "last"):
                self._read_owner = None
                self._ar_done = False
                self.wake()
        if self._read_owner is None:
            chosen = self._next_requester(self._read_rr, want_write=False)
            if chosen is not None:
                self._read_owner = chosen
                self._read_rr = (chosen + 1) % len(self.upstreams)
                self.read_grants[chosen] += 1
                self.wake()

    def reset_state(self) -> None:
        super().reset_state()
        self._write_owner = None
        self._write_rr = 0
        self._write_w_done = False
        self._w_last_seen = False
        self._b_queue.clear()
        self._read_owner = None
        self._read_rr = 0
        self._ar_done = False
        self.write_grants = [0] * len(self.upstreams)
        self.read_grants = [0] * len(self.upstreams)
