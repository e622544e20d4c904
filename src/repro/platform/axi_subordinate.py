"""FPGA-side AXI subordinate state machines.

These modules are the application side of the CPU-managed interfaces:

* :class:`AxiLiteSubordinate` serves MMIO register reads/writes (sda, ocl,
  bar1) against pluggable read/write hooks — accelerators wire these to
  their control/status register files.
* :class:`AxiSubordinate` serves 512-bit burst DMA (pcis) against a
  :class:`~repro.sim.memory.WordMemory` (the on-FPGA DRAM), honouring
  write strobes and notifying an optional observer of every data beat —
  the streaming hook the echo-server case studies build on.

Both accept AW and W in either order (as the AXI spec requires — the very
liberty the buggy ``axi_atop_filter`` of §5.3 mishandles).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.channels.axi import AxiInterface
from repro.sim.memory import WordMemory
from repro.sim.module import Module

RegReader = Callable[[int], int]
RegWriter = Callable[[int, int], None]


class AxiLiteSubordinate(Module):
    """Serves one AXI-Lite interface from register read/write hooks.

    Scheduling: ``comb()`` reads only the latched request/response state,
    all of which is mutated in ``seq()``. Every branch that can move a comb
    output wakes the module; a latency countdown wakes it once, at zero.
    It is quiescent whenever no MMIO transaction is in flight.
    """

    comb_static = True

    def __init__(self, name: str, interface: AxiInterface,
                 reg_read: RegReader, reg_write: RegWriter,
                 response_latency: int = 1):
        super().__init__(name)
        self.interface = interface
        self.reg_read = reg_read
        self.reg_write = reg_write
        self.response_latency = response_latency
        self._aw: Optional[int] = None          # latched write address
        self._w: Optional[Tuple[int, int]] = None  # latched (data, strb)
        self._b_wait = 0                        # response latency countdown
        self._b_pending = False
        self._ar: Optional[int] = None
        self._r_wait = 0
        self._r_pending: Optional[int] = None   # read data to return
        self.writes_served = 0
        self.reads_served = 0
        self.sensitive_to()
        self.drives(interface.aw.ready, interface.w.ready,
                    interface.b.valid, interface.b.payload,
                    interface.ar.ready, interface.r.valid,
                    interface.r.payload)
        # Idle iff no request presented and nothing latched or pending
        # (B/R valids are our own comb outputs and are low when idle).
        self.seq_idle_when(("low", interface.aw.valid),
                           ("low", interface.w.valid),
                           ("low", interface.ar.valid),
                           ("none", "_aw"), ("none", "_w"),
                           ("falsy", "_b_pending"),
                           ("none", "_ar"), ("none", "_r_pending"))

    # ------------------------------------------------------------------
    def comb(self) -> None:
        iface = self.interface
        iface.aw.ready.drive(0 if self._aw is not None or self._b_pending else 1)
        iface.w.ready.drive(0 if self._w is not None or self._b_pending else 1)
        if self._b_pending and self._b_wait == 0:
            iface.b.valid.drive(1)
            iface.b.payload.drive(iface.b.spec.pack({"resp": 0}))
        else:
            iface.b.valid.drive(0)
            iface.b.payload.drive(0)
        iface.ar.ready.drive(0 if self._ar is not None or self._r_pending is not None else 1)
        if self._r_pending is not None and self._r_wait == 0:
            iface.r.valid.drive(1)
            iface.r.payload.drive(iface.r.spec.pack(
                {"data": self._r_pending, "resp": 0}))
        else:
            iface.r.valid.drive(0)
            iface.r.payload.drive(0)

    def seq(self) -> None:
        iface = self.interface
        # Write path: accept AW and W independently, commit when both held.
        if iface.aw.valid.value and iface.aw.ready.value:
            self._aw = iface.aw.spec.extract(iface.aw.payload.value, "addr")
            self.wake()
        if iface.w.valid.value and iface.w.ready.value:
            w = iface.w.payload_dict()
            self._w = (w["data"], w["strb"])
            self.wake()
        if self._aw is not None and self._w is not None and not self._b_pending:
            data, strb = self._w
            if strb == 0xF:
                self.reg_write(self._aw, data)
            else:
                # Byte-granular merge for partial-strobe MMIO writes.
                old = self.reg_read(self._aw)
                merged = 0
                for lane in range(4):
                    src = data if (strb >> lane) & 1 else old
                    merged |= src & (0xFF << (8 * lane))
                self.reg_write(self._aw, merged)
            self._b_pending = True
            self._b_wait = self.response_latency
            self._aw = None
            self._w = None
            self.wake()
        if self._b_pending:
            if self._b_wait > 0:
                self._b_wait -= 1
                if not self._b_wait:
                    self.wake()   # the response appears at zero
            elif iface.b.valid.value and iface.b.ready.value:
                self._b_pending = False
                self.writes_served += 1
                self.wake()
        # Read path.
        if iface.ar.valid.value and iface.ar.ready.value:
            self._ar = iface.ar.spec.extract(iface.ar.payload.value, "addr")
            self.wake()
        if self._ar is not None and self._r_pending is None:
            self._r_pending = self.reg_read(self._ar) & 0xFFFF_FFFF
            self._r_wait = self.response_latency
            self._ar = None
            self.wake()
        if self._r_pending is not None:
            if self._r_wait > 0:
                self._r_wait -= 1
                if not self._r_wait:
                    self.wake()   # the read data appears at zero
            elif iface.r.valid.value and iface.r.ready.value:
                self._r_pending = None
                self.reads_served += 1
                self.wake()

    def reset_state(self) -> None:
        super().reset_state()
        self._aw = None
        self._w = None
        self._b_pending = False
        self._b_wait = 0
        self._ar = None
        self._r_pending = None
        self._r_wait = 0
        self.writes_served = 0
        self.reads_served = 0


BeatObserver = Callable[[int, int, int], None]
"""Called with (address, data, strobe) for every accepted DMA write beat."""


class AxiSubordinate(Module):
    """Serves a 512-bit burst DMA interface from on-FPGA memory (pcis side).

    Scheduling: ``comb()`` reads the burst queues, the read-latency
    countdown and, while it presents an R beat, ``memory`` contents.
    ``seq()`` wakes on every queue mutation and once when the countdown
    reaches zero, and a memory-write subscription wakes the module only
    while it presents an R beat, so out-of-band writers (accelerators,
    host threads) re-drive the beat and other writes cost nothing.
    """

    comb_static = True

    WORD_BYTES = 64

    def __init__(self, name: str, interface: AxiInterface, memory: WordMemory,
                 write_observer: Optional[BeatObserver] = None,
                 read_latency: int = 2):
        super().__init__(name)
        self.interface = interface
        self.memory = memory
        self.write_observer = write_observer
        self.read_latency = read_latency
        # Write burst state: accept AW and W in either order.
        self._pending_aw: Deque[Tuple[int, int, int]] = deque()  # (addr, len, id)
        self._pending_w: Deque[Tuple[int, int, int]] = deque()   # (data, strb, last)
        self._b_queue: Deque[int] = deque()                      # ids to ack
        # Read burst state.
        self._read_burst: Optional[Tuple[int, int, int]] = None  # (addr, remaining, id)
        self._r_wait = 0
        self.write_beats = 0
        self.read_beats = 0
        self.sensitive_to()
        memory.on_write(self._memory_written)
        self.drives(interface.aw.ready, interface.w.ready,
                    interface.b.valid, interface.b.payload,
                    interface.ar.ready, interface.r.valid,
                    interface.r.payload)
        self.seq_idle_when(("low", interface.aw.valid),
                           ("low", interface.w.valid),
                           ("low", interface.ar.valid),
                           ("falsy", "_pending_aw"), ("falsy", "_pending_w"),
                           ("falsy", "_b_queue"), ("none", "_read_burst"))

    def _memory_written(self) -> None:
        if self._read_burst is not None and not self._r_wait:
            self.wake()

    # ------------------------------------------------------------------
    def comb(self) -> None:
        iface = self.interface
        iface.aw.ready.drive(0 if len(self._pending_aw) >= 4 else 1)
        iface.w.ready.drive(0 if len(self._pending_w) >= 16 else 1)
        if self._b_queue:
            iface.b.valid.drive(1)
            iface.b.payload.drive(iface.b.spec.pack(
                {"id": self._b_queue[0], "resp": 0}))
        else:
            iface.b.valid.drive(0)
            iface.b.payload.drive(0)
        iface.ar.ready.drive(0 if self._read_burst is not None else 1)
        if self._read_burst is not None and self._r_wait == 0:
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
        if iface.aw.valid.value and iface.aw.ready.value:
            aw = iface.aw.payload_dict()
            self._pending_aw.append((aw["addr"], aw["len"] + 1, aw["id"]))
            self.wake()
        if iface.w.valid.value and iface.w.ready.value:
            w = iface.w.payload_dict()
            self._pending_w.append((w["data"], w["strb"], w["last"]))
            self.write_beats += 1
            self.wake()
        # Commit beats once their burst's AW is known.
        while self._pending_aw and self._pending_w:
            addr, remaining, burst_id = self._pending_aw[0]
            data, strb, last = self._pending_w.popleft()
            self.memory.write_word(addr, data, strobe=strb)
            if self.write_observer is not None:
                self.write_observer(addr, data, strb)
            remaining -= 1
            if last or remaining == 0:
                self._pending_aw.popleft()
                self._b_queue.append(burst_id)
            else:
                self._pending_aw[0] = (addr + self.WORD_BYTES, remaining, burst_id)
            self.wake()   # queue depths / B response changed
        if iface.b.valid.value and iface.b.ready.value:
            self._b_queue.popleft()
            self.wake()
        # Read bursts.
        if iface.ar.valid.value and iface.ar.ready.value:
            ar = iface.ar.payload_dict()
            self._read_burst = (ar["addr"], ar["len"] + 1, ar["id"])
            self._r_wait = self.read_latency
            self.wake()
        if self._read_burst is not None:
            if self._r_wait > 0:
                self._r_wait -= 1
                if not self._r_wait:
                    self.wake()   # the first beat appears at zero
            elif iface.r.valid.value and iface.r.ready.value:
                addr, remaining, burst_id = self._read_burst
                self.read_beats += 1
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
        self.write_beats = 0
        self.read_beats = 0
