"""FPGA-side and memory-side AXI subordinate state machines.

* :class:`AxiLiteSubordinate` serves MMIO register reads/writes (sda, ocl,
  bar1) against pluggable read/write hooks — accelerators wire these to
  their control/status register files.
* :class:`AxiSubordinate` serves 512-bit burst DMA against a
  :class:`~repro.sim.memory.WordMemory`, honouring write strobes. It is
  every memory end of the deployment: pcis into the on-FPGA DRAM (with an
  optional observer of every data beat — the streaming hook the
  echo-server case studies build on), the host end of pcim (host DRAM
  with seeded latency jitter, paced by the PCIe link) and the DDR4
  controller.

Both accept AW and W in either order (as the AXI spec requires — the very
liberty the buggy ``axi_atop_filter`` of §5.3 mishandles).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.channels.axi import AXI4_SPECS, AXI_LITE_SPECS, AxiInterface
from repro.sim.memory import WordMemory
from repro.sim.module import Module

RegReader = Callable[[int], int]
RegWriter = Callable[[int, int], None]

RESPONSE_LATENCY = 1
"""Cycles an AXI-Lite response waits after its request is served."""

# The (offset, mask) pair of every field a beat path reads or builds,
# taken once from the specs: no beat builds a field dict or calls
# pack/unpack. Both response channels answer OKAY, a zero resp field.
_LITE_AW_ADDR_AT, _LITE_AW_ADDR_MASK = AXI_LITE_SPECS["aw"].slots("addr")
(_LITE_W_DATA_AT, _LITE_W_DATA_MASK, _LITE_W_STRB_AT,
 _LITE_W_STRB_MASK) = AXI_LITE_SPECS["w"].slots("data", "strb")
_LITE_AR_ADDR_AT, _LITE_AR_ADDR_MASK = AXI_LITE_SPECS["ar"].slots("addr")
_LITE_R_DATA_AT, _LITE_R_DATA_MASK = AXI_LITE_SPECS["r"].slots("data")
(_AW_ADDR_AT, _AW_ADDR_MASK, _AW_LEN_AT, _AW_LEN_MASK, _AW_ID_AT,
 _AW_ID_MASK) = AXI4_SPECS["aw"].slots("addr", "len", "id")
(_W_DATA_AT, _W_DATA_MASK, _W_STRB_AT, _W_STRB_MASK, _W_LAST_AT,
 _W_LAST_MASK) = AXI4_SPECS["w"].slots("data", "strb", "last")
_B_ID_AT, _B_ID_MASK = AXI4_SPECS["b"].slots("id")
(_AR_ADDR_AT, _AR_ADDR_MASK, _AR_LEN_AT, _AR_LEN_MASK, _AR_ID_AT,
 _AR_ID_MASK) = AXI4_SPECS["ar"].slots("addr", "len", "id")
(_R_DATA_AT, _R_DATA_MASK, _R_ID_AT, _R_ID_MASK, _R_LAST_AT,
 _R_LAST_MASK) = AXI4_SPECS["r"].slots("data", "id", "last")


class AxiLiteSubordinate(Module):
    """Serves one AXI-Lite interface from register read/write hooks.

    Scheduling: ``comb()`` reads only the latched request/response state,
    all of which is mutated in ``seq()``. Every branch that can move a comb
    output wakes the module; a latency countdown wakes it once, at zero.
    It is quiescent whenever no MMIO transaction is in flight.
    """

    def __init__(self, name: str, interface: AxiInterface,
                 reg_read: RegReader, reg_write: RegWriter):
        super().__init__(name)
        self.interface = interface
        self.reg_read = reg_read
        self.reg_write = reg_write
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
        # Each output is driven only when its value changes. B carries
        # only its zero resp, so its payload keeps the reset value 0.
        iface = self.interface
        b_pending = self._b_pending
        signal = iface.aw.ready
        value = 0 if self._aw is not None or b_pending else 1
        if signal.value != value:
            signal.drive(value)
        signal = iface.w.ready
        value = 0 if self._w is not None or b_pending else 1
        if signal.value != value:
            signal.drive(value)
        signal = iface.b.valid
        value = 1 if b_pending and self._b_wait == 0 else 0
        if signal.value != value:
            signal.drive(value)
        r_pending = self._r_pending
        signal = iface.ar.ready
        value = 0 if self._ar is not None or r_pending is not None else 1
        if signal.value != value:
            signal.drive(value)
        r = iface.r
        if r_pending is not None and self._r_wait == 0:
            valid = 1
            payload = (r_pending & _LITE_R_DATA_MASK) << _LITE_R_DATA_AT
        else:
            valid = payload = 0
        if r.valid.value != valid:
            r.valid.drive(valid)
        if r.payload.value != payload:
            r.payload.drive(payload)

    def seq(self) -> None:
        iface = self.interface
        # Write path: accept AW and W independently, commit when both held.
        if iface.aw.valid.value and iface.aw.ready.value:
            self._aw = ((iface.aw.payload.value >> _LITE_AW_ADDR_AT)
                        & _LITE_AW_ADDR_MASK)
            self.wake()
        if iface.w.valid.value and iface.w.ready.value:
            word = iface.w.payload.value
            self._w = ((word >> _LITE_W_DATA_AT) & _LITE_W_DATA_MASK,
                       (word >> _LITE_W_STRB_AT) & _LITE_W_STRB_MASK)
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
            self._b_wait = RESPONSE_LATENCY
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
            self._ar = ((iface.ar.payload.value >> _LITE_AR_ADDR_AT)
                        & _LITE_AR_ADDR_MASK)
            self.wake()
        if self._ar is not None and self._r_pending is None:
            self._r_pending = self.reg_read(self._ar) & 0xFFFF_FFFF
            self._r_wait = RESPONSE_LATENCY
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
    """Serves a 512-bit AXI4 burst interface from a word memory.

    One class serves the three memory ends of an F1 deployment (§4.1):
    pcis from the on-FPGA DRAM (the defaults), the host end of pcim from
    host DRAM, and with the DDR4 customisation the ddr4 bus from the
    accelerator's DRAM. Read data appears ``read_latency`` cycles after
    the AR handshake and a write response ``write_latency`` cycles after
    its burst's last beat commits, each plus a seeded draw from
    ``0..jitter``: the physical-timing non-determinism (PCIe arbitration,
    DRAM scheduling, cloud neighbours) that makes FPGA executions
    unreproducible without Vidi. With a ``pcie`` arbiter every data beat
    crosses the shared link: after each accepted W beat READY stays low
    until the next beat's credit is granted, and each R beat is presented
    only once its credit is paid. ``write_observer`` sees every committed
    write beat, the streaming hook the echo-server case studies build on.

    The interface carries the :data:`~repro.channels.axi.AXI4_SPECS`
    layouts: ``seq()`` reads the AW, W and AR fields and ``comb()`` builds
    the B and R words by the shifts and masks of this module's constants,
    so no beat builds a field dict or calls ``pack``/``unpack``.

    Scheduling: ``comb()`` reads the burst queues, the latency countdowns
    and the pacing flags, all mutated in ``seq()``, and while it presents
    an R beat, ``memory`` contents. ``seq()`` wakes on every queue or
    pacing change and once when a countdown reaches zero, and a
    memory-write subscription wakes the module only while it presents an
    R beat, so out-of-band writers (accelerators, host threads) re-drive
    the beat and other writes cost nothing. An unpaced subordinate's R
    beats are paid from the start, so its pacing flags never move.
    """

    WORD_BYTES = 64

    def __init__(self, name: str, interface: AxiInterface, memory: WordMemory,
                 write_observer: Optional[BeatObserver] = None,
                 read_latency: int = 2, write_latency: int = 0,
                 jitter: int = 0, seed: Optional[int] = 0, pcie=None):
        super().__init__(name)
        self.interface = interface
        self.memory = memory
        self.write_observer = write_observer
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.jitter = jitter
        self._rng = random.Random(seed) if jitter > 0 else None
        self.pcie = pcie
        self._w_allow = 1               # W READY may rise (link credit held)
        self._r_paid = pcie is None     # the presented R beat's credit is paid
        # Write burst state: accept AW and W in either order.
        self._pending_aw: Deque[Tuple[int, int, int]] = deque()  # (addr, len, id)
        self._pending_w: Deque[Tuple[int, int, int]] = deque()   # (data, strb, last)
        self._b_queue: Deque[Tuple[int, int]] = deque()  # (id, delay remaining)
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
        if self._read_burst is not None and not self._r_wait and self._r_paid:
            self.wake()

    # ------------------------------------------------------------------
    def comb(self) -> None:
        # Each output is driven only when its value changes: most
        # evaluations move one or two of the seven.
        iface = self.interface
        signal = iface.aw.ready
        value = 0 if len(self._pending_aw) >= 4 else 1
        if signal.value != value:
            signal.drive(value)
        signal = iface.w.ready
        value = 0 if (len(self._pending_w) >= 16 or not self._w_allow) else 1
        if signal.value != value:
            signal.drive(value)
        b = iface.b
        b_queue = self._b_queue
        if b_queue and b_queue[0][1] == 0:
            valid = 1
            payload = (b_queue[0][0] & _B_ID_MASK) << _B_ID_AT
        else:
            valid = payload = 0
        if b.valid.value != valid:
            b.valid.drive(valid)
        if b.payload.value != payload:
            b.payload.drive(payload)
        signal = iface.ar.ready
        value = 0 if self._read_burst is not None else 1
        if signal.value != value:
            signal.drive(value)
        r = iface.r
        burst = self._read_burst
        if burst is not None and self._r_wait == 0 and self._r_paid:
            addr, remaining, burst_id = burst
            valid = 1
            payload = (
                ((self.memory.read_word(addr) & _R_DATA_MASK) << _R_DATA_AT)
                | ((burst_id & _R_ID_MASK) << _R_ID_AT)
                | ((1 if remaining == 1 else 0) << _R_LAST_AT))
        else:
            valid = payload = 0
        if r.valid.value != valid:
            r.valid.drive(valid)
        if r.payload.value != payload:
            r.payload.drive(payload)

    def seq(self) -> None:
        iface = self.interface
        pcie = self.pcie
        if pcie is not None:
            # A write beat needs link credit before READY rises; a read
            # beat is paid for once, then presented until it fires.
            if iface.w.valid.value and not iface.w.ready.value:
                allow = 1 if pcie.request_app() else 0
                if allow != self._w_allow:
                    self._w_allow = allow
                    self.wake()
            elif iface.w.valid.value and iface.w.ready.value:
                if self._w_allow:
                    self._w_allow = 0
                    self.wake()
            if (self._read_burst is not None and self._r_wait <= 1
                    and not self._r_paid):
                self._r_paid = pcie.request_app()
                if self._r_paid:
                    self.wake()
        if iface.aw.valid.value and iface.aw.ready.value:
            word = iface.aw.payload.value
            self._pending_aw.append(((word >> _AW_ADDR_AT) & _AW_ADDR_MASK,
                                     ((word >> _AW_LEN_AT) & _AW_LEN_MASK) + 1,
                                     (word >> _AW_ID_AT) & _AW_ID_MASK))
            self.wake()
        if iface.w.valid.value and iface.w.ready.value:
            word = iface.w.payload.value
            self._pending_w.append(((word >> _W_DATA_AT) & _W_DATA_MASK,
                                    (word >> _W_STRB_AT) & _W_STRB_MASK,
                                    (word >> _W_LAST_AT) & _W_LAST_MASK))
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
                delay = self.write_latency
                if self._rng is not None:
                    delay += self._rng.randrange(self.jitter + 1)
                self._b_queue.append((burst_id, delay))
            else:
                self._pending_aw[0] = (addr + self.WORD_BYTES, remaining, burst_id)
            self.wake()   # queue depths / B response changed
        if self._b_queue:
            burst_id, delay = self._b_queue[0]
            if delay > 0:
                self._b_queue[0] = (burst_id, delay - 1)
                if delay == 1:
                    self.wake()   # the response appears at zero
            elif iface.b.valid.value and iface.b.ready.value:
                self._b_queue.popleft()
                self.wake()
        # Read bursts.
        if iface.ar.valid.value and iface.ar.ready.value:
            word = iface.ar.payload.value
            self._read_burst = ((word >> _AR_ADDR_AT) & _AR_ADDR_MASK,
                                ((word >> _AR_LEN_AT) & _AR_LEN_MASK) + 1,
                                (word >> _AR_ID_AT) & _AR_ID_MASK)
            self._r_wait = self.read_latency
            if self._rng is not None:
                self._r_wait += self._rng.randrange(self.jitter + 1)
            self.wake()
        if self._read_burst is not None:
            if self._r_wait > 0:
                self._r_wait -= 1
                if not self._r_wait:
                    self.wake()   # the first beat can appear at zero
            elif iface.r.valid.value and iface.r.ready.value:
                addr, remaining, burst_id = self._read_burst
                self.read_beats += 1
                if pcie is not None:
                    self._r_paid = False   # the next beat needs fresh credit
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
        self._r_paid = self.pcie is None
        self.write_beats = 0
        self.read_beats = 0
