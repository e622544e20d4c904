"""FPGA-side AXI manager: the accelerator's DMA engine on pcim.

Accelerators queue DMA descriptors; the manager turns them into AXI bursts
(AW + W beats, then a B acknowledgement; or AR then R beats) on the
FPGA-managed interface. Completion callbacks let accelerator kernels block
on their DMA traffic.

The manager issues AW *before* the first W beat of a burst — the behaviour
real DMA write logic exhibits and the reason the §5.3 ordering bug never
fires in ordinary executions; only a mutated trace can complete W first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.channels.axi import AXI4_SPECS, AxiInterface
from repro.errors import SimulationError
from repro.sim.module import Module

MAX_BURST_BEATS = 8
FULL_STROBE = (1 << 64) - 1

# The (offset, mask) pair of every field a beat path builds or reads,
# taken once from AXI4_SPECS: no beat builds a field dict or calls
# pack/unpack. Every address beat asks for size 6 (2^6 = 64 bytes per
# beat) with id 0, and every W beat has id 0.
(_AW_ADDR_AT, _AW_ADDR_MASK, _AW_LEN_AT, _AW_LEN_MASK, _AW_SIZE_AT,
 _AW_SIZE_MASK) = AXI4_SPECS["aw"].slots("addr", "len", "size")
_AW_SIZE_64 = (6 & _AW_SIZE_MASK) << _AW_SIZE_AT
_W_DATA_AT, _W_DATA_MASK, _W_STRB_AT, _W_STRB_MASK = (
    AXI4_SPECS["w"].slots("data", "strb"))
_W_LAST_AT = AXI4_SPECS["w"].slots("last")[0]
(_AR_ADDR_AT, _AR_ADDR_MASK, _AR_LEN_AT, _AR_LEN_MASK, _AR_SIZE_AT,
 _AR_SIZE_MASK) = AXI4_SPECS["ar"].slots("addr", "len", "size")
_AR_SIZE_64 = (6 & _AR_SIZE_MASK) << _AR_SIZE_AT
_R_DATA_AT, _R_DATA_MASK, _R_LAST_AT, _R_LAST_MASK = (
    AXI4_SPECS["r"].slots("data", "last"))


@dataclass
class WriteDescriptor:
    """One DMA write: 64-byte words (data, strobe) to a host address."""

    addr: int
    beats: List[Tuple[int, int]]      # (data, strobe) per 64-byte word
    on_complete: Optional[Callable[[], None]] = None


@dataclass
class ReadDescriptor:
    """One DMA read of ``n_words`` 64-byte words from a host address."""

    addr: int
    n_words: int
    on_complete: Optional[Callable[[List[int]], None]] = None
    _data: List[int] = field(default_factory=list)


class AxiManager(Module):
    """Burst-issuing DMA engine on an FPGA-managed AXI interface.

    Scheduling: ``comb()`` reads only the in-flight descriptor state, which
    changes exclusively in ``seq()`` (descriptor promotion and handshake
    progress) — each such branch wakes the module. Queue appends from the
    accelerator API need no wake of their own: promotion happens in the
    same cycle's ``seq()``.
    """

    def __init__(self, name: str, interface: AxiInterface):
        super().__init__(name)
        self.interface = interface
        self._write_queue: Deque[WriteDescriptor] = deque()
        self._read_queue: Deque[ReadDescriptor] = deque()
        # In-flight write burst state.
        self._w_desc: Optional[WriteDescriptor] = None
        self._w_sent = 0            # beats handed to the W channel
        self._w_bursts_pending = 0  # B acks still expected for current descriptor
        self._aw_sent_bursts = 0
        self._w_addr = 0
        # In-flight read burst state.
        self._r_desc: Optional[ReadDescriptor] = None
        self._ar_issued = False
        self._r_requested = 0
        self.writes_completed = 0
        self.reads_completed = 0
        self.sensitive_to()
        self.drives(interface.aw.valid, interface.aw.payload,
                    interface.w.valid, interface.w.payload,
                    interface.b.ready, interface.ar.valid,
                    interface.ar.payload, interface.r.ready)
        # All sequential work is descriptor progress; every fired check is
        # gated on an in-flight descriptor.
        self.seq_idle_when(("none", "_w_desc"), ("falsy", "_write_queue"),
                           ("none", "_r_desc"), ("falsy", "_read_queue"))

    # ------------------------------------------------------------------
    # accelerator-facing API
    # ------------------------------------------------------------------
    def dma_write(self, addr: int, beats: Sequence[Tuple[int, int]],
                  on_complete: Optional[Callable[[], None]] = None) -> None:
        """Queue a DMA write of (data, strobe) words to host address ``addr``."""
        if addr % 64:
            raise SimulationError(f"{self.name}: unaligned DMA write {addr:#x}")
        if not beats:
            raise SimulationError(f"{self.name}: empty DMA write")
        self._write_queue.append(WriteDescriptor(addr, list(beats), on_complete))

    def dma_write_bytes(self, addr: int, data: bytes,
                        on_complete: Optional[Callable[[], None]] = None) -> None:
        """Queue a DMA write of raw bytes (padded to whole 64-byte words)."""
        beats = []
        for offset in range(0, len(data), 64):
            chunk = data[offset:offset + 64]
            strobe = (1 << len(chunk)) - 1
            beats.append((int.from_bytes(chunk.ljust(64, b"\0"), "little"), strobe))
        self.dma_write(addr, beats, on_complete)

    def dma_read(self, addr: int, n_words: int,
                 on_complete: Optional[Callable[[List[int]], None]] = None) -> None:
        """Queue a DMA read of ``n_words`` 64-byte words from ``addr``."""
        if addr % 64:
            raise SimulationError(f"{self.name}: unaligned DMA read {addr:#x}")
        self._read_queue.append(ReadDescriptor(addr, n_words, on_complete))

    @property
    def idle(self) -> bool:
        """No queued or in-flight DMA."""
        return (not self._write_queue and not self._read_queue
                and self._w_desc is None and self._r_desc is None)

    # ------------------------------------------------------------------
    def _burst_plan(self, desc: WriteDescriptor) -> List[int]:
        """Beats per burst for a descriptor (bursts capped at MAX_BURST_BEATS)."""
        total = len(desc.beats)
        plan = []
        while total > 0:
            take = min(total, MAX_BURST_BEATS)
            plan.append(take)
            total -= take
        return plan

    def comb(self) -> None:
        # Each output is driven only when its value changes.
        iface = self.interface
        # --- write address: issue AW for the next un-issued burst.
        aw_valid = 0
        aw_payload = 0
        if self._w_desc is not None:
            plan = self._burst_plan(self._w_desc)
            if self._aw_sent_bursts < len(plan):
                burst_len = plan[self._aw_sent_bursts]
                offset = sum(plan[:self._aw_sent_bursts]) * 64
                aw_valid = 1
                aw_payload = (
                    (((self._w_desc.addr + offset) & _AW_ADDR_MASK)
                     << _AW_ADDR_AT)
                    | (((burst_len - 1) & _AW_LEN_MASK) << _AW_LEN_AT)
                    | _AW_SIZE_64)
        if iface.aw.valid.value != aw_valid:
            iface.aw.valid.drive(aw_valid)
        if iface.aw.payload.value != aw_payload:
            iface.aw.payload.drive(aw_payload)
        # --- write data: beats of a burst flow as soon as that burst's AW is
        # *presented* (not completed) — the AXI-legal concurrency the §5.3
        # mutation exploits by completing W before AW.
        w_valid = 0
        w_payload = 0
        if self._w_desc is not None:
            plan = self._burst_plan(self._w_desc)
            presented_bursts = self._aw_sent_bursts + (1 if aw_valid else 0)
            issued_beats = sum(plan[:presented_bursts])
            if self._w_sent < issued_beats:
                data, strobe = self._w_desc.beats[self._w_sent]
                burst_end = 0
                acc = 0
                for burst_len in plan:
                    acc += burst_len
                    if self._w_sent < acc:
                        burst_end = acc - 1
                        break
                w_valid = 1
                w_payload = (
                    ((data & _W_DATA_MASK) << _W_DATA_AT)
                    | ((strobe & _W_STRB_MASK) << _W_STRB_AT)
                    | ((1 if self._w_sent == burst_end else 0) << _W_LAST_AT))
        if iface.w.valid.value != w_valid:
            iface.w.valid.drive(w_valid)
        if iface.w.payload.value != w_payload:
            iface.w.payload.drive(w_payload)
        if iface.b.ready.value != 1:
            iface.b.ready.drive(1)
        # --- read address: one burst at a time, re-issued until all words
        # have been requested.
        ar_valid = 0
        ar_payload = 0
        if self._r_desc is not None and not self._ar_issued:
            remaining = self._r_desc.n_words - self._r_requested
            if remaining > 0:
                ar_valid = 1
                ar_payload = (
                    (((self._r_desc.addr + self._r_requested * 64)
                      & _AR_ADDR_MASK) << _AR_ADDR_AT)
                    | (((min(remaining, MAX_BURST_BEATS) - 1) & _AR_LEN_MASK)
                       << _AR_LEN_AT)
                    | _AR_SIZE_64)
        if iface.ar.valid.value != ar_valid:
            iface.ar.valid.drive(ar_valid)
        if iface.ar.payload.value != ar_payload:
            iface.ar.payload.drive(ar_payload)
        if iface.r.ready.value != 1:
            iface.r.ready.drive(1)

    def seq(self) -> None:
        iface = self.interface
        # Promote queued descriptors.
        if self._w_desc is None and self._write_queue:
            self._w_desc = self._write_queue.popleft()
            self._w_sent = 0
            self._aw_sent_bursts = 0
            self._w_bursts_pending = len(self._burst_plan(self._w_desc))
            self.wake()
        if self._r_desc is None and self._read_queue:
            self._r_desc = self._read_queue.popleft()
            self._ar_issued = False
            self._r_requested = 0
            self.wake()
        # Write progress.
        if self._w_desc is not None:
            if iface.aw.valid.value and iface.aw.ready.value:
                self._aw_sent_bursts += 1
                self.wake()
            if iface.w.valid.value and iface.w.ready.value:
                self._w_sent += 1
                self.wake()
            if iface.b.valid.value and iface.b.ready.value:
                self._w_bursts_pending -= 1
                if self._w_bursts_pending == 0:
                    done = self._w_desc
                    self._w_desc = None
                    self.writes_completed += 1
                    self.wake()
                    if done.on_complete is not None:
                        done.on_complete()
        # Read progress.
        if self._r_desc is not None:
            if iface.ar.valid.value and iface.ar.ready.value:
                remaining = self._r_desc.n_words - self._r_requested
                self._r_requested += min(remaining, MAX_BURST_BEATS)
                self._ar_issued = True
                self.wake()
            if iface.r.valid.value and iface.r.ready.value:
                word = iface.r.payload.value
                self._r_desc._data.append((word >> _R_DATA_AT) & _R_DATA_MASK)
                if (word >> _R_LAST_AT) & _R_LAST_MASK:
                    desc = self._r_desc
                    if len(desc._data) >= desc.n_words:
                        self._r_desc = None
                        self.reads_completed += 1
                        if desc.on_complete is not None:
                            desc.on_complete(desc._data)
                    else:
                        self._ar_issued = False  # issue the next burst's AR
                    self.wake()

    def reset_state(self) -> None:
        super().reset_state()
        self._write_queue.clear()
        self._read_queue.clear()
        self._w_desc = None
        self._w_sent = 0
        self._w_bursts_pending = 0
        self._aw_sent_bursts = 0
        self._r_desc = None
        self._ar_issued = False
        self._r_requested = 0
        self.writes_completed = 0
        self.reads_completed = 0
