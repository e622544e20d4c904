"""§5.2 debugging case study: the echo server on a buggy Frame FIFO.

The FPGA component receives PCIe DMA writes, converts each 512-bit beat (a
*frame*) into sixteen 32-bit fragments, feeds them through the buggy Frame
FIFO ported from the FPGA-bug survey [59], and stores the FIFO's output
into on-FPGA DRAM. The CPU side runs two threads: T1 streams frames in and
validates the echoed output with DMA reads; T2 starts the drain engine by
writing a control register.

Both bugs the paper debugs are reproduced:

* **Unaligned DMA access** — the fragmentiser ignores the byte strobes of
  unaligned beats, enqueueing garbage lanes. The vendor simulation never
  produces strobes, so the bug only manifests on "hardware"; replaying a
  hardware-recorded trace *in* simulation exposes the missing bitmasks.
* **Delayed start** — if T2's control write lands after T1 has streamed
  enough frames, the FIFO fills and the buggy implementation silently
  drops mid-frame fragments. The vendor simulation cannot run two host
  threads at all, so the race is invisible pre-deployment.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.apps.base import REG_ARG0, REG_CTRL, Accelerator
from repro.apps.hostlib import random_bytes
from repro.platform.cpu import DmaRead, DmaWrite, MmioWrite, WaitCycles
from repro.sim.fifo import FrameFIFO

REG_OUT_ADDR = REG_ARG0

IN_BASE = 0x0_0000
OUT_BASE = 0x8_0000
FRAGMENTS_PER_FRAME = 16
FIFO_CAPACITY = 256          # fragments (16 frames)
DRAIN_PER_CYCLE = 16


class FrameFifoEcho(Accelerator):
    """Echo server: DMA beats -> fragments -> (buggy) frame FIFO -> DRAM."""

    def __init__(self, name: str, interfaces, buggy: bool = True,
                 honour_strobes: bool = False):
        super().__init__(name, interfaces, doorbell=False)
        self.fifo = FrameFIFO(f"{name}.fifo", FIFO_CAPACITY,
                              FRAGMENTS_PER_FRAME, buggy=buggy)
        self.honour_strobes = honour_strobes
        self.draining = False
        self.fragments_out = 0
        # The base seq()'s deadline, joined with the drain engine's work.
        self.seq_idle_when(("until", "_wake_at"), ("falsy", "drain_pending"))

    @property
    def drain_pending(self) -> bool:
        """The drain engine is engaged and has fragments to move."""
        return self.draining and not self.fifo.is_empty

    # ------------------------------------------------------------------
    def on_reg_write(self, index: int, value: int) -> None:
        self.regs[index] = value
        if index == REG_CTRL and (value & 1):
            self.draining = True   # T2's "initiate the FPGA component"

    def on_stream_beat(self, addr: int, data: int, strobe: int) -> None:
        if addr >= OUT_BASE:
            return   # only the input window feeds the FIFO
        for lane in range(FRAGMENTS_PER_FRAME):
            lane_strobe = (strobe >> (4 * lane)) & 0xF
            if self.honour_strobes and lane_strobe != 0xF:
                continue   # the correct behaviour: skip invalid fragments
            # Bug #1: fragments are enqueued regardless of the strobe mask,
            # so unaligned DMA injects garbage lanes.
            fragment = (data >> (32 * lane)) & 0xFFFF_FFFF
            self.fifo.push(fragment)   # bug #2 lives inside the buggy FIFO

    def seq(self) -> None:
        super().seq()
        if not self.draining:
            return
        for _ in range(DRAIN_PER_CYCLE):
            if self.fifo.is_empty:
                break
            fragment = self.fifo.pop()
            self.dram.write_bytes(OUT_BASE + 4 * self.fragments_out,
                                  fragment.to_bytes(4, "little"))
            self.fragments_out += 1

    def kernel(self):
        return iter(())   # the echo path is reactive; no batch kernel

    def reset_state(self) -> None:
        super().reset_state()
        self.fifo.clear()
        self.draining = False
        self.fragments_out = 0


# ----------------------------------------------------------------------
# host threads
# ----------------------------------------------------------------------

def sender_thread(result: dict, seed: int, n_frames: int = 32,
                  unaligned_offset: int = 0, settle_cycles: int = 3000):
    """T1: stream frames in, wait, read the echoed region back, validate."""
    rng = random.Random(seed)
    payload = random_bytes(rng, n_frames * 64)
    # Stream in bursts; an optional unaligned tail beat triggers bug #1.
    yield DmaWrite(IN_BASE, payload)
    if unaligned_offset:
        tail = random_bytes(rng, 32)
        yield DmaWrite(IN_BASE + n_frames * 64 + unaligned_offset, tail)
    yield WaitCycles(settle_cycles)
    echoed = yield DmaRead(OUT_BASE, len(payload))
    result["expected"] = payload
    result["echoed"] = echoed
    result["ok"] = echoed == payload
    mismatches = [i for i in range(len(payload)) if echoed[i] != payload[i]]
    result["mismatch_bytes"] = len(mismatches)
    result["first_mismatch"] = mismatches[0] if mismatches else None


def starter_thread(delay_cycles: int):
    """T2: start the echo engine after an (unlucky) scheduling delay."""
    yield WaitCycles(delay_cycles)
    yield MmioWrite("ocl", REG_CTRL * 4, 1)


def make(buggy: bool = True, honour_strobes: bool = False,
         start_delay: int = 4, n_frames: int = 32, unaligned_offset: int = 0):
    """Factory for the registry/harness; host side is two threads."""
    def accelerator_factory(interfaces: Dict) -> FrameFifoEcho:
        return FrameFifoEcho("frame_fifo_echo", interfaces, buggy=buggy,
                             honour_strobes=honour_strobes)

    def host_threads(result: dict, seed: int) -> List:
        return [
            sender_thread(result, seed, n_frames=n_frames,
                          unaligned_offset=unaligned_offset),
            starter_thread(start_delay),
        ]

    return accelerator_factory, host_threads
