"""(1) DRAM DMA — the AWS F1 example application.

The paper's first benchmark exercises "many of the features and resources on
the F1 platform, including PCIe register access, bidirectional PCIe DMA
between CPU and FPGA". Our version: the host DMA-writes a source buffer
into on-FPGA DRAM (pcis), programs source/destination/size registers (ocl),
starts the kernel, and reads the copied region back (pcis). The kernel
copies one 64-byte word per cycle and mirrors a prefix of the result to host
memory over pcim.

Completion comes in two flavours:

* **polling** (the shipped behaviour): the host polls the STATUS register
  every ``poll_interval`` cycles — the paper's "CPU polls a value every
  500 ms". Whether a given poll observes *done* depends on physical timing,
  so record and replay can disagree on poll-response contents: the only
  divergence source §5.4 finds.
* **interrupt-patched** (the §3.6 10-line fix): completion is a pcim
  doorbell write — an ordered transaction — and the host blocks on the
  host-memory flag. No cycle-dependent behaviour remains.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.apps.base import (
    DOORBELL_ADDR,
    REG_ARG0,
    REG_CTRL,
    REG_STATUS,
    Accelerator,
)
from repro.apps.hostlib import random_bytes
from repro.platform.cpu import (
    DmaRead,
    DmaWrite,
    MmioRead,
    MmioWrite,
    WaitCycles,
    WaitHostWord,
)

REG_SRC = REG_ARG0        # source byte address in on-FPGA DRAM
REG_DST = REG_ARG0 + 1    # destination byte address
REG_WORDS = REG_ARG0 + 2  # number of 64-byte words to copy

SRC_BASE = 0x0_0000
DST_BASE = 0x8_0000
MIRROR_HOST_ADDR = 0x1_0000   # host address receiving the mirrored prefix
MIRROR_WORDS = 16
POST_DONE_IDLE = 60   # idle cycles between the DONE flip and the mirror DMA


class DramDma(Accelerator):
    """Copy engine over on-FPGA DRAM with a pcim mirror write."""

    def __init__(self, name: str, interfaces, polling: bool = True):
        # Polling mode reports completion via STATUS; patched mode rings
        # the pcim doorbell.
        super().__init__(name, interfaces, doorbell=not polling)
        self.polling = polling

    def kernel(self):
        src = self.regs[REG_SRC]
        dst = self.regs[REG_DST]
        n_words = self.regs[REG_WORDS]
        for i in range(n_words):
            word = self.dram.read_word(src + 64 * i)
            self.dram.write_word(dst + 64 * i, word)
            yield 1
        if self.polling:
            # The cycle-dependent construct of §3.6: DONE becomes visible to
            # MMIO polls the instant the copy finishes, with no boundary
            # transaction ordering the flip — exactly what transaction
            # determinism cannot pin down across record and replay. The
            # engine then sits idle (housekeeping) before the mirror write,
            # so polls landing in that window race the completion.
            self.regs[REG_STATUS] = 1
            yield POST_DONE_IDLE
        mirror = min(n_words, MIRROR_WORDS)
        if mirror:
            payload = self.dram.read_bytes(dst, mirror * 64)
            yield ("write_host", MIRROR_HOST_ADDR, payload)


def host_program(result: dict, seed: int, n_words: int = 64,
                 poll_interval: int = 150, polling: bool = True,
                 n_tasks: int = 1, doorbell_base: int = 0):
    """The CPU side: per task — load, start, await completion, read, verify.

    With ``polling=True`` completion is observed by MMIO status polls; with
    the §3.6 patch applied (``polling=False``) the host blocks on the pcim
    doorbell counter instead. ``doorbell_base`` is the completion count
    already rung before this program starts (used when resuming from a
    checkpoint).
    """
    rng = random.Random(seed)
    polls = 0
    ok = True
    for task in range(n_tasks):
        # Task sizes vary, so completion drifts against the polling grid —
        # the same physical-timing dependence the real application has.
        task_words = n_words + rng.randrange(max(n_words // 2, 1))
        data = random_bytes(rng, task_words * 64)
        yield DmaWrite(SRC_BASE, data)
        yield MmioWrite("ocl", REG_SRC * 4, SRC_BASE)
        yield MmioWrite("ocl", REG_DST * 4, DST_BASE)
        yield MmioWrite("ocl", REG_WORDS * 4, task_words)
        yield MmioWrite("ocl", REG_CTRL * 4, 1)
        if polling:
            while True:
                status = yield MmioRead("ocl", REG_STATUS * 4)
                polls += 1
                if status & 1:
                    break
                yield WaitCycles(poll_interval)
        else:
            expect = doorbell_base + task + 1
            yield WaitHostWord(DOORBELL_ADDR, lambda w, e=expect: w >= e)
        readback = yield DmaRead(DST_BASE, len(data))
        ok = ok and readback == data
        result["expected"] = data
        result["readback"] = readback
        # CPU-side verification of the readback (software time per word).
        yield WaitCycles(2 * task_words)
    result["polls"] = polls
    result["ok"] = ok


def check(result: dict) -> None:
    """Golden check: the copied region equals the source buffer."""
    assert result.get("ok"), "DRAM DMA readback mismatch"


def make(polling: bool = True):
    """Factory pair (accelerator, host program) for the registry."""
    def accelerator_factory(interfaces: Dict) -> DramDma:
        return DramDma("dram_dma", interfaces, polling=polling)

    def host_factory(result: dict, seed: int, scale: float = 1.0):
        return host_program(result, seed, n_words=max(8, int(24 * scale)),
                            polling=polling,
                            n_tasks=max(1, int(4 * scale)))

    return accelerator_factory, host_factory
