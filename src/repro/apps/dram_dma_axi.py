"""DRAM DMA variant with an AXI-attached DDR4 bus (§4.1 customisation).

Identical host-visible behaviour to the interrupt-patched DRAM DMA, but
the kernel reaches on-FPGA DRAM through a monitored DDR4 AXI interface
instead of a direct memory port — the configuration the paper built to
show that "a developer can customize Vidi to include or exclude other
AXI-like interfaces ... with only 13 additional lines of code per
interface". With ``ddr4`` in the monitored set, the kernel's DRAM traffic
is recorded and replayed like any boundary interface, so replay does not
even need the DRAM controller.
"""

from __future__ import annotations

from typing import Dict

from repro.apps import dram_dma
from repro.apps.base import REG_ARG0, Accelerator
from repro.apps.dram_dma import MIRROR_HOST_ADDR, MIRROR_WORDS
from repro.apps.hostlib import random_bytes

REG_SRC = REG_ARG0
REG_DST = REG_ARG0 + 1
REG_WORDS = REG_ARG0 + 2


class DramDmaAxi(Accelerator):
    """Copy engine whose DRAM port is a monitored DDR4 AXI interface."""

    def __init__(self, name: str, interfaces):
        super().__init__(name, interfaces, doorbell=True)

    def kernel(self):
        src = self.regs[REG_SRC]
        dst = self.regs[REG_DST]
        n_words = self.regs[REG_WORDS]
        # Burst-copy through the DDR4 bus, 8 words at a time.
        offset = 0
        while offset < n_words:
            take = min(8, n_words - offset)
            words = yield ("ddr_read", src + 64 * offset, take)
            payload = b"".join(w.to_bytes(64, "little") for w in words[:take])
            yield ("ddr_write", dst + 64 * offset, payload)
            offset += take
        mirror = min(n_words, MIRROR_WORDS)
        if mirror:
            words = yield ("ddr_read", dst, mirror)
            payload = b"".join(w.to_bytes(64, "little")
                               for w in words[:mirror])
            yield ("write_host", MIRROR_HOST_ADDR, payload)


def host_program(result: dict, seed: int, n_words: int = 24,
                 n_tasks: int = 2):
    """Host side: verify through the pcim mirror, not a pcis readback.

    With DRAM behind the monitored DDR4 bus, *every* access to it must
    cross a monitored interface; a direct pcis readback of the destination
    region would bypass the boundary and could not be recreated from the
    trace. The mirror write (pcim -> host memory) is the boundary-
    consistent result path, so the host checks that.
    """
    import random

    from repro.apps.base import DOORBELL_ADDR, REG_CTRL
    from repro.platform.cpu import (
        DmaWrite,
        HostMemRead,
        MmioWrite,
        WaitHostWord,
    )

    rng = random.Random(seed)
    ok = True
    for task in range(n_tasks):
        data = random_bytes(rng, n_words * 64)
        yield DmaWrite(dram_dma.SRC_BASE, data)
        yield MmioWrite("ocl", REG_SRC * 4, dram_dma.SRC_BASE)
        yield MmioWrite("ocl", REG_DST * 4, dram_dma.DST_BASE)
        yield MmioWrite("ocl", REG_WORDS * 4, n_words)
        yield MmioWrite("ocl", REG_CTRL * 4, 1)
        expect = task + 1
        yield WaitHostWord(DOORBELL_ADDR, lambda w, e=expect: w >= e)
        mirror_len = min(n_words, MIRROR_WORDS) * 64
        mirrored = yield HostMemRead(MIRROR_HOST_ADDR, mirror_len)
        ok = ok and mirrored == data[:mirror_len]
        result["expected"] = data[:mirror_len]
        result["readback"] = mirrored
    result["ok"] = ok


def make():
    """Factory pair for the harness."""
    def accelerator_factory(interfaces: Dict) -> DramDmaAxi:
        return DramDmaAxi("dram_dma_axi", interfaces)

    def host_factory(result: dict, seed: int, scale: float = 1.0):
        return host_program(result, seed, n_words=max(8, int(24 * scale)),
                            n_tasks=max(1, int(2 * scale)))

    return accelerator_factory, host_factory
