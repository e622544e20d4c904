"""§5.3 testing case study: the ping/pong echo server behind axi_atop_filter.

The FPGA component receives PCIe DMA writes ("pings") into on-FPGA DRAM and
writes the same data back to host memory over pcim ("pongs"). The pong path
runs through the unchanged, buggy ``axi_atop_filter``
(:class:`repro.channels.atop_filter.AtopFilter`), which assumes the
write-address transaction always ends before the write-data transactions.
Ordinary executions — real hardware and simulation alike — always satisfy
that assumption, so the bug never fires in traditional testing. Replaying a
Vidi trace whose W-end was *mutated* to precede the AW-end drives the filter
into its deadlock deterministically (§5.3's workflow).
"""

from __future__ import annotations

import random
from typing import Dict

from repro.apps.base import DOORBELL_ADDR, REG_ARG0, Accelerator
from repro.apps.hostlib import random_bytes
from repro.channels.atop_filter import AtopFilter
from repro.platform.cpu import DmaWrite, HostMemRead, MmioWrite, WaitHostWord
from repro.apps.base import REG_CTRL

REG_SRC = REG_ARG0          # ping region in on-FPGA DRAM
REG_HOST_DST = REG_ARG0 + 1  # pong destination in host memory
REG_N_WORDS = REG_ARG0 + 2

PING_BASE = 0x0_0000
PONG_HOST_BASE = 0x2_0000


class _FilteredPcim:
    """The accelerator's view of pcim with AW/W/B re-routed through a filter."""

    def __init__(self, filt: AtopFilter, real):
        self.aw = filt.us_aw
        self.w = filt.us_w
        self.b = filt.us_b
        self.ar = real.ar
        self.r = real.r


class AtopEcho(Accelerator):
    """Echo server whose write-back path crosses the atop filter."""

    def __init__(self, name: str, interfaces, buggy: bool = True):
        pcim = interfaces["pcim"]
        self.filter = AtopFilter(f"{name}.atop", pcim.aw, pcim.w, pcim.b,
                                 buggy=buggy)
        filtered = dict(interfaces)
        filtered["pcim"] = _FilteredPcim(self.filter, pcim)
        super().__init__(name, filtered, doorbell=True)
        self.submodule(self.filter)

    def kernel(self):
        src = self.regs[REG_SRC]
        host_dst = self.regs[REG_HOST_DST]
        n_words = self.regs[REG_N_WORDS]
        payload = self.dram.read_bytes(src, 64 * n_words)
        yield n_words   # stream the pings out of DRAM
        yield ("write_host", host_dst, payload)   # the pong, via the filter


def host_program(result: dict, seed: int, n_words: int = 24):
    """Ping, start, await the doorbell, then validate the pong in host DRAM."""
    rng = random.Random(seed)
    payload = random_bytes(rng, 64 * n_words)
    yield DmaWrite(PING_BASE, payload)
    yield MmioWrite("ocl", REG_SRC * 4, PING_BASE)
    yield MmioWrite("ocl", REG_HOST_DST * 4, PONG_HOST_BASE)
    yield MmioWrite("ocl", REG_N_WORDS * 4, n_words)
    yield MmioWrite("ocl", REG_CTRL * 4, 1)
    yield WaitHostWord(DOORBELL_ADDR, lambda w: bool(w & 1))
    pong = yield HostMemRead(PONG_HOST_BASE, len(payload))
    result["expected"] = payload
    result["pong"] = pong
    result["ok"] = pong == payload


def check(result: dict) -> None:
    """Golden check: the pong equals the ping."""
    assert result.get("ok"), "atop echo pong mismatch"


def make(buggy: bool = True, n_words: int = 24):
    """Factory pair for the harness."""
    def accelerator_factory(interfaces: Dict) -> AtopEcho:
        return AtopEcho("atop_echo", interfaces, buggy=buggy)

    def host_factory(result: dict, seed: int, scale: float = 1.0):
        return host_program(result, seed, n_words=max(8, int(n_words * scale)))

    return accelerator_factory, host_factory
