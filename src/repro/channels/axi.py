"""AXI4 and AXI4-Lite interface bundles, sized like the AWS F1 interfaces.

An AXI *interface* groups five unidirectional channels: write address (AW),
write data (W), write response (B), read address (AR) and read data (R).
Channel directions depend on which side is the AXI *manager*:

* ``manager="cpu"`` (F1's sda/ocl/bar1 MMIO buses and the pcis DMA bus):
  AW/W/AR flow CPU→FPGA (inputs to the FPGA program), B/R flow back (outputs).
* ``manager="fpga"`` (F1's pcim DMA bus): the reverse.

Field widths reproduce the totals the paper reports in §5.5: one 32-bit
AXI-Lite interface monitors 136 bits of payload, one 512-bit AXI interface
monitors 1324 bits (its W channel, 593 bits, is the "largest AXI channel"
of §6), and all five together monitor 3056 bits.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.channels.handshake import Channel
from repro.channels.payload import Field, PayloadSpec
from repro.sim.module import Module

# ----------------------------------------------------------------------
# Payload layouts
# ----------------------------------------------------------------------

AXI_LITE_SPECS: Dict[str, PayloadSpec] = {
    # 32 + 36 + 2 + 32 + 34 = 136 bits, the paper's AXI-Lite monitored width.
    "aw": PayloadSpec([Field("addr", 32)]),
    "w": PayloadSpec([Field("data", 32), Field("strb", 4)]),
    "b": PayloadSpec([Field("resp", 2)]),
    "ar": PayloadSpec([Field("addr", 32)]),
    "r": PayloadSpec([Field("data", 32), Field("resp", 2)]),
}

AXI4_SPECS: Dict[str, PayloadSpec] = {
    # 91 + 593 + 18 + 91 + 531 = 1324 bits per 512-bit AXI4 interface.
    "aw": PayloadSpec([Field("addr", 64), Field("len", 8), Field("size", 3),
                       Field("id", 16)]),
    "w": PayloadSpec([Field("data", 512), Field("strb", 64), Field("last", 1),
                      Field("id", 16)]),
    "b": PayloadSpec([Field("id", 16), Field("resp", 2)]),
    "ar": PayloadSpec([Field("addr", 64), Field("len", 8), Field("size", 3),
                       Field("id", 16)]),
    "r": PayloadSpec([Field("data", 512), Field("id", 16), Field("resp", 2),
                      Field("last", 1)]),
}

CHANNEL_ORDER: Tuple[str, ...] = ("aw", "w", "b", "ar", "r")

# Channels the manager sends (the subordinate sends the rest).
_MANAGER_DRIVEN = frozenset({"aw", "w", "ar"})


class AxiInterface(Module):
    """A five-channel AXI interface with directions fixed by the manager side."""

    has_comb = False

    def __init__(self, name: str, specs: Dict[str, PayloadSpec],
                 manager: str = "cpu"):
        super().__init__(name)
        if manager not in ("cpu", "fpga"):
            raise ValueError(f"manager must be 'cpu' or 'fpga', got {manager!r}")
        self.manager = manager
        self.channels: Dict[str, Channel] = {}
        for channel_name in CHANNEL_ORDER:
            cpu_sends = channel_name in _MANAGER_DRIVEN
            if manager == "fpga":
                cpu_sends = not cpu_sends
            direction = "in" if cpu_sends else "out"
            channel = Channel(f"{name}.{channel_name}", specs[channel_name],
                              direction=direction)
            self.channels[channel_name] = channel
            self.submodule(channel)
        # Plain attributes, not properties: per-cycle code reads them.
        self.aw, self.w, self.b, self.ar, self.r = (
            self.channels[n] for n in CHANNEL_ORDER)

    # ------------------------------------------------------------------
    def channel_list(self) -> List[Channel]:
        """The five channels in canonical AW, W, B, AR, R order."""
        return [self.channels[n] for n in CHANNEL_ORDER]

    @property
    def payload_width(self) -> int:
        """Total payload bits across the five channels (the §5.5 metric)."""
        return sum(ch.spec.width for ch in self.channels.values())

    def input_channels(self) -> List[Channel]:
        """Channels on which the FPGA program is the receiver."""
        return [ch for ch in self.channel_list() if ch.direction == "in"]

    def output_channels(self) -> List[Channel]:
        """Channels on which the FPGA program is the sender."""
        return [ch for ch in self.channel_list() if ch.direction == "out"]


def axi_lite_interface(name: str, manager: str = "cpu") -> AxiInterface:
    """A 32-bit AXI4-Lite interface (F1's sda/ocl/bar1 MMIO buses)."""
    return AxiInterface(name, AXI_LITE_SPECS, manager=manager)


def axi4_interface(name: str, manager: str = "cpu") -> AxiInterface:
    """A 512-bit AXI4 interface (F1's pcis/pcim DMA buses)."""
    return AxiInterface(name, AXI4_SPECS, manager=manager)


def total_payload_width(interfaces: Iterable[AxiInterface]) -> int:
    """Summed monitored payload width, the x-axis of the paper's Fig. 7."""
    return sum(interface.payload_width for interface in interfaces)
