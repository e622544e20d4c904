"""AWS-F1-like platform model: shell, interfaces, CPU, DMA, host memory.

This subpackage is the reproduction's substitute for the physical F1
instance: it provides the five CPU↔FPGA AXI interfaces, a CPU model that
executes host programs (with seeded timing non-determinism), DMA engines on
both sides, one AXI4 memory subordinate that serves pcis, the host end of
pcim and the DDR4 controller, host DRAM, and the :class:`F1Deployment`
wrapper that wires an accelerator and a Vidi shim into one simulated
system.
"""

from repro.platform.axi_manager import AxiManager
from repro.platform.axi_subordinate import AxiLiteSubordinate, AxiSubordinate
from repro.platform.cpu import (
    CpuModel,
    DmaRead,
    DmaWrite,
    HostMemRead,
    MmioRead,
    MmioWrite,
    WaitCycles,
    WaitHostWord,
)
from repro.platform.env import EnvironmentMode
from repro.platform.interfaces import make_f1_interfaces
from repro.platform.shell import F1Deployment
from repro.platform.stream import StreamCollector, StreamDriver

__all__ = [
    "AxiLiteSubordinate",
    "AxiManager",
    "AxiSubordinate",
    "CpuModel",
    "DmaRead",
    "DmaWrite",
    "EnvironmentMode",
    "F1Deployment",
    "HostMemRead",
    "MmioRead",
    "MmioWrite",
    "StreamCollector",
    "StreamDriver",
    "WaitCycles",
    "WaitHostWord",
    "make_f1_interfaces",
]
