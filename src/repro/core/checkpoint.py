"""Checkpointing and partial record/replay (the §7 StateLink synergy).

The paper's related-work section sketches a synergy with checkpointing
tools: "Vidi allows users to partially record an execution starting from a
checkpoint". This module implements that workflow for the simulated
platform:

1. run an application to a *quiescent point* (kernel idle, no in-flight
   transactions, DMA engines drained),
2. snapshot the accelerator's architectural state (on-FPGA DRAM, register
   file, completion counters) — the state a StateLink-style tool would
   extract via scan/readback,
3. later, restore the snapshot into a fresh deployment and record or
   replay only the execution *suffix*.

Replaying a suffix trace against the matching checkpoint recreates the
same outputs as the original full execution produced after the checkpoint
— without recording the (potentially enormous) prefix.

Checkpoints capture architectural state only, which is why quiescence is
required: in-flight microarchitectural state (half-done handshakes, kernel
generators mid-yield) is deliberately out of scope, exactly like
checkpoint/restore tools for real FPGAs ("Feel Free to Interrupt",
TRETS'20).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigError


@dataclass
class Checkpoint:
    """Architectural snapshot of an accelerator at a quiescent point."""

    dram_words: Dict[int, int] = field(default_factory=dict)
    registers: Dict[int, int] = field(default_factory=dict)
    doorbell_count: int = 0
    cycle: int = 0
    host_words: Dict[int, int] = field(default_factory=dict)

    @property
    def dram_bytes(self) -> int:
        """Rough checkpoint size: populated DRAM words times word size."""
        return len(self.dram_words) * 64


def _assert_quiescent(deployment) -> None:
    accelerator = deployment.accelerator
    if getattr(accelerator, "_kernel", None) is not None:
        raise ConfigError("checkpoint requires an idle kernel")
    pcim = getattr(accelerator, "pcim", None)
    if pcim is not None and not pcim.idle:
        raise ConfigError("checkpoint requires drained DMA engines")
    if deployment.cpu is not None:
        for port in deployment.cpu.mmio_ports.values():
            if not port.idle:
                raise ConfigError("checkpoint requires idle MMIO ports")
        if deployment.cpu.dma is not None and not deployment.cpu.dma.idle:
            raise ConfigError("checkpoint requires an idle host DMA engine")


def take_checkpoint(deployment) -> Checkpoint:
    """Snapshot a deployment's accelerator at a quiescent point.

    Raises :class:`~repro.errors.ConfigError` when the design is not
    quiescent — the same restriction real FPGA checkpointing tools impose.
    """
    _assert_quiescent(deployment)
    accelerator = deployment.accelerator
    return Checkpoint(
        dram_words=dict(accelerator.dram._words),
        registers={i: accelerator.regs[i]
                   for i in range(accelerator.regs.num_regs)},
        doorbell_count=getattr(accelerator, "doorbell_count", 0),
        cycle=deployment.sim.cycle,
        host_words=dict(deployment.host_memory._words)
        if deployment.host_memory is not None else {},
    )


def checkpoint_to_dict(checkpoint: Checkpoint) -> Dict:
    """JSON-serializable form of a checkpoint (v3 ANCHOR frames).

    Word-map keys become strings because JSON objects cannot hold integer
    keys; :func:`checkpoint_from_dict` reverses this exactly.
    """
    return {
        "dram_words": {str(a): v for a, v in checkpoint.dram_words.items()},
        "registers": {str(a): v for a, v in checkpoint.registers.items()},
        "doorbell_count": checkpoint.doorbell_count,
        "cycle": checkpoint.cycle,
        "host_words": {str(a): v for a, v in checkpoint.host_words.items()},
    }


def checkpoint_from_dict(data: Dict) -> Checkpoint:
    """Rebuild a checkpoint from :func:`checkpoint_to_dict` output."""
    return Checkpoint(
        dram_words={int(a): v for a, v in data["dram_words"].items()},
        registers={int(a): v for a, v in data["registers"].items()},
        doorbell_count=data["doorbell_count"],
        cycle=data["cycle"],
        host_words={int(a): v for a, v in data["host_words"].items()},
    )


def restore_checkpoint(deployment, checkpoint: Checkpoint,
                       restore_host: bool = True) -> None:
    """Load a snapshot into a fresh (not-yet-run) deployment."""
    if deployment.sim.cycle != 0:
        raise ConfigError("restore into a freshly built deployment")
    accelerator = deployment.accelerator
    accelerator.dram._words.clear()
    accelerator.dram._words.update(checkpoint.dram_words)
    for index, value in checkpoint.registers.items():
        accelerator.regs[index] = value
    accelerator.doorbell_count = checkpoint.doorbell_count
    if restore_host and deployment.host_memory is not None:
        deployment.host_memory._words.clear()
        deployment.host_memory._words.update(checkpoint.host_words)
