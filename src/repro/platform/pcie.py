"""PCIe bandwidth arbiter: the shared link between host and FPGA.

The F1's PCIe complex sustains ~5.5 GB/s effective (≈22 bytes per 250 MHz
cycle, the figure §6 uses). Every data beat the host DMA engines or the
host end of pcim move crosses that link, and — per §4.1 — Vidi's
trace store is multiplexed onto the *same* interface through an
AXI-Interconnect. This arbiter models the shared capacity:

* application traffic has priority: engines draw 64-byte beat credits from
  an accumulating budget;
* the trace store gets whatever the application left unused in the
  previous cycle. When both sides saturate, the store starves briefly,
  its staging fills, Vidi's back-pressure pauses new transactions, the
  application's demand dips, and the store catches up — the oscillation
  that shows up as the few-percent recording overhead of Table 1.
"""

from __future__ import annotations

from repro.sim.module import Module

PCIE_BYTES_PER_CYCLE = 22.0
"""Effective F1 PCIe bandwidth at the 250 MHz design clock (5.5 GB/s)."""

BEAT_BYTES = 64


class PcieArbiter(Module):
    """Cycle-granular bandwidth ledger shared by DMA engines and the store.

    Must be added to the simulator *before* every module that calls it, so
    its sequential process rolls the ledger at the top of each cycle.
    """

    has_comb = False

    def __init__(self, name: str, capacity: float = PCIE_BYTES_PER_CYCLE):
        super().__init__(name)
        self.capacity = capacity
        self._credit = 0.0
        self._credit_cap = 4 * BEAT_BYTES
        self._app_used_this_cycle = 0
        self._app_used_last_cycle = 0
        self.total_app_bytes = 0
        # Fields, not methods, for the store's per-cycle drain: it reads
        # store_budget (the bytes per cycle the application left unused
        # last cycle, set by seq()) and adds what it drains to
        # total_store_bytes.
        self.total_store_bytes = 0
        self.store_budget = max(0.0, capacity)
        # On link-idle cycles seq() only accrues credit; once the credit
        # sits at its cap there is nothing left to do.
        self.seq_idle_when(("falsy", "_app_used_this_cycle"),
                           ("falsy", "_app_used_last_cycle"),
                           ("sync", "_credit", "_credit_cap"))

    def seq(self) -> None:
        self._app_used_last_cycle = self._app_used_this_cycle
        self._app_used_this_cycle = 0
        self.store_budget = max(0.0, self.capacity - self._app_used_last_cycle)
        # Accumulate fractional credit; cap at a few beats so idle periods
        # cannot bank unbounded burst capacity.
        self._credit = min(self._credit + self.capacity, 4 * BEAT_BYTES)

    # ------------------------------------------------------------------
    def request_app(self, nbytes: int = BEAT_BYTES) -> bool:
        """Application-side transfer request; True when granted."""
        if self._credit >= nbytes:
            self._credit -= nbytes
            self._app_used_this_cycle += nbytes
            self.total_app_bytes += nbytes
            return True
        return False

    def reset_state(self) -> None:
        super().reset_state()
        self._credit = 0.0
        self._app_used_this_cycle = 0
        self._app_used_last_cycle = 0
        self.total_app_bytes = 0
        self.total_store_bytes = 0
        self.store_budget = max(0.0, self.capacity)
