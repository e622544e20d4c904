"""Trace store: staging buffer, storage-word packing, bandwidth, back-pressure.

During recording the trace store accepts variable-sized cycle packets from
the trace encoder into an on-FPGA staging buffer (BRAM in the prototype) and
drains them toward external storage — host DRAM over PCIe DMA on F1 — at a
finite bandwidth, packed into fixed 64-byte storage words (§3.3).

When the staging buffer cannot absorb the worst-case events of a cycle, the
store signals back-pressure: the encoder stops granting new transaction
starts, the channel monitors stall the handshakes, and — because everything
is transaction-based — the application simply waits, with no loss and no
broken orderings. This is the mechanism §6 contrasts against
physical-timestamp tracers, which cannot pause without invalidating their
timestamps.

The per-cycle drain is integer credit arithmetic that only counts the
bytes leaving staging. Staging is one append-only buffer; its drained
front moves into external storage (``data``) when something reads or
frames it, which changes no simulated fact.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.module import Module

STORAGE_WORD_BYTES = 64
"""The fixed storage-interface granularity (F1 exposes 64-byte accesses)."""

# Defaults calibrated from the paper's §6 figures: 5.5 GB/s effective PCIe
# storage bandwidth at a 250 MHz design clock is 22 bytes per cycle.
DEFAULT_BANDWIDTH_BYTES_PER_CYCLE = 22.0
DEFAULT_STAGING_BYTES = 64 * 1024

CREDIT_SCALE = 256
"""Fixed-point scale for drain-credit accounting.

Fractional bandwidths (0.5 bytes/cycle, 22.0 minus an arbiter share, ...)
accumulate as integer multiples of 1/256 byte, so drains land on exactly the
same cycles on every platform — no float rounding drift across long runs.
"""


class TraceStore(Module):
    """Bandwidth-limited sink for encoded cycle packets.

    ``accept`` is called from the encoder's sequential process in the same
    cycle the events occurred; ``seq`` then drains up to the per-cycle
    bandwidth toward the external buffer. ``free`` only changes in these
    sequential steps, so combinational grant queries made by the encoder
    earlier in the cycle observe a stable value.
    """

    has_comb = False

    def __init__(self, name: str,
                 staging_bytes: int = DEFAULT_STAGING_BYTES,
                 bandwidth_bytes_per_cycle: float = DEFAULT_BANDWIDTH_BYTES_PER_CYCLE,
                 arbiter=None):
        super().__init__(name)
        # Optional shared-link arbiter (see repro.platform.pcie): when set,
        # each cycle's drain is capped by its store_budget field, the
        # bandwidth the application left unused, and the drained bytes add
        # to its total_store_bytes — the §4.1 AXI-Interconnect multiplexing.
        self.arbiter = arbiter
        if staging_bytes < STORAGE_WORD_BYTES:
            raise SimulationError(
                f"trace store {name!r}: staging must hold at least one "
                f"{STORAGE_WORD_BYTES}-byte word"
            )
        self.staging_bytes = staging_bytes
        self._fault_bandwidth_factor = 1.0
        # Also sets _drain_rate, the per-cycle drain in fixed point
        # (×CREDIT_SCALE), which the factor's setter keeps too.
        self.bandwidth = bandwidth_bytes_per_cycle
        # Bytes not yet in ``data``: a drained front + _staged_bytes staged.
        self._staging = bytearray()
        self._staged_bytes = 0
        # Fixed-point (×CREDIT_SCALE) integer credit; see CREDIT_SCALE.
        self._drain_credit = 0
        self._idle_credit_cap = round(4 * self.bandwidth * CREDIT_SCALE)
        self.data = bytearray()          # external storage (host DRAM model)
        self.total_packet_bytes = 0      # exact encoded trace length
        self.stall_cycles = 0            # cycles spent with staging full
        # Fault-injection hook (repro.faults): an attached injector may
        # corrupt external storage words at flush time (and a brownout
        # sets fault_bandwidth_factor).
        self.faults = None
        # With nothing staged, seq() only tops up the drain credit; once
        # the credit has saturated at its idle cap the call is a no-op.
        # The guard is also the store's time-warp hint, so a design steps
        # while the idle credit refills.
        self.seq_idle_when(("falsy", "_staged_bytes"),
                           ("sync", "_drain_credit", "_idle_credit_cap"))

    # ------------------------------------------------------------------
    @property
    def bandwidth(self) -> float:
        """Drain bandwidth toward external storage, in bytes per cycle."""
        return self._bandwidth

    @bandwidth.setter
    def bandwidth(self, value: float) -> None:
        self._bandwidth = value
        self._drain_rate = round(value * self._fault_bandwidth_factor
                                 * CREDIT_SCALE)

    @property
    def fault_bandwidth_factor(self) -> float:
        """Scale on the drain bandwidth: 1.0, or a brownout fault's factor
        while that fault is active."""
        return self._fault_bandwidth_factor

    @fault_bandwidth_factor.setter
    def fault_bandwidth_factor(self, value: float) -> None:
        self._fault_bandwidth_factor = value
        self._drain_rate = round(self._bandwidth * value * CREDIT_SCALE)

    @property
    def free(self) -> int:
        """Staging bytes currently available (back-pressure input)."""
        return self.staging_bytes - self._staged_bytes

    def accept(self, packet: bytes) -> None:
        """Stage one encoded cycle packet; capacity must have been granted."""
        size = len(packet)
        if size > self.staging_bytes - self._staged_bytes:
            raise SimulationError(
                f"trace store {self.name!r}: accept of {size} bytes "
                f"with only {self.free} free — reservation accounting broken"
            )
        self._staging += packet
        self._staged_bytes += size
        self.total_packet_bytes += size

    # ------------------------------------------------------------------
    def seq(self) -> None:
        bw_fp = self._drain_rate
        if self.arbiter is not None:   # its seq() ran first and set this
            # round() is monotone, so capping the rounded rate by the
            # rounded budget rounds the capped bandwidth, exactly.
            budget = round(self.arbiter.store_budget * CREDIT_SCALE)
            if budget < bw_fp:
                bw_fp = budget
        staged = self._staged_bytes
        credit = self._drain_credit + bw_fp
        if not staged:
            cap = self._idle_credit_cap
            self._drain_credit = credit if credit < cap else cap
            return
        if staged == self.staging_bytes:
            self.stall_cycles += 1
        spent = credit // CREDIT_SCALE
        if staged < spent:
            spent = staged
        self._staged_bytes = staged - spent
        self._drain_credit = credit - spent * CREDIT_SCALE
        if self.arbiter is not None:
            self.arbiter.total_store_bytes += spent

    def _settle(self) -> None:
        """Move the drained front of staging into external storage."""
        drained = len(self._staging) - self._staged_bytes
        if drained:
            self.data += self._staging[:drained]
            del self._staging[:drained]

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Drain everything instantly (end of a recording run)."""
        self._staged_bytes = 0
        self._settle()
        if self.faults is not None:
            # Storage-at-rest corruption happens *after* the drain: the
            # words were written correctly and rotted in external memory
            # before the container (and its CRCs) was assembled, so only
            # the semantic nets — packet decoding, replay protocol checks,
            # divergence detection — can catch it, never the frame CRCs.
            self.faults.corrupt_storage(self.data)

    @property
    def trace_bytes(self) -> bytes:
        """The encoded trace body drained so far (flush first)."""
        self._settle()
        return bytes(self.data)

    @property
    def storage_words(self) -> int:
        """64-byte storage words the trace occupies externally."""
        self._settle()
        return (len(self.data) + STORAGE_WORD_BYTES - 1) // STORAGE_WORD_BYTES

    @property
    def stored_size_bytes(self) -> int:
        """External footprint after storage-word rounding (Table 1's TS)."""
        return self.storage_words * STORAGE_WORD_BYTES

    def reset_state(self) -> None:
        super().reset_state()
        self._staging = bytearray()
        self._staged_bytes = 0
        self._drain_credit = 0
        self.data = bytearray()
        self.total_packet_bytes = 0
        self.stall_cycles = 0
        self.fault_bandwidth_factor = 1.0
