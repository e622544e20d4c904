"""Trace encoder: aggregates channel-monitor reports into cycle packets (§3.2).

The encoder exposes two faces:

* a **combinational grant** — ``grant()`` — queried by channel monitors while
  the cycle's logic settles. It answers: "if a transaction event needed
  logging this cycle, is it guaranteed to fit?" The answer is computed from
  the trace store's state at the start of the cycle plus the outstanding
  *eager reservations*, with a conservative worst-case-cycle margin so any
  combination of simultaneously granted monitors still fits. Being a pure
  function of cycle-start state keeps it stable across delta passes.

* a **sequential collector** — ``record_start`` / ``reserve_end`` /
  ``record_end`` — called from the monitors' sequential processes once
  signals have settled. At its own sequential step (scheduled *after* all
  monitors; the shim guarantees the ordering) the encoder serializes the
  accumulated cycle packet and pushes it into the trace store.

The eager-reservation protocol is the heart of the §3.1 correctness story:
when a monitor lets a transaction begin, the encoder sets aside enough
staging bytes for that transaction's eventual end record, so the end event
can always be logged in the exact cycle it fires — the store may back-pressure
*starts*, never *ends*.
"""

from __future__ import annotations

from typing import List

from typing import Optional

from repro.core.events import ChannelTable
from repro.core.packets import CyclePacket, DedupDict
from repro.core.store import TraceStore
from repro.errors import SimulationError
from repro.sim.module import Module


class TraceEncoder(Module):
    """Builds one cycle packet per eventful cycle and streams it to the store."""

    has_comb = False

    def __init__(self, name: str, table: ChannelTable, store: TraceStore,
                 record_output_contents: bool = True,
                 dedup: Optional[DedupDict] = None):
        super().__init__(name)
        self.table = table
        self.store = store
        self.record_output_contents = record_output_contents
        # Flight-recorder content dedup: when set, packets are dictionary-
        # coded at serialize time (repeat payloads become 2-byte backrefs)
        # before they reach the store — shrinking staged bytes shrinks
        # stalls too. Reservation accounting stays conservative: grants
        # assume the undeduped worst case, so back-pressure timing can only
        # relax, never break.
        self.dedup = dedup
        self.bytes_flat = 0   # what the un-deduped encoding would have cost
        self._packet = CyclePacket()
        self._stage = bytearray()   # reusable serialization buffer
        self._reserved_bytes = 0
        self._header_bytes = 2 * table.bitvec_bytes
        # Worst case a single cycle can add beyond existing reservations:
        # one packet header, every input channel starting at once (content),
        # plus the eager end-record reservations those admissions take out
        # (inputs on record_start, outputs on reserve_end).
        self._worst_cycle_cost = (
            self._header_bytes
            + sum(table[i].content_bytes for i in table.input_indices)
            + sum(self._end_cost(i) for i in range(table.n))
        )
        self.packets_emitted = 0
        self.events_recorded = 0
        self.enabled = True
        # seq() only serializes a non-empty cycle packet (is_empty is
        # exactly "no starts and no ends"); also the encoder's wake hint.
        self.seq_idle_when(("falsy", "_packet.starts"),
                           ("falsy", "_packet.ends"))
        # Ablation A1: when monitors bypass the reservation protocol the
        # encoder can face a packet it has no staging room for; instead of
        # violating the store invariant it drops the packet and counts the
        # lost events — exactly the data loss cycle-accurate tools exhibit.
        self.drop_on_overflow = False
        self.dropped_events = 0

    # ------------------------------------------------------------------
    # reservation accounting
    # ------------------------------------------------------------------
    def _end_cost(self, index: int) -> int:
        """Staging bytes reserved for channel ``index``'s future end record."""
        cost = self._header_bytes
        if self.record_output_contents and not self.table.is_input(index):
            cost += self.table[index].content_bytes
        return cost

    # ------------------------------------------------------------------
    # combinational face (pure within a cycle)
    # ------------------------------------------------------------------
    def grant(self) -> bool:
        """May a monitor admit a new transaction this cycle?

        True when staging can absorb the worst simultaneous burst of newly
        granted events on top of every outstanding reservation.
        """
        if not self.enabled:
            return True
        return self.store.free - self._reserved_bytes >= self._worst_cycle_cost

    # ------------------------------------------------------------------
    # sequential face (called from monitor seq, then our own seq)
    # ------------------------------------------------------------------
    def record_start(self, index: int, content: bytes) -> None:
        """Log an input transaction start + content; reserves its end slot."""
        info = self.table[index]
        if info.direction != "in":
            raise SimulationError(f"start recorded on output channel {info.name}")
        if len(content) != info.content_bytes:
            raise SimulationError(
                f"channel {info.name}: content is {len(content)} bytes, "
                f"spec says {info.content_bytes}"
            )
        self._packet.starts |= 1 << index
        self._packet.contents[index] = content
        self._reserved_bytes += self._end_cost(index)
        self.events_recorded += 1

    def reserve_end(self, index: int) -> None:
        """Eagerly reserve the end-record slot for an output transaction."""
        self._reserved_bytes += self._end_cost(index)

    def record_end(self, index: int, content: bytes | None = None) -> None:
        """Log a transaction end; releases the eager reservation."""
        self._packet.ends |= 1 << index
        if content is not None and self.record_output_contents:
            self._packet.validation[index] = content
        self._reserved_bytes -= self._end_cost(index)
        if self._reserved_bytes < 0:
            raise SimulationError(
                f"encoder {self.name!r}: reservation accounting went negative"
            )
        self.events_recorded += 1

    # ------------------------------------------------------------------
    def seq(self) -> None:
        packet = self._packet
        if packet.is_empty:
            return
        # Serialize into the reusable staging buffer: one allocation per
        # eventful cycle (the final bytes() the store keeps) instead of one
        # per field plus a join.
        stage = self._stage
        stage.clear()
        flat = packet.serialize_into(stage, self.table,
                                     self.record_output_contents,
                                     dedup=self.dedup)
        if flat is not None:
            self.bytes_flat += flat
        if self.drop_on_overflow and len(stage) > self.store.free:
            self.dropped_events += bin(packet.starts).count("1")
            self.dropped_events += bin(packet.ends).count("1")
        else:
            # The reservation protocol guarantees this never overflows.
            self.store.accept(bytes(stage))
            self.packets_emitted += 1
        packet.clear()

    def reset_dedup(self) -> None:
        """Start a fresh dedup epoch (mirrors the decoder's ANCHOR reset)."""
        if self.dedup is not None:
            self.dedup.clear()

    def reset_state(self) -> None:
        super().reset_state()
        self._packet = CyclePacket()
        self._stage.clear()
        self._reserved_bytes = 0
        self.packets_emitted = 0
        self.events_recorded = 0
        self.dropped_events = 0
        self.bytes_flat = 0
        if self.dedup is not None:
            self.dedup.clear()
            self.dedup.hits = 0
            self.dedup.inserts = 0
            self.dedup.evictions = 0
