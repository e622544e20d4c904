"""Channel monitor: transparent interposition on one channel (§3.1).

A monitor splits a channel into an *upstream* side (facing the original
sender) and a *downstream* side (facing the original receiver) and forwards
the handshake combinationally, so an unobstructed transaction costs zero
extra cycles. On top of the forwarding it implements coarse-grained input
recording:

* **input channels** (the FPGA program receives): the start event and the
  content are logged with the trace encoder in the first cycle the payload
  is presented downstream — and presentation itself is *gated* on the
  encoder's grant, which doubles as the eager reservation of the eventual
  end record. The upstream handshake completes in exactly the cycle the
  downstream one does, so sender, receiver and encoder all observe a single
  well-defined end event.

* **output channels** (the FPGA program sends): only the end event is
  logged (plus the content, when output validation is enabled for
  divergence detection). The monitor withholds the downstream VALID until
  the end-record reservation is held, guaranteeing the end can be logged in
  its exact cycle.

The monitor never buffers payloads and never reorders or drops
transactions; the property-based tests in ``tests/test_monitor.py`` play the
role of the SystemVerilog Assertions the paper discharged with JasperGold.
"""

from __future__ import annotations

from repro.channels.handshake import Channel
from repro.core.encoder import TraceEncoder
from repro.sim.module import Module


class ChannelMonitor(Module):
    """Interposes on one channel and reports its transaction events.

    Scheduling: ``comb()`` reads the three wire inputs (declared below) plus
    ``_enabled``, ``_committed``, ``fault_stalled`` and ``encoder.grant()``.
    Its output moves without a wire moving only when ``_committed`` flips
    or while a start waits on ``grant()`` (``up.valid`` high, ``down.valid``
    low), which reads the store's state; ``seq()`` wakes the monitor in
    exactly those cycles. A held transaction (committed, waiting for
    READY) is re-evaluated only when one of its wires moves. The
    ``enabled`` setter wakes on toggles.
    """

    comb_static = True

    def __init__(self, name: str, index: int, up: Channel, down: Channel,
                 encoder: TraceEncoder, direction: str,
                 eager_reservation: bool = True):
        super().__init__(name)
        if direction not in ("in", "out"):
            raise ValueError(f"monitor direction must be 'in'/'out', got {direction!r}")
        self.index = index
        self.up = up
        self.down = down
        self.encoder = encoder
        self.direction = direction
        # Ablation A1: with eager reservation disabled the monitor forwards
        # transactions regardless of encoder capacity, so end events can
        # arrive when the store cannot take them — the failure mode the
        # reservation protocol exists to prevent.
        self.eager_reservation = eager_reservation
        # §4.2 runtime library: recording can be enabled/disabled around
        # FPGA invocations. While disabled the monitor is a pure wire.
        # Toggling takes effect between transactions: an in-flight
        # transaction is always logged to completion.
        self._enabled = True
        self._committed = False   # start logged (input) / end slot reserved (output)
        self.transactions = 0
        self.stalled_cycles = 0   # cycles a sender waited on back-pressure
        # Fault-injection hook (repro.faults): while set, the monitor
        # refuses to present *new* transactions downstream — exactly the
        # shape of encoder-grant back-pressure, so an in-flight (committed)
        # transaction always completes and the handshake protocol holds.
        # Whoever toggles it must wake() the monitor.
        self.fault_stalled = False
        self.sensitive_to(up.valid, up.payload, down.ready)
        self.drives(down.valid, down.payload, up.ready)
        # Mirrors the seq() idle early-return below, inlined by the
        # compiled kernel so an idle channel costs no Python call at all,
        # and read by the time warp as the monitor's wake hint.
        self.seq_idle_when(("low", up.valid), ("low", down.valid),
                           ("falsy", "_committed"))

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        value = bool(value)
        if value != self._enabled:
            self._enabled = value
            self.wake()

    # ------------------------------------------------------------------
    def comb(self) -> None:
        up, down = self.up, self.down
        present = up.valid.value
        if present and not self._committed and (
                self.fault_stalled   # injected stall: gates new ones only
                or (self._enabled and self.eager_reservation
                    and not self.encoder.grant())):
            present = 0
        payload = up.payload.value
        ready = down.ready.value if present else 0
        # Drive only what moves: most settles change one wire or none.
        if down.valid.value != present:
            down.valid.drive(present)
        if down.payload.value != payload:
            down.payload.drive(payload)
        if up.ready.value != ready:
            up.ready.drive(ready)

    def seq(self) -> None:
        up, down = self.up, self.down
        valid = up.valid.value
        presented = down.valid.value
        if not valid and not presented and not self._committed:
            return   # channel idle: no stall, no commit, no end, no wake
        if valid and not presented:
            self.stalled_cycles += 1
            self.wake()   # a waiting start re-reads grant() next cycle
        if presented and not self._committed and self._enabled:
            # First cycle this transaction is visible downstream.
            if self.direction == "in":
                self.encoder.record_start(self.index, up.payload_bytes())
            else:
                self.encoder.reserve_end(self.index)
            self._committed = True
            self.wake()
        if presented and down.ready.value:
            # The three-way simultaneous completion: upstream handshake
            # (up.ready mirrored down.ready), downstream handshake, and the
            # end record — whose slot was reserved, so it cannot block.
            # Ends are logged exactly when their start was committed, so a
            # transaction that began while recording was disabled is never
            # half-recorded.
            if self._committed:
                content = (up.payload_bytes() if self.direction == "out"
                           else None)
                self.encoder.record_end(self.index, content)
                self._committed = False
                self.wake()
            self.transactions += 1

    def reset_state(self) -> None:
        super().reset_state()
        self._committed = False
        self.transactions = 0
        self.stalled_cycles = 0
        self.fault_stalled = False
