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
    ``self.enabled``, ``self._committed`` and ``encoder.grant()``. The latter
    three only affect the output while a transaction is active (``up.valid`` high
    or an end reservation held) — when the upstream is idle ``present`` is 0
    regardless — so ``seq()`` wakes the monitor exactly while active, and the
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
        if not self.enabled and not self._committed:
            present = up.valid.value   # pure pass-through while disabled
        elif self.eager_reservation:
            present = up.valid.value and (self._committed or self.encoder.grant())
        else:
            present = up.valid.value
        if present and self.fault_stalled and not self._committed:
            present = 0   # injected stall: gate new transactions only
        if present:
            down.valid.drive(1)
            down.payload.drive(up.payload.value)
            up.ready.drive(down.ready.value)
        else:
            down.valid.drive(0)
            down.payload.drive(up.payload.value)
            up.ready.drive(0)

    def seq(self) -> None:
        up, down = self.up, self.down
        if not up.valid._value and not down.valid._value \
                and not self._committed:
            return   # channel idle: no stall, no commit, no end, no wake
        presented = bool(down.valid.value)
        if up.valid.value and not presented:
            self.stalled_cycles += 1
        if presented and not self._committed and self.enabled:
            # First cycle this transaction is visible downstream.
            if self.direction == "in":
                self.encoder.record_start(self.index, up.payload_bytes())
            else:
                self.encoder.reserve_end(self.index)
            self._committed = True
        if down.fired:
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
            self.transactions += 1
        if up.valid.value or self._committed:
            # Active transaction: grant()/_committed may change the comb
            # output next cycle, so stay on the work-list while engaged.
            self.wake()

    def reset_state(self) -> None:
        super().reset_state()
        self._committed = False
        self.transactions = 0
        self.stalled_cycles = 0
        self.fault_stalled = False
