"""The ``axi_atop_filter`` of the testing case study (§5.3).

The real component (from the PULP platform's AXI library) interposes on an
AXI write path to filter atomic-operation transactions. The version the
paper tests carries a genuine bug: its bookkeeping assumes the *end* of the
write-address (AW) transaction always happens before the end of the last
write-data (W) beat. The AXI specification permits either order, and when a
W beat completes first the filter wedges and the write path deadlocks.

:class:`AtopFilter` reproduces the component as a transparent pass-through
on the AW/W/B triplet of an FPGA-managed interface (F1's pcim), with the
bug selectable: ``buggy=True`` latches a wedged state on the out-of-order
completion (matching the upstream repo before the fix), ``buggy=False``
implements the repaired bookkeeping that tolerates dangling W completions.
"""

from __future__ import annotations

from repro.channels.handshake import Channel
from repro.sim.module import Module


class AtopFilter(Module):
    """Pass-through write-path filter with an order-sensitivity bug.

    The filter owns fresh *upstream* channels (``us_aw``/``us_w``/``us_b``)
    that the accelerator drives, and forwards them to the given *downstream*
    channels at the record/replay boundary. All forwarding is combinational,
    so the filter adds no latency — until the bug trips and everything
    freezes.
    """

    def __init__(self, name: str, ds_aw: Channel, ds_w: Channel, ds_b: Channel,
                 buggy: bool = True):
        super().__init__(name)
        self.buggy = buggy
        self.ds_aw = ds_aw
        self.ds_w = ds_w
        self.ds_b = ds_b
        self.us_aw = self.submodule(
            Channel(f"{name}.us_aw", ds_aw.spec, direction=ds_aw.direction))
        self.us_w = self.submodule(
            Channel(f"{name}.us_w", ds_w.spec, direction=ds_w.direction))
        self.us_b = self.submodule(
            Channel(f"{name}.us_b", ds_b.spec, direction=ds_b.direction))
        self.wedged = False          # the deadlock latch (buggy mode only)
        self.outstanding_aw = 0      # AW ends not yet matched by a W-last end
        self.dangling_w = 0          # W-last ends not yet matched by an AW end
        self.forwarded_writes = 0
        self.sensitive_to(self.us_aw.valid, self.us_aw.payload, ds_aw.ready,
                          self.us_w.valid, self.us_w.payload, ds_w.ready,
                          ds_b.valid, ds_b.payload, self.us_b.ready)

    # ------------------------------------------------------------------
    def comb(self) -> None:
        alive = 0 if self.wedged else 1
        # AW: upstream sender -> downstream receiver.
        self.ds_aw.valid.drive(self.us_aw.valid.value & alive)
        self.ds_aw.payload.drive(self.us_aw.payload.value)
        self.us_aw.ready.drive(self.ds_aw.ready.value & alive)
        # W: upstream sender -> downstream receiver.
        self.ds_w.valid.drive(self.us_w.valid.value & alive)
        self.ds_w.payload.drive(self.us_w.payload.value)
        self.us_w.ready.drive(self.ds_w.ready.value & alive)
        # B: downstream sender -> upstream receiver.
        self.us_b.valid.drive(self.ds_b.valid.value & alive)
        self.us_b.payload.drive(self.ds_b.payload.value)
        self.ds_b.ready.drive(self.us_b.ready.value & alive)

    def seq(self) -> None:
        if self.wedged:
            return
        aw_end = self.ds_aw.fired
        w_end = self.ds_w.fired
        w_last = w_end and bool(
            self.ds_w.spec.extract(self.ds_w.payload.value, "last"))
        if aw_end:
            if self.dangling_w:
                self.dangling_w -= 1      # match an orphaned completed burst
                self.forwarded_writes += 1
            else:
                self.outstanding_aw += 1
        if w_end and self.outstanding_aw == 0 and self.buggy:
            # The bug: the filter's FSM assumes the address transaction has
            # always ended before any data beat ends; when a W end arrives
            # first it reads uninitialised bookkeeping and stops making
            # progress — modelled as a wedge latch.
            self.wedged = True
            self.wake()   # comb must drop every forwarded wire
            return
        if w_last:
            if self.outstanding_aw:
                self.outstanding_aw -= 1
                self.forwarded_writes += 1
            else:
                self.dangling_w += 1      # fixed filter: tolerate and match later

    def reset_state(self) -> None:
        super().reset_state()
        self.wedged = False
        self.outstanding_aw = 0
        self.dangling_w = 0
        self.forwarded_writes = 0
